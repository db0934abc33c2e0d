"""Claim suites: every closed-form value and bound the package reproduces.

Each claim compares a computed quantity against its expected value with an
explicit comparator and tolerance, so the CLI can print one line per claim
and exit nonzero if anything fails. Suites are named by the family of
fixtures they exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .accessible import RankOnePovm, acc_fid_objective, q_acc_upper_bound
from .constructions import (
    asymmetric_pair,
    commuting_subspace_pair,
    degenerate_observable,
    fourier_mub_pair,
    mub_triple_qubit,
    random_observable,
    random_povm,
    random_unitary,
    z_channel,
)
from .core import commutator_maxnorm, spectral_decompose
from .errors import ParamOutOfRangeError
from .incompatibility import (
    Measure,
    closed_form,
    commuting_fixture,
    directional_incompatibility,
    maximal_disturbance,
    pair_incompatibility,
    set_incompatibility,
)
from .optimize import OptimizerConfig

SUITES = (
    "mub-directional",
    "mub-symmetric",
    "commutation",
    "disturbance-ordering",
    "shared-eigenvectors",
    "triple",
    "luders",
    "zchannel",
    "degenerate-disturbance",
    "asymmetry",
    "accessible",
)

_ALL_MEASURES = (Measure.L1, Measure.FIDELITY, Measure.LINF)


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one verified claim."""

    suite: str
    name: str
    comparator: str  # "eq" | "le" | "ge"
    measured: float
    expected: float
    tol: float

    @property
    def passed(self) -> bool:
        if self.comparator == "eq":
            return abs(self.measured - self.expected) <= self.tol
        if self.comparator == "le":
            return self.measured <= self.expected + self.tol
        return self.measured >= self.expected - self.tol


def _light_config(seed: int, starts: int | None, tol: float | None) -> OptimizerConfig:
    return OptimizerConfig(
        n_random_starts=starts if starts is not None else 4,
        max_iterations=400,
        convergence_tol=tol if tol is not None else 1e-10,
        rng_seed=seed,
    )


def _symmetric(measure, obs_a, obs_b, config) -> float:
    return pair_incompatibility(measure, obs_a, obs_b, config, with_bounds=False).symmetric


def _suite_mub_directional(config_for) -> Iterable[ClaimResult]:
    for d in range(2, 9):
        obs_a, obs_b = fourier_mub_pair(d)
        value = directional_incompatibility(
            Measure.FIDELITY, obs_a, obs_b, config_for(d)
        ).value
        yield ClaimResult(
            "mub-directional",
            f"fidelity forward value, MUB pair d={d}",
            "eq",
            value,
            closed_form("fidelity_directional_max", d=d),
            1e-9,
        )


def _suite_mub_symmetric(config_for) -> Iterable[ClaimResult]:
    for d in range(2, 7):
        obs_a, obs_b = fourier_mub_pair(d)
        expected = 0.5 * (1.0 - 1.0 / d)
        for measure in _ALL_MEASURES:
            value = _symmetric(measure, obs_a, obs_b, config_for(d))
            yield ClaimResult(
                "mub-symmetric",
                f"{measure.value}-measure symmetric value, MUB pair d={d}",
                "eq",
                value,
                expected,
                1e-9,
            )


def _suite_commutation(config_for) -> Iterable[ClaimResult]:
    base = random_observable(3, 202)
    fixtures = [
        ("diagonal pair d=3", commuting_fixture(3)),
        (
            "observable with its own square d=3",
            (base, spectral_decompose(base.matrix @ base.matrix)),
        ),
        ("fully shared eigenvectors d=3", commuting_subspace_pair(3, 2)),
    ]
    for label, (obs_a, obs_b) in fixtures:
        worst = max(
            _symmetric(measure, obs_a, obs_b, config_for(5)) for measure in _ALL_MEASURES
        )
        yield ClaimResult(
            "commutation", f"all measures vanish, {label}", "le", worst, 0.0, 1e-9
        )
    for d in (2, 3):
        rng = np.random.default_rng(40 + d)
        pairs = []
        while len(pairs) < 4:
            obs_a = random_observable(d, rng)
            obs_b = random_observable(d, rng)
            if commutator_maxnorm(obs_a, obs_b) > 1e-3:
                pairs.append((obs_a, obs_b))
        weakest = min(
            directional_incompatibility(measure, a, b, config_for(d)).value
            for (a, b) in pairs
            for measure in _ALL_MEASURES
        )
        yield ClaimResult(
            "commutation",
            f"strict positivity on noncommuting pairs d={d}",
            "ge",
            weakest,
            1e-6,
            0.0,
        )


def _suite_disturbance_ordering(config_for) -> Iterable[ClaimResult]:
    for d in (2, 3, 4):
        rng = np.random.default_rng(70 + d)
        slack = -np.inf
        for _ in range(4):
            obs_a = random_observable(d, rng)
            obs_b = random_observable(d, rng)
            cfg = config_for(d)
            for measure in _ALL_MEASURES:
                fwd = directional_incompatibility(measure, obs_a, obs_b, cfg)
                kind = Measure.FIDELITY if measure is Measure.FIDELITY else Measure.L1
                ceiling = maximal_disturbance(
                    kind, obs_a, cfg, extra_seeds=(fwd.argmax,)
                ).value
                slack = max(slack, fwd.value - ceiling)
        yield ClaimResult(
            "disturbance-ordering",
            f"incompatibility below maximal disturbance d={d}",
            "le",
            slack,
            0.0,
            1e-8,
        )


def _suite_shared_eigenvectors(config_for) -> Iterable[ClaimResult]:
    for d, d_c in ((4, 1), (4, 2), (6, 3), (8, 5)):
        obs_a, obs_b = commuting_subspace_pair(d, d_c)
        value = _symmetric(Measure.FIDELITY, obs_a, obs_b, config_for(d))
        yield ClaimResult(
            "shared-eigenvectors",
            f"fidelity symmetric value, d={d} with {d_c} shared eigenvectors",
            "eq",
            value,
            closed_form("fidelity_shared_eigenvectors", d=d, d_c=d_c),
            1e-8,
        )


def _suite_triple(config_for) -> Iterable[ClaimResult]:
    triple = mub_triple_qubit()
    value = set_incompatibility(Measure.FIDELITY, triple, config_for(2))
    yield ClaimResult(
        "triple",
        "fidelity value of the unbiased qubit triple",
        "eq",
        value,
        (1.0 - 1.0 / 3.0) * (1.0 - 1.0 / 2.0),
        1e-8,
    )


def _suite_luders(config_for) -> Iterable[ClaimResult]:
    combos = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)]
    for idx, (d, n_a) in enumerate(combos):
        rng = np.random.default_rng(90 + idx)
        povm_a = random_povm(d, n_a, rng)
        povm_b = random_povm(d, int(rng.integers(2, 5)), rng)
        value = directional_incompatibility(
            Measure.FIDELITY, povm_a, povm_b, config_for(d)
        ).value
        yield ClaimResult(
            "luders",
            f"fidelity forward value vs outcome bound, d={d} N_A={n_a}",
            "le",
            value,
            closed_form("luders_fidelity_max", n_outcomes=n_a),
            1e-8,
        )


def _suite_zchannel(config_for) -> Iterable[ClaimResult]:
    for k in range(11):
        p = k / 10.0
        value = maximal_disturbance(
            Measure.FIDELITY, z_channel(p), config_for(2)
        ).value
        yield ClaimResult(
            "zchannel",
            f"fidelity disturbance of the p={p:.1f} phase-flip instrument",
            "eq",
            value,
            p,
            1e-9,
        )


def _suite_degenerate_disturbance(config_for) -> Iterable[ClaimResult]:
    for d, ranks in ((4, (2, 2)), (5, (2, 2, 1)), (6, (3, 1, 1, 1))):
        obs = degenerate_observable(ranks, random_unitary(d, 7 * d))
        value = maximal_disturbance(Measure.FIDELITY, obs, config_for(d)).value
        yield ClaimResult(
            "degenerate-disturbance",
            f"fidelity disturbance, d={d} with {len(ranks)} distinct eigenvalues",
            "eq",
            value,
            closed_form("degenerate_disturbance", n_distinct=len(ranks)),
            1e-9,
        )


def _suite_asymmetry(config_for) -> Iterable[ClaimResult]:
    obs_a, obs_b = asymmetric_pair(4, 1)
    cfg = config_for(4)
    fwd = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, cfg).value
    bwd = directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, cfg).value
    yield ClaimResult(
        "asymmetry", "forward value exceeds 3/4 (d=4, block 1)", "ge", fwd, 0.75, 1e-9
    )
    yield ClaimResult(
        "asymmetry", "backward value stays below 1/2 (d=4, block 1)", "le", bwd, 0.5, 1e-9
    )


def _suite_accessible(config_for) -> Iterable[ClaimResult]:
    for d, d_c in ((4, 2), (6, 3)):
        obs_a, obs_b = commuting_subspace_pair(d, d_c)
        povm = RankOnePovm.from_basis(obs_b.basis)
        value = 1.0 - acc_fid_objective(povm, (obs_a, obs_b))
        yield ClaimResult(
            "accessible",
            f"partner-eigenbasis bound, d={d} with {d_c} shared eigenvectors",
            "eq",
            value,
            0.5 * (1.0 - (d_c + 1.0) / d),
            1e-10,
        )
    obs_a, obs_b = commuting_subspace_pair(4, 1)
    gap = closed_form("fidelity_shared_eigenvectors", d=4, d_c=1) - q_acc_upper_bound(
        obs_a, obs_b
    )
    # bound <= (1 - 2/4)/2 = 1/4 while the fidelity value is 1/3, so the gap
    # is at least 1/12
    yield ClaimResult(
        "accessible",
        "fidelity value strictly above accessible bound (d=4, 1 shared)",
        "ge",
        gap,
        1.0 / 12.0,
        1e-8,
    )


_SUITE_RUNNERS: dict[str, Callable] = {
    "mub-directional": _suite_mub_directional,
    "mub-symmetric": _suite_mub_symmetric,
    "commutation": _suite_commutation,
    "disturbance-ordering": _suite_disturbance_ordering,
    "shared-eigenvectors": _suite_shared_eigenvectors,
    "triple": _suite_triple,
    "luders": _suite_luders,
    "zchannel": _suite_zchannel,
    "degenerate-disturbance": _suite_degenerate_disturbance,
    "asymmetry": _suite_asymmetry,
    "accessible": _suite_accessible,
}


def run_suites(
    selectors: Iterable[str] = ("all",),
    rng_seed: int = 0,
    tol_scale: float = 1.0,
    starts: int | None = None,
    convergence_tol: float | None = None,
) -> list[ClaimResult]:
    """Run the selected claim suites and return their results.

    ``tol_scale`` multiplies every claim tolerance (useful for stress runs);
    ``starts`` and ``convergence_tol`` override the optimizer defaults.
    Deterministic for fixed arguments.
    """
    chosen: list[str] = []
    for sel in selectors:
        if sel == "all":
            chosen = list(SUITES)
            break
        if sel not in _SUITE_RUNNERS:
            raise ParamOutOfRangeError(
                f"unknown suite {sel!r}; choose from {('all',) + SUITES}"
            )
        chosen.append(sel)

    def config_for(dim: int) -> OptimizerConfig:
        return _light_config(rng_seed + dim, starts, convergence_tol)

    results: list[ClaimResult] = []
    for suite in chosen:
        for claim in _SUITE_RUNNERS[suite](config_for):
            if tol_scale != 1.0:
                claim = ClaimResult(
                    claim.suite,
                    claim.name,
                    claim.comparator,
                    claim.measured,
                    claim.expected,
                    claim.tol * tol_scale,
                )
            results.append(claim)
    return results
