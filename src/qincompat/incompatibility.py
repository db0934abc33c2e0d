"""Distance-based incompatibility of measurements and maximal disturbance.

The directional incompatibility of a measurement A with a measurement B is
the largest distance, over all states, between the outcome statistics of B
alone and of B following A on the same state. It vanishes exactly for
commuting projective pairs, is bounded by the maximal disturbance of A's
channel, and for the fidelity-based distance obeys the dimension bound
1 - 1/d, attained by mutually unbiased non-degenerate pairs.

The symmetric value of a pair averages the two directions with an extra
factor of two, ``(forward + backward) / 4``, and therefore tops out at
1/2 rather than 1; the N-observable value averages all ordered pairs over
N^2. Both conventions are implemented exactly as defined.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

from .core import (
    HermitianObservable,
    Instrument,
    Povm,
    PureState,
    canonical_instrument,
    hermiticity_defect,
    max_abs,
    measurement_effects,
)
from .constructions import (
    computational_observable,
    fourier_mub_pair,
    random_observable,
)
from .errors import DimensionMismatchError, ParamOutOfRangeError
from .optimize import OptimizerConfig, OptResult, maximize_over_pure_states
from .probdist import chebyshev_distance, fidelity_distance, variational_distance

BOUND_SLACK = 1e-8


class Measure(enum.Enum):
    """Which distance between outcome distributions drives the measure."""

    L1 = "1"
    FIDELITY = "F"
    LINF = "inf"

    @classmethod
    def from_flag(cls, text: str) -> "Measure":
        for member in cls:
            if member.value == text:
                return member
        raise ParamOutOfRangeError(f"unknown measure flag {text!r}; use 1, F or inf")


_DISTANCE: dict[Measure, Callable] = {
    Measure.L1: variational_distance,
    Measure.FIDELITY: fidelity_distance,
    Measure.LINF: chebyshev_distance,
}


def _effect_factors(meas) -> tuple[np.ndarray, np.ndarray]:
    """Columns W with E_j = sum over its block of |w><w|, plus block start offsets.

    Observables factor exactly through their stored eigenbasis; POVM
    elements factor through their eigendecompositions with round-off
    negatives clamped. Evaluating probabilities as sums of |<w|psi>|^2
    keeps near-zero outcomes at the square of the round-off level, which
    matters because the fidelity distance takes square roots of them.
    """
    if isinstance(meas, HermitianObservable):
        offsets = np.cumsum((0,) + meas.ranks[:-1])
        return meas.basis, offsets
    columns: list[np.ndarray] = []
    offsets = []
    dim = meas.dim
    for effect in measurement_effects(meas):
        offsets.append(sum(c.shape[1] for c in columns))
        eigvals, eigvecs = np.linalg.eigh(effect)
        keep = eigvals > 1e-14
        if not np.any(keep):
            columns.append(np.zeros((dim, 1), dtype=np.complex128))
        else:
            columns.append(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
    return np.hstack(columns), np.asarray(offsets)


def pair_distance_objective(measure: Measure, first, second) -> Callable[[np.ndarray], float]:
    """State objective: distance between second's statistics with and without first.

    The objective takes a unit ``complex128`` amplitude vector psi of shape
    ``(dim,)`` and does not validate it; pass ``state.amplitudes`` to
    evaluate a :class:`PureState`. The undisturbed probabilities are
    p_j = sum_w |<w|psi>|^2 over the j-th effect's factors; the sequential
    ones push psi through every Kraus operator of first's canonical
    instrument before the same contraction, q_j = sum_kw |<w|K_k psi>|^2.
    Both match the public distribution functions up to round-off while
    staying exactly nonnegative.
    """
    inst = canonical_instrument(first)
    factors, offsets = _effect_factors(second)
    if inst.dim != factors.shape[0]:
        raise DimensionMismatchError(
            f"dimensions differ: {inst.dim} vs {factors.shape[0]}"
        )
    kraus_stack = np.stack(inst.kraus_flat())
    factors_conj = factors.conj()
    distance = _DISTANCE[measure]

    def objective(vec: np.ndarray) -> float:
        images = kraus_stack @ vec
        direct_cols = np.abs(vec @ factors_conj) ** 2
        seq_cols = (np.abs(images @ factors_conj) ** 2).sum(axis=0)
        direct = np.add.reduceat(direct_cols, offsets)
        seq = np.add.reduceat(seq_cols, offsets)
        return distance(seq, direct)

    return objective


def _disturbance_objective(measure: Measure, inst: Instrument) -> Callable[[np.ndarray], float]:
    kraus = inst.kraus_flat()
    if measure is Measure.FIDELITY:

        def objective(vec: np.ndarray) -> float:
            total = 0.0
            for k in kraus:
                total += float(abs(vec.conj() @ (k @ vec))) ** 2
            return 1.0 - float(np.clip(total, 0.0, 1.0))

    elif measure is Measure.L1:

        def objective(vec: np.ndarray) -> float:
            out = -np.outer(vec, vec.conj())
            for k in kraus:
                img = k @ vec
                out += np.outer(img, img.conj())
            lam = np.linalg.eigvalsh((out + out.conj().T) / 2.0)
            return float(0.5 * np.abs(lam).sum())

    else:
        raise ParamOutOfRangeError("disturbance is defined for the L1 and fidelity measures")
    return objective


def _add_seed(seeds: list[PureState], state: PureState) -> None:
    for existing in seeds:
        if existing.dim == state.dim and existing.overlap(state) > 1.0 - 1e-9:
            return
    seeds.append(state)


def _basis_seed_family(seeds: list[PureState], columns: np.ndarray) -> None:
    for col in columns.T:
        _add_seed(seeds, PureState.normalized(col))
    if columns.shape[1] > 1:
        _add_seed(seeds, PureState.normalized(columns.sum(axis=1)))


def analytic_seed_states(meas) -> list[PureState]:
    """Candidate extremal states for suprema involving a measurement.

    Observables contribute every eigenvector, the uniform superposition of
    the full eigenbasis, and the uniform superposition of one representative
    vector per eigenspace (the state that equidistributes probability over
    the distinct outcomes of a degenerate spectrum). POVMs and instruments
    contribute the eigenbases of their effects and Kraus operators plus the
    same superpositions.
    """
    seeds: list[PureState] = []
    if isinstance(meas, HermitianObservable):
        _basis_seed_family(seeds, meas.basis)
        reps = np.stack(
            [meas.basis[:, sl.start] for sl in meas.block_slices()], axis=1
        )
        if reps.shape[1] > 1:
            _add_seed(seeds, PureState.normalized(reps.sum(axis=1)))
        return seeds
    if isinstance(meas, Povm):
        for elem in meas.elements:
            _, vecs = np.linalg.eigh(elem)
            _basis_seed_family(seeds, vecs)
        return seeds
    if isinstance(meas, Instrument):
        for kraus in meas.kraus_flat():
            _basis_seed_family(seeds, _normal_basis(kraus))
        return seeds
    raise TypeError(f"cannot derive seed states from {type(meas).__name__}")


def _normal_basis(kraus: np.ndarray) -> np.ndarray:
    """Orthonormal basis adapted to a Kraus operator's invariant directions."""
    if hermiticity_defect(kraus) <= 1e-9:
        _, vecs = np.linalg.eigh((kraus + kraus.conj().T) / 2.0)
        return vecs
    commut = kraus @ kraus.conj().T - kraus.conj().T @ kraus
    if max_abs(commut) <= 1e-9:
        _, vecs = scipy.linalg.schur(kraus, output="complex")
        return vecs
    _, vecs = np.linalg.eigh(kraus.conj().T @ kraus)
    return vecs


def directional_incompatibility(
    measure: Measure,
    first,
    second,
    config: OptimizerConfig | None = None,
    extra_seeds: Iterable[PureState] = (),
) -> OptResult:
    """Supremum over states of the chosen distance between second's statistics
    with and without a preceding measurement of first.

    Observables act through their eigenprojector instrument, POVMs through
    their positive-square-root instrument. The returned value is an exact
    evaluation at the best state found and hence a lower bound on the
    supremum; the default seed set contains every state at which the known
    closed-form values are attained.
    """
    objective = pair_distance_objective(measure, first, second)
    seeds = analytic_seed_states(first)
    for state in analytic_seed_states(second):
        _add_seed(seeds, state)
    for state in extra_seeds:
        _add_seed(seeds, state)
    return maximize_over_pure_states(objective, first.dim, seeds, config)


def maximal_disturbance(
    measure: Measure,
    meas,
    config: OptimizerConfig | None = None,
    extra_seeds: Iterable[PureState] = (),
) -> OptResult:
    """Largest distance, over states, between a state and its post-measurement image.

    For the L1 measure this is the supremum of the trace distance between
    Phi(rho) and rho; for the fidelity measure it is 1 - (inf F)^2, realized
    as the supremum of 1 - F^2 over pure states. The Chebyshev measure has
    no disturbance analogue here.
    """
    inst = canonical_instrument(meas)
    objective = _disturbance_objective(measure, inst)
    seeds = analytic_seed_states(meas)
    if not isinstance(meas, Instrument):
        for state in analytic_seed_states(inst):
            _add_seed(seeds, state)
    for state in extra_seeds:
        _add_seed(seeds, state)
    return maximize_over_pure_states(objective, meas.dim, seeds, config)


@dataclass(frozen=True)
class BoundCheck:
    """One inequality the computed values must satisfy."""

    name: str
    bound: float
    measured: float

    @property
    def satisfied(self) -> bool:
        return self.measured <= self.bound + BOUND_SLACK


@dataclass(frozen=True)
class IncompatReport:
    """Both directions of a pair's incompatibility plus applicable bounds."""

    measure: Measure
    forward: OptResult
    backward: OptResult
    bound_checks: tuple[BoundCheck, ...] = ()

    @property
    def symmetric(self) -> float:
        """The symmetric value (forward + backward) / 4."""
        return (self.forward.value + self.backward.value) / 4.0

    @property
    def upper_bounds(self) -> tuple[tuple[str, float], ...]:
        return tuple((c.name, c.bound) for c in self.bound_checks)

    @property
    def bound_violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.bound_checks if not c.satisfied)

    @property
    def gap_unknown(self) -> bool:
        """True when no computed value sits on one of its bounds, in which case the
        local search cannot certify that the supremum was reached."""
        return not any(
            abs(c.measured - c.bound) <= BOUND_SLACK for c in self.bound_checks
        )


def check_bounds(
    report: IncompatReport,
    first,
    second,
    config: OptimizerConfig | None = None,
) -> tuple[BoundCheck, ...]:
    """Evaluate every bound applicable to a pair report.

    Disturbance bounds are recomputed numerically; the disturbance searches
    are seeded with the report's own maximizers, which makes the ordering
    ``incompatibility <= disturbance`` hold state-by-state and not just in
    the limit of perfect optimization.
    """
    checks: list[BoundCheck] = []
    dim = first.dim
    if report.measure is Measure.FIDELITY:
        dim_bound = 1.0 - 1.0 / dim
        if isinstance(first, HermitianObservable):
            checks.append(BoundCheck("fidelity-dim-forward", dim_bound, report.forward.value))
        if isinstance(second, HermitianObservable):
            checks.append(BoundCheck("fidelity-dim-backward", dim_bound, report.backward.value))
        if isinstance(first, HermitianObservable) and isinstance(second, HermitianObservable):
            checks.append(
                BoundCheck("fidelity-dim-symmetric", 0.5 * dim_bound, report.symmetric)
            )
        if isinstance(first, Povm):
            checks.append(
                BoundCheck(
                    "luders-outcomes-forward",
                    1.0 - 1.0 / first.n_outcomes,
                    report.forward.value,
                )
            )
        if isinstance(second, Povm):
            checks.append(
                BoundCheck(
                    "luders-outcomes-backward",
                    1.0 - 1.0 / second.n_outcomes,
                    report.backward.value,
                )
            )
    disturbance_kind = Measure.FIDELITY if report.measure is Measure.FIDELITY else Measure.L1
    dist_first = maximal_disturbance(
        disturbance_kind, first, config, extra_seeds=(report.forward.argmax,)
    )
    dist_second = maximal_disturbance(
        disturbance_kind, second, config, extra_seeds=(report.backward.argmax,)
    )
    checks.append(BoundCheck("disturbance-forward", dist_first.value, report.forward.value))
    checks.append(BoundCheck("disturbance-backward", dist_second.value, report.backward.value))
    return tuple(checks)


def pair_incompatibility(
    measure: Measure,
    first,
    second,
    config: OptimizerConfig | None = None,
    with_bounds: bool = True,
) -> IncompatReport:
    """Both directional values and the symmetric average (forward + backward) / 4."""
    forward = directional_incompatibility(measure, first, second, config)
    backward = directional_incompatibility(measure, second, first, config)
    report = IncompatReport(measure=measure, forward=forward, backward=backward)
    if with_bounds:
        report = replace(report, bound_checks=check_bounds(report, first, second, config))
    return report


def set_incompatibility(
    measure: Measure,
    observables: Sequence,
    config: OptimizerConfig | None = None,
) -> float:
    """Average of all ordered directional values over N^2, diagonal terms zero."""
    n = len(observables)
    if n < 2:
        raise ParamOutOfRangeError("need at least two observables")
    dims = {obs.dim for obs in observables}
    if len(dims) != 1:
        raise DimensionMismatchError("observables live in different dimensions")
    total = 0.0
    for i, obs_a in enumerate(observables):
        for j, obs_b in enumerate(observables):
            if i == j:
                continue
            total += directional_incompatibility(measure, obs_a, obs_b, config).value
    return total / (n * n)


_CLOSED_FORMS = {
    "fidelity_directional_max": ("d",),
    "fidelity_shared_eigenvectors": ("d", "d_c"),
    "luders_fidelity_max": ("n_outcomes",),
    "degenerate_disturbance": ("n_distinct",),
}


def closed_form(name: str, **params) -> float:
    """Exact closed-form values for the headline quantities.

    - ``fidelity_directional_max(d)``: 1 - 1/d, the directional fidelity
      bound in dimension d, attained by mutually unbiased pairs.
    - ``fidelity_shared_eigenvectors(d, d_c)``: (1 - 1/(d - d_c)) / 2, the
      symmetric fidelity value of a non-degenerate pair sharing d_c
      eigenvectors and unbiased on the rest.
    - ``luders_fidelity_max(n_outcomes)``: 1 - 1/N, the directional
      fidelity bound for a Lueders instrument with N outcomes.
    - ``degenerate_disturbance(n_distinct)``: 1 - 1/r, the maximal fidelity
      disturbance of a projective measurement with r distinct eigenvalues.
    """
    if name not in _CLOSED_FORMS:
        raise ParamOutOfRangeError(f"unknown closed form {name!r}")
    expected = _CLOSED_FORMS[name]
    if set(params) != set(expected):
        raise ParamOutOfRangeError(f"{name} takes parameters {expected}, got {tuple(params)}")
    if name == "fidelity_directional_max":
        d = int(params["d"])
        if d < 2:
            raise ParamOutOfRangeError("d must be at least 2")
        return 1.0 - 1.0 / d
    if name == "fidelity_shared_eigenvectors":
        d, d_c = int(params["d"]), int(params["d_c"])
        if d < 2 or not 0 <= d_c <= d - 1:
            raise ParamOutOfRangeError("need d >= 2 and 0 <= d_c <= d - 1")
        return 0.5 * (1.0 - 1.0 / (d - d_c))
    if name == "luders_fidelity_max":
        n = int(params["n_outcomes"])
        if n < 1:
            raise ParamOutOfRangeError("n_outcomes must be at least 1")
        return 1.0 - 1.0 / n
    n = int(params["n_distinct"])
    if n < 1:
        raise ParamOutOfRangeError("n_distinct must be at least 1")
    return 1.0 - 1.0 / n


@dataclass(frozen=True)
class ScanRow:
    """One random pair probed while scanning for bound violations."""

    trial: int
    seed: int
    value: float
    argmax: PureState


@dataclass(frozen=True)
class ScanReport:
    """Evidence from a randomized scan of the symmetric L1 / Chebyshev values.

    The threshold is (1 - 1/d) / 2 + 1e-8, the conjectured ceiling; rows
    above it are collected as counterexamples rather than raising, since the
    question is open.
    """

    measure: Measure
    dim: int
    threshold: float
    rows: tuple[ScanRow, ...]

    @property
    def max_value(self) -> float:
        return max(row.value for row in self.rows)

    @property
    def counterexamples(self) -> tuple[ScanRow, ...]:
        return tuple(row for row in self.rows if row.value > self.threshold)


_INJECTABLE = ("mub", "commuting")


def conjecture_scan(
    measure: Measure,
    dim: int,
    n_trials: int,
    config: OptimizerConfig | None = None,
    base_seed: int = 0,
    inject: Sequence[str] = (),
) -> ScanReport:
    """Probe Haar-random non-degenerate pairs for symmetric values above (1 - 1/d)/2.

    Injected fixtures (``"mub"``, ``"commuting"``) occupy the first trial
    slots with the sentinel seed -1; random trials record the integer seed
    that regenerates the pair, so any row can be reproduced in isolation.
    """
    if measure not in (Measure.L1, Measure.LINF):
        raise ParamOutOfRangeError("the scan covers the L1 and Chebyshev measures only")
    if n_trials < 1:
        raise ParamOutOfRangeError("need at least one trial")
    threshold = 0.5 * (1.0 - 1.0 / dim) + 1e-8
    rows: list[ScanRow] = []

    def record(trial: int, seed: int, first, second) -> None:
        report = pair_incompatibility(measure, first, second, config, with_bounds=False)
        fwd, bwd = report.forward, report.backward
        argmax = fwd.argmax if fwd.value >= bwd.value else bwd.argmax
        rows.append(ScanRow(trial=trial, seed=seed, value=report.symmetric, argmax=argmax))

    trial = 0
    for label in inject:
        if label == "mub":
            obs_a, obs_b = fourier_mub_pair(dim)
        elif label == "commuting":
            obs_a, obs_b = commuting_fixture(dim)
        else:
            raise ParamOutOfRangeError(f"unknown injection {label!r}; use {_INJECTABLE}")
        record(trial, -1, obs_a, obs_b)
        trial += 1

    master = np.random.default_rng(base_seed)
    for _ in range(n_trials):
        seed = int(master.integers(0, 2**63 - 1))
        rng = np.random.default_rng(seed)
        obs_a = random_observable(dim, rng)
        obs_b = random_observable(dim, rng)
        record(trial, seed, obs_a, obs_b)
        trial += 1
    return ScanReport(measure=measure, dim=dim, threshold=threshold, rows=tuple(rows))


def commuting_fixture(dim: int) -> tuple[HermitianObservable, HermitianObservable]:
    """A canonical fully commuting non-degenerate pair (both diagonal)."""
    obs_a = computational_observable(dim)
    values = np.arange(1.0, dim + 1.0) ** 2
    obs_b = HermitianObservable.from_eigensystem(values, np.eye(dim, dtype=np.complex128))
    return obs_a, obs_b
