"""Multistart pure-state optimizer: correctness, determinism, soundness."""

import zlib
from types import SimpleNamespace

import numpy as np
import pytest

from qincompat import (
    Measure,
    ObjectiveNaNError,
    OptimizerConfig,
    Provenance,
    PureState,
    ValidationError,
    asymmetric_pair,
    directional_incompatibility,
    fourier_mub_pair,
    maximize_over_pure_states,
    pair_distance_objective,
    random_observable,
    random_povm,
    maximal_disturbance,
    trine_povm,
    z_channel,
)
from qincompat.incompatibility import _disturbance_objective

LIGHT = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=1)


def quadratic_form(matrix):
    def objective(vec):
        return float((vec.conj() @ matrix @ vec).real), 2.0 * (matrix @ vec)

    return objective


def test_largest_eigenvalue_of_diagonal_form():
    result = maximize_over_pure_states(quadratic_form(np.diag([0.0, 1.0])), 2, (), LIGHT)
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert abs(result.argmax.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_constant_objective_prefers_seed():
    seed = PureState(np.array([1.0, 0.0], dtype=complex))
    result = maximize_over_pure_states(lambda s: (0.3, np.zeros_like(s)), 2, (seed,), LIGHT)
    assert result.value == 0.3
    assert result.provenance is Provenance.ANALYTIC_SEED
    assert result.starts_used == LIGHT.n_random_starts


def test_starts_used_skips_collapsed_starts(monkeypatch):
    def collapse(fun, x0, **kwargs):
        return SimpleNamespace(x=np.zeros_like(x0))

    monkeypatch.setattr("qincompat.optimize.minimize", collapse)
    seed = PureState(np.array([1.0, 0.0], dtype=complex))
    cfg = OptimizerConfig(n_random_starts=3, max_iterations=10, rng_seed=0)
    result = maximize_over_pure_states(lambda vec: (0.3, np.zeros_like(vec)), 2, (seed,), cfg)
    assert result.starts_used == 0
    assert result.provenance is Provenance.ANALYTIC_SEED


def test_objective_receives_unit_complex_vectors():
    seen = []

    def objective(vec):
        seen.append(vec)
        return float(abs(vec[0]) ** 2), np.array([2.0 * vec[0], 0.0])

    # The seed is the minimum of the objective, so refining it cannot win.
    seeds = (PureState(np.array([0.0, 0.8 + 0.6j])),)
    cfg = OptimizerConfig(n_random_starts=2, max_iterations=50, rng_seed=3)
    result = maximize_over_pure_states(objective, 2, seeds, cfg)
    assert len(seen) > len(seeds)
    for vec in seen:
        assert type(vec) is np.ndarray
        assert vec.dtype == np.complex128 and vec.shape == (2,)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    assert result.provenance is Provenance.RANDOM_START
    assert isinstance(result.argmax, PureState)


def test_mub_fidelity_objective_attained_at_basis_seed():
    obs_a, obs_b = fourier_mub_pair(2)
    objective = pair_distance_objective(Measure.FIDELITY, obs_a, obs_b)
    seeds = [PureState(obs_b.basis[:, j]) for j in range(2)]
    result = maximize_over_pure_states(objective, 2, seeds, LIGHT)
    assert result.value == pytest.approx(0.5, abs=1e-12)


def test_reproducibility_is_bitwise():
    obs_a, obs_b = fourier_mub_pair(3)
    cfg = OptimizerConfig(n_random_starts=3, max_iterations=200, rng_seed=42)
    first = directional_incompatibility(Measure.L1, obs_a, obs_b, cfg)
    second = directional_incompatibility(Measure.L1, obs_a, obs_b, cfg)
    assert first.value == second.value
    np.testing.assert_array_equal(first.argmax.amplitudes, second.argmax.amplitudes)
    assert first.provenance == second.provenance


def test_adding_seeds_never_decreases_value():
    matrix = np.diag([0.2, 0.5, 0.9])
    objective = quadratic_form(matrix)
    cfg = OptimizerConfig(n_random_starts=1, max_iterations=40, rng_seed=5)
    bare = maximize_over_pure_states(objective, 3, (), cfg)
    seeded = maximize_over_pure_states(
        objective, 3, (PureState(np.eye(3, dtype=complex)[:, 2]),), cfg
    )
    assert seeded.value >= bare.value
    assert seeded.value == pytest.approx(0.9, abs=1e-12)


def test_objective_nan_raises():
    def broken(vec):
        return float("nan"), np.zeros_like(vec)

    with pytest.raises(ObjectiveNaNError):
        maximize_over_pure_states(broken, 2, (), LIGHT)


def test_value_matches_objective_at_argmax():
    obs_a, obs_b = fourier_mub_pair(3)
    objective = pair_distance_objective(Measure.LINF, obs_a, obs_b)
    result = directional_incompatibility(Measure.LINF, obs_a, obs_b, LIGHT)
    assert objective(result.argmax.amplitudes)[0] == pytest.approx(result.value, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(n_random_starts=0)
    with pytest.raises(ValidationError):
        OptimizerConfig(convergence_tol=0.0)


def test_sound_lower_bound_against_known_optimum():
    for d in (2, 3, 4):
        obs_a, obs_b = fourier_mub_pair(d)
        cfg = OptimizerConfig(n_random_starts=3, max_iterations=400, rng_seed=d)
        value = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, cfg).value
        assert value <= (1.0 - 1.0 / d) + 1e-9


def _distribution_stacks(first, second):
    projs_a = np.asarray(first.projectors)
    effects_b = np.asarray(second.projectors)
    heralded = np.einsum("aij,njk,akl->nil", projs_a, effects_b, projs_a)
    return heralded, effects_b


def _batch_distances(measure, heralded, effects, rhos):
    seq = np.einsum("nij,mji->mn", heralded, rhos).real
    direct = np.einsum("nij,mji->mn", effects, rhos).real
    seq, direct = np.clip(seq, 0.0, None), np.clip(direct, 0.0, None)
    if measure is Measure.L1:
        return 0.5 * np.abs(seq - direct).sum(axis=1)
    if measure is Measure.LINF:
        return np.abs(seq - direct).max(axis=1)
    fid = (np.sqrt(seq) * np.sqrt(direct)).sum(axis=1)
    return 1.0 - fid * fid


def _batch_mixed_states(rng, n, d):
    g = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    rhos = g @ np.conj(np.transpose(g, (0, 2, 1)))
    return rhos / np.trace(rhos, axis1=1, axis2=2).real[:, None, None]


@pytest.mark.parametrize("measure", [Measure.L1, Measure.FIDELITY, Measure.LINF])
def test_mixed_states_never_beat_pure_optimum(measure):
    """Distances are convex over the state space, so pure states suffice."""
    rng = np.random.default_rng(zlib.crc32(measure.value.encode()))
    cfg = OptimizerConfig(n_random_starts=2, max_iterations=150, rng_seed=7)
    for problem in range(200):
        d = 2 if problem % 2 == 0 else 3
        first = random_observable(d, rng)
        second = random_observable(d, rng)
        pure_best = directional_incompatibility(measure, first, second, cfg).value
        heralded, effects = _distribution_stacks(first, second)
        mixed_best = _batch_distances(
            measure, heralded, effects, _batch_mixed_states(rng, 500, d)
        ).max()
        assert mixed_best <= pure_best + 1e-9


def test_disturbance_rejects_chebyshev():
    from qincompat import ParamOutOfRangeError, z_channel

    with pytest.raises(ParamOutOfRangeError):
        maximal_disturbance(Measure.LINF, z_channel(0.5), LIGHT)


CLI_BUDGET = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)

# Values of the Nelder-Mead search that the gradient search replaced, at
# CLI_BUDGET. The gradient search must match or beat every one of them.
NELDER_MEAD_VALUES = {
    "asymmetric-backward": 0.49931811145759064,
    "trine-povm4-forward": 0.05894314295786751,
    "trine-povm4-backward": 0.10949330522934209,
    "povm3-povm4-forward": 0.049939421291479436,
    "povm3-povm4-backward": 0.053590082876339706,
    "zchannel-0.1": 0.10000000000000087,
    "zchannel-0.5": 0.5000000000000004,
    "zchannel-0.9": 0.9000000000000001,
}


def _searched_value(case):
    if case.startswith("zchannel"):
        channel = z_channel(float(case.split("-")[1]))
        return maximal_disturbance(Measure.FIDELITY, channel, CLI_BUDGET).value
    if case == "asymmetric-backward":
        first, second = asymmetric_pair(4, 1)[::-1]
    else:
        if case.startswith("trine"):
            first, second = trine_povm(), random_povm(2, 4, seed=0)
        else:
            first, second = random_povm(3, 3, seed=0), random_povm(3, 4, seed=1)
        if case.endswith("backward"):
            first, second = second, first
    return directional_incompatibility(Measure.FIDELITY, first, second, CLI_BUDGET).value


@pytest.mark.parametrize("case", sorted(NELDER_MEAD_VALUES))
def test_search_matches_or_beats_the_nelder_mead_values(case):
    assert _searched_value(case) >= NELDER_MEAD_VALUES[case] - 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_seedless_search_reaches_the_mub_fidelity_value(d):
    objective = pair_distance_objective(Measure.FIDELITY, *fourier_mub_pair(d))
    result = maximize_over_pure_states(objective, d, (), CLI_BUDGET)
    assert result.provenance is Provenance.RANDOM_START
    assert result.value == pytest.approx(1.0 - 1.0 / d, abs=1e-12)


@pytest.mark.parametrize("measure", [Measure.FIDELITY, Measure.L1], ids=lambda m: m.name)
@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_seedless_search_reaches_the_zchannel_disturbance(measure, p):
    objective = _disturbance_objective(measure, z_channel(p))
    result = maximize_over_pure_states(objective, 2, (), CLI_BUDGET)
    assert result.value == pytest.approx(p, abs=1e-12)


def test_refined_seeds_reach_the_basin_the_random_starts_miss():
    """The Lueders claim d=2, N_A=3 of verify's suite at rng_seed 1049.

    All 4 random starts end in lower local maxima (0.003645, 0.003718); the
    Nelder-Mead search found 0.0038628252519541384.
    """
    rng = np.random.default_rng(91)
    first = random_povm(2, 3, rng)
    second = random_povm(2, int(rng.integers(2, 5)), rng)
    cfg = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=1049)
    result = directional_incompatibility(Measure.FIDELITY, first, second, cfg)
    assert result.value >= 0.0038628252519541384 - 1e-12
    assert result.provenance is Provenance.ANALYTIC_SEED
