"""Multistart pure-state optimizer: correctness, determinism, soundness."""

import importlib
import sys
import threading
import zlib

import numpy as np
import pytest

from qincompat import (
    HermitianObservable,
    Measure,
    ObjectiveNaNError,
    OptimizerConfig,
    OptResult,
    Provenance,
    PureState,
    ValidationError,
    analytic_seed_states,
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
from qincompat import incompatibility, optimize
from qincompat.constructions import degenerate_observable, random_unitary
from qincompat.core import canonical_instrument
from qincompat.incompatibility import _disturbance_objective
from qincompat.optimize import FACE_TOL, _MAXLS, LocalSearch, _folded_objective, _lbfgsb, minimize
from qincompat.verify import run_suites

LIGHT = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=1)


def quadratic_form(matrix):
    def objective(vecs):
        images = (matrix @ vecs[:, :, None])[:, :, 0]
        return (vecs.conj() * images).sum(axis=1).real, 2.0 * images

    return objective


def constant(value):
    return lambda vecs: (np.full(len(vecs), value), np.zeros_like(vecs))


def test_largest_eigenvalue_of_diagonal_form():
    result = maximize_over_pure_states(quadratic_form(np.diag([0.0, 1.0])), 2, (), LIGHT)
    assert result.value == pytest.approx(1.0, abs=1e-8)
    assert abs(result.argmax.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-6)


def test_constant_objective_prefers_seed():
    seed = np.array([1.0, 0.0], dtype=complex)
    result = maximize_over_pure_states(constant(0.3), 2, (seed,), LIGHT)
    assert result.value == 0.3
    assert result.provenance is Provenance.ANALYTIC_SEED
    assert result.starts_used == LIGHT.n_random_starts


def test_starts_used_skips_collapsed_starts(monkeypatch):
    def collapse(fun, x0, **kwargs):
        return LocalSearch(np.zeros_like(x0), np.zeros(len(x0), int), np.zeros(len(x0), int))

    monkeypatch.setattr("qincompat.optimize.minimize", collapse)
    seed = np.array([1.0, 0.0], dtype=complex)
    cfg = OptimizerConfig(n_random_starts=3, max_iterations=10, rng_seed=0)
    result = maximize_over_pure_states(constant(0.3), 2, (seed,), cfg)
    assert result.starts_used == 0
    assert result.provenance is Provenance.ANALYTIC_SEED


def test_evaluations_count_every_objective_call():
    calls = []
    quadratic = quadratic_form(np.diag([0.2, 0.5, 0.9]))

    def counted(vecs):
        calls.append(len(vecs))
        return quadratic(vecs)

    seeds = np.eye(3, dtype=complex)
    cfg = OptimizerConfig(n_random_starts=2, max_iterations=50, rng_seed=4)
    result = maximize_over_pure_states(counted, 3, seeds, cfg)
    assert result.evaluations == sum(calls) > len(seeds)
    # The seeds, one call per lockstep step, and the end points.
    assert calls[0] == len(seeds) and calls[-1] == 2 * cfg.n_random_starts
    assert max(calls[1:-1]) <= 2 * cfg.n_random_starts
    assert OptResult(0.0, result.argmax, Provenance.EXACT, 0).evaluations == 0

    # The same seeds as a list of rows are searched the same way.
    searched = calls[:]
    calls.clear()
    again = maximize_over_pure_states(counted, 3, list(seeds), cfg)
    assert calls == searched
    assert (again.value, again.provenance, again.evaluations) == (
        result.value, result.provenance, result.evaluations
    )
    assert again.argmax.amplitudes.tobytes() == result.argmax.amplitudes.tobytes()


def test_seeds_must_be_unit_rows_of_the_dimension():
    objective = quadratic_form(np.diag([0.2, 0.5, 0.9]))
    for seeds in (np.eye(2, dtype=complex), np.eye(3)[0], 2.0 * np.eye(3), [[np.nan, 0, 0]]):
        with pytest.raises(ValidationError):
            maximize_over_pure_states(objective, 3, seeds, LIGHT)


def test_iterations_sum_over_starts(monkeypatch):
    runs = []

    def recorded(fun, x0, **kwargs):
        runs.append(minimize(fun, x0, **kwargs))
        return runs[-1]

    monkeypatch.setattr("qincompat.optimize.minimize", recorded)
    objective = quadratic_form(np.diag([0.2, 0.5, 0.9]))
    cfg = OptimizerConfig(n_random_starts=3, max_iterations=50, rng_seed=4)
    result = maximize_over_pure_states(objective, 3, (), cfg)
    assert len(runs) == 1 and runs[0].nits.shape == (cfg.n_random_starts,)
    assert result.iterations == runs[0].nits.sum() > runs[0].nit > 0
    assert OptResult(0.0, result.argmax, Provenance.EXACT, 0).iterations == 0


def test_objective_receives_unit_complex_vectors():
    seen = []

    def objective(vecs):
        seen.append(vecs)
        grads = np.zeros_like(vecs)
        grads[:, 0] = 2.0 * vecs[:, 0]
        return np.abs(vecs[:, 0]) ** 2, grads

    # The seed is the minimum of the objective, so refining it cannot win.
    seeds = np.array([[0.0, 0.8 + 0.6j]])
    cfg = OptimizerConfig(n_random_starts=2, max_iterations=50, rng_seed=3)
    result = maximize_over_pure_states(objective, 2, seeds, cfg)
    assert len(seen) > len(seeds)
    for vecs in seen:
        assert type(vecs) is np.ndarray
        assert vecs.dtype == np.complex128 and vecs.ndim == 2 and vecs.shape[1] == 2
        np.testing.assert_allclose(np.linalg.norm(vecs, axis=1), 1.0, rtol=0, atol=1e-12)
    assert result.provenance is Provenance.RANDOM_START
    assert isinstance(result.argmax, PureState)


def test_mub_fidelity_objective_attained_at_basis_seed():
    obs_a, obs_b = fourier_mub_pair(2)
    objective = pair_distance_objective(Measure.FIDELITY, obs_a, obs_b)
    seeds = obs_b.basis.T
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
        objective, 3, np.eye(3, dtype=complex)[2:], cfg
    )
    assert seeded.value >= bare.value
    assert seeded.value == pytest.approx(0.9, abs=1e-12)


def test_objective_nan_raises():
    with pytest.raises(ObjectiveNaNError):
        maximize_over_pure_states(constant(float("nan")), 2, (), LIGHT)


def test_one_non_finite_row_raises():
    def one_broken(vecs):
        values = np.abs(vecs[:, 0]) ** 2
        values[-1] = np.inf
        return values, np.zeros_like(vecs)

    seed = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ObjectiveNaNError):
        maximize_over_pure_states(one_broken, 2, (seed,), LIGHT)
    with pytest.raises(ObjectiveNaNError):
        _folded_objective(one_broken, 2)(np.eye(3, 4))


def test_value_matches_objective_at_argmax():
    obs_a, obs_b = fourier_mub_pair(3)
    objective = pair_distance_objective(Measure.LINF, obs_a, obs_b)
    result = directional_incompatibility(Measure.LINF, obs_a, obs_b, LIGHT)
    assert objective(result.argmax.amplitudes[None])[0][0] == pytest.approx(
        result.value, abs=1e-12
    )


def test_config_validation():
    with pytest.raises(ValidationError):
        OptimizerConfig(n_random_starts=0)
    for bad in ({"rng_seed": -1}, {"rng_seed": 1.5}, {"rng_seed": "3"}, {"rng_seed": True},
                {"n_random_starts": 2.5}, {"max_iterations": 10.0}, {"n_random_starts": None}):
        with pytest.raises(ValidationError):
            OptimizerConfig(**bad)
    assert OptimizerConfig(n_random_starts=np.int64(2), rng_seed=np.uint64(2**63)).rng_seed == 2**63
    for tol in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValidationError):
            OptimizerConfig(convergence_tol=tol)


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


def _oracle_case(case):
    """A search objective of ``maximize_over_pure_states`` and its dimension."""
    if case.startswith("pair"):
        measure = {"F": Measure.FIDELITY, "L1": Measure.L1, "Chebyshev": Measure.LINF}[
            case.split("-")[1]
        ]
        objective = pair_distance_objective(
            measure, random_povm(3, 3, seed=0), random_povm(3, 4, seed=1)
        )
        return _folded_objective(objective, 3), 3
    _, measure, kind = case.split("-")
    measure = Measure.FIDELITY if measure == "F" else Measure.L1
    inst = canonical_instrument(random_povm(3, 4, seed=2)) if kind == "povm" else z_channel(0.3)
    return _folded_objective(_disturbance_objective(measure, inst), inst.dim), inst.dim


def _one_at_a_time(fun):
    """``fun`` on a single point, a stack of one, in scipy's calling convention."""

    def single(x):
        values, grads = fun(x[None])
        return values[0], grads[0]

    return single


ORACLE_OPTIONS = {"maxiter": 600, "ftol": 1e-15, "gtol": 1e-12}
ORACLE_CASES = [
    "pair-F",
    "pair-L1",
    "pair-Chebyshev",
    "disturbance-F-povm",
    "disturbance-L1-povm",
    "disturbance-F-instrument",
    "disturbance-L1-instrument",
]


def _oracle_starts(case, dim):
    # Eight starts per case include runs that change if the line-search
    # limit drops from 20 to 5 steps, or if a repeated request for f at the
    # same point is evaluated again instead of served from the cache.
    return np.random.default_rng(zlib.crc32(case.encode())).standard_normal((8, 2 * dim))


@pytest.mark.parametrize("case", ORACLE_CASES)
@pytest.mark.parametrize("maxiter", [5, 600])
def test_lbfgsb_loop_matches_scipy_minimize_bit_for_bit(case, maxiter):
    """Each row of the lockstep search over scipy's compiled L-BFGS-B routine is scipy's search.

    A scipy release that changes the private routine or its wrapper fails here.
    """
    from scipy.optimize import minimize as scipy_minimize

    fun, dim = _oracle_case(case)
    options = {**ORACLE_OPTIONS, "maxiter": maxiter}
    starts = _oracle_starts(case, dim)
    ours = minimize(fun, starts, options=options)
    assert ours.x.shape == starts.shape
    for x0, x, nit, nfev in zip(starts, ours.x, ours.nits, ours.nfevs):
        theirs = scipy_minimize(_one_at_a_time(fun), x0, method="L-BFGS-B", jac=True,
                                options=options)
        assert x.tobytes() == theirs.x.tobytes()
        assert (nit, nfev) == (theirs.nit, theirs.nfev)
        assert nit <= maxiter
    assert (ours.nit, ours.nfev) == (ours.nits.max(), ours.nfevs.sum())


def test_lbfgsb_loop_matches_scipy_minimize_at_a_stationary_point():
    from scipy.optimize import minimize as scipy_minimize

    # |0> is left unchanged by the z-channel: value 0 and a zero gradient.
    fun = _folded_objective(_disturbance_objective(Measure.FIDELITY, z_channel(0.3)), 2)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    assert not fun(x0[None])[1].any()
    ours = minimize(fun, x0[None], options=ORACLE_OPTIONS)
    theirs = scipy_minimize(
        _one_at_a_time(fun), x0, method="L-BFGS-B", jac=True, options=ORACLE_OPTIONS
    )
    assert ours.x[0].tobytes() == theirs.x.tobytes() == x0.tobytes()
    assert (ours.nits[0], ours.nfevs[0]) == (theirs.nit, theirs.nfev)


def test_the_search_drives_the_extension_scipy_optimize_imports():
    """The L-BFGS-B extension loaded without ``scipy.optimize`` is the one scipy itself uses."""
    assert _lbfgsb is importlib.import_module("scipy.optimize._lbfgsb")


class _FakeBlas:
    """Stands in for the handle on scipy's OpenBLAS and records every count set."""

    def __init__(self, threads):
        self.threads, self.set = threads, []

    def scipy_openblas_get_num_threads(self):
        return self.threads

    def scipy_openblas_set_num_threads(self, threads):
        self.set.append(threads)
        self.threads = threads


def test_the_search_runs_scipys_blas_on_one_thread_and_restores_it(monkeypatch):
    fun, dim = _oracle_case("pair-F")
    fake = _FakeBlas(4)
    seen = []

    def recorded(points):
        seen.append(fake.threads)
        return fun(points)

    monkeypatch.setattr(optimize, "_lbfgsb_blas", fake)
    starts = _oracle_starts("pair-F", dim)
    minimize(recorded, starts, options=ORACLE_OPTIONS)
    assert fake.set == [1, 4] and set(seen) == {1}

    def failing(points):
        raise ObjectiveNaNError("stop")

    with pytest.raises(ObjectiveNaNError):
        minimize(failing, starts, options=ORACLE_OPTIONS)
    assert fake.set == [1, 4, 1, 4]


def test_a_search_inside_a_search_restores_the_count_once(monkeypatch):
    """The pin is the process's: only the last search to end restores the count."""
    fun, dim = _oracle_case("pair-F")
    fake = _FakeBlas(3)
    inner = []

    def nesting(points):
        if not inner:
            inner.append(minimize(fun, points[:1], options={**ORACLE_OPTIONS, "maxiter": 5}))
            assert fake.threads == 1
        return fun(points)

    monkeypatch.setattr(optimize, "_lbfgsb_blas", fake)
    minimize(nesting, _oracle_starts("pair-F", dim)[:2], options=ORACLE_OPTIONS)
    assert inner and fake.set == [1, 3] and optimize._pin["searches"] == 0


def test_searches_in_several_threads_share_one_pin(monkeypatch):
    fun, dim = _oracle_case("pair-F")
    fake = _FakeBlas(2)
    seen, errors = [], []

    def recorded(points):
        seen.append(fake.threads)
        return fun(points)

    def search(k):
        try:
            minimize(recorded, _oracle_starts(f"thread-{k}", dim), options=ORACLE_OPTIONS)
        except Exception as exc:  # reported below: an exception in a thread is otherwise lost
            errors.append(exc)

    monkeypatch.setattr(optimize, "_lbfgsb_blas", fake)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=search, args=(k,)) for k in range(6)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and errors == []
    assert set(seen) == {1}
    assert fake.threads == 2 and optimize._pin["searches"] == 0


def test_scipys_own_blas_is_pinned_and_numpys_left_alone():
    blas = optimize._lbfgsb_blas
    if blas is None:
        pytest.skip("scipy bundles no libscipy_openblas beside the package")
    assert "libscipy_openblas64_" not in blas._name
    before = blas.scipy_openblas_get_num_threads()
    fun, dim = _oracle_case("pair-F")
    seen = []

    def recorded(points):
        seen.append(blas.scipy_openblas_get_num_threads())
        return fun(points)

    minimize(recorded, _oracle_starts("pair-F", dim), options=ORACLE_OPTIONS)
    assert set(seen) == {1}
    assert blas.scipy_openblas_get_num_threads() == before


def test_without_scipys_openblas_the_search_changes_nothing(monkeypatch, tmp_path):
    assert optimize._load_lbfgsb_blas(str(tmp_path)) is None
    (tmp_path / "libscipy_openblas-0.so").write_bytes(b"not a shared library")
    assert optimize._load_lbfgsb_blas(str(tmp_path)) is None
    fun, dim = _oracle_case("pair-F")
    starts = _oracle_starts("pair-F", dim)
    pinned = minimize(fun, starts, options=ORACLE_OPTIONS)
    monkeypatch.setattr(optimize, "_lbfgsb_blas", None)
    plain = minimize(fun, starts, options=ORACLE_OPTIONS)
    assert plain.x.tobytes() == pinned.x.tobytes()
    assert plain.nits.tolist() == pinned.nits.tolist()
    assert plain.nfevs.tolist() == pinned.nfevs.tolist()


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_lockstep_rows_equal_each_start_run_alone(case):
    """Starts that stop early, at once or late do not change the other rows."""
    fun, dim = _oracle_case(case)
    starts = _oracle_starts(case, dim)
    starts[3] = 0.0  # a collapsed start: the zero-norm penalty, with zero gradient
    batch = minimize(fun, starts, options=ORACLE_OPTIONS)
    for row, x0 in enumerate(starts):
        alone = minimize(fun, x0[None], options=ORACLE_OPTIONS)
        assert batch.x[row].tobytes() == alone.x[0].tobytes()
        assert (batch.nits[row], batch.nfevs[row]) == (alone.nits[0], alone.nfevs[0])
    assert batch.nits[3] == 0 and batch.nfevs[3] == 1


def _stack_objectives(dim):
    """Every search objective at ``dim``, by name, with the stack width it takes."""
    rng = np.random.default_rng(dim)
    firsts = {
        "observable": random_observable(dim, rng),
        "povm": random_povm(dim, 3, rng),
        "instrument": canonical_instrument(random_povm(dim, 4, rng)),
    }
    second = random_povm(dim, 5, rng)
    objectives = {}
    for measure in (Measure.FIDELITY, Measure.L1, Measure.LINF):
        for kind, first in firsts.items():
            objectives[f"pair-{measure.name}-{kind}"] = pair_distance_objective(
                measure, first, second
            )
    for measure in (Measure.FIDELITY, Measure.L1):
        for kind in ("povm", "instrument"):
            objectives[f"disturbance-{measure.name}-{kind}"] = _disturbance_objective(
                measure, canonical_instrument(firsts[kind])
            )
    folded = {f"folded-{name}": _folded_objective(fn, dim) for name, fn in objectives.items()}
    return {name: (fn, dim) for name, fn in objectives.items()} | {
        name: (fn, 2 * dim) for name, fn in folded.items()
    }


@pytest.mark.parametrize("dim", range(2, 7))
def test_objective_rows_equal_stacks_of_one_bit_for_bit(dim):
    rng = np.random.default_rng(100 + dim)
    for name, (fn, width) in _stack_objectives(dim).items():
        if name.startswith("folded"):
            stack = rng.standard_normal((7, width))
            stack[2] = 0.0  # below the zero-norm threshold
            stack[4, 1] = np.nan  # a NaN norm takes the same penalty
        else:
            stack = rng.standard_normal((7, width)) + 1j * rng.standard_normal((7, width))
            stack /= np.linalg.norm(stack, axis=1)[:, None]
        values, grads = fn(stack)
        assert values.shape == (7,) and grads.shape == stack.shape, name
        for row in range(len(stack)):
            value, grad = fn(stack[row : row + 1].copy())
            assert value.tobytes() == values[row : row + 1].tobytes(), name
            assert grad.tobytes() == grads[row : row + 1].tobytes(), name


def test_a_non_finite_coordinate_takes_the_zero_norm_penalty():
    """A NaN norm fails the norm test, so its row is penalized like a zero row, Faces and all."""
    fold = _folded_objective(pair_distance_objective(
        Measure.FIDELITY, random_povm(2, 4, seed=0), trine_povm()), 2)
    stack = np.random.default_rng(4).standard_normal((5, 4))
    stack[1] = 0.0
    stack[2, 3] = np.nan
    stack[3] = np.nan
    values, grads, faces = fold(stack)
    assert values[1:4].tolist() == [optimize._ZERO_NORM_PENALTY] * 3
    assert not grads[1:4].any() and (faces.probs[1:4] == 1.0).all()
    for row in (0, 4):
        alone = fold(stack[row : row + 1].copy())
        assert values[row] < 0 and (faces.probs[row] < 1.0).any()
        assert alone[0].tobytes() == values[row : row + 1].tobytes()
        assert alone[1].tobytes() == grads[row : row + 1].tobytes()
        assert alone[2].probs.tobytes() == faces.probs[row : row + 1].tobytes()
    for row in (2, 3):
        assert fold(stack[row : row + 1].copy())[0].tolist() == [optimize._ZERO_NORM_PENALTY]


def _face_free(fun):
    """``fun`` without its face data: :func:`minimize` then never restarts on a face."""
    return lambda points: fun(points)[:2]


@pytest.mark.parametrize("seed", range(5))
def test_asymmetric_backward_search_reaches_one_half(seed):
    """Each of these searches stopped 6e-9 to 1.4e-5 short before starts restarted on faces.

    ``directional_incompatibility`` returns this value from a subset
    superposition without a search, so the search is called directly.
    """
    obs_a, obs_b = asymmetric_pair(4, 1)
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=seed)
    objective = pair_distance_objective(Measure.FIDELITY, obs_b, obs_a)
    result = maximize_over_pure_states(objective, 4, analytic_seed_states(obs_b, obs_a), config)
    assert abs(result.value - 0.5) <= 1e-12


def _face_pairs():
    """Random observable pairs and random POVMs before the trine: fidelity optima on faces."""
    rng = np.random.default_rng(2024)
    pairs = [(random_observable(d, rng), random_observable(d, rng)) for d in (2, 3, 4) * 8]
    return pairs + [(random_povm(2, n, rng), trine_povm()) for n in (3, 4, 3, 4)]


def test_face_search_matches_the_face_free_search_in_half_the_iterations():
    for first, second in _face_pairs():
        objective = pair_distance_objective(Measure.FIDELITY, first, second)
        seeds = analytic_seed_states(first, second)
        faces = maximize_over_pure_states(objective, first.dim, seeds, LIGHT)
        free = maximize_over_pure_states(_face_free(objective), first.dim, seeds, LIGHT)
        assert faces.value >= free.value - 1e-12
        assert 2 * faces.iterations <= free.iterations


def test_face_restricted_rows_equal_each_start_run_alone():
    first, second = asymmetric_pair(4, 1)[::-1]
    fun = _folded_objective(pair_distance_objective(Measure.FIDELITY, first, second), 4)
    starts = np.random.default_rng(5).standard_normal((6, 8))
    batch = minimize(fun, starts, options=ORACLE_OPTIONS)
    free = minimize(_face_free(fun), starts, options=ORACLE_OPTIONS)
    # Every start ends on a face, where some block probability is 0, and sooner than without.
    assert (fun(batch.x)[2].probs.min(axis=1) < 1e-16).all()
    assert (batch.nits < free.nits).all()
    for row, x0 in enumerate(starts):
        alone = minimize(fun, x0[None], options=ORACLE_OPTIONS)
        assert batch.x[row].tobytes() == alone.x[0].tobytes()
        assert (batch.nits[row], batch.nfevs[row]) == (alone.nits[0], alone.nfevs[0])


def test_evaluations_count_every_face_trial():
    first, second = asymmetric_pair(4, 1)[::-1]
    objective = pair_distance_objective(Measure.FIDELITY, first, second)
    rows = []

    def counted(vecs):
        rows.append(len(vecs))
        return objective(vecs)

    seeds = analytic_seed_states(first, second)
    result = maximize_over_pure_states(counted, 4, seeds, CLI_BUDGET)
    assert result.evaluations == sum(rows)
    free = maximize_over_pure_states(_face_free(objective), 4, seeds, CLI_BUDGET)
    assert result.value > free.value and result.evaluations < free.evaluations


def _evaluated_points(fun, x0):
    """The points at which ``minimize`` evaluates ``fun`` from ``x0``, and its result."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return fun(x)

    return points, minimize(recorded, x0, options=ORACLE_OPTIONS)


def test_a_start_on_a_face_is_tried_there_when_its_first_step_does_not_descend():
    # An eigenvector of second sits where every other outcome of second has
    # probability 0. Its first line-search point is higher, so the start is
    # tried on the face next, where scipy's line search goes on backtracking.
    first, second = random_observable(3, 0), random_observable(3, 1)
    for one, other in ((first, second), (second, first)):
        fun = _folded_objective(pair_distance_objective(Measure.FIDELITY, one, other), 3)
        for eigenvector in other.basis.T:
            x0 = np.ascontiguousarray(eigenvector)[None].view(np.float64)
            points, result = _evaluated_points(fun, x0)
            free, _ = _evaluated_points(_face_free(fun), x0)
            face = fun(points[0])[2].probs[0] < FACE_TOL
            assert face.sum() == 2
            assert points[1].tobytes() == free[1].tobytes()
            assert fun(points[1])[0][0] >= fun(points[0])[0][0]
            assert (fun(points[2])[2].probs[0][face] < 1e-30).all()
            assert result.nfevs[0] <= _MAXLS
            assert result.nfevs[0] < len(free)


def test_a_start_whose_first_step_leaves_its_face_follows_scipy():
    # This eigenvector of second is a strict local maximum, but the first
    # step L-BFGS-B proposes from it lands higher, and the start climbs from
    # there to the pair's directional value.
    first = degenerate_observable([4, 1], random_unitary(5, 24))
    second = random_observable(5, 124)
    objective = pair_distance_objective(Measure.FIDELITY, first, second)
    fun = _folded_objective(objective, 5)
    x0 = np.ascontiguousarray(second.basis[:, 4])[None].view(np.float64)
    points, result = _evaluated_points(fun, x0)
    free, _ = _evaluated_points(_face_free(fun), x0)
    assert fun(points[1])[0][0] < fun(points[0])[0][0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(points[:3], free[:3]))
    end = result.x[0].view(np.complex128) / np.linalg.norm(result.x[0])
    assert objective(end[None])[0][0] >= 0.496206884034305 - 1e-12


# Searches that a larger FACE_TOL, or a face trial before a start's first
# step, sent into lower local maxima, with the values they reach at
# FACE_TOL = 1e-8: F directional values of a degenerate observable with
# eigenspace ranks (d - 1, 1) in the basis random_unitary(d, s) before
# random_observable(d, s + 100), and backward asymmetric pair searches at
# 4 starts and 400 iterations.
DEGENERATE_FIRST_VALUES = {
    (4, 10): 0.4999749408564209,
    (5, 3): 0.4999860068392106,
    (5, 24): 0.496206884034305,
    (6, 5): 0.49992749070403897,
    (6, 9): 0.49677674399940497,
    (6, 26): 0.49998834867564823,
}
ASYMMETRIC_BACKWARD_VALUES = {
    (5, 2, 38): 0.4988854381999831,
    (7, 2, 1): 0.49987671851908067,
    (7, 3, 12): 0.4999842491270273,
}


@pytest.mark.parametrize("d, s", DEGENERATE_FIRST_VALUES)
def test_degenerate_first_values_reach_those_of_late_faces(d, s):
    first = degenerate_observable([d - 1, 1], random_unitary(d, s))
    second = random_observable(d, s + 100)
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)
    result = directional_incompatibility(Measure.FIDELITY, first, second, config)
    assert result.value >= DEGENERATE_FIRST_VALUES[d, s] - 1e-12


def test_layout_twins_of_a_pair_give_one_value():
    # The pair of the test above with each basis passed C- and F-ordered,
    # through from_eigensystem and through the constructor: every observable
    # stores a C-ordered basis, so the search cannot follow BLAS round-off
    # of another layout to another local maximum.
    def twins(obs):
        values = np.repeat(obs.eigenvalues, obs.ranks)
        for basis in (np.ascontiguousarray(obs.basis), np.asfortranarray(obs.basis)):
            yield HermitianObservable.from_eigensystem(values, basis)
            yield HermitianObservable(obs.eigenvalues, obs.ranks, basis)

    first = degenerate_observable([4, 1], random_unitary(5, 24))
    second = random_observable(5, 124)
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)
    seen = set()
    for one in twins(first):
        for other in twins(second):
            seen.add((
                directional_incompatibility(Measure.FIDELITY, one, other, config).value,
                analytic_seed_states(one, other).tobytes(),
                directional_incompatibility(Measure.L1, one, other).value,
                directional_incompatibility(Measure.LINF, one, other).value,
            ))
    assert len(seen) == 1
    assert seen.pop()[0] >= DEGENERATE_FIRST_VALUES[5, 24] - 1e-12


@pytest.mark.parametrize("d, mult, rng_seed", ASYMMETRIC_BACKWARD_VALUES)
def test_asymmetric_backward_values_reach_those_of_late_faces(d, mult, rng_seed):
    second, first = asymmetric_pair(d, mult)
    objective = pair_distance_objective(Measure.FIDELITY, first, second)
    config = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=rng_seed)
    result = maximize_over_pure_states(objective, d, analytic_seed_states(first, second), config)
    assert result.value >= ASYMMETRIC_BACKWARD_VALUES[d, mult, rng_seed] - 1e-12


def test_searched_values_do_not_depend_on_the_face_threshold(monkeypatch):
    search, search_many = incompatibility.maximize_over_pure_states, incompatibility._maximize_many
    # The Lueders pairs of the compute benchmark workload, searched both ways.
    povm_pairs = [
        (trine_povm(), random_povm(2, 4, 5)),
        (random_povm(3, 3, 5), random_povm(3, 4, 6)),
    ]
    config = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=5)

    def searched_values():
        values = []

        def recorded(*args):
            result = search(*args)
            values.append(result.value)
            return result

        def recorded_many(*args):
            results = search_many(*args)
            values.extend(result.value for result in results)
            return results

        with monkeypatch.context() as patched:
            patched.setattr(incompatibility, "maximize_over_pure_states", recorded)
            patched.setattr(incompatibility, "_maximize_many", recorded_many)
            run_suites(("disturbance-ordering", "commutation", "luders"), rng_seed=5)
            for first, second in povm_pairs:
                directional_incompatibility(Measure.FIDELITY, first, second, config)
                directional_incompatibility(Measure.FIDELITY, second, first, config)
        return np.array(values)

    values = searched_values()
    monkeypatch.setattr(optimize, "FACE_TOL", 1e-8)
    late = searched_values()
    assert len(values) == len(late) > 20
    assert np.abs(values - late).max() <= 1e-12


def _stacked(objectives, dim):
    """One-problem objectives of ``dim`` with equal face counts as one objective of problems.

    Each problem's rows go through its own objective, so a stacked search
    can differ from separate ones only in how :func:`minimize` keeps them apart.
    """
    probe = np.eye(1, dim, dtype=np.complex128)
    columns = tuple(objective(probe)[2].columns for objective in objectives)

    def stacked(vecs, problems):
        values, grads = np.empty(len(vecs)), np.empty_like(vecs)
        probs = np.empty((len(vecs), len(columns[0])))
        for p, objective in enumerate(objectives):
            rows = problems == p
            if rows.any():
                values[rows], grads[rows], faces = objective(vecs[rows])
                probs[rows] = faces.probs
        return values, grads, optimize.Faces(probs, columns)

    return stacked


def test_a_stack_of_problems_equals_each_problem_run_alone():
    # Fidelity pairs at d = 4 whose second has four rank-one outcomes: the
    # backward asymmetric pair restarts every start on a face, the others
    # meet faces at their seeds and at the starts that end on them.
    asym_second, asym_first = asymmetric_pair(4, 1)
    pairs = [
        (asym_first, asym_second),
        (random_observable(4, 31), random_observable(4, 32)),
        (degenerate_observable([3, 1], random_unitary(4, 33)), random_observable(4, 34)),
        (asym_first, asym_second),
    ]
    objectives = [pair_distance_objective(Measure.FIDELITY, a, b) for a, b in pairs]
    rng = np.random.default_rng(35)
    parts = [rng.standard_normal((5, 8)) for _ in pairs]
    parts[1][2] = 0.0  # a collapsed start
    second = pairs[2][1]  # two starts on its eigenvectors, which sit on faces
    parts[2][:2] = [np.ascontiguousarray(second.basis[:, k]).view(np.float64) for k in (0, 3)]
    problems = np.repeat(np.arange(len(pairs)), 5)
    fun = _folded_objective(_stacked(objectives, 4), 4)
    batch = minimize(fun, np.vstack(parts), options=ORACLE_OPTIONS, problems=problems)
    restarted = 0
    for p, (objective, x0) in enumerate(zip(objectives, parts)):
        alone = minimize(_folded_objective(objective, 4), x0, options=ORACLE_OPTIONS)
        free = minimize(_face_free(_folded_objective(objective, 4)), x0, options=ORACLE_OPTIONS)
        rows = problems == p
        assert batch.x[rows].tobytes() == alone.x.tobytes()
        assert batch.nits[rows].tolist() == alone.nits.tolist()
        assert batch.nfevs[rows].tolist() == alone.nfevs.tolist()
        restarted += int((alone.nits != free.nits).sum())
    assert restarted >= 5
    assert len(set(batch.nfevs.tolist())) > 5  # problems finish at different steps
