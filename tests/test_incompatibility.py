"""Incompatibility measures: closed-form values, bounds, scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qincompat.incompatibility as incompatibility
import qincompat.optimize as optimize
from qincompat import (
    DimensionMismatchError,
    Instrument,
    Measure,
    NumericalFailureError,
    ObjectiveNaNError,
    OptimizerConfig,
    ParamOutOfRangeError,
    Povm,
    Provenance,
    PureState,
    analytic_seed_states,
    canonical_instrument,
    check_bounds,
    commuting_subspace_pair,
    closed_form,
    commutator_maxnorm,
    commuting_fixture,
    conjecture_scan,
    directional_incompatibility,
    fourier_mub_pair,
    maximal_disturbance,
    maximize_over_pure_states,
    mub_triple_qubit,
    pair_distance_objective,
    pair_incompatibility,
    random_observable,
    random_povm,
    set_incompatibility,
    spectral_decompose,
    trine_povm,
    z_channel,
)
from qincompat.constructions import degenerate_observable, random_unitary

LIGHT = OptimizerConfig(n_random_starts=3, max_iterations=300, rng_seed=0)
TINY = OptimizerConfig(n_random_starts=1, max_iterations=120, rng_seed=0)

ALL_MEASURES = (Measure.L1, Measure.FIDELITY, Measure.LINF)


def test_commuting_pair_has_zero_incompatibility():
    obs_a, obs_b = commuting_fixture(2)
    for measure in ALL_MEASURES:
        value = directional_incompatibility(measure, obs_a, obs_b, TINY).value
        assert value < 1e-10


def test_functions_of_one_observable_commute():
    base = random_observable(3, 5)
    square = spectral_decompose(base.matrix @ base.matrix)
    for measure in ALL_MEASURES:
        assert directional_incompatibility(measure, base, square, TINY).value < 1e-9
        assert directional_incompatibility(measure, square, base, TINY).value < 1e-9


def test_noncommuting_pairs_strictly_positive():
    rng = np.random.default_rng(77)
    found = 0
    while found < 5:
        obs_a = random_observable(2, rng)
        obs_b = random_observable(2, rng)
        if commutator_maxnorm(obs_a, obs_b) < 1e-3:
            continue
        found += 1
        for measure in ALL_MEASURES:
            assert directional_incompatibility(measure, obs_a, obs_b, TINY).value > 1e-6


def test_mub_directional_values():
    obs_a, obs_b = fourier_mub_pair(2)
    value = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, LIGHT).value
    assert value == pytest.approx(0.5, abs=1e-9)
    obs_a5, obs_b5 = fourier_mub_pair(5)
    value5 = directional_incompatibility(Measure.L1, obs_a5, obs_b5, LIGHT).value
    assert value5 == pytest.approx(0.8, abs=1e-9)


def test_pair_report_symmetric_identity_and_values():
    obs_a, obs_b = fourier_mub_pair(2)
    report = pair_incompatibility(Measure.FIDELITY, obs_a, obs_b, LIGHT)
    assert report.symmetric == (report.forward.value + report.backward.value) / 4.0
    assert report.symmetric == pytest.approx(0.25, abs=1e-9)
    assert report.bound_violations == ()
    assert not report.gap_unknown

    obs_a4, obs_b4 = fourier_mub_pair(4)
    report4 = pair_incompatibility(Measure.LINF, obs_a4, obs_b4, LIGHT, with_bounds=False)
    assert report4.symmetric == pytest.approx(0.375, abs=1e-9)
    assert report4.bound_checks == ()


def test_commuting_pair_report_all_bounds_hold():
    report = pair_incompatibility(Measure.L1, *commuting_fixture(3), TINY)
    assert report.symmetric < 1e-10
    assert report.bound_violations == ()


def test_check_bounds_names_and_ordering():
    rng = np.random.default_rng(11)
    obs_a = random_observable(3, rng)
    obs_b = random_observable(3, rng)
    report = pair_incompatibility(Measure.FIDELITY, obs_a, obs_b, TINY)
    names = {c.name for c in report.bound_checks}
    assert {"fidelity-dim-forward", "fidelity-dim-symmetric", "disturbance-forward"} <= names
    assert all(c.satisfied for c in report.bound_checks)


def test_set_incompatibility_matches_pair_for_two():
    obs_a, obs_b = fourier_mub_pair(2)
    pair_value = pair_incompatibility(
        Measure.FIDELITY, obs_a, obs_b, LIGHT, with_bounds=False
    ).symmetric
    set_value = set_incompatibility(Measure.FIDELITY, (obs_a, obs_b), LIGHT)
    assert set_value == pytest.approx(pair_value, abs=1e-15)


def test_set_incompatibility_qubit_triple():
    value = set_incompatibility(Measure.FIDELITY, mub_triple_qubit(), LIGHT)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_set_incompatibility_commuting_triple_vanishes():
    obs_a, obs_b = commuting_fixture(3)
    cubed = spectral_decompose(obs_a.matrix @ obs_a.matrix @ obs_a.matrix)
    assert set_incompatibility(Measure.L1, (obs_a, obs_b, cubed), TINY) < 1e-9
    with pytest.raises(ParamOutOfRangeError):
        set_incompatibility(Measure.L1, (obs_a,), TINY)


def test_disturbance_values():
    assert maximal_disturbance(Measure.FIDELITY, z_channel(0.3), LIGHT).value == pytest.approx(
        0.3, abs=1e-9
    )
    obs = degenerate_observable((2, 2), random_unitary(4, 3))
    assert maximal_disturbance(Measure.FIDELITY, obs, LIGHT).value == pytest.approx(
        0.5, abs=1e-9
    )
    identity = Instrument(((np.eye(2, dtype=complex),),))
    assert maximal_disturbance(Measure.FIDELITY, identity, TINY).value <= 1e-12
    assert maximal_disturbance(Measure.L1, identity, TINY).value <= 1e-12


def test_closed_form_values():
    assert closed_form("fidelity_shared_eigenvectors", d=4, d_c=2) == 0.25
    assert closed_form("fidelity_shared_eigenvectors", d=4, d_c=0) == 0.375
    assert closed_form("luders_fidelity_max", n_outcomes=3) == pytest.approx(2.0 / 3.0)
    assert closed_form("fidelity_directional_max", d=5) == pytest.approx(0.8)
    assert closed_form("degenerate_disturbance", n_distinct=2) == 0.5


def test_closed_form_rejects_bad_input():
    with pytest.raises(ParamOutOfRangeError):
        closed_form("no_such_value", d=2)
    with pytest.raises(ParamOutOfRangeError):
        closed_form("fidelity_shared_eigenvectors", d=4, d_c=4)
    with pytest.raises(ParamOutOfRangeError):
        closed_form("fidelity_directional_max", d=1)
    with pytest.raises(ParamOutOfRangeError):
        closed_form("luders_fidelity_max", d=2)


def test_measure_flags():
    assert Measure.from_flag("1") is Measure.L1
    assert Measure.from_flag("F") is Measure.FIDELITY
    assert Measure.from_flag("inf") is Measure.LINF
    with pytest.raises(ParamOutOfRangeError):
        Measure.from_flag("2")


def test_conjecture_scan_injections_and_reproducibility():
    report = conjecture_scan(
        Measure.L1, 2, 3, config=TINY, base_seed=5, inject=("mub", "commuting")
    )
    assert len(report.rows) == 5
    assert report.rows[0].seed == -1
    assert report.rows[0].value == pytest.approx(0.25, abs=1e-9)
    assert report.rows[1].value < 1e-10
    assert report.counterexamples == ()
    assert report.max_value <= report.threshold
    again = conjecture_scan(
        Measure.L1, 2, 3, config=TINY, base_seed=5, inject=("mub", "commuting")
    )
    assert [r.value for r in report.rows] == [r.value for r in again.rows]
    assert [r.seed for r in report.rows] == [r.seed for r in again.rows]


def test_conjecture_scan_rejects_fidelity():
    with pytest.raises(ParamOutOfRangeError):
        conjecture_scan(Measure.FIDELITY, 2, 1, config=TINY)
    with pytest.raises(ParamOutOfRangeError):
        conjecture_scan(Measure.L1, 2, 1, config=TINY, inject=("bogus",))


def test_objective_matches_public_distribution_route():
    from qincompat import (
        chebyshev_distance,
        fidelity_distance,
        outcome_distribution,
        pair_distance_objective,
        random_povm,
        random_pure_state,
        sequential_distribution,
        variational_distance,
    )

    rng = np.random.default_rng(99)
    pairs = {
        Measure.L1: variational_distance,
        Measure.FIDELITY: fidelity_distance,
        Measure.LINF: chebyshev_distance,
    }
    for k in range(25):
        d = int(rng.integers(2, 5))
        first = random_observable(d, rng) if k % 2 else random_povm(d, 3, rng)
        second = random_povm(d, int(rng.integers(2, 4)), rng)
        state = random_pure_state(d, rng)
        seq = sequential_distribution(first, second, state.density())
        direct = outcome_distribution(second, state.density())
        for measure, distance in pairs.items():
            objective = pair_distance_objective(measure, first, second)
            assert objective(state.amplitudes)[0] == pytest.approx(
                distance(seq, direct), abs=1e-10
            )


def test_check_bounds_standalone():
    obs_a, obs_b = fourier_mub_pair(2)
    report = pair_incompatibility(Measure.L1, obs_a, obs_b, LIGHT, with_bounds=False)
    checks = check_bounds(report, obs_a, obs_b, LIGHT)
    by_name = {c.name: c for c in checks}
    assert by_name["disturbance-forward"].satisfied
    assert by_name["disturbance-forward"].bound == pytest.approx(0.5, abs=1e-9)


EXACT_MEASURES = (Measure.L1, Measure.LINF)


def _random_pairs(n, seed):
    """Observable->observable, POVM->observable and POVM->POVM pairs at d=2..4."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k in range(n):
        d = 2 + k % 3
        kind = k % 3
        first = random_observable(d, rng) if kind == 0 else random_povm(d, 3, rng)
        if kind == 2:
            second = random_povm(d, int(rng.integers(2, 5)), rng)
        else:
            second = random_observable(d, rng)
        pairs.append((first, second))
    return pairs


def test_exact_path_is_an_attained_supremum():
    cfg = OptimizerConfig(n_random_starts=3, max_iterations=300, rng_seed=4)
    for first, second in _random_pairs(24, 2024):
        seeds = analytic_seed_states(first) + analytic_seed_states(second)
        for measure in EXACT_MEASURES:
            exact = directional_incompatibility(measure, first, second)
            assert exact.provenance is Provenance.EXACT
            assert exact.starts_used == 0
            objective = pair_distance_objective(measure, first, second)
            assert objective(exact.argmax.amplitudes)[0] == pytest.approx(exact.value, abs=1e-12)
            searched = maximize_over_pure_states(objective, first.dim, seeds, cfg)
            assert searched.value <= exact.value + 1e-12


_HYPOTHESIS_PAIRS = _random_pairs(6, 77)
_HYPOTHESIS_EXACT = [
    {m: directional_incompatibility(m, a, b).value for m in EXACT_MEASURES}
    for a, b in _HYPOTHESIS_PAIRS
]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, len(_HYPOTHESIS_PAIRS) - 1), st.data())
def test_no_state_beats_the_exact_value(index, data):
    first, second = _HYPOTHESIS_PAIRS[index]
    coords = data.draw(
        st.lists(
            st.floats(min_value=-1.0, max_value=1.0),
            min_size=2 * first.dim,
            max_size=2 * first.dim,
        )
    )
    vec = np.array(coords[: first.dim]) + 1j * np.array(coords[first.dim :])
    if np.linalg.norm(vec) < 1e-6:
        vec = np.eye(first.dim, dtype=complex)[0]
    state = PureState.normalized(vec)
    for measure in EXACT_MEASURES:
        value = pair_distance_objective(measure, first, second)(state.amplitudes)[0]
        assert value <= _HYPOTHESIS_EXACT[index][measure] + 1e-12


def test_l1_falls_back_to_search_above_the_outcome_cap(monkeypatch):
    obs_a, obs_b = fourier_mub_pair(3)
    monkeypatch.setattr(incompatibility, "EXACT_L1_MAX_OUTCOMES", 2)
    result = directional_incompatibility(Measure.L1, obs_a, obs_b, TINY)
    assert result.provenance is not Provenance.EXACT
    assert result.value == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert directional_incompatibility(Measure.LINF, obs_a, obs_b).provenance is Provenance.EXACT


@pytest.mark.parametrize("d", range(2, 7))
def test_mub_exact_values(d):
    obs_a, obs_b = fourier_mub_pair(d)
    for measure in EXACT_MEASURES:
        result = directional_incompatibility(measure, obs_a, obs_b)
        assert result.provenance is Provenance.EXACT
        assert result.value == pytest.approx(1.0 - 1.0 / d, abs=1e-12)


def test_exact_path_rejects_dimension_mismatch():
    obs_2, obs_3 = random_observable(2, 1), random_observable(3, 2)
    for measure in EXACT_MEASURES:
        with pytest.raises(DimensionMismatchError, match="dimensions differ: 2 vs 3"):
            directional_incompatibility(measure, obs_2, obs_3)


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
def test_eigensolver_failure_is_a_numerical_failure(monkeypatch, solver):
    obs_a, obs_b = fourier_mub_pair(3)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(NumericalFailureError):
        directional_incompatibility(Measure.L1, obs_a, obs_b)


def test_gap_is_known_for_exact_reports_only():
    rng = np.random.default_rng(31)
    report = pair_incompatibility(
        Measure.L1, random_observable(3, rng), random_observable(3, rng), TINY
    )
    assert report.gap_unknown is False
    shared = pair_incompatibility(Measure.FIDELITY, *commuting_subspace_pair(4, 1), TINY)
    assert shared.gap_unknown is True


def test_scan_rows_record_provenance(monkeypatch):
    report = conjecture_scan(Measure.LINF, 3, 2, config=TINY, inject=("mub",))
    assert all(row.provenance == (Provenance.EXACT, Provenance.EXACT) for row in report.rows)
    assert all(row.is_exact for row in report.rows)
    monkeypatch.setattr(incompatibility, "EXACT_L1_MAX_OUTCOMES", 2)
    fallback = conjecture_scan(Measure.L1, 3, 1, config=TINY)
    assert not fallback.rows[0].is_exact
    assert Provenance.EXACT not in fallback.rows[0].provenance


def _disturbance_observables():
    """A Haar-random and a degenerate observable at each d=2..6."""
    out = []
    for d in range(2, 7):
        out.append(random_observable(d, 500 + d))
        out.append(degenerate_observable((d - d // 2, d // 2), random_unitary(d, 600 + d)))
    return out


def test_observable_disturbance_is_exact():
    cfg = OptimizerConfig(n_random_starts=2, max_iterations=300, rng_seed=6)
    for obs in _disturbance_observables():
        inst = canonical_instrument(obs)
        seeds = analytic_seed_states(obs) + analytic_seed_states(inst)
        for measure in (Measure.L1, Measure.FIDELITY):
            exact = maximal_disturbance(measure, obs, cfg)
            assert exact.provenance is Provenance.EXACT
            assert exact.starts_used == 0
            assert exact.value == closed_form("degenerate_disturbance", n_distinct=obs.n_outcomes)
            objective = incompatibility._disturbance_objective(measure, inst)
            assert objective(exact.argmax.amplitudes)[0] == pytest.approx(exact.value, abs=1e-12)
            searched = maximize_over_pure_states(objective, obs.dim, seeds, cfg)
            assert searched.value <= exact.value + 1e-12


def test_observable_disturbance_edge_cases():
    trivial = degenerate_observable((3,))
    assert trivial.n_outcomes == 1
    for measure in (Measure.L1, Measure.FIDELITY):
        result = maximal_disturbance(measure, trivial)
        assert result.value == 0.0
        assert result.provenance is Provenance.EXACT
    with pytest.raises(ParamOutOfRangeError):
        maximal_disturbance(Measure.LINF, random_observable(3, 1))


@pytest.fixture
def minimize_calls(monkeypatch):
    calls = []
    real = optimize.minimize

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(optimize, "minimize", counted)
    return calls


@pytest.mark.parametrize("d", range(2, 7))
def test_seeds_on_the_ceiling_skip_the_search(d, minimize_calls):
    obs_a, obs_b = fourier_mub_pair(d)
    for measure in (Measure.FIDELITY, Measure.L1):
        report = pair_incompatibility(measure, obs_a, obs_b, LIGHT)
        assert report.bound_violations == ()
        assert report.forward.starts_used == report.backward.starts_used == 0
    assert report.forward.value == pytest.approx(1.0 - 1.0 / d, abs=1e-12)
    luders = directional_incompatibility(
        Measure.FIDELITY, Povm.from_observable(obs_a), Povm.from_observable(obs_b), LIGHT
    )
    assert luders.provenance is Provenance.ANALYTIC_SEED
    assert luders.starts_used == 0
    assert luders.value == pytest.approx(1.0 - 1.0 / d, abs=1e-12)
    assert minimize_calls == []


def _search_without_ceiling(measure, first, second, config):
    """The seeded multistart search with every random start, as run below the ceiling."""
    seeds = analytic_seed_states(first)
    for state in analytic_seed_states(second):
        incompatibility._add_seed(seeds, state)
    objective = pair_distance_objective(measure, first, second)
    return maximize_over_pure_states(objective, first.dim, seeds, config)


def test_seeds_below_the_ceiling_search_as_before():
    pairs = [commuting_subspace_pair(4, 1), (trine_povm(), random_povm(2, 4, seed=3))]
    for first, second in pairs:
        report = pair_incompatibility(Measure.FIDELITY, first, second, LIGHT)
        for result, a, b in ((report.forward, first, second), (report.backward, second, first)):
            expected = _search_without_ceiling(Measure.FIDELITY, a, b, LIGHT)
            assert result.starts_used == LIGHT.n_random_starts
            assert result.value == expected.value
            assert result.provenance is expected.provenance
            np.testing.assert_array_equal(result.argmax.amplitudes, expected.argmax.amplitudes)


def test_non_finite_seed_value_raises_despite_the_ceiling(monkeypatch):
    values = iter([1.0])  # the first seed tops every ceiling, the next one is NaN

    def objective_factory(*args):
        return lambda vec: (next(values, float("nan")), np.zeros_like(vec))

    monkeypatch.setattr(incompatibility, "pair_distance_objective", objective_factory)
    with pytest.raises(ObjectiveNaNError):
        directional_incompatibility(Measure.FIDELITY, *fourier_mub_pair(3), TINY)
