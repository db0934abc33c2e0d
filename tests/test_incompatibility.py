"""Incompatibility measures: closed-form values, bounds, scans."""

import numpy as np
import pytest

from qincompat import (
    Instrument,
    Measure,
    OptimizerConfig,
    ParamOutOfRangeError,
    check_bounds,
    closed_form,
    commutator_maxnorm,
    commuting_fixture,
    conjecture_scan,
    directional_incompatibility,
    fourier_mub_pair,
    maximal_disturbance,
    mub_triple_qubit,
    pair_incompatibility,
    random_observable,
    set_incompatibility,
    spectral_decompose,
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
            assert objective(state.amplitudes) == pytest.approx(
                distance(seq, direct), abs=1e-10
            )


def test_check_bounds_standalone():
    obs_a, obs_b = fourier_mub_pair(2)
    report = pair_incompatibility(Measure.L1, obs_a, obs_b, LIGHT, with_bounds=False)
    checks = check_bounds(report, obs_a, obs_b, LIGHT)
    by_name = {c.name: c for c in checks}
    assert by_name["disturbance-forward"].satisfied
    assert by_name["disturbance-forward"].bound == pytest.approx(0.5, abs=1e-9)
