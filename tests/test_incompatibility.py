"""Incompatibility measures: closed-form values, bounds, scans."""

from dataclasses import replace
import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import qincompat.core as core
import qincompat.incompatibility as incompatibility
import qincompat.optimize as optimize
import qincompat.verify as verify
from qincompat import (
    DimensionMismatchError,
    HermitianObservable,
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
    asymmetric_pair,
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
    measurement_effects,
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
from qincompat.serialization import MAX_DIM
from qincompat.verify import run_suites

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
    for params in ({"n_outcomes": 2.7}, {"n_outcomes": "3"}, {"n_outcomes": float("nan")},
                   {"n_outcomes": float("inf")}, {"n_outcomes": None}):
        with pytest.raises(ParamOutOfRangeError, match="whole numbers"):
            closed_form("luders_fidelity_max", **params)
    with pytest.raises(ParamOutOfRangeError, match="whole numbers"):
        closed_form("fidelity_directional_max", d=2.5)
    with pytest.raises(ParamOutOfRangeError, match="whole numbers"):
        closed_form("fidelity_shared_eigenvectors", d=4, d_c=0.5)
    with pytest.raises(ParamOutOfRangeError, match="whole numbers"):
        closed_form("degenerate_disturbance", n_distinct="3")
    # numpy integers and integral floats are whole numbers
    assert closed_form("fidelity_directional_max", d=np.int64(4)) == 0.75
    assert closed_form("fidelity_shared_eigenvectors", d=4.0, d_c=np.uint8(1)) == (1 - 1 / 3) / 2
    assert closed_form("degenerate_disturbance", n_distinct=np.float64(2.0)) == 0.5


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


@pytest.mark.parametrize("measure", [Measure.L1, Measure.LINF])
@pytest.mark.parametrize("d", range(2, 9))
def test_each_scan_row_is_reproduced_in_isolation_from_its_seed(measure, d):
    report = conjecture_scan(measure, d, 5, base_seed=100 + d)
    for row in report.rows:
        rng = np.random.default_rng(row.seed)
        first, second = random_observable(d, rng), random_observable(d, rng)
        pair = pair_incompatibility(measure, first, second, with_bounds=False)
        fwd, bwd = pair.forward, pair.backward
        argmax = fwd.argmax if fwd.value >= bwd.value else bwd.argmax
        assert row.value == pair.symmetric
        assert row.argmax.amplitudes.tobytes() == argmax.amplitudes.tobytes()
        assert row.provenance == (fwd.provenance, bwd.provenance)


def test_the_cached_masks_are_read_only_and_as_built():
    masks = incompatibility._subset_masks(3)
    assert not masks.flags.writeable
    assert masks.dtype == np.complex128
    np.testing.assert_array_equal(masks.real, [[(k >> j) & 1 for j in range(3)] for k in range(8)])
    assert incompatibility._subset_masks(3) is masks
    same = incompatibility._same_eigenspace((2, 1))
    assert not same.flags.writeable
    np.testing.assert_array_equal(same, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])


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
            assert objective(state.amplitudes[None])[0][0] == pytest.approx(
                distance(seq, direct), abs=1e-10
            )


def test_check_bounds_standalone():
    obs_a, obs_b = fourier_mub_pair(2)
    report = pair_incompatibility(Measure.L1, obs_a, obs_b, LIGHT, with_bounds=False)
    checks = check_bounds(report, obs_a, obs_b)
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
        seeds = analytic_seed_states(first, second)
        for measure in EXACT_MEASURES:
            exact = directional_incompatibility(measure, first, second)
            assert exact.provenance is Provenance.EXACT
            assert exact.starts_used == 0
            objective = pair_distance_objective(measure, first, second)
            value = objective(exact.argmax.amplitudes[None])[0][0]
            assert value == pytest.approx(exact.value, abs=1e-12)
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
        value = pair_distance_objective(measure, first, second)(state.amplitudes[None])[0][0]
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


def _sandwich_exact(measure, first, second) -> float:
    """Q_1 or Q_inf from D_j = sum_k K_k^dag E_j K_k - E_j over first's Kraus operators."""
    kraus = np.stack(canonical_instrument(first).kraus_flat())
    effects = np.stack(measurement_effects(second))
    diff = np.einsum("kba,jbc,kcd->jad", kraus.conj(), effects, kraus) - effects
    if measure is Measure.LINF:
        return float(np.abs(np.linalg.eigvalsh(diff)).max())
    n = len(diff)
    masks = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    lam = np.linalg.eigvalsh(np.einsum("sj,jab->sab", masks.astype(float), diff[: n - 1]))
    return float(max(lam[:, -1].max(), -lam[:, 0].min()))


def _eigenbasis_pair(kind, d):
    """An observable first and a second of the named kind at dimension d, fresh each call.

    Degenerate observables have ranks (d - d//2, d//2), or (2, 1, ..., 1)
    for the second of a degenerate pair; at d = 2 both are (2,).
    """
    rng = np.random.default_rng(1000 * d + len(kind))
    high = (d - d // 2, d // 2) if d > 2 else (2,)
    low = (2,) + (1,) * (d - 2)
    if kind == "degenerate first":
        return degenerate_observable(high, random_unitary(d, rng)), random_observable(d, rng)
    if kind == "degenerate second":
        return random_observable(d, rng), degenerate_observable(high, random_unitary(d, rng))
    if kind == "both degenerate":
        return (degenerate_observable(high, random_unitary(d, rng)),
                degenerate_observable(low, random_unitary(d, rng)))
    return random_observable(d, rng), random_povm(d, 3, rng)


_EIGENBASIS_KINDS = ("degenerate first", "degenerate second", "both degenerate", "povm second")


@pytest.mark.parametrize("kind", _EIGENBASIS_KINDS)
@pytest.mark.parametrize("d", range(2, 9))
def test_exact_values_in_the_eigenbasis_match_the_kraus_sandwich(kind, d):
    first, second = _eigenbasis_pair(kind, d)
    for measure in EXACT_MEASURES:
        for a, b in ((first, second), (second, first)):
            result = directional_incompatibility(measure, a, b)
            assert result.provenance is Provenance.EXACT
            assert abs(result.value - _sandwich_exact(measure, a, b)) <= 2e-15
            objective = pair_distance_objective(measure, a, b)
            assert abs(objective(result.argmax.amplitudes[None])[0][0] - result.value) <= 1e-12


def _nudged_differences(monkeypatch, scale, seed):
    """Make every D_j stack move by a Hermitian perturbation of about ``scale`` per entry."""
    real = incompatibility._heralded_differences

    def nudged(first, second):
        diff, basis = real(first, second)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(diff.shape) + 1j * rng.standard_normal(diff.shape)
        noise = (noise + noise.conj().transpose(0, 2, 1)) / 2.0
        return diff + scale * (noise - noise.mean(axis=0)), basis

    monkeypatch.setattr(incompatibility, "_heralded_differences", nudged)


@pytest.mark.parametrize("measure", EXACT_MEASURES)
@pytest.mark.parametrize("d, m", [(5, 2), (6, 2), (7, 3)])
def test_an_argmax_in_a_repeated_eigenspace_survives_round_off(monkeypatch, measure, d, m):
    """The forward argmax of an asymmetric pair moves by round-off over the gap, not within its eigenspace.

    Its value is a repeated extreme eigenvalue (0.6 twice at d = 5, m = 2),
    where LAPACK's own eigenvector turned by about 0.02 in its first
    amplitude when the D_j stacks moved by 3e-16.
    """
    first, second = asymmetric_pair(d, m)
    diff, _ = incompatibility._heralded_differences(first, second)
    if measure is Measure.L1:
        diff = (incompatibility._subset_masks(len(diff) - 1) @ diff[:-1].reshape(len(diff) - 1, -1))
        diff = diff.reshape(-1, d, d)
    lam = np.linalg.eigvalsh(diff)
    extreme = np.maximum(lam[:, -1], -lam[:, 0]).max()
    assert (np.abs(np.abs(lam) - extreme) <= 1e-12).sum() > 1  # the extreme is repeated
    exact = incompatibility._exact_directional(measure, first, second)
    for seed in range(4):
        with monkeypatch.context() as patch:
            _nudged_differences(patch, 3e-16, seed)
            moved = incompatibility._exact_directional(measure, first, second)
        assert abs(moved.value - exact.value) <= 1e-14
        assert np.abs(moved.argmax.amplitudes - exact.argmax.amplitudes).max() <= 1e-12


def _commuting_fixtures():
    for d in range(2, 7):
        yield commuting_fixture(d)
        yield commuting_subspace_pair(d, d - 1)


@pytest.mark.parametrize("measure", EXACT_MEASURES)
def test_an_argmax_in_a_repeated_eigenspace_attains_the_exact_value(measure):
    pairs = [*_commuting_fixtures(), asymmetric_pair(5, 2), asymmetric_pair(6, 2)]
    for pair in pairs:
        for first, second in (pair, pair[::-1]):
            result = incompatibility._exact_directional(measure, first, second)
            objective = pair_distance_objective(measure, first, second)
            value = objective(result.argmax.amplitudes[None])[0][0]
            assert abs(value - result.value) <= 1e-14


def test_only_a_repeated_eigenvalue_replaces_lapacks_eigenvector(monkeypatch):
    """Random observables have simple eigenvalues, whose eigenvector is kept as LAPACK returned it."""
    projected = []
    real = incompatibility._reference_projection
    monkeypatch.setattr(incompatibility, "_reference_projection",
                        lambda space, basis: projected.append(space.shape[1]) or real(space, basis))
    for d in (2, 3, 5):
        for seed in range(5):
            for measure in EXACT_MEASURES:
                incompatibility._exact_directional(measure, random_observable(d, seed),
                                                   random_observable(d, seed + 50))
    assert projected == []
    for measure in EXACT_MEASURES:
        incompatibility._exact_directional(measure, *commuting_fixture(4))
    assert projected == [4, 4]


@pytest.mark.parametrize("measure", EXACT_MEASURES)
def test_an_exact_report_of_observables_builds_no_projectors(measure):
    for kind in _EIGENBASIS_KINDS[:3]:
        first, second = _eigenbasis_pair(kind, 4)
        pair_incompatibility(measure, first, second)
        for obs in (first, second):
            assert "instrument" not in vars(obs)
            assert "projectors" not in vars(obs)


def test_exact_values_read_the_effect_factors_not_the_effect_matrices(monkeypatch):
    rng = np.random.default_rng(2401)
    povm_3, povm_4 = random_povm(3, 4, rng), random_povm(3, 3, rng)
    pairs = {
        "observable -> POVM": (random_observable(3, rng), povm_3),
        "POVM -> observable": (povm_3, random_observable(3, rng)),
        "POVM -> POVM": (povm_3, povm_4),
        "instrument -> POVM": (_random_instrument(3, 3, seed=2402), povm_4),
        "trine -> POVM": (trine_povm(), random_povm(2, 4, rng)),
        "degenerate observables": _eigenbasis_pair("both degenerate", 5),
        "degenerate second": _eigenbasis_pair("degenerate second", 4),
    }
    expected = {(name, m): _sandwich_exact(m, *pair)
                for name, pair in pairs.items() for m in EXACT_MEASURES}

    def refuse(meas):
        raise AssertionError("the exact path rebuilt effect matrices")

    monkeypatch.setattr(incompatibility, "measurement_effects", refuse)
    for (name, measure), value in expected.items():
        result = directional_incompatibility(measure, *pairs[name])
        assert result.provenance is Provenance.EXACT, name
        assert abs(result.value - value) <= 2e-15, name


def _eigenbasis_differences_reference(first, second, per_block=True):
    """An observable pair's stack, G_j read off second's eigenbasis V and ranks as U^H V.

    Each G_j is the product ``B B^H`` of its block B of columns of U^H V,
    block by block, or with ``per_block`` False the sum of the outer products
    of B's columns, which rounds alike for a block of one column.
    """
    columns = first.basis.conj().T @ second.basis
    if per_block:
        blocks = np.split(columns, np.cumsum(second.ranks[:-1]), axis=1)
        rotated = np.stack([block @ block.conj().T for block in blocks])
    else:
        rows = columns.T
        outer = rows[:, :, None] @ rows.conj()[:, None, :]
        rotated = np.add.reduceat(outer, np.cumsum((0,) + second.ranks[:-1]), axis=0)
    labels = np.repeat(np.arange(first.n_outcomes), first.ranks)
    return np.where(labels[:, None] == labels, 0.0, -rotated)


@pytest.mark.parametrize("d", range(2, 9))
def test_observable_pair_differences_are_formed_bit_for_bit_as_before(d):
    """Bit for bit as the outer products did for a non-degenerate second, and as a product per block."""
    rng = np.random.default_rng(2403 + d)
    pairs = [(random_observable(d, rng), random_observable(d, rng))]
    pairs += [_eigenbasis_pair(kind, d) for kind in _EIGENBASIS_KINDS[:3]]
    for obs_a, obs_b in pairs:
        for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
            diff, basis = incompatibility._heralded_differences(first, second)
            assert basis is first.basis
            assert diff.tobytes() == _eigenbasis_differences_reference(first, second).tobytes()
            outer_sums = _eigenbasis_differences_reference(first, second, per_block=False)
            if second.is_nondegenerate:
                assert diff.tobytes() == outer_sums.tobytes()
            np.testing.assert_allclose(diff, outer_sums, rtol=0, atol=4 * d * np.finfo(float).eps)


@pytest.mark.parametrize("solver", ["eigh", "eigvalsh"])
def test_eigensolver_failure_is_a_numerical_failure(monkeypatch, solver):
    """A decomposition in the exact L1 path that LAPACK fails to converge raises, and warns of nothing."""
    obs_a, obs_b = fourier_mub_pair(3)
    name = f"_{solver.upper()}"
    real = getattr(core, name)

    def fail(mat, **kwargs):  # LAPACK fails on NaN input at d >= 3, as on a matrix it cannot converge
        return real(np.full_like(mat, np.nan), **kwargs)

    monkeypatch.setattr(core, name, fail)
    with pytest.raises(NumericalFailureError):
        directional_incompatibility(Measure.L1, obs_a, obs_b)


def test_gap_is_known_for_exact_reports_only():
    rng = np.random.default_rng(31)
    report = pair_incompatibility(
        Measure.L1, random_observable(3, rng), random_observable(3, rng), TINY
    )
    assert report.gap_unknown is False
    shared = pair_incompatibility(Measure.FIDELITY, *commuting_subspace_pair(4, 1), TINY)
    assert shared.gap_unknown is False  # on the ceiling of its 3-dimensional block


def test_gap_is_known_only_when_each_direction_is_on_its_own_ceiling():
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)
    # Forward reaches 1 - 1/d. Backward ends on the face psi_0 = 0: on the
    # ceiling 1/2 at d=4, and at d=3 at 4/9, the best of 256 face-free starts.
    for d, backward in ((3, 4.0 / 9.0), (4, 0.5)):
        report = pair_incompatibility(Measure.FIDELITY, *asymmetric_pair(d, 1), config)
        assert report.forward.value >= 1.0 - 1.0 / d - 1e-9
        assert abs(report.backward.value - backward) <= 1e-12
        assert report.gap_unknown is (d == 3)
    # A random pair's values lie far below the ceilings 1 - 1/3 of its directions.
    random_pair = random_observable(3, 31), random_observable(3, 32)
    report = pair_incompatibility(Measure.FIDELITY, *random_pair, config)
    for result in (report.forward, report.backward):
        assert result.value < result.upper_bound - 1e6 * incompatibility.BOUND_SLACK
    assert report.gap_unknown is True
    for d in range(2, 7):
        for measure in (Measure.FIDELITY, Measure.L1):
            report = pair_incompatibility(measure, *fourier_mub_pair(d), config)
            assert report.gap_unknown is False
    shared = pair_incompatibility(Measure.FIDELITY, *commuting_subspace_pair(4, 1), config)
    assert shared.gap_unknown is False


def test_check_bounds_runs_no_search(monkeypatch):
    povm_a, povm_b = trine_povm(), random_povm(2, 3, 4)
    inputs = [
        (Measure.FIDELITY, povm_a, povm_b),
        (Measure.L1, povm_a, povm_b),
        (Measure.FIDELITY, *fourier_mub_pair(3)),
    ]
    reports = [pair_incompatibility(m, a, b, TINY, with_bounds=False) for m, a, b in inputs]

    def forbidden(*args, **kwargs):
        raise AssertionError("check_bounds ran a search")

    monkeypatch.setattr(optimize, "minimize", forbidden)
    monkeypatch.setattr(incompatibility, "maximal_disturbance", forbidden)
    checks = [check_bounds(r, a, b) for r, (_, a, b) in zip(reports, inputs)]
    assert [c.name for c in checks[0]] == [
        "luders-outcomes-forward", "luders-norm-forward", "disturbance-forward",
        "luders-outcomes-backward", "luders-norm-backward", "disturbance-backward",
    ]
    assert [c.name for c in checks[1]] == ["disturbance-forward", "disturbance-backward"]
    assert [c.name for c in checks[2]] == [
        "disturbance-forward", "fidelity-dim-forward",
        "disturbance-backward", "fidelity-dim-backward", "fidelity-dim-symmetric",
    ]
    for report, report_checks in zip(reports[:2], checks[:2]):
        by_name = {c.name: c for c in report_checks}
        kind = Measure.FIDELITY if report.measure is Measure.FIDELITY else Measure.L1
        for direction, meas in (("forward", povm_a), ("backward", povm_b)):
            result = getattr(report, direction)
            check = by_name[f"disturbance-{direction}"]
            objective = incompatibility._disturbance_objective(kind, canonical_instrument(meas))
            assert check.bound == objective(result.argmax.amplitudes[None])[0][0]
            assert check.satisfied
            raised = replace(report, **{direction: replace(result, value=check.bound + 1e-6)})
            flagged = replace(raised, bound_checks=check_bounds(raised, povm_a, povm_b))
            assert f"disturbance-{direction}" in {c.name for c in flagged.bound_violations}


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
        seeds = analytic_seed_states(obs, inst)
        for measure in (Measure.L1, Measure.FIDELITY):
            exact = maximal_disturbance(measure, obs, cfg)
            assert exact.provenance is Provenance.EXACT
            assert exact.starts_used == 0
            assert exact.value == closed_form("degenerate_disturbance", n_distinct=obs.n_outcomes)
            objective = incompatibility._disturbance_objective(measure, inst)
            value = objective(exact.argmax.amplitudes[None])[0][0]
            assert value == pytest.approx(exact.value, abs=1e-12)
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


def test_povm_fidelity_disturbance_carries_the_luders_norm_ceiling(minimize_calls):
    trine = maximal_disturbance(Measure.FIDELITY, trine_povm(), LIGHT)
    assert trine.upper_bound == 0.5
    assert abs(trine.value - 0.5) <= 1e-12
    assert minimize_calls == [1]
    # A projective POVM's ceiling 1 - 1/3 is reached by the uniform superposition seed.
    projective = Povm(tuple(np.diag(row).astype(complex) for row in np.eye(3)))
    result = maximal_disturbance(Measure.FIDELITY, projective, LIGHT)
    assert minimize_calls == [1]
    ceilings = incompatibility.proven_ceilings(Measure.FIDELITY, projective)
    assert result.upper_bound == ceilings["luders-norm"]
    assert result.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.value >= result.upper_bound - incompatibility.CEILING_TOL
    assert (result.provenance, result.starts_used, result.iterations) == (
        Provenance.ANALYTIC_SEED, 0, 0
    )
    seeds = analytic_seed_states(projective, canonical_instrument(projective))
    assert result.evaluations == len(seeds)
    # An instrument carries its dual ceiling, which is tight for the trine's
    # Lueders instrument; the L1 measure proves nothing.
    lueders = maximal_disturbance(Measure.FIDELITY, canonical_instrument(trine_povm()), TINY)
    assert lueders.upper_bound == pytest.approx(0.5, abs=1e-12)
    assert lueders.upper_bound >= 0.5
    assert maximal_disturbance(Measure.L1, trine_povm(), TINY).upper_bound is None


def test_a_rotated_projective_povm_disturbance_stops_at_its_ceiling(minimize_calls):
    # The top eigenvectors of its effects, summed, spread a state evenly over the outcomes.
    povm = Povm.from_observable(degenerate_observable((2, 1, 1), random_unitary(4, 3)))
    result = maximal_disturbance(Measure.FIDELITY, povm, LIGHT)
    assert minimize_calls == []
    assert result.upper_bound == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert result.value >= result.upper_bound - incompatibility.CEILING_TOL
    assert (result.provenance, result.starts_used, result.iterations) == (
        Provenance.ANALYTIC_SEED, 0, 0
    )


def _random_instrument(dim: int, n_kraus: int, seed: int) -> Instrument:
    """One Kraus operator per outcome, cut from a random isometry C^dim -> C^(n_kraus dim)."""
    rng = np.random.default_rng(seed)
    shape = (n_kraus * dim, dim)
    isometry = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    return Instrument(tuple((kraus,) for kraus in isometry.reshape(n_kraus, dim, dim)))


def test_the_dual_ceiling_bounds_every_searched_disturbance():
    for k in range(20):
        d = 2 + k % 3
        for inst in (canonical_instrument(random_povm(d, 2 + k % 4, seed=100 + k)),
                     _random_instrument(d, 2 + k % 3, seed=200 + k)):
            objective = incompatibility._disturbance_objective(Measure.FIDELITY, inst)
            seeds = analytic_seed_states(inst)
            searched = maximize_over_pure_states(objective, d, seeds, LIGHT)
            assert incompatibility._dual_ceiling(inst) >= searched.value - 1e-12


def test_the_dual_ceiling_is_tight_for_the_trine_and_equal_rank_projective_povms():
    assert abs(incompatibility._dual_ceiling(canonical_instrument(trine_povm())) - 0.5) <= 1e-12
    for ranks in ((1, 1, 1), (2, 2), (1, 1, 1, 1), (2, 2, 2)):
        povm = Povm.from_observable(degenerate_observable(ranks, random_unitary(sum(ranks), 9)))
        ceiling = incompatibility._dual_ceiling(canonical_instrument(povm))
        assert abs(ceiling - (1.0 - 1.0 / len(ranks))) <= 1e-12


def test_the_disturbance_kernel_and_dual_ceiling_read_a_measurement_as_its_instrument():
    rng = np.random.default_rng(2404)
    measurements = [random_povm(3, 4, rng), trine_povm(), _random_instrument(3, 2, seed=2405),
                    z_channel(0.3), random_observable(4, rng),
                    degenerate_observable((2, 1, 1), random_unitary(4, rng))]
    for meas in measurements:
        inst = canonical_instrument(meas)
        states = np.vstack([analytic_seed_states(meas), random_unitary(meas.dim, rng)])
        for measure in (Measure.FIDELITY, Measure.L1):
            read = incompatibility._disturbance_objective(measure, meas)(states)
            built = incompatibility._disturbance_objective(measure, inst)(states)
            for a, b in zip(read, built):
                assert a.tobytes() == b.tobytes()
        assert incompatibility._dual_ceiling(meas) == incompatibility._dual_ceiling(inst)


def test_an_instrument_is_seeded_once(monkeypatch):
    calls = []
    real = core._normal_basis
    monkeypatch.setattr(core, "_normal_basis", lambda k: calls.append(1) or real(k))
    for inst in (z_channel(0.3), _random_instrument(3, 3, seed=2406)):
        calls.clear()
        twice = analytic_seed_states(inst, inst)
        assert analytic_seed_states(inst).tobytes() == twice.tobytes()
        for measure in (Measure.FIDELITY, Measure.L1):
            maximal_disturbance(measure, inst, TINY)
        assert len(calls) == 1  # one stacked call for all its Kraus operators


def _disturbance_fields(result):
    return (result.value, result.argmax.amplitudes.tobytes(), result.provenance,
            result.starts_used, result.evaluations, result.iterations, result.upper_bound)


def test_a_povms_disturbance_builds_no_instrument(monkeypatch):
    """Its Lüders instrument's seed rows are formed from the POVM's own Kraus stack, bit for bit."""
    rng = np.random.default_rng(2407)
    povms = [trine_povm()] + [random_povm(d, n, rng) for d, n in ((2, 4), (3, 4), (3, 2), (4, 5))]
    measures = (Measure.FIDELITY, Measure.L1)
    real_seeds, expected = incompatibility._seed_states, []
    for povm in povms:  # seeded, as before, from the rows of the built Lüders instrument
        twin = Povm(povm.elements)
        with monkeypatch.context() as patch:
            patch.setattr(incompatibility, "_seed_states",
                          lambda *rows, twin=twin: real_seeds(twin.seed_rows, twin.instrument.seed_rows))
            expected.append([_disturbance_fields(maximal_disturbance(m, twin, TINY)) for m in measures])
        assert twin.luders_rows.tobytes() == twin.instrument.seed_rows.tobytes()
    built = []
    real_init = Instrument.__post_init__
    monkeypatch.setattr(Instrument, "__post_init__", lambda self: built.append(1) or real_init(self))
    for povm, fields in zip(povms, expected):
        fresh = Povm(povm.elements)
        assert [_disturbance_fields(maximal_disturbance(m, fresh, TINY)) for m in measures] == fields
        assert "instrument" not in vars(fresh)
    assert built == []


@pytest.mark.parametrize("k", range(11))
def test_the_z_channel_disturbance_stops_at_its_dual_ceiling(k, minimize_calls):
    result = maximal_disturbance(Measure.FIDELITY, z_channel(k / 10), LIGHT)
    assert minimize_calls == []
    assert abs(result.upper_bound - k / 10) <= 1e-12
    assert abs(result.value - k / 10) <= 1e-12
    assert result.upper_bound >= result.value
    assert (result.provenance, result.starts_used, result.iterations) == (
        Provenance.ANALYTIC_SEED, 0, 0
    )


@pytest.mark.parametrize("d, m", [(4, 1), (6, 1), (6, 2), (8, 1), (8, 2), (8, 3)])
def test_asymmetric_backward_values_stop_at_a_subset_superposition(d, m, minimize_calls):
    obs_a, obs_b = asymmetric_pair(d, m)
    result = directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, LIGHT)
    assert minimize_calls == []
    assert abs(result.value - 0.5) <= 1e-12
    assert result.upper_bound == 0.5
    assert (result.provenance, result.starts_used, result.iterations) == (
        Provenance.ANALYTIC_SEED, 0, 0
    )
    assert result.evaluations == len(analytic_seed_states(obs_b, obs_a)) + 2**d - d - 2


@pytest.mark.parametrize("d, m", [(3, 1), (5, 2)])
def test_asymmetric_backward_values_below_the_ceiling_search_as_before(d, m):
    obs_a, obs_b = asymmetric_pair(d, m)
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)
    result = directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, config)
    seeds = analytic_seed_states(obs_b, obs_a)
    objective = pair_distance_objective(Measure.FIDELITY, obs_b, obs_a)
    search = maximize_over_pure_states(objective, d, seeds, config)
    assert result.value == search.value < 0.5 - incompatibility.CEILING_TOL
    assert result.argmax.amplitudes.tobytes() == search.argmax.amplitudes.tobytes()
    assert (result.provenance, result.starts_used, result.iterations) == (
        search.provenance, search.starts_used, search.iterations
    )
    assert search.iterations > 0
    assert result.evaluations == search.evaluations + len(seeds) + 2**d - d - 2


def test_subset_superpositions_need_a_degenerate_first_and_a_small_observable_second():
    obs_a, obs_b = asymmetric_pair(4, 1)
    rows = incompatibility._subset_superpositions(obs_b, obs_a)
    assert rows.shape == (10, 4)
    np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-15)
    # Bit masks in increasing order: 0b0011 first, then 0b0101.
    np.testing.assert_allclose(rows[1], (obs_a.basis[:, 0] + obs_a.basis[:, 2]) / np.sqrt(2))
    big_a, big_b = asymmetric_pair(9, 1)
    for first, second in ((obs_a, obs_b), (obs_b, Povm.from_observable(obs_a)), (big_b, big_a)):
        assert incompatibility._subset_superpositions(first, second) is None


def test_only_fidelity_objectives_whose_blocks_can_vanish_report_faces():
    obs_a, obs_b = random_observable(3, 11), random_observable(3, 12)
    full_rank = random_povm(3, 4, seed=13)
    vecs = np.eye(3, dtype=complex)
    for measure, first, second in (
        (Measure.FIDELITY, full_rank, random_povm(3, 3, seed=14)),
        (Measure.FIDELITY, obs_a, full_rank),
        (Measure.L1, obs_a, obs_b),
        (Measure.LINF, obs_a, obs_b),
    ):
        assert len(pair_distance_objective(measure, first, second)(vecs)) == 2
    _, _, faces = pair_distance_objective(Measure.FIDELITY, obs_a, obs_b)(vecs)
    # p_j, then q_j, for the three outcomes of obs_b
    assert faces.probs.shape == (3, 6) and len(faces.columns) == 6
    for block, columns in enumerate(faces.columns):
        assert (np.abs(vecs @ columns) ** 2).sum(axis=1) == pytest.approx(faces.probs[:, block])
    assert faces.probs[:, :3] == pytest.approx(np.abs(vecs.conj() @ obs_b.basis) ** 2)


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


def _candidate_columns(meas):
    """A measurement's candidate vectors, unnormalized, in the documented order."""
    if isinstance(meas, HermitianObservable):
        bases = [meas.basis]
    elif isinstance(meas, Povm):
        bases = [np.linalg.eigh(elem)[1] for elem in meas.elements]
    else:
        bases = [core._normal_basis(kraus) for kraus in meas.kraus_flat()]
    columns = [col for basis in bases for col in (*basis.T, basis.sum(axis=1))]
    if isinstance(meas, HermitianObservable) and meas.n_outcomes > 1:
        reps = np.stack([meas.basis[:, sl.start] for sl in meas.block_slices()], axis=1)
        columns.append(reps.sum(axis=1))
    if isinstance(meas, Povm):
        columns.append(np.stack([basis[:, -1] for basis in bases], axis=1).sum(axis=1))
    return columns


_SEEDED_MEASUREMENTS = {
    "observable": random_observable(4, 71),
    "degenerate": degenerate_observable((2, 1, 1), random_unitary(4, 72)),
    "povm": random_povm(3, 4, seed=73),
    "instrument": z_channel(0.3),
    "luders": canonical_instrument(random_povm(3, 3, seed=74)),
}


@pytest.mark.parametrize("kind", sorted(_SEEDED_MEASUREMENTS))
def test_seed_rows_are_the_normalized_candidates(kind):
    meas = _SEEDED_MEASUREMENTS[kind]
    kept = []
    for col in _candidate_columns(meas):
        state = PureState.normalized(col)
        if all(abs(np.vdot(k.amplitudes, state.amplitudes)) <= 1.0 - 1e-9 for k in kept):
            kept.append(state)
    rows = analytic_seed_states(meas)
    assert rows.dtype == np.complex128 and rows.flags.c_contiguous
    assert rows.tobytes() == np.stack([k.amplitudes for k in kept]).tobytes()
    assert analytic_seed_states(meas, meas).tobytes() == rows.tobytes()


def test_the_package_builds_exactly_hermitian_kraus_operators():
    # _normal_basis relies on it: such an operator's anti-Hermitian part is exactly zero.
    for meas in (random_observable(3, 75), random_povm(3, 4, seed=76)):
        for kraus in canonical_instrument(meas).kraus_flat():
            assert np.array_equal(kraus, kraus.conj().T)


@pytest.mark.parametrize("measure", list(Measure))
@pytest.mark.parametrize("first", [trine_povm(), random_observable(2, 77)])
def test_a_second_instrument_is_a_type_error(measure, first):
    channel = z_channel(0.3)
    with pytest.raises(TypeError, match="observable or a POVM, not Instrument"):
        directional_incompatibility(measure, first, channel)
    with pytest.raises(TypeError, match="observable or a POVM, not Instrument"):
        pair_distance_objective(measure, first, channel)


@pytest.mark.parametrize("bad", [np.eye(2), "trine", None], ids=["array", "str", "None"])
def test_a_non_measurement_is_a_type_error(bad):
    good = random_observable(2, 78)
    for measure in (Measure.FIDELITY, Measure.L1):
        for first, second in ((bad, good), (good, bad)):
            with pytest.raises(TypeError):
                pair_distance_objective(measure, first, second)
            with pytest.raises(TypeError):
                directional_incompatibility(measure, first, second)
        with pytest.raises(TypeError):
            maximal_disturbance(measure, bad)
    for measurements in ((bad,), (good, bad), (bad, good)):
        with pytest.raises(TypeError):
            analytic_seed_states(*measurements)


@pytest.mark.parametrize("dim", range(2, 6))
def test_normal_kraus_basis_diagonalizes_the_operator(dim):
    rng = np.random.default_rng(dim)
    unitary = random_unitary(dim, seed=dim)
    spectra = [
        rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
        np.exp(2j * np.pi * (np.arange(dim) + 0.25) / dim),
        1.0 + 1j * np.arange(dim),  # the Hermitian part is the identity
        np.array([0.5j] * (dim - 1) + [2.0]),  # a degenerate eigenvalue
    ]
    for spectrum in spectra:
        kraus = unitary @ np.diag(spectrum) @ unitary.conj().T
        basis = core._normal_basis(kraus)
        np.testing.assert_allclose(basis.conj().T @ basis, np.eye(dim), atol=1e-9)
        rotated = basis.conj().T @ kraus @ basis
        assert np.abs(rotated - np.diag(np.diagonal(rotated))).max() <= 1e-9


def _search_without_ceiling(measure, first, second, config):
    """The seeded multistart search with every random start, as run below the ceiling."""
    objective = pair_distance_objective(measure, first, second)
    return maximize_over_pure_states(
        objective, first.dim, analytic_seed_states(first, second), config
    )


def test_seeds_below_the_ceiling_search_as_before():
    pairs = [
        (random_observable(4, 41), random_observable(4, 42)),
        (trine_povm(), random_povm(2, 4, seed=3)),
    ]
    for first, second in pairs:
        report = pair_incompatibility(Measure.FIDELITY, first, second, LIGHT)
        for result, a, b in ((report.forward, first, second), (report.backward, second, first)):
            expected = _search_without_ceiling(Measure.FIDELITY, a, b, LIGHT)
            assert result.starts_used == LIGHT.n_random_starts
            assert result.value == expected.value
            assert result.provenance is expected.provenance
            np.testing.assert_array_equal(result.argmax.amplitudes, expected.argmax.amplitudes)


def test_non_finite_seed_value_raises_despite_the_ceiling(monkeypatch):
    def objective_factory(*args):
        def objective(vecs):
            values = np.full(len(vecs), np.nan)
            values[0] = 1.0  # the first seed tops every ceiling, the others are NaN
            return values, np.zeros_like(vecs)

        return objective

    monkeypatch.setattr(incompatibility, "pair_distance_objective", objective_factory)
    with pytest.raises(ObjectiveNaNError):
        directional_incompatibility(Measure.FIDELITY, *fourier_mub_pair(3), TINY)


def _conjugated(obs, unitary):
    return HermitianObservable(obs.eigenvalues, obs.ranks, unitary @ obs.basis)


@pytest.mark.parametrize("d, d_c", [(4, 1), (4, 2), (6, 3), (8, 5)])
def test_shared_eigenvector_pairs_stop_at_the_block_ceiling(d, d_c, minimize_calls):
    unitary = random_unitary(d, 10 * d + d_c)
    obs_a, obs_b = (_conjugated(obs, unitary) for obs in commuting_subspace_pair(d, d_c))
    report = pair_incompatibility(Measure.FIDELITY, obs_a, obs_b, LIGHT, with_bounds=False)
    ceiling = 1.0 - 1.0 / (d - d_c)
    for result in (report.forward, report.backward):
        assert result.provenance is Provenance.ANALYTIC_SEED
        assert result.starts_used == 0
        assert result.upper_bound == pytest.approx(ceiling, abs=1e-15)
    expected = closed_form("fidelity_shared_eigenvectors", d=d, d_c=d_c)
    assert report.symmetric == pytest.approx(expected, abs=1e-12)
    assert report.gap_unknown is False
    assert minimize_calls == []


def _direct_sum(upper, lower):
    """Effects of two qubit measurements placed on the summands of C^2 ⊕ C^2."""
    elements = []
    for top, bottom in zip(upper, lower):
        elem = np.zeros((4, 4), dtype=complex)
        elem[:2, :2], elem[2:, 2:] = top, bottom
        elements.append(elem)
    return elements


def test_direct_sum_povm_pair_stops_at_the_largest_block_ceiling(minimize_calls):
    """A projective MUB pair on one qubit summand, random POVMs on the other.

    The first POVM has three outcomes, so its own ceilings lie above 1/2, while
    each summand has luders-norm ceiling at most 1/2, reached on the first.
    """
    z_basis, x_basis = (obs.basis for obs in fourier_mub_pair(2))
    qubit = random_unitary(2, 8)
    first_upper = [qubit @ np.outer(v, v.conj()) @ qubit.conj().T for v in z_basis.T]
    second_upper = [qubit @ np.outer(v, v.conj()) @ qubit.conj().T for v in x_basis.T]
    first_upper.append(np.zeros((2, 2)))
    first_lower, second_lower = random_povm(2, 3, seed=5), random_povm(2, 2, seed=6)
    unitary = random_unitary(4, 9)
    first, second = (
        Povm(tuple(unitary @ e @ unitary.conj().T for e in _direct_sum(up, low.elements)))
        for up, low in ((first_upper, first_lower), (second_upper, second_lower))
    )
    assert min(incompatibility.proven_ceilings(Measure.FIDELITY, first).values()) > 0.5 + 1e-3
    result = directional_incompatibility(Measure.FIDELITY, first, second, LIGHT)
    assert minimize_calls == []
    assert result.starts_used == 0
    assert result.upper_bound == pytest.approx(0.5, abs=1e-15)
    per_block = [
        directional_incompatibility(Measure.FIDELITY, Povm(tuple(a)), Povm(tuple(b)), LIGHT).value
        for a, b in ((first_upper, second_upper), (first_lower.elements, second_lower.elements))
    ]
    assert per_block[0] == pytest.approx(0.5, abs=1e-12)
    assert per_block[1] < 0.5
    assert result.value == pytest.approx(max(per_block), abs=1e-12)


def test_commuting_fixtures_reach_ceiling_zero_without_a_search(minimize_calls):
    base = random_observable(3, 202)
    fixtures = [
        commuting_fixture(3),
        (base, spectral_decompose(base.matrix @ base.matrix)),
        commuting_subspace_pair(3, 2),
    ]
    for obs_a, obs_b in fixtures:
        for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
            result = directional_incompatibility(Measure.FIDELITY, first, second, LIGHT)
            assert result.upper_bound == 0.0
            assert result.starts_used == 0
            assert abs(result.value) <= 1e-12
    assert minimize_calls == []


def test_fidelity_value_of_equal_statistics_is_exactly_zero():
    base = random_observable(3, 202)
    second = spectral_decompose(base.matrix @ base.matrix)
    assert directional_incompatibility(Measure.FIDELITY, base, second).value == 0.0


def test_directional_evaluations_count_the_seeds_and_the_search():
    obs_a, obs_b = commuting_fixture(3)
    on_ceiling = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, LIGHT)
    assert on_ceiling.evaluations == len(analytic_seed_states(obs_a, obs_b))

    first, second = random_observable(4, 43), random_observable(4, 44)
    searched = directional_incompatibility(Measure.FIDELITY, first, second, LIGHT)
    expected = _search_without_ceiling(Measure.FIDELITY, first, second, LIGHT)
    # The seeds are evaluated for the ceiling exit, then again by the search.
    seeds = analytic_seed_states(first, second)
    assert searched.evaluations == expected.evaluations + len(seeds)
    assert directional_incompatibility(Measure.L1, first, second, LIGHT).evaluations == 0


def _weakly_coupled_shared_pair():
    """commuting_subspace_pair(4, 1) with its shared eigenvector rotated by 1e-6 into the rest."""
    obs_a, obs_b = commuting_subspace_pair(4, 1)
    generator = np.zeros((4, 4), dtype=complex)
    generator[0, 1] = generator[1, 0] = 1e-6
    return obs_a, _conjugated(obs_b, scipy.linalg.expm(1j * generator))


def test_irreducible_pairs_are_one_block_and_search_as_before():
    pairs = [(random_observable(4, 43), random_observable(4, 44)), _weakly_coupled_shared_pair()]
    for obs_a, obs_b in pairs:
        for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
            assert len(incompatibility._invariant_blocks(first, second)) == 1
            result = directional_incompatibility(Measure.FIDELITY, first, second, LIGHT)
            expected = _search_without_ceiling(Measure.FIDELITY, first, second, LIGHT)
            assert result.starts_used == LIGHT.n_random_starts
            assert result.value == expected.value
            assert result.provenance is expected.provenance
            np.testing.assert_array_equal(result.argmax.amplitudes, expected.argmax.amplitudes)


def _rotated_sum(parts, unitary):
    """The block-diagonal matrix with ``parts`` on its diagonal, conjugated by ``unitary``."""
    return unitary @ scipy.linalg.block_diag(*parts) @ unitary.conj().T


def _planted_pair(kind, sizes, seed):
    """Two measurements on the summands of ⊕ C^size, rotated, and the summands' projectors.

    ``kind`` is "observable" (random observables on every summand),
    "degenerate" (first's last summand, of dimension 3, is degenerate) or
    "povm" (random three-outcome POVMs on every summand).
    """
    rng = np.random.default_rng(seed)
    unitary = random_unitary(sum(sizes), seed)
    edges = np.cumsum((0,) + sizes)
    projectors = [unitary[:, lo:hi] @ unitary[:, lo:hi].conj().T
                  for lo, hi in zip(edges, edges[1:])]
    if kind == "povm":
        pair = []
        for offset in (0, 100):
            parts = [random_povm(k, 3, seed=seed + offset + k).elements for k in sizes]
            pair.append(Povm(tuple(_rotated_sum(effects, unitary) for effects in zip(*parts))))
        return pair, projectors
    parts = []
    for _ in range(2):
        gauss = [rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)) for k in sizes]
        parts.append([g + g.conj().T for g in gauss])
    if kind == "degenerate":
        parts[0][-1] = degenerate_observable((2, 1), random_unitary(3, seed)).matrix
    return [spectral_decompose(_rotated_sum(p, unitary)) for p in parts], projectors


@pytest.mark.parametrize("kind, sizes, seed", [
    ("observable", (1, 2, 3), 21),
    ("degenerate", (1, 2, 3), 22),
    ("povm", (2, 3), 23),
    ("observable", (5, 11, MAX_DIM - 16), 24),
])
def test_planted_direct_sums_split_into_their_summands(kind, sizes, seed):
    (obs_a, obs_b), projectors = _planted_pair(kind, sizes, seed)
    for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
        blocks = incompatibility._invariant_blocks(first, second)
        assert len(blocks) == len(projectors)
        for proj in projectors:
            assert min(np.abs(b @ b.conj().T - proj).max() for b in blocks) <= 1e-8


def _kron_pair(d, extra):
    """A MUB pair tensored with I_2 and rotated, plus a summand of its own if ``extra``.

    Every eigenvalue of either observable has rank 2, or 1 on the summand.
    """
    parts = [np.kron(obs.matrix, np.eye(2)) for obs in fourier_mub_pair(d)]
    if extra:
        parts = [scipy.linalg.block_diag(m, [[value]]) for m, value in zip(parts, (9.0, 7.0))]
    unitary = random_unitary(len(parts[0]), 5)
    return tuple(spectral_decompose(_rotated_sum([m], unitary)) for m in parts)


@pytest.mark.parametrize("extra", [False, True])
@pytest.mark.parametrize("d", [2, 3])
def test_repeated_blocks_merge_without_moving_the_ceiling(d, extra, minimize_calls):
    """A MUB pair tensored with I_2 holds its one irreducible block twice.

    The two copies cannot be told apart, so they come back as one block, with
    the same lowest ceiling 1 - 1/d. With ``extra``, a one-dimensional summand
    on which first takes a further value lifts first's own ceiling, so only
    the split gives the exit.
    """
    first, second = _kron_pair(d, extra)
    blocks = incompatibility._invariant_blocks(first, second)
    assert sorted(b.shape[1] for b in blocks) == [1] * extra + [2 * d]
    ceiling = 1.0 - 1.0 / d
    table = min(incompatibility.proven_ceilings(Measure.FIDELITY, first).values())
    assert (table > ceiling + 1e-3) == extra
    result = directional_incompatibility(Measure.FIDELITY, first, second, LIGHT)
    assert minimize_calls == []
    assert result.upper_bound == pytest.approx(ceiling, abs=1e-15)
    assert result.value == pytest.approx(ceiling, abs=1e-14)
    assert (result.provenance, result.starts_used, result.iterations) == (
        Provenance.ANALYTIC_SEED, 0, 0
    )


def _blocks_by_unique(first, second):
    """The blocks of :func:`_invariant_blocks`, labelled through ``np.unique`` as it once did."""
    gens = np.concatenate((first.kraus, measurement_effects(second)))
    weights = np.sqrt(np.arange(2.0, len(gens) + 2.0))
    _, vecs = incompatibility._eigh(np.tensordot(weights, gens, axes=1), "a generic element")
    linked = (np.abs(vecs.conj().T @ gens @ vecs) > incompatibility.BLOCK_TOL).any(axis=0)
    np.fill_diagonal(linked, True)
    labels = np.arange(len(vecs))
    while not np.array_equal(labels, spread := np.where(linked, labels, len(vecs)).min(axis=1)):
        labels = spread
    return [vecs[:, labels == label] for label in np.unique(labels)]


def test_blocks_equal_those_labelled_through_np_unique():
    """The representatives of the components are the labels that are their own index."""
    pairs = [_planted_pair(kind, sizes, seed)[0] for kind, sizes, seed in (
        ("observable", (1, 2, 3), 21), ("degenerate", (1, 2, 3), 22), ("povm", (2, 3), 23),
        ("observable", (3, 1, 1, 2), 25),
    )]
    pairs += [_kron_pair(d, extra) for d in (2, 3) for extra in (False, True)]
    pairs += [commuting_subspace_pair(6, 3), asymmetric_pair(5, 2)]
    pairs.append((random_observable(4, np.random.default_rng(3)), random_povm(4, 3, 4)))
    counts = set()
    for pair in pairs:
        for first, second in (pair, pair[::-1]):
            blocks = incompatibility._invariant_blocks(first, second)
            reference = _blocks_by_unique(first, second)
            assert [b.tobytes() for b in blocks] == [b.tobytes() for b in reference]
            counts.add(len(blocks))
    assert {1, 2, 3, 4} <= counts


def test_lueders_norm_ceiling():
    rng = np.random.default_rng(12)
    for d in (2, 3, 5):
        for _ in range(20):
            gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            kraus = gauss @ gauss.conj().T
            gap = np.linalg.norm(kraus, 2) * kraus - kraus @ kraus  # ||K|| K - K^2 >= 0
            assert np.linalg.eigvalsh(gap).min() >= -1e-12 * np.linalg.norm(kraus, 2) ** 2
    trine = incompatibility.proven_ceilings(Measure.FIDELITY, trine_povm())
    assert trine["luders-norm"] == pytest.approx(0.5, abs=1e-15)
    assert trine["luders-outcomes"] == pytest.approx(2.0 / 3.0, abs=1e-15)
    projective = Povm.from_observable(degenerate_observable((2, 1, 1)))
    assert incompatibility.proven_ceilings(Measure.FIDELITY, projective)["luders-norm"] == (
        pytest.approx(2.0 / 3.0, abs=1e-15)
    )


def _qubit_pairs(count, seed):
    rng = np.random.default_rng(seed)
    return [(random_observable(2, rng), random_observable(2, rng)) for _ in range(count)]


def test_qubit_observable_fidelity_is_exact_and_matches_the_search(monkeypatch):
    config = OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=5)
    pairs = _qubit_pairs(200, 2102)
    searched = [
        maximize_over_pure_states(
            pair_distance_objective(Measure.FIDELITY, a, b), 2, analytic_seed_states(a, b), config
        ).value
        for first, second in pairs
        for a, b in ((first, second), (second, first))
    ]

    def refuse(*args):
        raise AssertionError("the closed form built an objective or seeds")

    monkeypatch.setattr(incompatibility, "pair_distance_objective", refuse)
    monkeypatch.setattr(incompatibility, "analytic_seed_states", refuse)
    results = [
        directional_incompatibility(Measure.FIDELITY, a, b, config)
        for first, second in pairs
        for a, b in ((first, second), (second, first))
    ]
    for result, oracle in zip(results, searched):
        assert result.provenance is Provenance.EXACT
        assert (result.starts_used, result.evaluations, result.iterations) == (0, 0, 0)
        assert result.upper_bound == result.value
        assert abs(result.value - oracle) <= 1e-14
    values = np.array([result.value for result in results]).reshape(-1, 2)
    assert np.abs(values[:, 0] - values[:, 1]).max() <= 1e-15


def test_qubit_observable_fidelity_is_attained_at_an_eigenvector_of_second():
    for first, second in _qubit_pairs(20, 2103):
        result = directional_incompatibility(Measure.FIDELITY, first, second)
        assert np.abs(result.argmax.amplitudes - second.basis[:, 0]).max() <= 1e-15
        objective = pair_distance_objective(Measure.FIDELITY, first, second)
        for column in second.basis.T:
            assert abs(objective(column[None])[0][0] - result.value) <= 1e-14


@pytest.mark.parametrize("theta", [0.0, 1e-4, 1e-7])
def test_qubit_observable_fidelity_keeps_its_accuracy_near_a_shared_eigenvector(theta):
    rotation = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    diagonal = HermitianObservable.from_eigensystem([0.0, 1.0], np.eye(2))
    rotated = HermitianObservable.from_eigensystem([0.0, 1.0], rotation)
    expected = np.sin(2.0 * theta) ** 2 / 2.0
    for first, second in ((diagonal, rotated), (rotated, diagonal)):
        value = directional_incompatibility(Measure.FIDELITY, first, second).value
        if theta == 0.0:
            assert value == 0.0
        else:
            assert abs(value - expected) <= 1e-12 * expected


def test_qubit_mub_pair_is_exactly_one_half_with_every_bound_met():
    report = pair_incompatibility(Measure.FIDELITY, *fourier_mub_pair(2))
    assert report.forward.value == report.backward.value == 0.5
    assert report.gap_unknown is False
    assert report.bound_checks and report.bound_violations == ()
    for first, second in _qubit_pairs(10, 2104):
        report = pair_incompatibility(Measure.FIDELITY, first, second)
        assert report.gap_unknown is False
        assert report.bound_checks and report.bound_violations == ()


def test_other_qubit_fidelity_pairs_keep_their_paths(minimize_calls):
    rng = np.random.default_rng(2105)
    result = directional_incompatibility(
        Measure.FIDELITY, random_povm(2, 3, rng), random_povm(2, 3, rng), LIGHT
    )
    assert result.provenance is not Provenance.EXACT
    assert minimize_calls
    calls = len(minimize_calls)
    identity = HermitianObservable(np.array([1.0]), (2,), np.eye(2))
    result = directional_incompatibility(Measure.FIDELITY, identity, random_observable(2, rng), LIGHT)
    assert result.provenance is Provenance.ANALYTIC_SEED
    assert result.upper_bound == 0.0 and result.starts_used == 0
    assert abs(result.value) <= 1e-12
    assert len(minimize_calls) == calls


def _restricted_reference(meas, basis):
    """The observable or POVM compressed to an invariant block, as block ceilings once built it.

    Kept as the oracle of :func:`incompatibility._block_ceiling`: an
    observable keeps the eigenvalues whose eigenspaces meet the block, with
    the rank of ``basis^H U_l`` counted by its singular values above 1/2.
    """
    adjoint = basis.conj().T
    if isinstance(meas, Povm):
        return Povm(tuple(adjoint @ effect @ basis for effect in meas.elements))
    values, ranks, columns = [], [], []
    for value, sl in zip(meas.eigenvalues, meas.block_slices()):
        left, sing, _ = np.linalg.svd(adjoint @ meas.basis[:, sl])
        rank = int(np.count_nonzero(sing > 0.5))
        if rank:
            values.append(value)
            ranks.append(rank)
            columns.append(left[:, :rank])
    return HermitianObservable(np.array(values), tuple(ranks), np.hstack(columns))


def _povm_direct_sum_pair():
    """Projective MUB POVMs on one qubit summand, random POVMs on the other, rotated."""
    z_basis, x_basis = (obs.basis for obs in fourier_mub_pair(2))
    first_upper = [np.outer(v, v.conj()) for v in z_basis.T] + [np.zeros((2, 2))]
    second_upper = [np.outer(v, v.conj()) for v in x_basis.T]
    first_lower, second_lower = random_povm(2, 3, seed=5), random_povm(2, 2, seed=6)
    unitary = random_unitary(4, 9)
    return tuple(
        Povm(tuple(unitary @ e @ unitary.conj().T for e in _direct_sum(up, low.elements)))
        for up, low in ((first_upper, first_lower), (second_upper, second_lower))
    )


def _reducible_pairs():
    """Pairs that split into blocks: shared eigenvectors, degenerate observables, POVMs."""
    pairs = {f"shared d={d} d_c={d_c}": commuting_subspace_pair(d, d_c)
             for d in range(2, 9) for d_c in range(d)}
    pairs.update({f"asymmetric ({d}, {m})": asymmetric_pair(d, m)
                  for d, m in [(3, 1), (4, 1), (5, 2), (6, 2), (7, 3), (8, 3)]})
    pairs.update({f"kron d={d} extra={extra}": _kron_pair(d, extra)
                  for d in (2, 3) for extra in (False, True)})
    pairs["planted degenerate"] = _planted_pair("degenerate", (1, 2, 3), 22)[0]
    pairs["planted povm"] = _planted_pair("povm", (2, 3), 23)[0]
    pairs["povm direct sum"] = _povm_direct_sum_pair()
    return pairs


def test_block_ceilings_equal_those_of_the_compressed_measurements_bit_for_bit():
    for name, (obs_a, obs_b) in _reducible_pairs().items():
        for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
            measures = [Measure.FIDELITY]
            if isinstance(first, HermitianObservable):
                measures.append(Measure.L1)
            for block in incompatibility._invariant_blocks(first, second):
                ceiling = incompatibility._block_ceiling(first, block)
                for measure in measures:
                    expected = min(incompatibility.proven_ceilings(
                        measure, _restricted_reference(first, block)).values())
                    assert ceiling == expected, (name, measure, block.shape)


def _per_pair_columns(kraus, factors, offsets):
    """The pair objective's columns, one product per (outcome block, Kraus operator)."""
    blocks = np.split(factors.conj(), offsets[1:], axis=1)
    return np.hstack([factors.conj()] + [k.T @ block for block in blocks for k in kraus])


def test_stacked_column_products_equal_the_per_pair_products_bit_for_bit():
    firsts = dict(_reducible_pairs())
    rng = np.random.default_rng(2206)
    for k in range(6):
        d = 2 + k % 5
        firsts[f"random {k}"] = (random_observable(d, rng), random_povm(d, 2 + k % 3, rng))
    firsts["trine"] = (trine_povm(), random_povm(2, 4, seed=0))
    for name, (obs_a, obs_b) in firsts.items():
        for first, second in ((obs_a, obs_b), (obs_b, obs_a)):
            kraus = first.kraus
            factors, offsets = second.factors
            stacked = np.hstack(
                [factors.conj()]
                + [(kraus.transpose(0, 2, 1) @ block).transpose(1, 0, 2).reshape(len(factors), -1)
                   for block in np.split(factors.conj(), offsets[1:], axis=1)]
            )
            reference = _per_pair_columns(
                canonical_instrument(first).kraus_flat(), factors, offsets)
            assert stacked.tobytes() == reference.tobytes(), name
            found = pair_distance_objective(Measure.FIDELITY, first, second)(
                analytic_seed_states(first, second))
            if len(found) > 2:  # the face columns are the objective's own, split by block
                assert np.hstack(found[2].columns).tobytes() == reference.tobytes(), name


def test_an_observables_collapse_operators_are_its_instruments_kraus_operators():
    rng = np.random.default_rng(2207)
    observables = [random_observable(d, rng) for d in range(2, 7)]
    observables += [degenerate_observable((2, 1, 3), random_unitary(6, 3)), *asymmetric_pair(5, 2)]
    observables += [*_kron_pair(3, True), HermitianObservable(np.array([1.0]), (2,), np.eye(2))]
    others = [random_povm(3, 4, rng), trine_povm(), z_channel(0.3), _random_instrument(3, 2, seed=2207)]
    for meas in observables + others:
        operators = meas.kraus
        assert operators is meas.kraus
        reference = np.stack(canonical_instrument(meas).kraus_flat())
        assert operators.tobytes() == reference.tobytes()
        assert operators.strides == reference.strides and operators.dtype == reference.dtype


def test_a_fidelity_search_builds_no_instrument_and_no_block_measurement(monkeypatch):
    """Fresh observables, one pair reducible, reach the block split and the search."""
    pairs = [commuting_subspace_pair(5, 2), (random_observable(3, 61), random_observable(3, 62))]
    assert len(incompatibility._invariant_blocks(*pairs[0])) == 3
    pairs[0] = commuting_subspace_pair(5, 2)  # fresh again: the split reads the projectors
    built = []
    for cls in (Instrument, HermitianObservable, Povm):
        def counting(self, original=cls.__post_init__):
            built.append(type(self).__name__)
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    results = [directional_incompatibility(Measure.FIDELITY, a, b, TINY)
               for first, second in pairs for a, b in ((first, second), (second, first))]
    assert built == []
    assert results[0].upper_bound == pytest.approx(2.0 / 3.0, abs=1e-15)  # the block ceiling
    assert results[2].starts_used == TINY.n_random_starts  # the search ran


def _directional_fields(result):
    return (result.value, result.argmax.amplitudes.tobytes(), result.provenance,
            result.evaluations, result.iterations)


_SEED_SHARING_PAIRS = {
    "mub": fourier_mub_pair(4),
    "shared eigenvectors": commuting_subspace_pair(5, 2),
    "asymmetric": asymmetric_pair(5, 2),
    "degenerate": (degenerate_observable((2, 1, 1), random_unitary(4, 2611)), random_observable(4, 2612)),
    "trine": (trine_povm(), random_povm(2, 4, seed=2613)),
    "random povm": (random_povm(3, 3, seed=2614), random_povm(3, 4, seed=2615)),
}


@pytest.mark.parametrize("name", sorted(_SEED_SHARING_PAIRS))
def test_a_pair_report_matches_separate_directions(name):
    first, second = _SEED_SHARING_PAIRS[name]
    separate = [directional_incompatibility(Measure.FIDELITY, a, b, TINY)
                for a, b in ((first, second), (second, first))]
    report = pair_incompatibility(Measure.FIDELITY, first, second, TINY)
    for paired, alone in zip((report.forward, report.backward), separate):
        assert _directional_fields(paired) == _directional_fields(alone)


def test_an_instrument_direction_of_a_pair_equals_a_lone_call(monkeypatch):
    inst, povm = z_channel(0.3), random_povm(2, 3, seed=2616)
    alone = directional_incompatibility(Measure.FIDELITY, inst, povm, TINY)
    seen = []
    real = incompatibility.directional_incompatibility

    def recorded(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(incompatibility, "directional_incompatibility", recorded)
    with pytest.raises(TypeError, match="second must be an observable or a POVM"):
        pair_incompatibility(Measure.FIDELITY, inst, povm, TINY)  # backward has an instrument second
    assert _directional_fields(seen[0]) == _directional_fields(alone)


def test_exact_pair_reports_form_no_seeds(monkeypatch):
    monkeypatch.setattr(incompatibility, "analytic_seed_states", None)
    first, second = random_observable(3, 2617), random_observable(3, 2618)
    for measure in EXACT_MEASURES:
        pair_incompatibility(measure, first, second)
    qubits = fourier_mub_pair(2)
    pair_incompatibility(Measure.FIDELITY, *qubits)
    assert all("seed_rows" not in vars(obs) for obs in (first, second) + qubits)


_CACHED = ("projectors", "kraus", "factors", "seed_rows")


def test_an_observables_and_a_povms_seed_rows_are_read_only_and_formed_once(monkeypatch):
    """And an instrument's: each cached array of a measurement is read-only and formed once."""
    formed, rows_formed, bases = [], [], []
    real_rows, real_basis = core._candidate_rows, core._normal_basis
    monkeypatch.setattr(core, "_candidate_rows", lambda *args: rows_formed.append(1) or real_rows(*args))
    monkeypatch.setattr(core, "_normal_basis", lambda k: bases.append(1) or real_basis(k))
    for cls in (HermitianObservable, Povm, Instrument):
        for name in _CACHED:
            prop = vars(cls).get(name)
            if isinstance(prop, functools.cached_property):
                counted = functools.cached_property(
                    lambda self, form=prop.func, name=name: formed.append((self, name)) or form(self))
                counted.__set_name__(cls, name)
                monkeypatch.setattr(cls, name, counted)
    rng = np.random.default_rng(2619)
    measurements = [random_observable(4, rng), degenerate_observable((2, 1, 1), random_unitary(4, rng)),
                    random_povm(4, 3, rng), random_povm(4, 5, rng), _random_instrument(4, 3, seed=2619)]
    own = [(meas, name, getattr(meas, name))
           for meas in measurements for name in _CACHED if hasattr(type(meas), name)]
    assert len(rows_formed) == len(measurements)
    # An observable's kraus are its projectors, so they are not formed a second time.
    assert [(id(meas), name) for meas, name in formed] == [
        (id(meas), name) for meas, name, _ in own
        if not (name == "kraus" and isinstance(meas, HermitianObservable))]
    for meas, name, value in own:
        for array in value if name == "factors" else (value,):
            assert not array.flags.writeable, name
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 0
        if name == "kraus" and isinstance(meas, HermitianObservable):
            assert value is meas.projectors
    searched = measurements[:-1]  # an instrument is never a second measurement
    for meas in measurements:
        for other in searched:
            analytic_seed_states(meas, other)
            directional_incompatibility(Measure.FIDELITY, meas, other, TINY)
            if not isinstance(meas, Instrument):
                pair_incompatibility(Measure.FIDELITY, other, meas, TINY)
        maximal_disturbance(Measure.L1, meas, TINY)
        maximal_disturbance(Measure.FIDELITY, meas, TINY)
    for meas, name, value in own:
        assert getattr(meas, name) is value, name
    luders = [meas.instrument for meas in measurements if isinstance(meas, Povm)]
    assert len(rows_formed) == len(measurements) + len(luders)
    assert len(bases) == len(luders + measurements[-1:])  # one stacked call per instrument
    assert len({(id(meas), name) for meas, name in formed}) == len(formed)


def _reference_seed_states(*measurements):
    """The seed states built from every column, repeats included, then normalized and deduplicated.

    An observable adds its basis, one eigenvector per eigenspace, and the sum
    of each; a POVM the eigenbasis of each effect, the top eigenvector of
    each, and the sum of each; an instrument the normal basis of each Kraus
    operator and its sum.
    """
    columns = []
    for meas in measurements:
        if isinstance(meas, HermitianObservable):
            bases = [meas.basis, np.stack([meas.basis[:, sl.start] for sl in meas.block_slices()], axis=1)]
        elif isinstance(meas, Povm):
            bases = [eigvecs for _, eigvecs in meas.spectra]
            bases.append(np.stack([eigvecs[:, -1] for eigvecs in bases], axis=1))
        else:
            bases = [core._normal_basis(kraus) for kraus in meas.kraus_flat()]
        columns += [col for basis in bases for col in (basis, basis.sum(axis=1)[:, None])]
    rows = np.ascontiguousarray(np.hstack(columns).T)
    rows /= np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))[:, None]
    same = np.abs(rows.conj() @ rows.T) > 1.0 - 1e-9
    return rows[~np.triu(same, 1).any(axis=0)]


def test_analytic_seed_states_equal_those_of_every_column_byte_for_byte():
    rng = np.random.default_rng(2620)
    for d in range(2, 9):
        measurements = [random_observable(d, rng), *fourier_mub_pair(d), random_povm(d, 3, rng),
                        random_povm(d, d + 2, rng), _random_instrument(d, 2, seed=2620 + d)]
        if d >= 3:
            measurements += [degenerate_observable((d - 2, 1, 1), random_unitary(d, rng)),
                             degenerate_observable((2,) * (d // 2) + (1,) * (d % 2), random_unitary(d, rng))]
        measurements.append(canonical_instrument(measurements[3]))
        if d == 2:
            measurements += [trine_povm(), z_channel(0.3)]
        for a in measurements:
            assert analytic_seed_states(a).tobytes() == _reference_seed_states(a).tobytes()
            for b in measurements:
                ours, theirs = analytic_seed_states(a, b), _reference_seed_states(a, b)
                assert ours.tobytes() == theirs.tobytes(), (d, type(a).__name__, type(b).__name__)


def _layout_groups(d, rng):
    """Groups of pairs whose objectives share a layout at dimension d, by name."""
    povms = [(random_povm(d, 3, rng), random_povm(d, 4, rng)) for _ in range(3)]
    return {
        "observables": [(random_observable(d, rng), random_observable(d, rng)) for _ in range(3)],
        "povms and an instrument": povms + [(_random_instrument(d, 3, seed=d), povms[0][1])],
    }


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.name)
def test_stacked_pair_objectives_equal_each_pair_objective_bit_for_bit(measure):
    rng = np.random.default_rng(2703)
    for d in (2, 3, 5):
        for name, group in _layout_groups(d, rng).items():
            objectives = [pair_distance_objective(measure, a, b) for a, b in group]
            assert len({objective.terms.layout for objective in objectives}) == 1, name
            stacked = incompatibility._stacked_pair_objective(objectives)
            vecs = rng.standard_normal((11, d)) + 1j * rng.standard_normal((11, d))
            vecs /= np.linalg.norm(vecs, axis=1)[:, None]
            problems = rng.integers(0, len(group), 11)
            found = stacked(vecs, problems)
            for p, objective in enumerate(objectives):
                rows = problems == p
                own = objective(vecs[rows])
                assert len(own) == len(found), name
                assert found[0][rows].tobytes() == own[0].tobytes(), name
                assert found[1][rows].tobytes() == own[1].tobytes(), name
                if len(own) > 2:
                    assert found[2].probs[rows].tobytes() == own[2].probs.tobytes(), name
                    assert found[2].columns[p] is own[2].columns, name


def _batched_pairs():
    """Pairs of every exit and search kind, with layouts shared and not."""
    rng = np.random.default_rng(2701)
    povm_3a, povm_4a, povm_3b, povm_4b = (random_povm(3, n, rng) for n in (3, 4, 3, 4))
    asym_first, asym_second = asymmetric_pair(4, 1)
    pairs = [(random_observable(d, rng), random_observable(d, rng)) for d in (3, 4, 3, 4, 3)]
    pairs += [
        (asym_second, asym_first),  # degenerate first: the subset exit
        commuting_subspace_pair(4, 1),  # the block exit
        fourier_mub_pair(3),  # the seed ceiling
        (random_observable(2, rng), random_observable(2, rng)),  # the qubit closed form
        (povm_3a, povm_4a),  # Lueders pairs: two of one layout, one of another
        (povm_3b, povm_4b),
        (povm_4a, povm_3b),
        (_random_instrument(3, 3, seed=2702), povm_4b),  # no ceiling, the layout of povm_3a
        (random_povm(2, 3, rng), random_povm(2, 13, rng)),  # L1 above EXACT_L1_MAX_OUTCOMES
        (random_povm(2, 3, rng), random_povm(2, 13, rng)),
    ]
    return pairs + [pairs[0]]


@pytest.mark.parametrize("measure", ALL_MEASURES, ids=lambda m: m.name)
def test_batched_directions_equal_each_direction_alone(measure, monkeypatch):
    pairs = _batched_pairs()
    sizes = []
    search_many = incompatibility._maximize_many
    search_alone = incompatibility.maximize_over_pure_states

    def recorded(objective, dim, seed_sets, config):
        assert len(seed_sets) > 1, "a batch of one pair is searched alone"
        sizes.append(len(seed_sets))
        return search_many(objective, dim, seed_sets, config)

    def recorded_alone(objective, dim, seeds, config):
        sizes.append(1)
        return search_alone(objective, dim, seeds, config)

    with monkeypatch.context() as patched:
        patched.setattr(incompatibility, "_maximize_many", recorded)
        patched.setattr(incompatibility, "maximize_over_pure_states", recorded_alone)
        batched = incompatibility._directional_many(measure, pairs, LIGHT)
    alone = [directional_incompatibility(measure, a, b, LIGHT) for a, b in pairs]
    for k, (ours, theirs) in enumerate(zip(batched, alone)):
        assert _directional_fields(ours) == _directional_fields(theirs), k
        assert (ours.upper_bound, ours.starts_used) == (theirs.upper_bound, theirs.starts_used), k
    # Under F: the qutrit and d = 4 observable pairs, the Lueders pairs with
    # the instrument, the other Lueders pair and the 13-outcome pairs.
    groups = {Measure.FIDELITY: [1, 2, 2, 3, 4], Measure.L1: [2], Measure.LINF: []}
    assert sorted(sizes) == groups[measure]
    assert sum(sizes) == sum(result.iterations > 0 for result in alone)


def test_five_d8_pairs_batched_equal_each_searched_alone(monkeypatch):
    rng = np.random.default_rng(2704)
    config = OptimizerConfig(n_random_starts=8, max_iterations=60, rng_seed=0)
    pairs = [(random_observable(8, rng), random_observable(8, rng)) for _ in range(5)]
    stack = incompatibility._stacked_pair_objective
    batches = []

    def measured_stack(objectives):
        batches.append(len(objectives))
        return stack(objectives)

    with monkeypatch.context() as patched:
        patched.setattr(incompatibility, "_stacked_pair_objective", measured_stack)
        batched = incompatibility._directional_many(Measure.FIDELITY, pairs, config)
    assert batches == [5]
    for ours, (first, second) in zip(batched, pairs):
        theirs = directional_incompatibility(Measure.FIDELITY, first, second, config)
        assert _directional_fields(ours) == _directional_fields(theirs)


@pytest.mark.parametrize("rng_seed", [0, 3, 11])
def test_batched_verify_claims_equal_those_of_one_pair_at_a_time(rng_seed, monkeypatch):
    suites = ("disturbance-ordering", "commutation")

    def refuse(*args):
        raise AssertionError("a verify search ran alone")

    with monkeypatch.context() as patched:
        patched.setattr(incompatibility, "maximize_over_pure_states", refuse)
        batched = run_suites(suites, rng_seed=rng_seed)

    def one_at_a_time(measure, pairs, config):
        return [directional_incompatibility(measure, a, b, config) for a, b in pairs]

    monkeypatch.setattr(verify, "_directional_many", one_at_a_time)
    assert [repr(c) for c in batched] == [repr(c) for c in run_suites(suites, rng_seed=rng_seed)]
