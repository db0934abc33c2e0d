"""Accessible-fidelity comparison measure: fixed-POVM bounds."""

import numpy as np
import pytest

from qincompat import (
    DegenerateObservableError,
    DimensionMismatchError,
    RankOnePovm,
    ValidationError,
    acc_fid_objective,
    closed_form,
    commuting_subspace_pair,
    fourier_mub_pair,
    q_acc_upper_bound,
    random_observable,
    random_unitary,
    spectral_decompose,
)


def test_own_eigenbasis_gives_unit_objective():
    obs = random_observable(3, 1)
    povm = RankOnePovm.from_basis(obs.basis)
    assert acc_fid_objective(povm, (obs,)) == pytest.approx(1.0, abs=1e-12)


def test_identical_observables_shared_basis():
    obs = random_observable(4, 2)
    povm = RankOnePovm.from_basis(obs.basis)
    assert acc_fid_objective(povm, (obs, obs)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d,d_c", [(4, 2), (6, 3)])
def test_partner_basis_reproduces_closed_form(d, d_c):
    obs_a, obs_b = commuting_subspace_pair(d, d_c)
    povm = RankOnePovm.from_basis(obs_b.basis)
    value = 1.0 - acc_fid_objective(povm, (obs_a, obs_b))
    assert value == pytest.approx(0.5 * (1.0 - (d_c + 1.0) / d), abs=1e-10)


def test_objective_range():
    rng = np.random.default_rng(3)
    obs_a = random_observable(3, rng)
    obs_b = random_observable(3, rng)
    for k in range(20):
        povm = RankOnePovm.from_basis(random_unitary(3, 100 + k))
        value = acc_fid_objective(povm, (obs_a, obs_b))
        assert 1.0 / 3.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_upper_bound_min_monotone():
    obs_a, obs_b = commuting_subspace_pair(4, 1)
    base = [
        RankOnePovm.from_basis(obs_a.basis),
        RankOnePovm.from_basis(obs_b.basis),
    ]
    loose = q_acc_upper_bound(obs_a, obs_b, candidate_povms=base)
    extended = base + [RankOnePovm.from_basis(random_unitary(4, 5))]
    tight = q_acc_upper_bound(obs_a, obs_b, candidate_povms=extended)
    assert tight <= loose + 1e-15


def test_measures_diverge_with_one_shared_eigenvector():
    obs_a, obs_b = commuting_subspace_pair(4, 1)
    fid_value = closed_form("fidelity_shared_eigenvectors", d=4, d_c=1)
    acc_bound = q_acc_upper_bound(obs_a, obs_b)
    assert acc_bound <= 0.5 * (1.0 - 2.0 / 4.0) + 1e-10
    assert fid_value > acc_bound + 0.05


def test_mub_pair_coincidence():
    obs_a, obs_b = fourier_mub_pair(2)
    bound = q_acc_upper_bound(obs_a, obs_b)
    assert bound == pytest.approx(0.25, abs=1e-9)


def test_commuting_pair_bound_is_zero():
    obs_a, obs_b = commuting_subspace_pair(4, 3)
    bound = q_acc_upper_bound(obs_a, obs_b)
    assert bound == pytest.approx(0.0, abs=1e-10)


def test_degenerate_observable_rejected():
    deg = spectral_decompose(np.diag([1.0, 1.0, 2.0]))
    povm = RankOnePovm.from_basis(np.eye(3, dtype=complex))
    with pytest.raises(DegenerateObservableError):
        acc_fid_objective(povm, (deg,))


def test_dimension_mismatch_rejected():
    povm = RankOnePovm.from_basis(np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError):
        acc_fid_objective(povm, (random_observable(2, 0),))


def test_rank_one_povm_validation():
    with pytest.raises(ValidationError):
        RankOnePovm(np.array([[1.0, 0.0], [0.0, 0.5]], dtype=complex))
    scaled = np.vstack([np.eye(2), np.eye(2)]) / np.sqrt(2)
    povm = RankOnePovm(scaled.astype(complex))
    assert povm.n_outcomes == 4
    assert len(povm.states()) == 4


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_rank_one_povm_rejects_non_finite_vectors(bad):
    vectors = np.eye(2, dtype=complex)
    vectors[1, 1] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        RankOnePovm(vectors)


@pytest.mark.parametrize("shape", [(0, 0), (3, 0)])
def test_rank_one_povm_rejects_a_zero_dimension(shape):
    with pytest.raises(ValidationError, match="d >= 1"):
        RankOnePovm(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("vectors, message", [
    ([["a", 1]], "array of numbers"),
    ([[1.0, 0.0], [0.0]], "array of numbers"),
    ([[{}, 1.0], [0.0, 1.0]], "array of numbers"),
])
def test_rank_one_povm_rejects_vectors_that_are_not_numbers(vectors, message):
    with pytest.raises(ValidationError, match=message):
        RankOnePovm(vectors)


@pytest.mark.parametrize("scale", [1e200, -1e200j, 1e155])
def test_rank_one_povm_rejects_large_entries_without_overflow(scale):
    """Entries whose completeness product would overflow fail validation, with no warning."""
    vectors = np.eye(2, dtype=complex)
    vectors[0, 1] = scale
    with pytest.raises(ValidationError, match="do not sum to the identity"):
        RankOnePovm(vectors)
