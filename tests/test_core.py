"""Core types: spectral decomposition, instruments, validation."""

import dataclasses

import numpy as np
import pytest

from qincompat import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianObservable,
    Instrument,
    NotHermitianError,
    NotPositiveError,
    Povm,
    PureState,
    ValidationError,
    canonical_instrument,
    commutator_maxnorm,
    luders_from_povm,
    projective_instrument,
    random_observable,
    random_povm,
    random_pure_state,
    spectral_decompose,
    trine_povm,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)

# hand eigendecomposition of PAULI_X, cross-checked against the
# characteristic polynomial l^2 - 1 = 0: eigenvector (1, -1)/sqrt(2) for -1,
# (1, 1)/sqrt(2) for +1
PROJ_X_MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
PROJ_X_PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def test_spectral_identity_single_block():
    obs = spectral_decompose(np.eye(3))
    assert obs.ranks == (3,)
    assert obs.eigenvalues == pytest.approx([1.0])
    np.testing.assert_allclose(obs.projectors[0], np.eye(3), atol=1e-12)


def test_spectral_grouping_by_tolerance():
    obs = spectral_decompose(np.diag([1.0, 1.0, 2.0]), group_tol=1e-8)
    assert obs.ranks == (2, 1)
    assert obs.eigenvalues == pytest.approx([1.0, 2.0])
    near = spectral_decompose(np.diag([1.0, 1.0 + 1e-12, 2.0]), group_tol=1e-8)
    assert near.ranks == (2, 1)


def test_spectral_pauli_x_frozen_projectors():
    obs = spectral_decompose(PAULI_X)
    assert obs.eigenvalues == pytest.approx([-1.0, 1.0])
    assert obs.ranks == (1, 1)
    np.testing.assert_allclose(obs.projectors[0], PROJ_X_MINUS, atol=1e-12)
    np.testing.assert_allclose(obs.projectors[1], PROJ_X_PLUS, atol=1e-12)


def test_spectral_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("seed", range(6))
def test_spectral_invariants_random(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    gauss = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    obs = spectral_decompose(gauss + gauss.conj().T)
    total = obs.projectors.sum(axis=0)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-9)
    for i, p in enumerate(obs.projectors):
        np.testing.assert_allclose(p @ p, p, atol=1e-9)
        for q in obs.projectors[i + 1 :]:
            assert np.max(np.abs(p @ q)) < 1e-9
    recon = np.einsum("k,kij->ij", obs.eigenvalues, obs.projectors)
    np.testing.assert_allclose(recon, obs.matrix, atol=1e-8)
    assert sum(obs.ranks) == d


def test_from_eigensystem_groups_equal_values():
    obs = HermitianObservable.from_eigensystem([2.0, 1.0, 2.0], np.eye(3))
    assert obs.eigenvalues == pytest.approx([1.0, 2.0])
    assert obs.ranks == (1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_eigensystem_rejects_non_finite_eigenvalues(bad):
    with pytest.raises(ValidationError):
        HermitianObservable.from_eigensystem([1.0, bad, 2.0], np.eye(3))


def test_from_eigensystem_rejects_non_orthonormal_basis():
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt([1.0, 2.0])
    with pytest.raises(ValidationError):
        HermitianObservable.from_eigensystem([1.0, 2.0], skewed)


def test_spectral_rejects_grouping_that_breaks_reconstruction():
    with pytest.raises(ValidationError):
        spectral_decompose(np.diag([1.0, 1.05, 2.0]), group_tol=0.1)


def test_observable_stores_only_its_eigensystem():
    assert [f.name for f in dataclasses.fields(HermitianObservable)] == [
        "eigenvalues",
        "ranks",
        "basis",
    ]


def test_derived_matrix_and_projectors_are_read_only():
    obs = spectral_decompose(PAULI_X)
    for name in ("matrix", "projectors"):
        derived = getattr(obs, name)
        assert getattr(obs, name) is derived
        assert not derived.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obs, name, np.zeros_like(derived))
    np.testing.assert_allclose(obs.matrix, PAULI_X, atol=1e-15)


def test_luders_of_projective_povm_is_projector_collapse():
    proj = PROJ_X_PLUS
    povm = Povm((proj, np.eye(2) - proj))
    inst = luders_from_povm(povm)
    np.testing.assert_allclose(inst.outcomes[0][0], proj, atol=1e-10)
    np.testing.assert_allclose(inst.outcomes[1][0], np.eye(2) - proj, atol=1e-10)


def test_luders_scalar_square_root():
    povm = Povm((np.eye(2) / 2, np.eye(2) / 2))
    inst = luders_from_povm(povm)
    np.testing.assert_allclose(inst.outcomes[0][0], np.eye(2) / np.sqrt(2), atol=1e-12)
    rho = random_pure_state(2, 3).density()
    out = sum(k @ rho.matrix @ k.conj().T for k in inst.kraus_flat())
    np.testing.assert_allclose(out, rho.matrix, atol=1e-12)


def test_luders_trine_rank_one_and_trace_preserving():
    inst = luders_from_povm(trine_povm())
    total = np.zeros((2, 2), dtype=complex)
    for (kraus,) in inst.outcomes:
        assert np.linalg.matrix_rank(kraus, tol=1e-8) == 1
        total += kraus.conj().T @ kraus
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_luders_rejects_negative_element():
    bad = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises((NotPositiveError, ValidationError)):
        luders_from_povm(Povm((bad, np.eye(2) - bad)))


def test_projective_instrument_outcome_counts():
    nondeg = random_observable(2, 0)
    assert projective_instrument(nondeg).n_outcomes == 2
    deg = spectral_decompose(np.diag([1.0, 1.0, 2.0]))
    inst = projective_instrument(deg)
    assert inst.n_outcomes == 2
    assert [np.linalg.matrix_rank(k[0], tol=1e-8) for k in inst.outcomes] == [2, 1]


def test_luders_equals_projective_for_observables():
    obs = random_observable(3, 11)
    via_povm = luders_from_povm(Povm.from_observable(obs))
    via_proj = projective_instrument(obs)
    for (a,), (b,) in zip(via_povm.outcomes, via_proj.outcomes):
        np.testing.assert_allclose(a, b, atol=1e-10)


def test_instrument_trace_preservation_on_random_states():
    inst = luders_from_povm(random_povm(3, 4, seed=5))
    for k in range(100):
        rho = random_pure_state(3, 100 + k).density().matrix
        out = sum(kr @ rho @ kr.conj().T for kr in inst.kraus_flat())
        assert abs(np.trace(out).real - 1.0) <= 1e-10


def test_commutator_maxnorm_cases():
    diag_a = spectral_decompose(np.diag([1.0, 2.0]))
    diag_b = spectral_decompose(np.diag([3.0, 4.0]))
    assert commutator_maxnorm(diag_a, diag_b) == 0.0
    x_obs = spectral_decompose(PAULI_X)
    z_obs = spectral_decompose(PAULI_Z)
    assert commutator_maxnorm(x_obs, z_obs) == pytest.approx(2.0, abs=1e-12)
    obs = random_observable(3, 2)
    squared = spectral_decompose(obs.matrix @ obs.matrix)
    assert commutator_maxnorm(obs, squared) < 1e-12
    with pytest.raises(DimensionMismatchError):
        commutator_maxnorm(diag_a, random_observable(3, 0))


def test_canonical_instrument_dispatch():
    obs = random_observable(2, 4)
    assert canonical_instrument(obs).n_outcomes == 2
    povm = random_povm(2, 3, 4)
    assert canonical_instrument(povm).n_outcomes == 3
    inst = projective_instrument(obs)
    assert canonical_instrument(inst) is inst
    with pytest.raises(TypeError):
        canonical_instrument(np.eye(2))


def test_pure_state_validation_and_density():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    state = PureState.normalized([1.0, 1.0])
    rho = state.density()
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)
    assert state.overlap(PureState(np.array([1.0, 0.0]))) == pytest.approx(
        1 / np.sqrt(2)
    )


def test_density_matrix_validation():
    with pytest.raises(ValidationError):
        DensityMatrix(np.diag([0.6, 0.6]))
    with pytest.raises(NotPositiveError):
        DensityMatrix(np.diag([1.5, -0.5]))
    with pytest.raises(NotHermitianError):
        DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))


def test_povm_validation():
    with pytest.raises(ValidationError):
        Povm((np.eye(2) / 2, np.eye(2) / 3))
    with pytest.raises(NotPositiveError):
        Povm((np.diag([1.1, 0.5]).astype(complex), np.diag([-0.1, 0.5]).astype(complex)))


def test_instrument_validation():
    with pytest.raises(ValidationError):
        Instrument(((np.eye(2) / 2,),))
    ident = Instrument(((np.eye(2),),))
    assert ident.n_outcomes == 1
    np.testing.assert_allclose(ident.effects()[0], np.eye(2), atol=1e-15)


def test_objects_are_frozen():
    obs = random_observable(2, 9)
    with pytest.raises((ValueError, RuntimeError)):
        obs.matrix[0, 0] = 5.0
    state = random_pure_state(2, 9)
    with pytest.raises((ValueError, RuntimeError)):
        state.amplitudes[0] = 0.0
