"""Measurement statistics, channels, and quantum distances."""

import numpy as np
import pytest

from qincompat import (
    DensityMatrix,
    DimensionMismatchError,
    Povm,
    PureState,
    apply_instrument,
    canonical_instrument,
    commutator_maxnorm,
    computational_observable,
    fourier_mub_pair,
    luders_from_povm,
    outcome_distribution,
    projective_instrument,
    pure_channel_fidelity,
    quantum_fidelity,
    random_density_matrix,
    random_observable,
    random_povm,
    random_pure_state,
    sequential_distribution,
    spectral_decompose,
    trace_distance,
    trine_povm,
    z_channel,
)
from qincompat.incompatibility import commuting_fixture

KET0 = PureState(np.array([1.0, 0.0], dtype=complex))
PLUS = PureState.normalized([1.0, 1.0])
MAX_MIXED_2 = DensityMatrix(np.eye(2) / 2)


def test_outcome_distribution_eigenstate_is_delta():
    obs = random_observable(4, 1)
    state = PureState(obs.basis[:, 2])
    probs = outcome_distribution(obs, state).probs
    expected = np.zeros(4)
    expected[2] = 1.0
    np.testing.assert_allclose(probs, expected, atol=1e-12)


def test_outcome_distribution_unbiased_basis_is_uniform():
    obs_a, obs_b = fourier_mub_pair(5)
    for i in range(5):
        probs = outcome_distribution(obs_b, PureState(obs_a.basis[:, i])).probs
        np.testing.assert_allclose(probs, np.full(5, 0.2), atol=1e-12)


def test_outcome_distribution_normalization_oracle():
    rng = np.random.default_rng(5)
    for k in range(50):
        d = int(rng.integers(2, 5))
        povm = random_povm(d, int(rng.integers(2, 5)), rng)
        rho = DensityMatrix(random_density_matrix(d, rng))
        assert abs(outcome_distribution(povm, rho).probs.sum() - 1.0) <= 1e-10


def test_a_luders_instrument_has_the_outcome_distribution_of_its_povm():
    # An instrument's effects are sum_k K^dag K, and the Lueders roots square back to the POVM's.
    povm = trine_povm()
    inst = luders_from_povm(povm)
    rng = np.random.default_rng(11)
    for state in (KET0, PLUS, MAX_MIXED_2, DensityMatrix(random_density_matrix(2, rng))):
        np.testing.assert_allclose(outcome_distribution(inst, state).probs,
                                   outcome_distribution(povm, state).probs, rtol=0, atol=1e-15)


def test_apply_instrument_fixes_eigenstates():
    obs = random_observable(3, 7)
    inst = projective_instrument(obs)
    state = PureState(obs.basis[:, 1])
    out = apply_instrument(inst, state)
    np.testing.assert_allclose(out.matrix, state.density().matrix, atol=1e-12)


def test_apply_instrument_dephases_plus_state():
    inst = projective_instrument(computational_observable(2))
    out = apply_instrument(inst, PLUS)
    np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)


def test_z_channel_matches_its_formula():
    pauli_z = np.diag([1.0, -1.0]).astype(complex)
    rng = np.random.default_rng(12)
    for p in (0.0, 0.3, 1.0):
        inst = z_channel(p)
        rho = random_density_matrix(2, rng)
        out = apply_instrument(inst, DensityMatrix(rho)).matrix
        expected = p * pauli_z @ rho @ pauli_z + (1 - p) * rho
        np.testing.assert_allclose(out, expected, atol=1e-12)


def test_sequential_equals_measure_after_channel():
    rng = np.random.default_rng(3)
    for _ in range(20):
        first = random_observable(3, rng)
        second = random_povm(3, 3, rng)
        rho = DensityMatrix(random_density_matrix(3, rng))
        via_op = sequential_distribution(first, second, rho).probs
        composed = outcome_distribution(
            second, apply_instrument(canonical_instrument(first), rho)
        ).probs
        np.testing.assert_array_equal(via_op, composed)


def test_sequential_commuting_pair_leaves_statistics_unchanged():
    obs_a, obs_b = commuting_fixture(3)
    assert commutator_maxnorm(obs_a, obs_b) < 1e-12
    rng = np.random.default_rng(8)
    for k in range(100):
        rho = DensityMatrix(random_density_matrix(3, rng))
        seq = sequential_distribution(obs_a, obs_b, rho).probs
        direct = outcome_distribution(obs_b, rho).probs
        np.testing.assert_allclose(seq, direct, atol=1e-10)


def test_sequential_unbiased_pair_gives_uniform():
    obs_a, obs_b = fourier_mub_pair(4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        rho = DensityMatrix(random_density_matrix(4, rng))
        seq = sequential_distribution(obs_a, obs_b, rho).probs
        np.testing.assert_allclose(seq, np.full(4, 0.25), atol=1e-12)


def test_identity_first_measurement_changes_nothing():
    ident_povm = luders_from_povm(Povm((np.eye(2, dtype=complex),)))
    obs = random_observable(2, 4)
    state = random_pure_state(2, 5)
    seq = sequential_distribution(ident_povm, obs, state.density()).probs
    direct = outcome_distribution(obs, state.density()).probs
    np.testing.assert_allclose(seq, direct, atol=1e-14)


def test_trace_distance_values():
    rho = KET0.density()
    assert trace_distance(rho, rho) == 0.0
    ket1 = PureState(np.array([0.0, 1.0], dtype=complex))
    assert trace_distance(KET0.density(), ket1.density()) == pytest.approx(1.0, abs=1e-12)
    # eigenvalues of |0><0| - I/2 are +1/2 and -1/2
    assert trace_distance(KET0.density(), MAX_MIXED_2) == pytest.approx(0.5, abs=1e-12)


def test_quantum_fidelity_values():
    rho = DensityMatrix(random_density_matrix(3, 1))
    assert quantum_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    psi, phi = random_pure_state(3, 2), random_pure_state(3, 3)
    overlap = abs(psi.amplitudes.conj() @ phi.amplitudes)
    assert quantum_fidelity(psi.density(), phi.density()) == pytest.approx(
        overlap, abs=1e-9
    )
    assert quantum_fidelity(KET0.density(), MAX_MIXED_2) == pytest.approx(
        1 / np.sqrt(2), abs=1e-12
    )


def test_dimension_mismatch_raised():
    with pytest.raises(DimensionMismatchError):
        trace_distance(MAX_MIXED_2, DensityMatrix(np.eye(3) / 3))
    with pytest.raises(DimensionMismatchError):
        outcome_distribution(random_observable(3, 0), MAX_MIXED_2)


def test_pure_channel_fidelity_eigenstate_and_uniform():
    obs = random_observable(4, 6)
    inst = projective_instrument(obs)
    eigen = PureState(obs.basis[:, 0])
    assert pure_channel_fidelity(inst, eigen) == pytest.approx(1.0, abs=1e-12)
    uniform = PureState.normalized(obs.basis.sum(axis=1))
    assert pure_channel_fidelity(inst, uniform) == pytest.approx(0.5, abs=1e-12)


def test_pure_channel_fidelity_block_representative_superposition():
    deg = spectral_decompose(np.diag([1.0, 1.0, 2.0, 3.0]))
    inst = projective_instrument(deg)
    rep = PureState.normalized([1.0, 0.0, 1.0, 1.0])
    assert pure_channel_fidelity(inst, rep) == pytest.approx(1 / np.sqrt(3), abs=1e-12)


def test_pure_channel_fidelity_agrees_with_uhlmann():
    rng = np.random.default_rng(17)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        inst = luders_from_povm(random_povm(d, 3, rng))
        psi = random_pure_state(d, rng)
        direct = pure_channel_fidelity(inst, psi)
        full = quantum_fidelity(apply_instrument(inst, psi), psi.density())
        assert direct == pytest.approx(full, abs=1e-9)


def test_quantum_fuchs_van_de_graaf_chain():
    rng = np.random.default_rng(23)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho = DensityMatrix(random_density_matrix(d, rng))
        sigma = DensityMatrix(random_density_matrix(d, rng))
        fid = quantum_fidelity(rho, sigma)
        dist = trace_distance(rho, sigma)
        assert 1.0 - fid <= dist + 1e-10
        assert dist <= np.sqrt(max(1.0 - fid * fid, 0.0)) + 1e-10


def test_measured_distances_dominated_by_quantum_ones():
    from qincompat import classical_fidelity, variational_distance

    rng = np.random.default_rng(29)
    for _ in range(300):
        d = int(rng.integers(2, 4))
        rho = DensityMatrix(random_density_matrix(d, rng))
        sigma = DensityMatrix(random_density_matrix(d, rng))
        povm = random_povm(d, int(rng.integers(2, 5)), rng)
        p = outcome_distribution(povm, rho)
        q = outcome_distribution(povm, sigma)
        assert variational_distance(p, q) <= trace_distance(rho, sigma) + 1e-10
        assert classical_fidelity(p, q) >= quantum_fidelity(rho, sigma) - 1e-10


def test_projector_form_bounds_trace_distance():
    rng = np.random.default_rng(31)
    rho = DensityMatrix(random_density_matrix(3, rng))
    sigma = DensityMatrix(random_density_matrix(3, rng))
    dist = trace_distance(rho, sigma)
    diff = rho.matrix - sigma.matrix
    for _ in range(1000):
        k = int(rng.integers(1, 3))
        gauss = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        basis, _ = np.linalg.qr(gauss)
        proj = basis @ basis.conj().T
        assert np.trace(proj @ diff).real <= dist + 1e-10
