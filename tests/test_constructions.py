"""Observable/instrument generators: overlap patterns and determinism."""

import numpy as np
import pytest

from qincompat import (
    DensityMatrix,
    Measure,
    ParamOutOfRangeError,
    PureState,
    apply_instrument,
    asymmetric_pair,
    classical_fidelity,
    commuting_subspace_pair,
    commutator_maxnorm,
    degenerate_observable,
    fourier_mub_pair,
    maximal_disturbance,
    mub_triple_qubit,
    outcome_distribution,
    OptimizerConfig,
    pair_distance_objective,
    projective_instrument,
    random_density_matrix,
    random_observable,
    random_povm,
    random_pure_state,
    random_unitary,
    sequential_distribution,
    trine_povm,
    z_channel,
)

LIGHT = OptimizerConfig(n_random_starts=3, max_iterations=300, rng_seed=0)


def overlaps(obs_a, obs_b):
    return np.abs(obs_a.basis.conj().T @ obs_b.basis) ** 2


@pytest.mark.parametrize("d", [2, 3, 5, 7, 8])
def test_fourier_pair_is_unbiased(d):
    obs_a, obs_b = fourier_mub_pair(d)
    np.testing.assert_allclose(overlaps(obs_a, obs_b), np.full((d, d), 1.0 / d), atol=1e-12)
    assert obs_a.is_nondegenerate and obs_b.is_nondegenerate


def test_fourier_pair_d2_is_hadamard_like():
    obs_a, obs_b = fourier_mub_pair(2)
    np.testing.assert_allclose(overlaps(obs_a, obs_b), np.full((2, 2), 0.5), atol=1e-15)


def test_mub_triple_pairwise_unbiased():
    triple = mub_triple_qubit()
    for i in range(3):
        for j in range(i + 1, 3):
            np.testing.assert_allclose(
                overlaps(triple[i], triple[j]), np.full((2, 2), 0.5), atol=1e-12
            )


def test_commuting_subspace_overlap_pattern():
    d, d_c = 4, 2
    obs_a, obs_b = commuting_subspace_pair(d, d_c)
    ov = np.abs(obs_a.basis.conj().T @ obs_b.basis)
    np.testing.assert_allclose(ov[:d_c, :d_c], np.eye(d_c), atol=1e-12)
    np.testing.assert_allclose(ov[:d_c, d_c:], 0.0, atol=1e-12)
    np.testing.assert_allclose(ov[d_c:, :d_c], 0.0, atol=1e-12)
    np.testing.assert_allclose(
        ov[d_c:, d_c:], np.full((d - d_c, d - d_c), 1.0 / np.sqrt(d - d_c)), atol=1e-12
    )


def test_commuting_subspace_extremes():
    plain_a, plain_b = fourier_mub_pair(4)
    sub_a, sub_b = commuting_subspace_pair(4, 0)
    np.testing.assert_array_equal(sub_a.basis, plain_a.basis)
    np.testing.assert_array_equal(sub_b.basis, plain_b.basis)
    full_a, full_b = commuting_subspace_pair(3, 2)
    assert commutator_maxnorm(full_a, full_b) < 1e-12
    with pytest.raises(ParamOutOfRangeError):
        commuting_subspace_pair(4, 4)


def test_asymmetric_pair_block_overlap_identity():
    d, m = 4, 1
    obs_a, obs_b = asymmetric_pair(d, m)
    block = obs_b.projectors[0]
    for i in range(d):
        col = obs_a.basis[:, i]
        assert (col.conj() @ block @ col).real == pytest.approx(m / d, abs=1e-12)
    assert obs_b.ranks == (m, d - m)
    assert projective_instrument(obs_b).n_outcomes == 2


def test_asymmetric_pair_seed_state_fidelity_value():
    d, m = 4, 1
    obs_a, obs_b = asymmetric_pair(d, m)
    b1 = PureState(obs_b.basis[:, 0])
    seq = sequential_distribution(obs_a, obs_b, b1.density())
    direct = outcome_distribution(obs_b, b1.density())
    assert classical_fidelity(seq, direct) ** 2 == pytest.approx(m / d, abs=1e-7)
    objective = pair_distance_objective(Measure.FIDELITY, obs_a, obs_b)
    assert objective(b1.amplitudes)[0] == pytest.approx(1.0 - m / d, abs=1e-12)


def test_asymmetric_pair_degenerate_disturbance():
    _, obs_b = asymmetric_pair(4, 1)
    result = maximal_disturbance(Measure.FIDELITY, obs_b, LIGHT)
    assert result.value == pytest.approx(0.5, abs=1e-9)


def test_asymmetric_pair_rejects_large_block():
    with pytest.raises(ParamOutOfRangeError):
        asymmetric_pair(4, 2)
    with pytest.raises(ParamOutOfRangeError):
        asymmetric_pair(2, 1)


def test_degenerate_observable_spectrum():
    obs = degenerate_observable((2, 1, 1))
    assert obs.ranks == (2, 1, 1)
    assert obs.eigenvalues == pytest.approx([1.0, 2.0, 3.0])
    with pytest.raises(ParamOutOfRangeError):
        degenerate_observable(())


def test_z_channel_endpoints_and_formula():
    ident = z_channel(0.0)
    rng = np.random.default_rng(2)
    rho = DensityMatrix(random_density_matrix(2, rng))
    np.testing.assert_allclose(apply_instrument(ident, rho).matrix, rho.matrix, atol=1e-12)
    np.testing.assert_allclose(
        z_channel(1.0).outcomes[0][0], np.diag([1.0, -1.0]), atol=1e-15
    )
    flip = z_channel(0.3)
    np.testing.assert_allclose(
        flip.outcomes[0][0], np.sqrt(0.3) * np.diag([1.0, -1.0]), atol=1e-15
    )
    with pytest.raises(ParamOutOfRangeError):
        z_channel(1.5)


def test_trine_povm_shape():
    povm = trine_povm()
    assert povm.n_outcomes == 3
    total = sum(povm.elements)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_random_unitary_is_haar_like_and_deterministic():
    u = random_unitary(4, 9)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
    np.testing.assert_array_equal(u, random_unitary(4, 9))
    assert not np.allclose(u, random_unitary(4, 10))


def test_random_pure_state_norm_and_determinism():
    state = random_pure_state(5, 13)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-12
    np.testing.assert_array_equal(
        state.amplitudes, random_pure_state(5, 13).amplitudes
    )


def test_random_observable_nondegenerate():
    obs = random_observable(4, 21)
    assert obs.is_nondegenerate
    assert obs.eigenvalues == pytest.approx([1.0, 2.0, 3.0, 4.0])


def test_random_povm_sums_to_identity():
    povm = random_povm(2, 3, seed=17)
    np.testing.assert_allclose(sum(povm.elements), np.eye(2), atol=1e-10)
    again = random_povm(2, 3, seed=17)
    for a, b in zip(povm.elements, again.elements):
        np.testing.assert_array_equal(a, b)


def test_random_density_matrix_is_a_state():
    rho = DensityMatrix(random_density_matrix(3, 31))
    assert rho.dim == 3
