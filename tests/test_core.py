"""Core types: spectral decomposition, instruments, validation."""

import dataclasses
import re
import warnings

import numpy as np
import pytest

from qincompat import (
    DensityMatrix,
    DimensionMismatchError,
    HermitianObservable,
    Instrument,
    NotHermitianError,
    NotPositiveError,
    NumericalFailureError,
    ParamOutOfRangeError,
    Povm,
    PureState,
    ValidationError,
    asymmetric_pair,
    canonical_instrument,
    commutator_maxnorm,
    commuting_fixture,
    commuting_subspace_pair,
    computational_observable,
    degenerate_observable,
    fourier_basis,
    fourier_mub_pair,
    load_observable_file,
    luders_from_povm,
    mub_triple_qubit,
    projective_instrument,
    random_observable,
    random_povm,
    random_pure_state,
    random_unitary,
    save_observable_file,
    spectral_decompose,
    trine_povm,
)
from qincompat import core
from qincompat.cli import main
from qincompat.constructions import _observable_on
from qincompat.core import as_complex_matrix, zero_floor
from qincompat.incompatibility import _exact_result

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
    # with no RuntimeWarning from grouping them, alone or together
    for values in ([1.0, bad, 2.0], [bad, bad, 2.0]):
        with pytest.raises(ValidationError, match="^eigenvalues contain non-finite entries$"):
            HermitianObservable.from_eigensystem(values, np.eye(3))


def _grouped_one_at_a_time(values, basis, tol):
    """Neighbour-chained grouping built group by group: a fancy index and a
    sum per group, then ``np.hstack``. A group is valued at its lowest
    member plus the mean offset of its members from it, formed as a
    subtraction. It is the reference that ``from_eigensystem`` must match
    bit for bit."""
    vals = np.asarray(values, dtype=float)
    vecs = np.array(basis, dtype=np.complex128)
    order = np.argsort(vals, kind="stable")
    vals, vecs = vals[order], vecs[:, order]
    groups = [[0]]
    for k in range(1, vals.size):
        if vals[k] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return (
        np.array([vals[idx[0]] - np.sum(vals[idx[0]] - vals[idx]) / len(idx) for idx in groups]),
        tuple(len(idx) for idx in groups),
        np.hstack([vecs[:, idx] for idx in groups]),
    )


def _assert_built_as_reference(values, basis, tol):
    obs = HermitianObservable.from_eigensystem(values, basis, tol)
    eigvals, ranks, ref = _grouped_one_at_a_time(values, basis, tol)
    assert obs.ranks == ranks
    assert obs.eigenvalues.tobytes() == eigvals.tobytes()
    assert obs.basis.tobytes() == ref.tobytes()
    # stored C-ordered, whatever the layout of the input
    assert obs.basis.flags.c_contiguous
    return obs


@pytest.mark.parametrize("tol", [1e-12, 1e-10, 1e-8])
def test_from_eigensystem_matches_group_by_group_reference(tol):
    rng = np.random.default_rng(round(-np.log10(tol)))
    for trial in range(60):
        d = int(rng.integers(2, 33))
        vals = []
        while len(vals) < d:
            # a cluster of 1-16 values, exactly equal or chained within 1.5 tol
            size = int(rng.integers(1, 17))
            spread = rng.uniform(0.0, 1.5 * tol, size) * rng.integers(0, 2)
            vals.extend(rng.normal() + spread)
        vals = np.array(vals[:d])
        rng.shuffle(vals)
        basis = random_unitary(d, rng)
        _assert_built_as_reference(vals, basis if trial % 2 else np.asfortranarray(basis), tol)


def test_from_eigensystem_chains_neighbours_into_one_group():
    obs = _assert_built_as_reference([1.6e-12, 0.0, 0.8e-12, 1.0], np.eye(4), 1e-12)
    assert obs.ranks == (3, 1)
    assert obs.eigenvalues[0] == 0.0 - ((0.0 - 0.8e-12) + (0.0 - 1.6e-12)) / 3
    assert abs(obs.eigenvalues[0] - 0.8e-12) <= np.spacing(0.8e-12)
    # neighbours exactly group_tol apart share a group
    assert _assert_built_as_reference([2.0, 1.5, 3.0], np.eye(3), 0.5).ranks == (2, 1)


def test_from_eigensystem_keeps_the_value_of_equal_eigenvalues():
    # the mean of three 0.1s is 0.10000000000000002
    obs = HermitianObservable.from_eigensystem([0.1, 1.0, 0.1, 0.1], np.eye(4))
    assert obs.ranks == (3, 1)
    assert obs.eigenvalues.tolist() == [0.1, 1.0]
    lone = HermitianObservable.from_eigensystem([1.0, -0.0], np.eye(2))
    assert lone.eigenvalues.tobytes() == np.array([-0.0, 1.0]).tobytes()


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_from_eigensystem_rejects_bad_group_tol(tol):
    with pytest.raises(ParamOutOfRangeError, match="group_tol"):
        HermitianObservable.from_eigensystem([1.0, 1.0, 2.0], np.eye(3), tol)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_imaginary_part_alone_non_finite_is_rejected(bad):
    entry = complex(0.0, bad)
    with pytest.raises(ValidationError, match="^eigenbasis contains non-finite entries$"):
        as_complex_matrix([[1.0, entry], [0.0, 1.0]], "eigenbasis")
    with pytest.raises(ValidationError, match="^state vector contains non-finite entries$"):
        PureState(np.array([entry, 0.0]))


_NAN_EYE3 = np.where(np.eye(3) == 1, np.nan, 0.0)


@pytest.mark.parametrize(
    "values, basis, message",
    [
        ([1.0, 2.0], np.zeros((2, 3)), "eigenbasis must be a nonempty square matrix, got shape (2, 3)"),
        ([1.0, 2.0], np.zeros((3, 2)), "eigenbasis must be a nonempty square matrix, got shape (3, 2)"),
        ([1.0, 2.0], [1.0, 0.0], "eigenbasis must be a nonempty square matrix, got shape (2,)"),
        ([], np.zeros((0, 0)), "eigenbasis must be a nonempty square matrix, got shape (0, 0)"),
        ([1.0, 2.0, 3.0], _NAN_EYE3, "eigenbasis contains non-finite entries"),
        ([1.0, 2.0], _NAN_EYE3, "eigenbasis contains non-finite entries"),
        ([np.nan, 2.0, 3.0], _NAN_EYE3, "eigenbasis contains non-finite entries"),
        ([1.0, 2.0], np.eye(3), "number of eigenvalues must match dimension"),
        ([], np.eye(2), "number of eigenvalues must match dimension"),
        ([1.0, np.nan], np.eye(2), "eigenvalues contain non-finite entries"),
    ],
)
def test_from_eigensystem_reports_the_first_fault_of_its_input(values, basis, message):
    """The basis is checked once, in ``__post_init__``; a malformed basis is
    still reported before a count mismatch, and a bad basis before bad values."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        HermitianObservable.from_eigensystem(values, basis)


def test_from_eigensystem_leaves_its_input_basis_alone():
    basis = np.asfortranarray(random_unitary(3, 4))
    copy = basis.copy(order="A")
    obs = HermitianObservable.from_eigensystem([3.0, 1.0, 2.0], basis)
    assert basis.flags.writeable and not obs.basis.flags.writeable
    assert not np.shares_memory(obs.basis, basis)
    assert basis.tobytes(order="A") == copy.tobytes(order="A")


def test_from_eigensystem_rejects_non_orthonormal_basis():
    skewed = np.array([[1.0, 1.0], [0.0, 1.0]]) / np.sqrt([1.0, 2.0])
    with pytest.raises(ValidationError):
        HermitianObservable.from_eigensystem([1.0, 2.0], skewed)


@pytest.mark.parametrize("values", [[1.0, 1.0, 2.0], [1.0, 3.0, 2.0], [2.0, 1.0, 1.0]])
def test_observable_rejects_eigenvalues_that_do_not_increase(values):
    with pytest.raises(
        ValidationError, match="^grouped eigenvalues must be strictly increasing$"
    ):
        HermitianObservable(values, (1, 1, 1), np.eye(3))


@pytest.mark.parametrize(
    "ranks", [(1.5, 1.7), (1.5, 0.5), (0.5, 1.5), (float("nan"), 1), (float("inf"), 1), ("one", 1), (1j, 1)]
)
def test_observable_rejects_ranks_that_are_not_whole_numbers(ranks):
    with pytest.raises(ValidationError, match="whole numbers"):
        HermitianObservable([1.0, 2.0], ranks, np.eye(2))


@pytest.mark.parametrize(
    "ranks", [(1, 1), (np.int64(1), np.uint8(1)), (1.0, np.float64(1.0)), (True, np.float32(1.0))]
)
def test_observable_takes_integer_and_integral_float_ranks(ranks):
    obs = HermitianObservable([1.0, 2.0], ranks, np.eye(2))
    assert obs.ranks == (1, 1) and all(type(r) is int for r in obs.ranks)


@pytest.mark.parametrize("defect, accepted", [(2e-8, False), (5e-9, True)])
def test_observable_basis_orthonormality_threshold(defect, accepted):
    """The Gram matrix may differ from the identity by at most 1e-8, on or off its diagonal."""
    stretched = np.diag([np.sqrt(1.0 + defect), 1.0, 1.0])
    sheared = np.array(
        [[1.0, defect, 0.0], [0.0, np.sqrt(1.0 - defect**2), 0.0], [0.0, 0.0, 1.0]]
    )
    for basis in (stretched, sheared):
        if accepted:
            HermitianObservable([1.0, 2.0, 3.0], (1, 1, 1), basis)
        else:
            with pytest.raises(
                ValidationError, match="^eigenbasis columns are not orthonormal$"
            ):
                HermitianObservable([1.0, 2.0, 3.0], (1, 1, 1), basis)


def test_a_one_dimensional_observable_builds():
    obs = HermitianObservable([2.5], (1,), [[1.0]])
    assert obs.dim == 1 and obs.n_outcomes == 1
    np.testing.assert_array_equal(obs.matrix, [[2.5]])


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


def test_povm_spectra_are_the_read_only_eigh_of_each_symmetrized_effect():
    assert [f.name for f in dataclasses.fields(Povm)] == ["elements"]
    skew = np.array([[0.0, 1e-12], [-1e-12, 0.0]])  # within the Hermitian tolerance
    lopsided = Povm((PROJ_X_PLUS + skew, PROJ_X_MINUS - skew))
    for povm in (trine_povm(), random_povm(3, 4, seed=12), lopsided):
        spectra = povm.spectra
        assert povm.spectra is spectra and len(spectra) == povm.n_outcomes
        for (eigvals, eigvecs), effect in zip(spectra, povm.elements):
            expected_vals, expected_vecs = np.linalg.eigh((effect + effect.conj().T) / 2.0)
            assert eigvals.tobytes() == expected_vals.tobytes()
            assert eigvecs.tobytes() == expected_vecs.tobytes()
            assert not eigvals.flags.writeable and not eigvecs.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            povm.spectra = ()
    assert not np.array_equal(lopsided.elements[0], lopsided.elements[0].conj().T)


def test_luders_roots_are_the_psd_roots_of_the_symmetrized_effects_bit_for_bit():
    # One effect has a round-off eigenvalue of -1e-11, inside the POVM tolerance.
    unitary = random_unitary(2, seed=21)
    below = unitary @ np.diag([-1e-11, 0.6]) @ unitary.conj().T
    for povm in (trine_povm(), random_povm(3, 4, seed=22), Povm((below, np.eye(2) - below))):
        for (root,), effect in zip(luders_from_povm(povm).outcomes, povm.elements):
            sym = (effect + effect.conj().T) / 2.0
            eigvals, eigvecs = np.linalg.eigh(sym)
            expected = (eigvecs * np.sqrt(zero_floor(eigvals))) @ eigvecs.conj().T
            assert root.tobytes() == ((expected + expected.conj().T) / 2.0).tobytes()
    # The negative eigenvalue is zeroed, not rooted as sqrt(1e-11) ~ 3e-6.
    root = luders_from_povm(Povm((below, np.eye(2) - below))).outcomes[0][0]
    assert np.linalg.norm(root @ unitary[:, 0]) < 1e-15
    np.testing.assert_allclose(root @ unitary[:, 1], np.sqrt(0.6) * unitary[:, 1], atol=1e-15)


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
    # Built once per object: every later call returns the same instrument.
    assert canonical_instrument(obs) is canonical_instrument(obs)
    assert canonical_instrument(povm) is canonical_instrument(povm)
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


def test_validated_matrices_are_stored_c_ordered():
    povm = random_povm(3, 4, seed=2)
    roots = [ops[0] for ops in luders_from_povm(povm).outcomes]
    basis = random_unitary(3, 5)
    rho = povm.elements[0] / np.trace(povm.elements[0])
    fortran = [
        *Povm(tuple(np.asfortranarray(e) for e in povm.elements)).elements,
        *Instrument(tuple((np.asfortranarray(k),) for k in roots)).kraus_flat(),
        HermitianObservable([1.0, 2.0, 3.0], (1, 1, 1), np.asfortranarray(basis)).basis,
        DensityMatrix(np.asfortranarray(rho)).matrix,
    ]
    for stored, entries in zip(fortran, [*povm.elements, *roots, basis, rho], strict=True):
        assert stored.flags.c_contiguous
        assert stored.tobytes() == np.ascontiguousarray(entries).tobytes()


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


def test_povm_roots_are_read_only_and_feed_factors_and_luders_operators_bit_for_bit():
    from qincompat.incompatibility import _effect_factors

    unitary = random_unitary(2, seed=23)
    below = unitary @ np.diag([-1e-11, 0.6]) @ unitary.conj().T
    for povm in (trine_povm(), random_povm(3, 4, seed=24), Povm((below, np.eye(2) - below))):
        roots = povm.roots
        assert povm.roots is roots and not roots.flags.writeable
        expected = [np.sqrt(zero_floor(eigvals)) for eigvals, _ in povm.spectra]
        assert roots.tobytes() == np.stack(expected).tobytes()
        # the factors and Kraus operators as they were formed before roots were cached
        columns = []
        for (_, eigvecs), root in zip(povm.spectra, expected):
            keep = root > 0
            columns.append(eigvecs[:, keep] * root[keep])
        factors, offsets = _effect_factors(povm)
        assert factors.tobytes() == np.hstack(columns).tobytes()
        assert offsets.tolist() == np.cumsum([0] + [c.shape[1] for c in columns[:-1]]).tolist()
        for (kraus,), (_, eigvecs), root in zip(luders_from_povm(povm).outcomes, povm.spectra, expected):
            op = (eigvecs * root) @ eigvecs.conj().T
            assert kraus.tobytes() == ((op + op.conj().T) / 2.0).tobytes()
        # Povm.kraus, formed as luders_from_povm formed its roots before they were cached
        ops = [(eigvecs * root) @ eigvecs.conj().T for (_, eigvecs), root in zip(povm.spectra, expected)]
        reference = np.stack([(op + op.conj().T) / 2.0 for op in ops])
        assert povm.kraus is povm.kraus and not povm.kraus.flags.writeable
        assert povm.kraus.tobytes() == reference.tobytes() and povm.kraus.shape == reference.shape


def _hermitian_stacks(rng):
    """Random and degenerate Hermitian stacks, complex and real, at d = 2..8."""
    for d in range(2, 9):
        gauss = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        yield gauss + gauss.conj().transpose(0, 2, 1)
        unitary = random_unitary(d, rng)
        spectrum = np.repeat([0.0, 1.0], [d // 2, d - d // 2])  # two eigenspaces
        yield np.stack([(unitary * spectrum) @ unitary.conj().T, np.eye(d), np.zeros((d, d))]).astype(complex)
        yield gauss.real + gauss.real.transpose(0, 2, 1)


def test_lapack_kernels_equal_numpy_linalg_bit_for_bit():
    rng = np.random.default_rng(3001)
    for stack in _hermitian_stacks(rng):
        for mats in (stack, stack[0]):
            ours, theirs = core._eigh(mats, "a test matrix"), np.linalg.eigh(mats)
            assert [a.tobytes() for a in ours] == [a.tobytes() for a in theirs]
            assert [a.dtype for a in ours] == [a.dtype for a in theirs]
            assert core._eigvalsh(mats, "a test matrix").tobytes() == np.linalg.eigvalsh(mats).tobytes()
    for d in range(1, 9):
        for count in (None, 2):
            n = 1 if count is None else count
            gauss = np.random.default_rng(d).standard_normal((n, 2, d, d))
            mats = gauss[:, 0] + 1j * gauss[:, 1]
            q, r = np.linalg.qr(mats)
            ours_q, diag = core._qr(mats.copy())
            assert ours_q.tobytes() == q.tobytes()
            assert diag.tobytes() == np.diagonal(r, axis1=1, axis2=2).tobytes()
            diag = np.diagonal(r, axis1=1, axis2=2).copy()  # the draw as it read a formed R
            unitaries = q * (diag / np.abs(diag))[:, None, :]
            drawn = random_unitary(d, np.random.default_rng(d), count=count)
            assert drawn.tobytes() == (unitaries[0] if count is None else unitaries).tobytes()
        for cols in range(1, 2 * d + 1):  # a face projector's stacked columns, of any width
            mat = rng.standard_normal((d, cols)) + 1j * rng.standard_normal((d, cols))
            assert ([a.tobytes() for a in core._svd(mat, "a test matrix")]
                    == [a.tobytes() for a in np.linalg.svd(mat)])
            for arr in (mat, mat[0], mat.T):
                assert core._norm(arr) == np.linalg.norm(arr)


def test_a_decomposition_that_fails_is_a_numerical_failure_and_warns_of_nothing():
    """NaN input fails LAPACK's Hermitian solvers at d >= 3 (at d <= 2 it returns NaN, as numpy.linalg does)."""
    nan = np.full((2, 3, 3), np.nan, dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for kernel in (core._eigh, core._eigvalsh, core._svd):
            with pytest.raises(NumericalFailureError, match="decomposition of a NaN stack"):
                kernel(nan, "a NaN stack")
    assert caught == []


def test_each_kernel_falls_back_to_numpy_linalg_where_its_gufunc_is_missing(monkeypatch):
    rng = np.random.default_rng(3002)
    stack = next(_hermitian_stacks(rng))
    face = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    nan = np.full((2, 3, 3), np.nan, dtype=complex)

    def results():
        return ([a.tobytes() for a in core._eigh(stack, "a")], core._eigvalsh(stack, "a").tobytes(),
                [a.tobytes() for a in core._svd(face, "a")],
                random_unitary(3, 5).tobytes(), random_unitary(4, 5, count=3).tobytes())

    with_gufuncs = results()
    for name in ("_EIGH", "_EIGVALSH", "_QR_RAW", "_QR_Q", "_SVD"):
        monkeypatch.setattr(core, name, None)
    assert results() == with_gufuncs
    for kernel in (core._eigh, core._eigvalsh, core._svd):  # numpy.linalg's LinAlgError, reported the same way
        with pytest.raises(NumericalFailureError):
            kernel(nan, "a NaN stack")


def test_a_file_whose_decomposition_fails_is_bad_input(tmp_path, monkeypatch):
    """It exits 2, as it did when the failure was numpy.linalg's LinAlgError, a ValueError."""
    save_observable_file(trine_povm(), tmp_path / "trine.json")
    real = core._EIGH
    monkeypatch.setattr(core, "_EIGH", lambda mat, **kwargs: real(np.full((3, 3, 3), np.nan + 0j), **kwargs))
    with pytest.raises(ValidationError, match="did not converge"):
        load_observable_file(tmp_path / "trine.json")
    assert main(["disturbance", str(tmp_path / "trine.json")]) == 2


def _assert_stored_alike(made, ref, fields):
    """The two objects store equal bytes, shapes and dtypes in ``fields``, C-ordered and read-only."""
    for name in fields:
        got, want = getattr(made, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for arr in (got, want):
            assert arr.flags.c_contiguous and not arr.flags.writeable


@pytest.mark.parametrize("d", [*range(2, 13), 16, 24, 32])
def test_every_drawn_observable_is_what_validation_would_store(d):
    """A basis ``_observable_on`` stores unchecked passes the public validator, to the same bytes."""
    for seed in range(60 if d <= 8 else 15):
        for basis in (*random_unitary(d, seed, count=2), random_unitary(d, seed)):
            ref = HermitianObservable(np.arange(1.0, d + 1.0), (1,) * d, basis)
            made = _observable_on(basis)
            assert made.ranks == ref.ranks == (1,) * d
            _assert_stored_alike(made, ref, ("eigenvalues", "basis"))
        _assert_stored_alike(random_observable(d, seed), ref, ("eigenvalues", "basis"))


def _assert_twin(made, ref):
    """``made`` stores what its validated twin ``ref`` stores, in arrays that own their data."""
    assert made.ranks == ref.ranks and all(type(r) is int for r in made.ranks)
    _assert_stored_alike(made, ref, ("eigenvalues", "basis"))
    assert made.eigenvalues.flags.owndata and made.basis.flags.owndata


def _compositions(d):
    """Every tuple of positive ranks summing to ``d``."""
    for cuts in range(2 ** (d - 1)):
        ranks, run = [], 1
        for k in range(d - 1):
            if cuts >> k & 1:
                ranks.append(run)
                run = 0
            run += 1
        yield (*ranks, run)


@pytest.mark.parametrize("d", [*range(2, 33), 48, 64])
def test_every_fixture_family_stores_what_validation_would_store(d):
    """Each family built on its own arrays equals its twin built through ``from_eigensystem``."""
    levels = np.arange(1.0, d + 1.0)
    eye = np.eye(d, dtype=np.complex128)
    computational = HermitianObservable.from_eigensystem(levels, eye)
    _assert_twin(computational_observable(d), computational)
    made_a, made_b = fourier_mub_pair(d)
    _assert_twin(made_a, computational)
    _assert_twin(made_b, HermitianObservable.from_eigensystem(levels, fourier_basis(d)))
    made_a, made_b = commuting_fixture(d)
    _assert_twin(made_a, computational)
    _assert_twin(made_b, HermitianObservable.from_eigensystem(levels**2, eye))
    for n_shared in range(d):
        basis = np.eye(d, dtype=np.complex128)
        basis[n_shared:, n_shared:] = fourier_basis(d - n_shared)
        made_a, made_b = commuting_subspace_pair(d, n_shared)
        _assert_twin(made_a, computational)
        _assert_twin(made_b, HermitianObservable.from_eigensystem(levels, basis))
    for m in range(1, (d + 1) // 2):
        made_a, made_b = asymmetric_pair(d, m)
        values = np.array([1.0] * m + [2.0] * (d - m))
        _assert_twin(made_a, computational)
        _assert_twin(made_b, HermitianObservable.from_eigensystem(values, fourier_basis(d)))
    patterns = _compositions(d) if d <= 8 else (
        (d,), (1,) * d, (1, d - 1), (d - 1, 1), (2,) * (d // 2) + (1,) * (d % 2)
    )
    for ranks in patterns:
        values = np.repeat(np.arange(1.0, len(ranks) + 1.0), ranks)
        _assert_twin(degenerate_observable(ranks), HermitianObservable.from_eigensystem(values, eye))


def test_the_qubit_triple_stores_what_validation_would_store():
    sq = 1.0 / np.sqrt(2.0)
    bases = ([[sq, sq], [sq, -sq]], [[sq, sq], [1j * sq, -1j * sq]], np.eye(2))
    for made, basis in zip(mub_triple_qubit(), bases):
        _assert_twin(made, HermitianObservable.from_eigensystem([1.0, 2.0], basis))


def test_a_degenerate_observable_on_a_basis_passed_in_is_validated():
    with pytest.raises(ValidationError, match="not orthonormal"):
        degenerate_observable((1, 1), np.ones((2, 2)))
    basis = np.asfortranarray(random_unitary(3, 5))
    made = degenerate_observable((2, 1), basis)
    assert made.basis is not basis and made.basis.flags.c_contiguous and not made.basis.flags.writeable
    assert basis.flags.writeable


def test_the_cli_stores_unchecked_only_what_validation_would_store(tmp_path, monkeypatch):
    """Every object the package builds unchecked, in construct, scan, compute and verify, passes validation.

    Both private constructors are wrapped to build the validated twin of
    each object they are given and compare the two.
    """
    built = {"observables": 0, "states": 0}
    observable, state = HermitianObservable._trusted.__func__, PureState._trusted.__func__

    def checked_observable(cls, eigenvalues, ranks, basis):
        ref = HermitianObservable(eigenvalues, ranks, basis)
        made = observable(cls, eigenvalues, ranks, basis)
        assert made.ranks == ref.ranks
        _assert_stored_alike(made, ref, ("eigenvalues", "basis"))
        built["observables"] += 1
        return made

    def checked_state(cls, amplitudes):
        ref = PureState(amplitudes)
        made = state(cls, amplitudes)
        _assert_stored_alike(made, ref, ("amplitudes",))
        assert made.amplitudes.flags.owndata  # no view that keeps a larger array alive
        built["states"] += 1
        return made

    monkeypatch.setattr(HermitianObservable, "_trusted", classmethod(checked_observable))
    monkeypatch.setattr(PureState, "_trusted", classmethod(checked_state))
    monkeypatch.chdir(tmp_path)
    for family in (["mub", "--dim", "4"], ["mub-triple"], ["commuting-subspace", "--dim", "5", "--dc", "2"],
                   ["asymmetric", "--dim", "4", "--m", "1"], ["zchannel", "--p", "0.3"], ["trine"],
                   ["random-observable", "--dim", "3"],
                   ["random-povm", "--dim", "2", "--outcomes", "4"]):
        assert main(["construct", *family]) == 0
    for measure in ("F", "1", "inf"):
        assert main(["compute", "--pair", "mub_d4_a.json", "mub_d4_b.json", "--measure", measure]) == 0
        assert main(["compute", "--luders", "trine.json", "random_povm_d2_n4_s0.json",
                     "--measure", measure]) == 0
    assert main(["compute", "--pair", "asym_d4_m1_a.json", "asym_d4_m1_b.json", "--measure", "F"]) == 0
    for target in ("trine.json", "zchannel_p0.3.json", "asym_d4_m1_b.json"):
        for measure in ("F", "1"):
            assert main(["disturbance", target, "--measure", measure]) == 0
    for measure, dim in (("1", "3"), ("inf", "6")):
        assert main(["scan", "--measure", measure, "--dim", dim, "--trials", "20",
                     "--inject", "mub", "--inject", "commuting", "--out", "scan.csv"]) == 0
    # 10 constructed observables, 40 drawn pairs and 4 injected pairs, and both
    # directions of 44 scan rows besides the reports' states
    assert built["observables"] == 98 and built["states"] > 88
    states = built["states"]
    assert main(["verify", "--suite", "all"]) == 0
    # 31 observables of 17 fixtures (7 MUB pairs, 6 commuting pairs, the triple and the
    # asymmetric pair, each built once though two suites read some), 40 drawn pairs of
    # the commutation and disturbance-ordering suites and one random observable
    assert built["observables"] == 98 + 72 and built["states"] > states


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
def test_an_exact_argmax_that_is_zero_or_not_finite_is_rejected(bad):
    with pytest.raises(ValidationError, match="zero or non-finite"):
        _exact_result(0.5, np.array([bad, 0.0, 0.0], dtype=np.complex128))
