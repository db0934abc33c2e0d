"""Stacked derived data equal the per-effect and per-block loops they replaced, byte for byte.

A measurement's derived arrays and a pair objective's column matrix are
formed in stacked products, one per quantity or per block width. Each
per-slice product sees the operands and strides of the per-block product of
the loops below, so BLAS rounds it alike; these tests rest on that per-slice
rounding, under whatever BLAS and thread count the suite runs with.
"""

import numpy as np
import pytest

from qincompat import (
    HermitianObservable,
    Instrument,
    Measure,
    Povm,
    degenerate_observable,
    fourier_mub_pair,
    pair_distance_objective,
    random_observable,
    random_povm,
    random_unitary,
    trine_povm,
    z_channel,
)
from qincompat import core, incompatibility, optimize
from qincompat.core import zero_floor


# The loops the stacked forms replaced, kept as references.

def _loop_roots(povm):
    return np.sqrt([zero_floor(eigvals) for eigvals, _ in povm.spectra])


def _loop_factors(povm):
    columns = []
    for (_, eigvecs), roots in zip(povm.spectra, _loop_roots(povm)):
        keep = roots > 0
        columns.append(eigvecs[:, keep] * roots[keep] if keep.any()
                       else np.zeros((povm.dim, 1), dtype=np.complex128))
    widths = [c.shape[1] for c in columns]
    return np.hstack(columns), np.cumsum([0] + widths[:-1])


def _loop_kraus(povm):
    roots = [(vecs * root) @ vecs.conj().T for (_, vecs), root in zip(povm.spectra, _loop_roots(povm))]
    return np.stack([(root + root.conj().T) / 2.0 for root in roots])


def _loop_normal_basis(kraus):
    commut = kraus @ kraus.conj().T - kraus.conj().T @ kraus
    if core.max_abs(commut) <= 1e-9:
        mixed = (kraus + kraus.conj().T) / 2.0 + core._NORMAL_MIX * (kraus - kraus.conj().T) / 2.0j
        return core._eigh(mixed, "a Kraus operator")[1]
    return core._eigh(kraus.conj().T @ kraus, "a Kraus operator")[1]


def _loop_candidate_rows(bases, *sums):
    return core._unit_rows(np.vstack([row for basis in bases for row in (basis.T, basis.sum(axis=1))]
                                     + list(sums)))


def _loop_seed_rows(povm):
    tops = np.stack([eigvecs[:, -1] for _, eigvecs in povm.spectra], axis=1)
    return _loop_candidate_rows([eigvecs for _, eigvecs in povm.spectra], tops.sum(axis=1))


def _loop_kraus_rows(kraus):
    return _loop_candidate_rows([_loop_normal_basis(k) for k in kraus])


def _loop_projectors(obs):
    projs = []
    for sl in obs.block_slices():
        block = obs.basis[:, sl]
        proj = block @ block.conj().T
        projs.append((proj + proj.conj().T) / 2.0)
    return np.array(projs)


def _loop_pair_terms(measure, first, second):
    """``cols``, ``column_block`` and ``columns`` of a pair objective, block by block."""
    kraus = first.kraus
    factors, offsets = second.factors
    dim = kraus.shape[1]
    factors_conj = factors.conj()
    blocks = np.split(factors_conj, offsets[1:], axis=1)
    kraus_t = kraus.transpose(0, 2, 1)
    products = [(kraus_t @ block).transpose(1, 0, 2).reshape(dim, -1) for block in blocks]
    cols = np.hstack([factors_conj] + products)
    sizes = np.array([block.shape[1] for block in blocks])
    widths = np.concatenate((sizes, len(kraus) * sizes))
    starts = np.cumsum(widths) - widths
    column_block = np.repeat(np.arange(widths.size), widths)
    columns = None
    if measure is Measure.FIDELITY and (sizes < dim).any():
        columns = tuple(cols[:, s:s + w] for s, w in zip(starts.tolist(), widths.tolist()))
    return cols, column_block, columns


def _random_instrument(dim, n_kraus, seed):
    """One or two Kraus operators per outcome, cut from a random isometry."""
    rng = np.random.default_rng(seed)
    shape = (n_kraus * dim, dim)
    isometry = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    ops = list(isometry.reshape(n_kraus, dim, dim))
    outcomes = [(ops[0], ops[1])] + [(k,) for k in ops[2:]] if n_kraus > 2 else [(k,) for k in ops]
    return Instrument(tuple(outcomes))


def _floored_povm():
    """An effect with an eigenvalue in [-POVM_EIG_TOL, 0), which validation accepts and roots floor."""
    u = random_unitary(2, 3)
    effect = u @ np.diag([1.0, -5e-11]) @ u.conj().T
    return Povm((effect, np.eye(2) - effect))


def _povm_with_a_zero_effect():
    """An effect that is 0, and one whose eigenvalues are all below the floor of ``zero_floor``."""
    u, v = random_unitary(3, 11), random_unitary(3, 12)
    projs = [np.outer(u[:, k], u[:, k].conj()) for k in range(3)]
    tiny = v @ np.diag([1e-16, -1e-16, 0.0]) @ v.conj().T
    return Povm((projs[0], np.zeros((3, 3)), tiny, projs[1] + projs[2] / 2, projs[2] / 2))


def _interleaved_povm():
    """Full-rank effects on both sides of a rank-one one, so that the width-3 blocks are not consecutive."""
    u = random_unitary(3, 13)
    ray = 0.3 * np.outer(u[:, 0], u[:, 0].conj())
    return Povm((0.4 * np.eye(3), ray, 0.6 * np.eye(3) - ray))


def _povms():
    rng = np.random.default_rng(3301)
    povms = [random_povm(d, n, rng) for d in range(2, 9) for n in range(2, 7)]
    # numpy sums 8 or more terms pairwise: many outcomes and a large dimension
    povms += [random_povm(3, 10, rng), random_povm(12, 3, rng)]
    return povms + [trine_povm(), _floored_povm(), _povm_with_a_zero_effect()]


def _degenerate_observables():
    rng = np.random.default_rng(3302)
    return [degenerate_observable(ranks, random_unitary(sum(ranks), rng))
            for ranks in ((2, 2, 2), (3, 1, 1, 1), (2, 1), (1, 2, 1, 2, 2))]


def _instruments():
    return [_random_instrument(d, n, seed=3303 + 10 * d + n) for d in (2, 3, 4, 5, 12) for n in (2, 3)]


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_a_povms_derived_arrays_equal_the_per_effect_loops():
    for povm in _povms():
        _same_bytes(povm.roots, _loop_roots(povm))
        factors, offsets = povm.factors
        ref_factors, ref_offsets = _loop_factors(povm)
        _same_bytes(factors, ref_factors)
        _same_bytes(offsets, ref_offsets)
        assert factors.flags.c_contiguous
        _same_bytes(povm.kraus, _loop_kraus(povm))
        _same_bytes(povm.seed_rows, _loop_seed_rows(povm))
        _same_bytes(povm.luders_rows, _loop_kraus_rows(_loop_kraus(povm)))


def test_a_zero_effect_keeps_one_zero_column():
    """Each effect with no root above the floor keeps one column of positive zeros."""
    povm = _povm_with_a_zero_effect()
    factors, offsets = povm.factors
    assert offsets.tolist() == [0, 1, 2, 3, 5]
    for column in (1, 2):
        assert not np.signbit(np.ascontiguousarray(factors[:, column]).view(np.float64)).any()
        assert not factors[:, column].any()


def test_an_observables_projectors_equal_the_per_block_loop():
    rng = np.random.default_rng(3304)
    observables = _degenerate_observables() + [random_observable(d, rng) for d in (*range(2, 9), 12)]
    observables += list(fourier_mub_pair(5))
    for obs in observables:
        _same_bytes(obs.projectors, _loop_projectors(obs))
        _same_bytes(obs.seed_rows, _loop_candidate_rows([obs.basis], core._spread(obs)))


def test_an_instruments_seed_rows_equal_the_per_operator_loop():
    for inst in _instruments() + [z_channel(0.3), z_channel(1.0)]:
        _same_bytes(inst.seed_rows, _loop_kraus_rows(inst.kraus))
        for kraus in inst.kraus:
            _same_bytes(core._normal_basis(kraus), _loop_normal_basis(kraus))


@pytest.mark.parametrize("measure", list(Measure))
def test_pair_objective_columns_equal_the_per_block_loop(measure):
    rng = np.random.default_rng(3305)
    seconds = {
        "observable": [random_observable(d, rng) for d in (2, 4, 6)],
        "degenerate": _degenerate_observables(),
        "povm": [random_povm(d, n, rng) for d, n in ((2, 4), (3, 3), (4, 5))]
        + [trine_povm(), _floored_povm(), _povm_with_a_zero_effect(), _interleaved_povm()],
    }
    firsts = dict(seconds, instrument=_instruments())
    covered, scattered = set(), set()
    for first_kind, firsts_of_kind in firsts.items():
        for first in firsts_of_kind:
            for second_kind, seconds_of_kind in seconds.items():
                for second in seconds_of_kind:
                    if second.dim != first.dim:
                        continue
                    covered.add((first_kind, second_kind))
                    terms = pair_distance_objective(measure, first, second).terms
                    cols, column_block, columns = _loop_pair_terms(measure, first, second)
                    _same_bytes(terms.cols, cols)
                    assert terms.cols.flags.c_contiguous
                    _same_bytes(terms.column_block, column_block)
                    assert (terms.columns is None) == (columns is None)
                    for got, want in zip(terms.columns or (), columns or ()):
                        _same_bytes(got, want)
                    if columns is not None:
                        _assert_faces_columns_equal(pair_distance_objective(measure, first, second), columns)
                    scattered.update(isinstance(at, np.ndarray) for at in terms.structure.products_at)
    assert covered == {(a, b) for a in firsts for b in seconds}  # every ordered pair of kinds
    assert scattered == {False, True}  # products written through a slice and through an index


def _assert_faces_columns_equal(objective, columns):
    """The Faces columns of an evaluation give the bytes of ``columns``, the tuple they replaced."""
    faces = objective(np.eye(1, len(columns[0]), dtype=np.complex128))[2]
    assert faces.columns is objective.terms.columns
    assert len(faces.columns) == len(columns)
    assert [got.tobytes() for got in faces.columns] == [want.tobytes() for want in columns]
    for block, want in enumerate(columns):
        _same_bytes(faces.columns[block], want)
        assert faces.columns[-1 - block].tobytes() == columns[-1 - block].tobytes()
    blocks = (0, len(columns) // 2)
    lazy, eager = optimize._face_projector(faces.columns, blocks), optimize._face_projector(columns, blocks)
    assert (lazy is None) == (eager is None)
    if lazy is not None:
        _same_bytes(lazy, eager)
    with pytest.raises(TypeError):
        faces.columns[0] = columns[0]


def test_the_strict_upper_mask_is_cached_and_read_only():
    mask = incompatibility._strict_upper(5)
    assert mask is incompatibility._strict_upper(5)
    assert not mask.flags.writeable
    np.testing.assert_array_equal(mask, np.triu(np.ones((5, 5), dtype=bool), 1))


def _read_only(value):
    """Whether every array in a (nested) tuple of arrays, slices and numbers is read-only."""
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    return not isinstance(value, tuple) or all(_read_only(item) for item in value)


@pytest.mark.parametrize("widths", [(1, 1, 1), (2, 2, 1, 1), (1, 2, 1, 2, 2), (3, 1, 3), (2,)])
def test_the_width_grouping_is_cached_and_read_only(widths):
    grouping = core._width_groups(widths)
    assert grouping is core._width_groups(widths)
    assert _read_only(grouping)
    layout = incompatibility._pair_layout(widths, 2, 4)
    assert layout is incompatibility._pair_layout(widths, 2, 4)
    assert _read_only(layout)


@pytest.mark.parametrize("widths, members", [
    ((1, 1, 1), {1: slice(0, 3)}),
    ((2, 2, 1, 1), {1: slice(2, 4), 2: slice(0, 2)}),
    ((1, 2, 1, 2, 2), {1: [0, 2], 2: [1, 3, 4]}),
    ((3, 1, 3), {1: slice(1, 2), 3: [0, 2]}),
])
def test_the_width_grouping_is_a_slice_exactly_where_a_group_is_consecutive(widths, members):
    order, groups = core._width_groups(widths)
    assert {width: got if isinstance(got, slice) else got.tolist() for width, got, _ in groups} == members
    assert (order is None) == (list(widths) == sorted(widths))
    # Each group's stack holds its members' blocks, and a pair layout writes
    # their products through a slice exactly where the members are one.
    columns = np.arange(4 * sum(widths), dtype=np.complex128).reshape(4, -1)
    blocks = np.split(columns, np.cumsum(widths)[:-1], axis=1)
    layout = incompatibility._pair_layout(widths, 2, 4)
    for (got, stack), products_at in zip(core._blocks_by_width(columns, widths), layout.products_at):
        assert stack.tobytes() == np.stack([blocks[j] for j in np.arange(len(widths))[got]]).tobytes()
        assert isinstance(products_at, slice) == isinstance(got, slice)


def test_block_products_of_one_column_are_outer_products():
    """A rank-one block's Gram is the outer product the previous kernel formed, bit for bit."""
    rng = np.random.default_rng(3306)
    for obs in [random_observable(d, rng) for d in (2, 5, 8)] + _degenerate_observables():
        second = random_povm(obs.dim, 3, rng)
        for columns, offsets in (obs.factors, (obs.basis.conj().T @ second.factors[0], second.factors[1])):
            grams = incompatibility._block_grams(columns, offsets)
            widths = np.diff(offsets, append=columns.shape[1])
            rows = columns.T
            outer = rows[:, :, None] @ rows.conj()[:, None, :]
            for j in np.flatnonzero(widths == 1):
                _same_bytes(grams[j], outer[offsets[j]])
            np.testing.assert_allclose(grams, np.add.reduceat(outer, offsets, axis=0), atol=1e-14)
