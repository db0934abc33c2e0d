"""Distance-based incompatibility of measurements and maximal disturbance.

The directional incompatibility of a measurement A with a measurement B is
the largest distance, over all states, between the outcome statistics of B
alone and of B following A on the same state. It vanishes exactly for
commuting projective pairs, is bounded by the maximal disturbance of A's
channel, and for the fidelity-based distance obeys the dimension bound
1 - 1/d, attained by mutually unbiased non-degenerate pairs.

The symmetric value of a pair averages the two directions with an extra
factor of two, ``(forward + backward) / 4``, and therefore tops out at
1/2 rather than 1; the N-observable value averages all ordered pairs over
N^2. Both conventions are implemented exactly as defined.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    HermitianObservable,
    Instrument,
    Povm,
    PureState,
    _block_products,
    _block_widths,
    _blocks_by_width,
    _eigh,
    _eigvalsh,
    _norm,
    _normalize,
    _slice_or_index,
    _spread,
    _unit_rows,
    _whole,
    _width_groups,
    max_abs,
    measurement_effects,
)
from .constructions import (
    _observable_on,
    computational_observable,
    fourier_mub_pair,
    random_unitary,
)
from .errors import DimensionMismatchError, ParamOutOfRangeError
from .optimize import (
    Faces,
    Objective,
    OptimizerConfig,
    OptResult,
    Provenance,
    _checked,
    _maximize_many,
    maximize_over_pure_states,
)

BOUND_SLACK = 1e-8
# Above this many outcomes of the second measurement the exact L1 path would
# solve more than 2^11 eigenproblems, and the multistart search runs instead.
EXACT_L1_MAX_OUTCOMES = 12
# A seed within this distance of a proven ceiling is taken as the supremum,
# and the multistart search is skipped.
CEILING_TOL = 1e-12
# Two eigenvectors of the pair's generic element share a block when some
# generator couples them by more than this.
BLOCK_TOL = 1e-10
# The largest dimension whose 2^d - d - 2 subset superpositions are tried
# for the ceiling exit of a degenerate first observable: 246 rows at d = 8.
SUBSET_MAX_DIM = 8


class Measure(enum.Enum):
    """Which distance between outcome distributions drives the measure."""

    L1 = "1"
    FIDELITY = "F"
    LINF = "inf"

    @classmethod
    def from_flag(cls, text: str) -> "Measure":
        for member in cls:
            if member.value == text:
                return member
        raise ParamOutOfRangeError(f"unknown measure flag {text!r}; use 1, F or inf")


def _require_measurements(*measurements) -> None:
    """Raise :class:`TypeError` unless each argument is an observable, a POVM or an instrument."""
    for meas in measurements:
        if not isinstance(meas, (HermitianObservable, Povm, Instrument)):
            raise TypeError(f"expected an observable, a POVM or an instrument, not {type(meas).__name__}")


def _effect_factors(meas) -> tuple[np.ndarray, np.ndarray]:
    """The cached ``factors`` of an observable or a POVM; any other kind raises :class:`TypeError`.

    They are columns W with E_j = sum over its block of |w><w|, plus block
    start offsets: an observable's eigenbasis, and a POVM's ``spectra``
    eigenvectors scaled by its ``roots``, which its Lüders ``kraus`` read
    too, so round-off negatives are dropped. Evaluating probabilities as
    sums of |<w|psi>|^2 keeps near-zero outcomes at the square of the
    round-off level, which matters because the fidelity distance takes
    square roots of them.
    """
    if not isinstance(meas, (HermitianObservable, Povm)):
        raise TypeError(f"second must be an observable or a POVM, not {type(meas).__name__}")
    return meas.factors


# Square roots of block probabilities are floored before dividing by them.
# A block whose p_j underflows to 0 has amplitudes below 1e-161, so its
# floored weight times those amplitudes is 0 up to round-off.
_ROOT_FLOOR = 1e-150


def _fidelity_weights(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1 - F^2 with F = sum_j sqrt(p_j q_j) per row, and twice its derivative in p and q.

    ``sums`` has shape ``(S, 2, n)`` and holds p in ``[:, 0]`` and q in
    ``[:, 1]``. Where p = q, F can exceed 1 by round-off, so the value is
    clamped at 0; the derivative is not. Where p_j = 0 the derivative
    dF/dp_j = sqrt(q_j / p_j) / 2 is infinite, but every amplitude of that
    block vanishes, so the block adds nothing to the gradient (and likewise
    for q_j).
    """
    root = np.sqrt(sums)
    fid = np.vecdot(root[:, 1], root[:, 0])
    weights = (-2.0 * fid[:, None, None]) * (root[:, ::-1] / np.maximum(root, _ROOT_FLOOR))
    return np.maximum(0.0, 1.0 - fid * fid), weights


_SIGNS = np.array([[-1.0], [1.0]])


def _l1_weights(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_j |q_j - p_j| / 2 per row and twice its derivative in p and q."""
    diff = sums[:, 1] - sums[:, 0]
    return 0.5 * np.abs(diff).sum(axis=1), _SIGNS * np.sign(diff)[:, None, :]


def _chebyshev_weights(sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max_j |q_j - p_j| per row and twice its derivative in p and q at the arg-max outcome."""
    diff = sums[:, 1] - sums[:, 0]
    rows = np.arange(len(diff))
    j = np.argmax(np.abs(diff), axis=1)
    weights = np.zeros_like(sums)
    weights[rows, :, j] = 2.0 * np.sign(diff[rows, j])[:, None] * _SIGNS[:, 0]
    return np.abs(diff[rows, j]), weights


_WEIGHTS: dict[Measure, Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = {
    Measure.L1: _l1_weights,
    Measure.FIDELITY: _fidelity_weights,
    Measure.LINF: _chebyshev_weights,
}


def pair_distance_objective(measure: Measure, first, second) -> Objective:
    """State objective: distance between second's statistics with and without first.

    The objective takes an ``(S, dim)`` stack of unit ``complex128``
    amplitude vectors psi, does not validate them, and returns the distances
    and their gradients (the contract of :mod:`qincompat.optimize`); pass
    ``state.amplitudes[None]`` to evaluate a :class:`PureState`. First may be
    an observable, a POVM or an instrument; second must be an observable or
    a POVM, and anything else raises :class:`TypeError`. With W the
    columns factoring second's effects (E_j = sum of |w><w| over block j)
    and K_k first's cached Kraus stack (``first.kraus``), one column
    matrix ``cols = [conj(W) | K_k^T conj(W) for every k]`` is built per
    ordered pair, grouped by outcome, so ``amp = psi @ cols`` holds every
    <w|psi> and <w|K_k psi>. The products ``K_k^T conj(W_j)`` are formed in
    one stacked product per distinct width of the blocks W_j, each slice
    rounding as the product of its block alone. Where they go in ``cols``
    and which block each column is in depend on the block widths, the Kraus
    count and the dimension alone, and are formed once per such structure
    (:func:`_pair_layout`). The undisturbed and
    sequential probabilities p_j and q_j are sums of |amp|^2 over blocks,
    one ``np.add.reduceat``, so both stay exactly nonnegative and match the
    public distribution functions up to round-off. The gradient is
    ``conj(cols) @ (weights * amp)``, with each column weighted by twice the
    derivative of the distance in its block's probability. Both products
    are stacked matrix-vector products, one per state.

    Under the fidelity measure, when an effect of second is rank-deficient,
    a p_j or q_j can vanish, and F has a square-root kink there. The
    objective then returns a third item, :class:`~qincompat.optimize.Faces`:
    the 2n block probabilities of each row, p_1..p_n then q_1..q_n, and the
    column blocks of ``cols`` that define them, since a block vanishes at psi
    exactly where ``psi @ cols_b = 0``. The search finishes starts that
    approach such a face on it. With full-rank effects, and under the L1
    and Chebyshev measures, it returns ``(values, grads)`` alone.
    """
    _require_measurements(first)
    kraus = first.kraus
    factors, offsets = _effect_factors(second)
    dim = kraus.shape[1]
    if dim != factors.shape[0]:
        raise DimensionMismatchError(f"dimensions differ: {dim} vs {factors.shape[0]}")
    factors_conj = factors.conj()
    n_kraus, n_cols = len(kraus), factors.shape[1]
    widths = _block_widths(offsets, n_cols)
    layout = _pair_layout(widths, n_kraus, dim)
    kraus_t = kraus.transpose(0, 2, 1)
    cols = np.empty((dim, (1 + n_kraus) * n_cols), dtype=np.complex128)
    cols[:, :n_cols] = factors_conj
    # Per block, as one product over all blocks rounds otherwise: block j's
    # K_k^T conj(W_j) for every k fill its columns, k by k, after conj(W).
    for (_, stack), products_at in zip(_blocks_by_width(factors_conj, widths), layout.products_at):
        cols[:, products_at] = (kraus_t[:, None] @ stack).transpose(2, 1, 0, 3).reshape(dim, -1)
    starts, column_block = layout.starts, layout.column_block
    weigh = _WEIGHTS[measure]
    columns = None
    if measure is Measure.FIDELITY and layout.faceted:
        columns = _BlockColumns(cols, layout.spans)

    # The defaults are this pair's; _stacked_pair_objective passes each row's own.
    def objective(
        vecs: np.ndarray, *, _cols=cols, _cols_conj=cols.conj(), _columns=columns
    ) -> tuple:
        amp = (vecs[:, None, :] @ _cols)[:, 0]
        sums = np.add.reduceat(np.abs(amp) ** 2, starts, axis=1).reshape(len(vecs), 2, -1)
        values, weights = weigh(sums)
        scaled = weights.reshape(len(vecs), -1).take(column_block, axis=1) * amp
        grads = (_cols_conj @ scaled[:, :, None])[:, :, 0]
        if _columns is None:
            return values, grads
        return values, grads, Faces(sums.reshape(len(vecs), -1), _columns)

    objective.terms = _PairTerms(measure, cols, layout, columns)
    return objective


class _PairLayout(NamedTuple):
    """Where a pair objective's columns go, fixed by its ``key``.

    ``key`` is second's block widths, first's Kraus count and the dimension.
    ``products_at`` are the columns of ``cols`` that each width group of
    :func:`~qincompat.core._width_groups` fills, in its order, as
    :func:`~qincompat.core._slice_or_index` gives them. ``starts``,
    ``column_block`` and ``spans`` are each column block's first column,
    each column's block and each block's ``(start, stop)``. ``faceted`` is
    whether a block of second is narrower than the dimension, so that a
    fidelity objective reports :class:`~qincompat.optimize.Faces`.
    """

    key: tuple
    products_at: tuple
    starts: np.ndarray
    column_block: np.ndarray
    spans: tuple[tuple[int, int], ...]
    faceted: bool


@functools.lru_cache(maxsize=256)
def _pair_layout(widths: tuple[int, ...], n_kraus: int, dim: int) -> _PairLayout:
    """The read-only :class:`_PairLayout` of these block widths, Kraus count and dimension.

    Block j's products ``K_k^T conj(W_j)`` fill ``n_kraus * w_j`` columns
    from ``firsts[j]``, after the ``n_cols`` columns of ``conj(W)``.
    """
    sizes = np.array(widths)
    n_cols = int(sizes.sum())
    firsts = n_cols + n_kraus * (np.cumsum(sizes) - sizes)
    products_at = tuple(
        _slice_or_index((firsts[members, None] + np.arange(n_kraus * width)).ravel().tolist())
        for width, members, _ in _width_groups(widths)[1]
    )
    block_widths = np.concatenate((sizes, n_kraus * sizes))
    starts = np.cumsum(block_widths) - block_widths
    column_block = np.repeat(np.arange(block_widths.size), block_widths)
    starts.setflags(write=False)
    column_block.setflags(write=False)
    spans = tuple(zip(starts.tolist(), (starts + block_widths).tolist()))
    return _PairLayout((widths, n_kraus, dim), products_at, starts, column_block, spans,
                       bool((sizes < dim).any()))


class _BlockColumns(Sequence):
    """The column blocks of a pair objective's ``cols``, each sliced when it is read.

    Entry ``b`` is the view ``cols[:, start:stop]`` of block ``b``'s span,
    made when it is read; the sequence itself cannot be changed.
    """

    __slots__ = ("_cols", "_spans")

    def __init__(self, cols: np.ndarray, spans: tuple[tuple[int, int], ...]):
        self._cols, self._spans = cols, spans

    def __len__(self) -> int:
        return len(self._spans)

    def __getitem__(self, block: int) -> np.ndarray:
        start, stop = self._spans[block]
        return self._cols[:, start:stop]


class _PairTerms(NamedTuple):
    """The constants of a pair objective, which it carries as ``objective.terms``.

    ``cols`` is its column matrix and ``structure`` its cached
    :class:`_PairLayout`, whose ``column_block`` is the block of each column:
    second's outcome blocks, then the same blocks once per Kraus operator of
    first. ``columns`` are the blocks themselves (:class:`_BlockColumns`)
    where the objective reports :class:`~qincompat.optimize.Faces`, else
    ``None``. Pair objectives of one ``layout`` differ in ``cols`` and
    ``columns`` alone.
    """

    measure: Measure
    cols: np.ndarray
    structure: _PairLayout
    columns: _BlockColumns | None

    @property
    def column_block(self) -> np.ndarray:
        return self.structure.column_block

    @property
    def layout(self) -> tuple:
        """What a pair objective's closure holds besides its columns.

        Its block starts, column blocks and faces follow from the structure's
        key and its weights from ``measure``, so objectives of one layout
        evaluate a row alike and may take each other's columns.
        """
        return self.measure, self.structure.key


def _stacked_pair_objective(objectives: Sequence[Objective]) -> Callable:
    """Pair objectives of one layout as one objective of :func:`_maximize_many`.

    Row ``s`` of a stack is evaluated by the first pair's objective with the
    columns of pair ``problems[s]``, in one stacked product per row, exactly
    as that pair's own objective evaluates it. Each call gathers a column
    matrix per row.
    """
    cols = np.stack([objective.terms.cols for objective in objectives])
    cols_conj = cols.conj()
    columns = None
    if objectives[0].terms.columns is not None:
        columns = tuple(objective.terms.columns for objective in objectives)
    evaluate = objectives[0]

    def objective(vecs: np.ndarray, problems: np.ndarray) -> tuple:
        return evaluate(vecs, _cols=cols.take(problems, axis=0),
                        _cols_conj=cols_conj.take(problems, axis=0), _columns=columns)

    return objective


def _disturbance_objective(measure: Measure, meas) -> Objective:
    """State objective of :func:`maximal_disturbance`, with its gradient.

    With K_k the measurement's cached Kraus stack (``meas.kraus``) and
    a_k = <psi|K_k|psi>, the fidelity objective is 1 - sum_k |a_k|^2 and
    its gradient -2 sum_k (conj(a_k) K_k psi + a_k K_k^dag psi). The L1
    objective is half the trace norm of M = sum_k K_k|psi><psi|K_k^dag -
    |psi><psi|; with S = sign(M) from the same ``eigh``, its gradient is
    sum_k K_k^dag S K_k psi - S psi. Both take and return stacks, like the
    pair objective, with one matrix product or ``eigh`` per state.
    """
    _require_measurements(meas)
    kraus = meas.kraus
    n, dim, _ = kraus.shape
    adjoints = kraus.conj().transpose(0, 2, 1)
    if measure is Measure.FIDELITY:
        both = np.concatenate((kraus, adjoints)).reshape(2 * n * dim, dim)

        def objective(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            stacked = (both @ vecs[:, :, None]).reshape(len(vecs), 2, n, dim)
            images, adj_images = stacked[:, 0], stacked[:, 1]
            amps = (images @ vecs.conj()[:, :, None])[:, :, 0]
            total = (np.abs(amps) ** 2).sum(axis=1)
            grad = -2.0 * (
                (amps.conj()[:, None, :] @ images) + (amps[:, None, :] @ adj_images)
            )[:, 0]
            return 1.0 - np.clip(total, 0.0, 1.0), grad

    elif measure is Measure.L1:
        rows = kraus.reshape(n * dim, dim)
        adjoint_row = np.hstack(list(adjoints))

        def objective(vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            images = (rows @ vecs[:, :, None]).reshape(len(vecs), n, dim)
            outer = vecs[:, :, None] * vecs.conj()[:, None, :]
            diff = images.transpose(0, 2, 1) @ images.conj() - outer
            lam, basis = _eigh(diff, "a state difference")
            sign = (basis * np.sign(lam)[:, None, :]) @ basis.conj().transpose(0, 2, 1)
            pulled = (images @ sign.transpose(0, 2, 1)).reshape(len(vecs), n * dim, 1)
            grad = (adjoint_row @ pulled - sign @ vecs[:, :, None])[:, :, 0]
            return 0.5 * np.abs(lam).sum(axis=1), grad

    else:
        raise ParamOutOfRangeError("disturbance is defined for the L1 and fidelity measures")
    return objective


def analytic_seed_states(*measurements) -> np.ndarray:
    """Candidate extremal states for suprema involving the measurements.

    Returns an ``(S, dim)`` ``complex128`` array of unit rows: the
    cached ``seed_rows`` of each measurement in turn. An observable's are
    every eigenvector, the uniform superposition of the full eigenbasis, and
    that of one representative vector per eigenspace (the state that
    equidistributes probability over the distinct outcomes of a degenerate
    spectrum). A POVM's are each effect's eigenvectors and their sum, then
    the sum of every effect's top eigenvector; an instrument's, each Kraus
    operator's eigenbasis and its sum. Each row is normalized as
    :meth:`PureState.normalized` would normalize it, and a row whose overlap
    ``|<u|v>|`` with an earlier row exceeds ``1 - 1e-9``, the same state up
    to phase, is dropped. Anything else raises :class:`TypeError`.
    """
    _require_measurements(*measurements)
    return _seed_states(*(meas.seed_rows for meas in measurements))


def _seed_states(*row_sets: np.ndarray) -> np.ndarray:
    """The rows of all ``row_sets`` in turn, less each that is an earlier row's state."""
    rows = np.concatenate(row_sets)
    return _distinct(rows, _same_states(rows))


def _same_states(rows: np.ndarray) -> np.ndarray:
    """Which pairs of unit rows are one state up to phase: ``|<u|v>| > 1 - 1e-9``."""
    return np.abs(rows.conj() @ rows.T) > 1.0 - 1e-9


def _distinct(rows: np.ndarray, same: np.ndarray) -> np.ndarray:
    """The rows that are no earlier row's state, by the :func:`_same_states` matrix ``same``."""
    return rows[~(same & _strict_upper(len(rows))).any(axis=0)]


@functools.lru_cache(maxsize=256)
def _strict_upper(n: int) -> np.ndarray:
    """The read-only mask of the entries above the diagonal of an ``n x n`` matrix."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.setflags(write=False)
    return mask


def _subset_superpositions(first, second) -> np.ndarray | None:
    """Uniform superpositions of 2 to d - 1 of second's eigenvectors, as unit rows.

    They are candidates for a degenerate observable ``first`` and an
    observable ``second`` of dimension at most ``SUBSET_MAX_DIM``, and
    ``None`` is returned for any other pair. The backward values of
    :func:`~qincompat.constructions.asymmetric_pair` are attained there:
    for (4, 1) at ``(|e_1> + |e_3>) / sqrt(2)``, with the ``e_j`` second's
    eigenvectors. Row ``k`` sums the columns of ``second.basis`` picked by
    the bits of the k-th such subset in increasing order of its bit mask.
    """
    if not (isinstance(first, HermitianObservable) and first.n_outcomes < first.dim
            and isinstance(second, HermitianObservable) and second.dim <= SUBSET_MAX_DIM):
        return None
    masks = (np.arange(2**second.dim)[:, None] >> np.arange(second.dim)) & 1
    sizes = masks.sum(axis=1)
    return _unit_rows(masks[(sizes >= 2) & (sizes < second.dim)] @ second.basis.T)


def _heralded_differences(first, second) -> tuple[np.ndarray, np.ndarray | None]:
    """Stack of D_j = sum_k K_k^dag E_j K_k - E_j, one per outcome of second, and its basis.

    The K_k are first's cached ``kraus`` and ``E_j = W_j W_j^H``
    second's effects, from the columns W of :func:`_effect_factors` that the
    search reads, so q_j - p_j = <psi|D_j|psi> for a state psi. The D_j are
    Hermitian up to round-off; the eigensolvers read only their lower triangles.

    An observable ``first`` with eigenbasis U is read there, where its
    projectors are the 0/1 diagonal blocks of its eigenspaces: with ``G_j``
    formed like ``E_j`` from the columns of ``U^H W`` and M the mask of those
    blocks, the stack is ``U^H D_j U = M * G_j - G_j``, which is ``-G_j`` off
    the blocks and 0 on them, and U is returned with it; an eigenvector v of
    that stack is ``U v`` in the computational basis. Any other ``first``
    returns the stack itself and ``None``.
    """
    factors, offsets = _effect_factors(second)
    _require_measurements(first)
    if first.dim != second.dim:
        raise DimensionMismatchError(f"dimensions differ: {first.dim} vs {second.dim}")
    if not isinstance(first, HermitianObservable):
        kraus = first.kraus
        effects = _block_grams(factors, offsets)
        kraus_adj = kraus.conj().transpose(0, 2, 1)
        heralded = (kraus_adj[None] @ effects[:, None] @ kraus[None]).sum(axis=1)
        return heralded - effects, None
    rotated = _block_grams(first.basis.conj().T @ factors, offsets)
    return np.where(_same_eigenspace(first.ranks), 0.0, -rotated), first.basis


@functools.lru_cache(maxsize=256)
def _same_eigenspace(ranks: tuple[int, ...]) -> np.ndarray:
    """The read-only 0/1 mask of the diagonal blocks of eigenspaces with these ranks."""
    labels = np.repeat(np.arange(len(ranks)), ranks)
    mask = labels[:, None] == labels
    mask.setflags(write=False)
    return mask


@functools.cache
def _subset_masks(n: int) -> np.ndarray:
    """Read-only rows of 0/1 weights, one per subset of n outcomes, in binary order.

    They are stored complex, as the stacks they weight, so that no product casts them.
    """
    masks = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.complex128)
    masks.setflags(write=False)
    return masks


def _block_grams(columns: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``G_j = W_j W_j^H`` for each block W_j of columns, the blocks starting at ``offsets``.

    Where every block is one column c, as for a non-degenerate observable,
    they are the outer products ``|c><c|``, all in one product; otherwise
    each is one product of its block, stacked per block width, which gives
    a one-column block the same outer product.
    """
    if len(offsets) == columns.shape[1]:
        rows = columns.T
        return rows[:, :, None] @ rows.conj()[:, None, :]
    return _block_products(columns, offsets)


def _exact_directional(measure: Measure, first, second) -> OptResult:
    """Q_inf or Q_1 from the spectra of the D_j.

    Q_inf is the largest |eigenvalue| of any D_j. Because the D_j sum to
    zero, half the L1 distance is the largest sum of q_j - p_j over a subset
    of outcomes (Helstrom's event form of total variation), so Q_1 is the
    largest eigenvalue of any subset sum. A subset holding the last outcome
    is the negated complement of one that does not, so the 2^(n-1) sums of
    D_1..D_{n-1} cover every subset through their extreme eigenvalues.
    When first is an observable the D_j are taken in its eigenbasis, and the
    winning eigenvector is mapped back (:func:`_heralded_differences`). Where
    the winning eigenvalue is repeated, the argmax is the
    :func:`_reference_projection` onto its eigenspace.
    """
    diff, basis = _heralded_differences(first, second)
    n, dim, _ = diff.shape
    if measure is Measure.L1:
        flat = diff[: n - 1].reshape(n - 1, dim * dim)
        sums = (_subset_masks(n - 1) @ flat).reshape(-1, dim, dim)
        lam = _eigvalsh(sums, "the subset sums")
        best = int(np.argmax(np.maximum(lam[:, -1], -lam[:, 0])))
        candidates = sums[best : best + 1]
    else:
        candidates = diff
    lam, vecs = _eigh(candidates, "the outcome differences")
    top, bottom = lam[:, -1], -lam[:, 0]
    j = int(np.argmax(np.maximum(top, bottom)))
    if top[j] >= bottom[j]:
        value, end, inner = top[j], -1, -2
    else:
        value, end, inner = bottom[j], 0, 1
    vec = vecs[j, :, end]
    if dim > 1 and abs(lam[j, inner] - lam[j, end]) <= _REPEATED_TOL:
        space = np.abs(lam[j] - lam[j, end]) <= _REPEATED_TOL
        vec = _reference_projection(vecs[j][:, space], basis)
    if basis is not None:
        vec = basis @ vec
    return _exact_result(float(value), vec)


# Eigenvalues of one D_j or subset sum this close are taken as one repeated
# eigenvalue. Those matrices have norm at most 1 (a difference of two
# effects' expectations) and are formed to a few eps, and eigh is backward
# stable, so the copies of an exactly repeated eigenvalue come back within
# about d eps of each other, 1.4e-14 at d = 64, while any state of the merged
# eigenspace attains the value to within 1e-12, far inside every claim's tolerance.
_REPEATED_TOL = 1e-12


def _reference_projection(space: np.ndarray, basis: np.ndarray | None) -> np.ndarray:
    """The projection of one fixed reference vector onto the span of the columns of ``space``.

    LAPACK may return any orthonormal basis of a repeated eigenvalue's
    eigenspace, and round-off of a few eps can turn it; the projection of a
    fixed vector depends on the eigenspace alone, so it moves only by that
    round-off over the spectral gap. The reference, ``exp(i e k^2) / sqrt(d)``
    for k = 0..d-1, has unit moduli and transcendental phases, which no
    eigenspace of the package's fixtures is orthogonal to. It is taken in the
    computational basis, which ``basis`` (or None) maps ``space`` to, so the
    argmax does not depend on which eigenbasis a degenerate first was given.
    """
    dim = space.shape[0]
    reference = np.exp(1j * np.e * np.arange(dim) ** 2) / np.sqrt(dim)
    if basis is not None:
        reference = basis.conj().T @ reference
    return space @ (space.conj().T @ reference)


def _exact_result(value: float, vector: np.ndarray) -> OptResult:
    """A supremum computed exactly, attained at the 1-D ``complex128`` ``vector`` (normalized here).

    The quotient is a new array, so the state stores it without a copy.
    """
    return OptResult(value, PureState._trusted(_normalize(vector)), Provenance.EXACT, 0,
                     upper_bound=value)


def _exact_qubit_fidelity(first: HermitianObservable, second: HermitianObservable) -> OptResult:
    """Q_F(first -> second) of two qubit observables with two eigenvalues each.

    With ``c = a . b`` the product of the Bloch unit vectors of first's and
    second's eigenvectors ``|a_0>`` and ``|b_0>``, and ``t = |<a_0|b_0>|^2``,
    the value is ``(1 - c^2) / 2 = 2 t (1 - t)``. It is attained at either
    eigenvector of second, is symmetric in the pair, and is 1/2 = 1 - 1/d for
    unbiased bases.

    Proof: a pure state with Bloch vector r has ``x = b . r`` and
    ``y = a . r``. Second's outcome probabilities are ``q = (1 ± x) / 2``,
    and after first they are ``p = (1 ± c y) / 2``, so
    ``F^2 = [1 + c x y + sqrt((1 - c^2 y^2)(1 - x^2))] / 2``. As ``c^2 <= 1``,
    ``1 - c^2 y^2 >= c^2 (1 - y^2)``; the Gram matrix of a, b and r is
    positive semidefinite, so ``|c - x y| <= sqrt((1 - x^2)(1 - y^2))``.
    Together ``F^2 >= [1 + c x y + |c| |c - x y|] / 2 >= (1 + c^2) / 2``,
    with equality at ``r = ±b``. F is jointly concave and p, q are affine in
    the state, so no mixed state does better.

    The value is formed as ``2 t_0 t_1 / (t_0 + t_1)^2`` from both overlaps
    ``t_i = |<a_i|b_0>|^2``, with no cancellation: ``2 t (1 - t)`` loses the
    small factor ``1 - t`` to round-off near a shared eigenvector, and so
    do Bloch coordinates.
    """
    overlaps = np.abs(first.basis.conj().T @ second.basis[:, 0]) ** 2
    value = float(2.0 * overlaps[0] * overlaps[1] / (overlaps[0] + overlaps[1]) ** 2)
    return _exact_result(value, second.basis[:, 0])


def directional_incompatibility(
    measure: Measure, first, second, config: OptimizerConfig | None = None
) -> OptResult:
    """Supremum over states of the chosen distance between second's statistics
    with and without a preceding measurement of first.

    Observables act through their eigenprojectors, read as they are, and
    POVMs through their positive-square-root instrument; second must be an
    observable or a POVM, and anything else raises :class:`TypeError`. The
    Chebyshev value, and the L1 value when second has at most
    ``EXACT_L1_MAX_OUTCOMES`` outcomes, are exact suprema computed from
    eigenvalues, and so is the fidelity value of two qubit observables with
    two distinct eigenvalues each (:func:`_exact_qubit_fidelity`); these have
    provenance ``exact`` and ignore ``config``. Otherwise the value is an
    exact evaluation at the best state found by the seeded multistart search
    and hence a lower bound on the supremum; the seed set contains every
    state at which the known closed-form values are attained.

    The seeds are evaluated first. If the best seed comes within
    ``CEILING_TOL`` of the lowest of first's :func:`proven_ceilings`, that
    seed is the supremum up to round-off and is returned with
    ``starts_used=0`` and no search. Otherwise the pair is split into the
    blocks it leaves invariant (:func:`_invariant_blocks`). If every Kraus
    operator of first and every effect of second is block diagonal on
    ``H = ⊕_b H_b``, a state with weights ``w_b`` on the blocks has
    ``p = sum_b w_b p_b`` and ``q = sum_b w_b q_b``; the L1 and Chebyshev
    distances are jointly convex and F is jointly concave, so
    ``Q(first -> second) = max_b Q(first_b -> second_b)``, which is at most
    the largest :func:`_block_ceiling`. With more than one block, a best
    seed within ``CEILING_TOL`` of it is returned the same way. When first
    is a degenerate observable and second an observable of dimension at
    most ``SUBSET_MAX_DIM`` (under F, the only measure that searches such a
    pair), the uniform superpositions of 2 to d - 1 of second's eigenvectors
    (:func:`_subset_superpositions`) are then tried for the same exit, and
    never as starts: the backward values of
    :func:`~qincompat.constructions.asymmetric_pair` (4, 1), (6, 1), (6, 2),
    (8, 1), (8, 2) and (8, 3) stop there at 1/2. Otherwise the search runs
    from the same seeds as :func:`_seed_exit` says. The result's
    ``upper_bound`` is the ceiling it was checked against, block or table,
    and ``None`` where first has no proven ceiling.
    """
    settled = _settle(measure, first, second)
    return settled if isinstance(settled, OptResult) else settled.run(first.dim, config)


class _Search(NamedTuple):
    """A supremum that no exit reached: the search it needs.

    ``bound`` is the ceiling the seeds were checked against, ``None`` where
    the measurement has none, and ``evaluated`` the rows evaluated for the exits.
    """

    objective: Objective
    seeds: np.ndarray
    bound: float | None
    evaluated: int

    def run(self, dim: int, config: OptimizerConfig | None) -> OptResult:
        """The search, alone."""
        return self.finish(maximize_over_pure_states(self.objective, dim, self.seeds, config))

    def finish(self, result: OptResult) -> OptResult:
        """The searched ``result`` with the ceiling and the exits' evaluations."""
        if self.bound is None:
            return result
        return replace(result, upper_bound=self.bound,
                       evaluations=result.evaluations + self.evaluated)


def _settle(measure: Measure, first, second) -> OptResult | _Search:
    """Every exit of :func:`directional_incompatibility` before a search, in its order.

    Returns the exact or exit result, or the :class:`_Search` to run.
    """
    _effect_factors(second)  # a second that is no observable or POVM is a TypeError
    if measure is Measure.LINF or (
        measure is Measure.L1 and second.n_outcomes <= EXACT_L1_MAX_OUTCOMES
    ):
        return _exact_directional(measure, first, second)
    if (
        measure is Measure.FIDELITY
        and isinstance(first, HermitianObservable)
        and isinstance(second, HermitianObservable)
        and first.dim == second.dim == 2
        and first.n_outcomes == second.n_outcomes == 2
    ):
        return _exact_qubit_fidelity(first, second)
    objective = pair_distance_objective(measure, first, second)
    seeds = analytic_seed_states(first, second)
    ceilings = proven_ceilings(measure, first)
    if not ceilings:
        return _Search(objective, seeds, None, 0)
    bound = min(ceilings.values())
    values = _checked(objective(seeds)[0])
    extra = None
    if values.max() < bound - CEILING_TOL:
        blocks = _invariant_blocks(first, second)
        if len(blocks) > 1:
            bound = max(_block_ceiling(first, block) for block in blocks)
        extra = _subset_superpositions(first, second)
    return _seed_exit(objective, seeds, values, bound, extra)


def _directional_many(
    measure: Measure, pairs: Sequence[tuple], config: OptimizerConfig | None = None
) -> list[OptResult]:
    """``directional_incompatibility(measure, first, second, config)`` for each pair, bit for bit.

    Every pair takes its exits first (:func:`_settle`). The pairs left to
    search are grouped by the layout of their objectives (:class:`_PairTerms`),
    and each group is one search of :func:`~qincompat.optimize._maximize_many`,
    whose lockstep steps evaluate the starts of all its pairs in one call. A
    group of one pair is searched alone. Each step copies a row's column
    matrix for every row, so batching serves small d: six F searches of
    observable pairs with 32 random starts each took 0.90 of the time of the
    same searches alone at d = 5, but 1.08 at d = 8, and four d = 16
    searches 1.42.
    """
    results = [_settle(measure, first, second) for first, second in pairs]
    groups: dict[tuple, list[int]] = {}
    for k, settled in enumerate(results):
        if isinstance(settled, _Search):
            groups.setdefault(settled.objective.terms.layout, []).append(k)
    for group in groups.values():
        searches = [results[k] for k in group]
        dim = pairs[group[0]][0].dim
        if len(searches) == 1:
            results[group[0]] = searches[0].run(dim, config)
            continue
        objective = _stacked_pair_objective([search.objective for search in searches])
        found = _maximize_many(objective, dim, [search.seeds for search in searches], config)
        for k, search, result in zip(group, searches, found):
            results[k] = search.finish(result)
    return results


def _seed_exit(
    objective: Objective,
    seeds: np.ndarray,
    values: np.ndarray,
    bound: float,
    extra: np.ndarray | None = None,
) -> OptResult | _Search:
    """The best candidate if its value is within ``CEILING_TOL`` of ``bound``, else the search.

    ``values`` are the objective at the seeds. ``extra`` holds further
    candidate rows, which are evaluated only when no seed reaches the
    ceiling, and only for this exit: the search never starts from them. A
    candidate on the ceiling, the best seed first and then the best extra
    row (the first one on ties), is returned with ``starts_used=0`` and
    ``iterations=0``. Otherwise the :class:`_Search` from the seeds is
    returned, exactly as it would be without ``extra``; the search evaluates
    the seeds again, and its ``evaluations`` count every row evaluated.
    Either result carries ``upper_bound=bound``.
    """
    rows, found, evaluated = seeds, values, len(seeds)
    if found.max() < bound - CEILING_TOL and extra is not None:
        rows, found = extra, _checked(objective(extra)[0])
        evaluated += len(extra)
    best = int(np.argmax(found))
    if found[best] >= bound - CEILING_TOL:
        return OptResult(
            float(found[best]), PureState._trusted(rows[best].copy()), Provenance.ANALYTIC_SEED,
            0, upper_bound=bound, evaluations=evaluated,
        )
    return _Search(objective, seeds, bound, evaluated)


def _invariant_blocks(first, second) -> list[np.ndarray]:
    """Orthonormal bases of the subspaces the pair leaves invariant, one per block.

    The generators are first's canonical Kraus operators, as they are, and
    second's effects; only observables and POVMs have proven ceilings and
    reach the split, and those are Hermitian. The projector onto an
    invariant subspace commutes with every generator, so it commutes with
    their sum ``H`` at fixed weights ``sqrt(2), sqrt(3), ...``. Where ``H``'s
    spectrum is simple, every invariant subspace is therefore spanned by
    eigenvectors of ``H``, and the blocks are the connected components of
    the graph that links two eigenvectors when some generator couples them
    by more than ``BLOCK_TOL``: exactly the irreducible blocks. A repeated
    eigenvalue of ``H``, from a block that occurs more than once or from an
    accident of the weights, only merges blocks, which stay invariant
    because no generator couples two components. Copies of one block leave
    the lowest of first's :func:`proven_ceilings` where one copy has it.
    """
    gens = np.concatenate((first.kraus, measurement_effects(second)))
    weights = np.sqrt(np.arange(2.0, len(gens) + 2.0))
    _, vecs = _eigh(np.tensordot(weights, gens, axes=1), "a generic element")
    linked = (np.abs(vecs.conj().T @ gens @ vecs) > BLOCK_TOL).any(axis=0)
    np.fill_diagonal(linked, True)
    labels = np.arange(len(vecs))
    while not np.array_equal(labels, spread := np.where(linked, labels, len(vecs)).min(axis=1)):
        labels = spread
    # Each label is the lowest index of its component, so the labels that
    # are their own index are np.unique(labels), in order, without the
    # numpy.ma import np.unique pays on its first call.
    return [vecs[:, labels == label] for label in np.flatnonzero(labels == np.arange(len(labels)))]


def _block_ceiling(first, block: np.ndarray) -> float:
    """The lowest :func:`proven_ceilings` entry of first compressed to an invariant block.

    Nothing compressed is built. An observable's ``r_b`` counts eigenspaces
    ``U_l`` with ``||block^H U_l||_F^2 > 1/2``: the block's projector
    commutes with ``U_l U_l^H``, so ``block^H U_l`` has singular values 0 or
    1 and the weight is their rank. The weights sum to ``d_b``, the column count, so
    ``1 - 1/r_b <= 1 - 1/d_b``. A POVM's compressed effects
    ``E' = block^H E block`` are read through ``eigh((E' + E'^H) / 2)``, in one stacked call.
    """
    if isinstance(first, Povm):
        compressed = np.stack([block.conj().T @ effect @ block for effect in first.elements])
        lam = _eigh((compressed + compressed.conj().transpose(0, 2, 1)) / 2.0, "a block effect")[0]
        return min(_luders_ceilings(first.n_outcomes, lam[:, -1].tolist()).values())
    weights = (np.abs(block.conj().T @ first.basis) ** 2).sum(axis=0)
    overlaps = np.add.reduceat(weights, first.factors[1])
    return closed_form("degenerate_disturbance", n_distinct=int(np.count_nonzero(overlaps > 0.5)))


def proven_ceilings(measure: Measure, first) -> dict[str, float]:
    """Proven upper bounds on Q(first -> B) for every B, by bound-check name.

    An observable with r distinct eigenvalues has ``disturbance`` 1 - 1/r
    under every measure (its exact maximal disturbance, and Q_inf <= Q_1
    because the q_j - p_j sum to zero) and, under the fidelity measure,
    ``fidelity-dim`` 1 - 1/d. An N-outcome POVM under the fidelity measure
    has ``luders-outcomes`` 1 - 1/N and ``luders-norm`` 1 - 1/s with
    s = sum_k ||E_k||, the top eigenvalues in its ``spectra``. Nothing is
    proven elsewhere. Dimension 1 is allowed, and every entry is then 0.

    Proof of ``luders-norm``: the Lueders Kraus operators K_k = sqrt(E_k)
    satisfy K_k^2 <= ||K_k|| K_k. For a pure state psi with
    a_k = <psi|K_k|psi> this gives p_k <= ||K_k|| a_k, and Cauchy-Schwarz
    gives 1 = sum_k p_k <= sqrt(sum_k ||K_k||^2) sqrt(sum_k a_k^2), with
    ||K_k||^2 = ||E_k||. So the fidelity disturbance 1 - sum_k a_k^2 is at
    most 1 - 1/s, and no measurement B raises the fidelity of the two
    outcome distributions above that of the states. The entry equals
    1 - 1/r for a projective POVM and is below 1 - 1/N whenever N > d,
    since s <= min(N, d).
    """
    if isinstance(first, HermitianObservable):
        r = first.n_outcomes
        ceilings = {"disturbance": closed_form("degenerate_disturbance", n_distinct=r)}
        if measure is Measure.FIDELITY:
            ceilings["fidelity-dim"] = 1.0 - 1.0 / first.dim  # closed_form rejects d = 1
        return ceilings
    if isinstance(first, Povm) and measure is Measure.FIDELITY:
        return _luders_ceilings(first.n_outcomes, [eigvals[-1] for eigvals, _ in first.spectra])
    return {}


def _luders_ceilings(n_outcomes: int, norms) -> dict[str, float]:
    """Fidelity :func:`proven_ceilings` of a POVM with ``n_outcomes`` effects of norms ``norms``."""
    return {"luders-outcomes": closed_form("luders_fidelity_max", n_outcomes=n_outcomes),
            "luders-norm": 1.0 - 1.0 / float(np.sum(norms))}


def maximal_disturbance(
    measure: Measure, meas, config: OptimizerConfig | None = None
) -> OptResult:
    """Largest distance, over states, between a state and its post-measurement image.

    For the L1 measure this is the supremum of the trace distance between
    Phi(rho) and rho; for the fidelity measure it is 1 - (inf F)^2, realized
    as the supremum of 1 - F^2 over pure states. The Chebyshev measure has
    no disturbance analogue here.

    For an observable with r distinct eigenvalues both values are exactly
    1 - 1/r, attained at the uniform superposition of one eigenvector per
    eigenspace; they are returned with provenance ``exact``, ignoring
    ``config``. Proof: write psi = sum_k sqrt(p_k) e_k
    with e_k a unit vector in the k-th eigenspace. The fidelity objective
    is 1 - sum_k p_k^2 <= 1 - 1/r by Cauchy-Schwarz. In the span of the
    e_k, Phi(psi) - psi is diag(p) - sqrt(p) sqrt(p)^T: traceless, with one
    negative eigenvalue -t, so its trace distance is t, the root of
    sum_k p_k / (p_k + t) = 1. Each term is concave in p_k, so by Jensen the
    sum is at most r / (1 + r t), which gives t <= 1 - 1/r, with equality
    at uniform p. POVMs and instruments are searched from their analytic
    seed states, so their value is a lower bound on the supremum. Under the
    fidelity measure every POVM and instrument has a proven ``upper_bound``:
    the weak-duality bound of :func:`_dual_ceiling`, and for a POVM the
    lower of that and its ``luders-norm`` entry of :func:`proven_ceilings`.
    A seed within ``CEILING_TOL`` of it is returned without a search, as in
    :func:`directional_incompatibility`; the z channel stops there at p.
    L1 disturbances have no bound and are always searched.
    """
    if isinstance(meas, HermitianObservable) and measure is not Measure.LINF:
        value = closed_form("degenerate_disturbance", n_distinct=meas.n_outcomes)
        return _exact_result(value, _spread(meas))
    objective = _disturbance_objective(measure, meas)
    # A POVM adds the seed rows of its Lüders instrument, which is not built.
    seeds = (_seed_states(meas.seed_rows, meas.luders_rows) if isinstance(meas, Povm)
             else analytic_seed_states(meas))
    if measure is Measure.L1:
        return maximize_over_pure_states(objective, meas.dim, seeds, config)
    bound = _dual_ceiling(meas)
    if isinstance(meas, Povm):
        bound = min(bound, proven_ceilings(measure, meas)["luders-norm"])
    settled = _seed_exit(objective, seeds, _checked(objective(seeds)[0]), bound)
    return settled if isinstance(settled, OptResult) else settled.run(meas.dim, config)


def _dual_ceiling(meas) -> float:
    """An upper bound on the fidelity disturbance of a measurement, by weak duality.

    For a pure psi, ``1 - D_F(psi) = sum_k |a_k|^2`` with
    ``a_k = <psi|K_k|psi>``, over the measurement's cached ``kraus``. Since
    ``|a_k - c_k|^2 >= 0`` for every complex ``c_k``,
    ``sum_k |a_k|^2 >= <psi|M|psi> - |c|^2`` with the Hermitian
    ``M = sum_k conj(c_k) K_k + c_k K_k^dag``, which is at least
    ``lambda_min(M) - |c|^2``. So ``D_F_max <= 1 - lambda_min(M) + |c|^2``,
    here at ``c_k = Tr(K_k) / d``: one ``eigvalsh``, no iteration. The bound
    is the disturbance itself for the z channel, the trine and a projective
    measurement with outcomes of equal rank.

    Round-off: M is formed with an error E, and ``eigvalsh`` returns the
    exact eigenvalues of ``M + E + F`` with ``||F||`` a small multiple of
    ``d eps ||M||``, so by Weyl's inequality the computed ``lambda_min``
    is off by at most ``||E + F||``. The bound is raised by
    ``8 d eps ||M||_F``, which covers that and stays below ``CEILING_TOL``:
    ``|c| <= 1`` and ``sum_k |a_k|^2 <= 1`` give ``||M|| <= 2``, so the
    padding is at most 6.4e-13 at d = 32.
    """
    kraus = meas.kraus
    dim = kraus.shape[1]
    weights = np.trace(kraus, axis1=1, axis2=2) / dim
    half = np.tensordot(weights.conj(), kraus, axes=1)
    mat = half + half.conj().T
    lowest = _eigvalsh(mat, "the dual matrix")[0]
    padding = 8 * dim * np.finfo(float).eps * _norm(mat)
    return float(1.0 - lowest + np.vdot(weights, weights).real + padding)


@dataclass(frozen=True)
class BoundCheck:
    """One inequality the computed values must satisfy."""

    name: str
    bound: float
    measured: float

    @property
    def satisfied(self) -> bool:
        return self.measured <= self.bound + BOUND_SLACK


@dataclass(frozen=True)
class IncompatReport:
    """Both directions of a pair's incompatibility plus applicable bounds.

    ``gap_unknown`` is False only when each direction is within
    ``BOUND_SLACK`` of its ``upper_bound``: an ``exact`` value, or one on
    the proven ceiling, table or block, that
    :func:`directional_incompatibility` checked it against. The
    ``disturbance`` check of a POVM or an instrument is the disturbance at
    the direction's own maximizer, not a supremum, so it certifies nothing.
    """

    measure: Measure
    forward: OptResult
    backward: OptResult
    bound_checks: tuple[BoundCheck, ...] = ()

    @property
    def gap_unknown(self) -> bool:
        return not all(
            r.upper_bound is not None and abs(r.value - r.upper_bound) <= BOUND_SLACK
            for r in (self.forward, self.backward)
        )

    @property
    def symmetric(self) -> float:
        """The symmetric value (forward + backward) / 4."""
        return (self.forward.value + self.backward.value) / 4.0

    @property
    def bound_violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.bound_checks if not c.satisfied)


def check_bounds(report: IncompatReport, first, second) -> tuple[BoundCheck, ...]:
    """Evaluate every bound applicable to a pair report.

    Forward checks come first, then backward ones: one ``<name>-<direction>``
    check per entry of the first measurement's :func:`proven_ceilings`. A
    POVM or instrument has no proven ``disturbance`` entry; its
    ``disturbance`` check is the disturbance objective (F for the fidelity
    measure, L1 otherwise) of its collapse operators, evaluated once at
    the direction's ``argmax``. That is the ordering
    ``incompatibility <= disturbance`` state by state: the classical
    fidelity of two outcome distributions is at least the Uhlmann fidelity
    of the states behind them, their total variation is at most the trace
    distance, and the Chebyshev distance is at most the total variation.
    A fidelity report of two observables ends with ``fidelity-dim-symmetric``.
    """
    disturbance_kind = Measure.FIDELITY if report.measure is Measure.FIDELITY else Measure.L1
    checks: list[BoundCheck] = []
    dim_bounds = []
    for direction, meas, result in (
        ("forward", first, report.forward),
        ("backward", second, report.backward),
    ):
        ceilings = proven_ceilings(report.measure, meas)
        for name, bound in ceilings.items():
            checks.append(BoundCheck(f"{name}-{direction}", bound, result.value))
        if "disturbance" not in ceilings:
            objective = _disturbance_objective(disturbance_kind, meas)
            bound = float(objective(result.argmax.amplitudes[None])[0][0])
            checks.append(BoundCheck(f"disturbance-{direction}", bound, result.value))
        dim_bounds.append(ceilings.get("fidelity-dim"))
    if None not in dim_bounds:
        checks.append(
            BoundCheck("fidelity-dim-symmetric", sum(dim_bounds) / 4.0, report.symmetric)
        )
    return tuple(checks)


def pair_incompatibility(
    measure: Measure,
    first,
    second,
    config: OptimizerConfig | None = None,
    with_bounds: bool = True,
) -> IncompatReport:
    """Both directional values and the symmetric average (forward + backward) / 4.

    Each direction is one :func:`directional_incompatibility` call, so each
    value is the one a separate call returns. A direction that searches
    reads its seed states from :func:`analytic_seed_states`, which reads each
    measurement's rows from its cached ``seed_rows``, formed once however
    many directions and reports read them.
    """
    forward = directional_incompatibility(measure, first, second, config)
    backward = directional_incompatibility(measure, second, first, config)
    report = IncompatReport(measure, forward, backward)
    if with_bounds:
        return IncompatReport(measure, forward, backward, check_bounds(report, first, second))
    return report


def set_incompatibility(
    measure: Measure,
    observables: Sequence,
    config: OptimizerConfig | None = None,
) -> float:
    """Average of all ordered directional values over N^2, diagonal terms zero."""
    n = len(observables)
    if n < 2:
        raise ParamOutOfRangeError("need at least two observables")
    dims = {obs.dim for obs in observables}
    if len(dims) != 1:
        raise DimensionMismatchError("observables live in different dimensions")
    total = 0.0
    for i, obs_a in enumerate(observables):
        for j, obs_b in enumerate(observables):
            if i == j:
                continue
            total += directional_incompatibility(measure, obs_a, obs_b, config).value
    return total / (n * n)


_CLOSED_FORMS = {
    "fidelity_directional_max": ("d",),
    "fidelity_shared_eigenvectors": ("d", "d_c"),
    "luders_fidelity_max": ("n_outcomes",),
    "degenerate_disturbance": ("n_distinct",),
}


def closed_form(name: str, **params) -> float:
    """Exact closed-form values for the headline quantities.

    - ``fidelity_directional_max(d)``: 1 - 1/d, the directional fidelity
      bound in dimension d, attained by mutually unbiased pairs.
    - ``fidelity_shared_eigenvectors(d, d_c)``: (1 - 1/(d - d_c)) / 2, the
      symmetric fidelity value of a non-degenerate pair sharing d_c
      eigenvectors and unbiased on the rest. It follows from the block
      ceiling of :func:`directional_incompatibility`: each shared
      eigenvector is a one-dimensional block with ceiling 0, and the
      unbiased rest is one block with ceiling 1 - 1/(d - d_c), which the
      seeds reach in both directions.
    - ``luders_fidelity_max(n_outcomes)``: 1 - 1/N, the directional
      fidelity bound for a Lueders instrument with N outcomes.
    - ``degenerate_disturbance(n_distinct)``: 1 - 1/r, the maximal fidelity
      disturbance of a projective measurement with r distinct eigenvalues.
    """
    if name not in _CLOSED_FORMS:
        raise ParamOutOfRangeError(f"unknown closed form {name!r}")
    expected = _CLOSED_FORMS[name]
    if set(params) != set(expected):
        raise ParamOutOfRangeError(f"{name} takes parameters {expected}, got {tuple(params)}")
    whole = {key: _whole(value) for key, value in params.items()}
    if None in whole.values():
        raise ParamOutOfRangeError(f"{name} takes whole numbers, got {params}")
    if name == "fidelity_directional_max":
        d = whole["d"]
        if d < 2:
            raise ParamOutOfRangeError("d must be at least 2")
        return 1.0 - 1.0 / d
    if name == "fidelity_shared_eigenvectors":
        d, d_c = whole["d"], whole["d_c"]
        if d < 2 or not 0 <= d_c <= d - 1:
            raise ParamOutOfRangeError("need d >= 2 and 0 <= d_c <= d - 1")
        return 0.5 * (1.0 - 1.0 / (d - d_c))
    if name == "luders_fidelity_max":
        n = whole["n_outcomes"]
        if n < 1:
            raise ParamOutOfRangeError("n_outcomes must be at least 1")
        return 1.0 - 1.0 / n
    n = whole["n_distinct"]
    if n < 1:
        raise ParamOutOfRangeError("n_distinct must be at least 1")
    return 1.0 - 1.0 / n


@dataclass(frozen=True)
class ScanRow:
    """One random pair probed while scanning for bound violations."""

    trial: int
    seed: int
    value: float
    argmax: PureState
    provenance: tuple[Provenance, Provenance]  # forward, backward

    @property
    def is_exact(self) -> bool:
        """Whether the value is the symmetric supremum itself, not a lower bound."""
        return all(p is Provenance.EXACT for p in self.provenance)


@dataclass(frozen=True)
class ScanReport:
    """A randomized scan of the symmetric L1 / Chebyshev values.

    The threshold is (1 - 1/d) / 2 + ``BOUND_SLACK``, a proven ceiling
    (Q_inf <= Q_1 <= D_1_max = 1 - 1/r <= 1 - 1/d, see
    :func:`proven_ceilings`), so rows above it (``counterexamples``) are
    bound violations, from round-off or a defect. A row whose ``is_exact``
    holds carries the symmetric supremum itself; any other row is a lower bound.
    """

    measure: Measure
    dim: int
    threshold: float
    rows: tuple[ScanRow, ...]

    @property
    def max_value(self) -> float:
        return max(row.value for row in self.rows)

    @property
    def counterexamples(self) -> tuple[ScanRow, ...]:
        return tuple(row for row in self.rows if row.value > self.threshold)


_INJECTABLE = ("mub", "commuting")


def conjecture_scan(
    measure: Measure,
    dim: int,
    n_trials: int,
    config: OptimizerConfig | None = None,
    base_seed: int = 0,
    inject: Sequence[str] = (),
) -> ScanReport:
    """Check Haar-random non-degenerate pairs against the ceiling (1 - 1/d)/2.

    Each row's value comes from :func:`directional_incompatibility` in both
    directions, so it is exact whenever both directions are (always for the
    Chebyshev measure, and for L1 up to ``EXACT_L1_MAX_OUTCOMES`` outcomes);
    each row records the provenance of its two directions.

    Injected fixtures (``"mub"``, ``"commuting"``) occupy the first trial
    slots with the sentinel seed -1; random trials record the integer seed
    that regenerates the pair, so any row can be reproduced in isolation.
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    if measure not in (Measure.L1, Measure.LINF):
        raise ParamOutOfRangeError("the scan covers the L1 and Chebyshev measures only")
    if n_trials < 1:
        raise ParamOutOfRangeError("need at least one trial")
    threshold = 0.5 * (1.0 - 1.0 / dim) + BOUND_SLACK
    rows: list[ScanRow] = []

    def record(trial: int, seed: int, first, second) -> None:
        report = pair_incompatibility(measure, first, second, config, with_bounds=False)
        fwd, bwd = report.forward, report.backward
        argmax = fwd.argmax if fwd.value >= bwd.value else bwd.argmax
        rows.append(
            ScanRow(
                trial=trial,
                seed=seed,
                value=report.symmetric,
                argmax=argmax,
                provenance=(fwd.provenance, bwd.provenance),
            )
        )

    trial = 0
    for label in inject:
        if label == "mub":
            obs_a, obs_b = fourier_mub_pair(dim)
        elif label == "commuting":
            obs_a, obs_b = commuting_fixture(dim)
        else:
            raise ParamOutOfRangeError(f"unknown injection {label!r}; use {_INJECTABLE}")
        record(trial, -1, obs_a, obs_b)
        trial += 1

    master = np.random.default_rng(base_seed)
    for _ in range(n_trials):
        seed = int(master.integers(0, 2**63 - 1))
        obs_a, obs_b = map(_observable_on, random_unitary(dim, seed, count=2))
        record(trial, seed, obs_a, obs_b)
        trial += 1
    return ScanReport(measure=measure, dim=dim, threshold=threshold, rows=tuple(rows))


def commuting_fixture(dim: int) -> tuple[HermitianObservable, HermitianObservable]:
    """A canonical fully commuting non-degenerate pair (both diagonal)."""
    obs_b = _observable_on(np.eye(dim, dtype=np.complex128), np.arange(1.0, dim + 1.0) ** 2)
    return computational_observable(dim), obs_b
