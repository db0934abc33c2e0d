"""Validated quantum objects and spectral machinery.

Everything downstream (outcome statistics, incompatibility measures, the
state optimizer) consumes the types defined here. Matrices are dense
``complex128`` numpy arrays. Every object built from outside input (a
public constructor, a library argument, a loaded file) checks its defining
invariants at construction time and freezes its arrays afterwards, so
instances are immutable and safe to share between threads. The observables
the package draws on fresh Haar-random unitaries (``random_observable``, the
pairs of ``conjecture_scan`` and ``verify``), the fixture families it forms on
identity and Fourier bases, and the unit argmax states it computes meet those
invariants by construction: ``HermitianObservable._trusted`` and
``PureState._trusted`` store their arrays, frozen, without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, groupby
import math
import numbers

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    NumericalFailureError,
    ParamOutOfRangeError,
    ValidationError,
)

HERMITIAN_TOL = 1e-10
COMPLETENESS_TOL = 1e-9
RECONSTRUCTION_TOL = 1e-8
STATE_NORM_TOL = 1e-12
POVM_EIG_TOL = 1e-10
TRACE_TOL = 1e-10


def as_complex_matrix(entries, name: str = "matrix") -> np.ndarray:
    """Coerce ``entries`` to a C-ordered square complex128 copy, rejecting NaN/Inf.

    Every validated matrix is stored in this one layout, whatever the caller
    passed: BLAS rounds products of C- and F-ordered operands differently,
    and a search can follow that round-off to another local maximum.
    """
    mat = np.array(entries, dtype=np.complex128, order="C")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValidationError(
            f"{name} must be a nonempty square matrix, got shape {mat.shape}"
        )
    if not np.isfinite(mat).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return mat


def max_abs(mat: np.ndarray) -> float:
    """Largest entrywise magnitude."""
    return float(np.max(np.abs(mat)))


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``mat`` from its own adjoint."""
    return max_abs(mat - mat.conj().T)


def zero_floor(eigvals: np.ndarray) -> np.ndarray:
    """Zero out negative and round-off-scale eigenvalues; sqrt would blow 1e-16 up to 1e-8.

    The floor is ``1e-14 * max(largest, 1)``, taken per spectrum along the last axis of a stack.
    """
    floor = 1e-14 * np.maximum(eigvals.max(axis=-1, keepdims=True), 1.0)
    return np.where(eigvals > floor, eigvals, 0.0)


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


def _whole(value) -> int | None:
    """``value`` as an ``int`` if it is an integer or a real number with no fractional part, else None."""
    if isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        return int(value)
    return None


# The LAPACK gufuncs that numpy.linalg calls, looked up once. Called directly
# they give the same bits without the wrapper's type checks, casts and copies,
# which cost as much as LAPACK itself on the small matrices of a scan row.
# Their names are private; where this numpy has no gufunc by a name, that one
# routine goes through numpy.linalg instead.
try:
    from numpy.linalg import _umath_linalg
except ImportError:  # every numpy 2 release has it; the private name may still move
    _umath_linalg = None
_EIGH = getattr(_umath_linalg, "eigh_lo", None)
_EIGVALSH = getattr(_umath_linalg, "eigvalsh_lo", None)
_QR_RAW = getattr(_umath_linalg, "qr_r_raw", None)
_QR_Q = getattr(_umath_linalg, "qr_reduced", None)
_SVD = getattr(_umath_linalg, "svd_f", None)


def _lapack(gufunc, signatures: tuple[str, str], fallback, mat: np.ndarray, what: str):
    """Decompose ``mat`` by ``gufunc`` with the complex or the real signature, as numpy.linalg would.

    A decomposition that fails sets the invalid floating-point flag and
    fills its output with NaN; under ``errstate(invalid="raise")`` that flag
    raises instead of warning, and it is reported, as the ``LinAlgError`` of
    the ``fallback`` is, as :class:`NumericalFailureError`.
    """
    try:
        if gufunc is None:
            return fallback(mat)
        with np.errstate(invalid="raise"):
            return gufunc(mat, signature=signatures[mat.dtype.kind != "c"])
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericalFailureError(f"decomposition of {what} did not converge") from exc


def _eigh(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(mat)`` bit for bit: eigenvalues and eigenvectors of each lower triangle."""
    return _lapack(_EIGH, ("D->dD", "d->dd"), np.linalg.eigh, mat, what)


def _eigvalsh(mat: np.ndarray, what: str) -> np.ndarray:
    """``np.linalg.eigvalsh(mat)`` bit for bit: eigenvalues of each lower triangle."""
    return _lapack(_EIGVALSH, ("D->d", "d->d"), np.linalg.eigvalsh, mat, what)


def _svd(mat: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(mat)`` bit for bit: ``U``, the singular values and ``V^H``, all of U."""
    return _lapack(_SVD, ("D->DdD", "d->ddd"), np.linalg.svd, mat, what)


def _qr(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q of the reduced QR of a complex ``(n, d, d)`` stack, and R's diagonal, as a writable array.

    Q is ``np.linalg.qr(mats)[0]`` bit for bit. LAPACK leaves R in the upper
    triangle of its raw factor, which ``qr_r_raw`` writes over ``mats``, and
    the diagonal is read there: ``mats`` is overwritten, and R is not formed.
    """
    if _QR_RAW is None or _QR_Q is None:
        q, r = np.linalg.qr(mats)
        return q, np.diagonal(r, axis1=1, axis2=2).copy()
    n, dim, _ = mats.shape
    try:
        with np.errstate(invalid="raise"):
            q = _QR_Q(mats, _QR_RAW(mats, signature="D->D"), signature="DD->D")
    except FloatingPointError as exc:
        raise NumericalFailureError("QR decomposition failed") from exc
    return q, mats.reshape(n, dim * dim)[:, :: dim + 1]


def _norm(arr: np.ndarray) -> float:
    """``np.linalg.norm(arr)`` of a complex array bit for bit: ``sqrt(re.re + im.im)`` over its entries."""
    flat = arr.ravel(order="K")
    return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))


def _normalize(vec: np.ndarray) -> np.ndarray:
    """A new array, ``vec`` divided by its :func:`_norm`; a zero or non-finite ``vec`` raises."""
    norm = _norm(vec)
    if norm == 0.0 or not math.isfinite(norm):
        raise ValidationError("cannot normalize a zero or non-finite vector")
    return vec / norm


# The weight c of _normal_basis. Being transcendental, it separates any two
# distinct eigenvalues whose real and imaginary parts are algebraic numbers.
_NORMAL_MIX = np.e


def _normal_basis(kraus: np.ndarray) -> np.ndarray:
    """Orthonormal bases adapted to the invariant directions of each Kraus operator of a stack.

    A normal ``K`` has commuting Hermitian parts ``H1 = (K + K^dag)/2`` and
    ``H2 = (K - K^dag)/2i``, and an eigenbasis of ``H1 + c H2`` at
    ``c = _NORMAL_MIX`` is a joint one, which diagonalizes ``K``, unless two
    distinct eigenvalues ``a + ib`` of ``K`` have ``a + cb`` in common. An
    exactly Hermitian ``K``, as every Kraus operator the package builds is,
    has ``H2 = 0``, so this is an eigenbasis of ``K`` itself. A ``K`` that is
    not normal gets the eigenbasis of ``K^dag K``. ``kraus`` is one ``(d, d)``
    operator or an ``(n, d, d)`` stack, decomposed in one stacked ``eigh``.
    """
    adjoint = kraus.conj().swapaxes(-1, -2)
    gram = adjoint @ kraus
    normal = np.abs(kraus @ adjoint - gram).max(axis=(-2, -1)) <= 1e-9
    mixed = (kraus + adjoint) / 2.0 + _NORMAL_MIX * (kraus - adjoint) / 2.0j
    _, vecs = _eigh(np.where(normal[..., None, None], mixed, gram), "a Kraus operator")
    return vecs


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` with each row divided by its norm, in a C-contiguous array.

    An array that is already C-contiguous ``complex128`` is normalized in
    place; callers pass arrays they have just formed.
    """
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    rows /= np.sqrt(np.vecdot(rows.real, rows.real) + np.vecdot(rows.imag, rows.imag))[:, None]
    return rows


def _candidate_rows(bases: np.ndarray, *sums: np.ndarray) -> np.ndarray:
    """Unit rows of each basis's columns and their sum, basis by basis, then of ``sums``.

    ``bases`` is an ``(n, d, d)`` stack, summed in one reduction along its last axis.
    """
    n, dim, _ = bases.shape
    per_basis = np.concatenate((bases.transpose(0, 2, 1), bases.sum(axis=2)[:, None]), axis=1)
    return _unit_rows(np.vstack((per_basis.reshape(n * (dim + 1), dim), *sums)))


def _kraus_rows(kraus: np.ndarray) -> np.ndarray:
    """Read-only unit rows of each Kraus operator's :func:`_normal_basis` and its sum."""
    rows = _candidate_rows(_normal_basis(kraus))
    _freeze(rows)
    return rows


def _block_widths(offsets: np.ndarray, n_cols: int) -> tuple[int, ...]:
    """The width of each block of ``n_cols`` columns, the blocks starting at ``offsets``."""
    starts = offsets.tolist()
    return tuple(end - start for start, end in zip(starts, starts[1:] + [n_cols]))


def _slice_or_index(indices: list[int]) -> slice | np.ndarray:
    """Increasing ``indices`` as a slice if they are consecutive, else as a read-only index array.

    A slice selects or assigns a view; an index array is a gather or scatter,
    several times slower on the small arrays here.
    """
    first = indices[0]
    if indices[-1] - first == len(indices) - 1:
        return slice(first, first + len(indices))
    index = np.array(indices)
    _freeze(index)
    return index


@lru_cache(maxsize=256)
def _width_groups(widths: tuple[int, ...]) -> tuple[np.ndarray | None, tuple]:
    """How :func:`_blocks_by_width` groups blocks of these widths, formed once per width tuple.

    Returns the read-only column order that puts the blocks in increasing
    width, stable in position, or ``None`` if they are in that order already;
    and for each distinct width in increasing order a ``(width, members,
    span)`` triple: the indices of its blocks, as :func:`_slice_or_index`
    gives them, and the slice of its columns in that order.
    """
    order = None
    if list(widths) != sorted(widths):
        order = np.argsort(np.repeat(widths, widths), kind="stable")
        _freeze(order)
    blocks = sorted(range(len(widths)), key=widths.__getitem__)  # stable: by width, then position
    groups, start = [], 0
    for width, members in groupby(blocks, key=widths.__getitem__):
        members = list(members)
        stop = start + len(members) * width
        groups.append((width, _slice_or_index(members), slice(start, stop)))
        start = stop
    return order, tuple(groups)


def _blocks_by_width(
    columns: np.ndarray, widths: tuple[int, ...]
) -> list[tuple[slice | np.ndarray, np.ndarray]]:
    """The blocks of a C-contiguous ``columns`` with these widths, in order, stacked by width.

    Returns, for each distinct block width in increasing order, its blocks
    (the members of :func:`_width_groups`) and an ``(n_w, d, w)`` stack of
    them, so that a product per block is one stacked product per width. The
    columns are copied once, grouped by width, into an array shaped like
    ``columns``, unless they are in that order already, and each stack is a
    view: each block has the strides its own slice of ``columns`` has. BLAS
    may round a product of a block of other strides differently, as it does
    a matrix-vector product whose vector has another stride.
    """
    order, groups = _width_groups(widths)
    grouped = columns if order is None else columns.take(order, axis=1)
    dim = len(columns)
    return [(members, grouped[:, span].reshape(dim, -1, width).transpose(1, 0, 2))
            for width, members, span in groups]


def _block_products(columns: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``B B^H`` for each block B of ``columns`` starting at ``offsets``, one stacked product per width.

    Each product is the one ``B @ B.conj().T`` of the block's slice of
    ``columns``, bit for bit: a block of one column is an outer product.
    """
    dim, n_cols = columns.shape
    out = np.empty((len(offsets), dim, dim), dtype=np.complex128)
    for blocks, stack in _blocks_by_width(columns, _block_widths(offsets, n_cols)):
        out[blocks] = stack @ np.conjugate(stack, order="C").transpose(0, 2, 1)
    return out


@dataclass(frozen=True)
class PureState:
    """A unit vector in C^d.

    The squared amplitudes must sum to 1 within 1e-12; use
    :meth:`normalized` to build a state from an arbitrary nonzero vector.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.array(self.amplitudes, dtype=np.complex128).ravel()
        if vec.size == 0:
            raise ValidationError("state vector must be nonempty")
        if not np.isfinite(vec).all():
            raise ValidationError("state vector contains non-finite entries")
        norm_sq = float(np.real(vec.conj() @ vec))
        if abs(norm_sq - 1.0) > STATE_NORM_TOL:
            raise ValidationError(
                f"state vector has squared norm {norm_sq!r}, expected 1 ± {STATE_NORM_TOL}"
            )
        object.__setattr__(self, "amplitudes", vec)
        _freeze(vec)

    @classmethod
    def normalized(cls, vector) -> "PureState":
        return cls(_normalize(np.asarray(vector, dtype=np.complex128).ravel()))

    @classmethod
    def _trusted(cls, amplitudes: np.ndarray) -> "PureState":
        """A state on a unit vector the package has just formed, stored without ``__post_init__``.

        ``amplitudes`` must be a new C-contiguous 1-D ``complex128`` array of
        unit norm that owns its data, such as a :func:`_normalize` quotient
        or the copy of a unit row, and that no caller holds; it is frozen
        and stored as it is, with no further copy, finiteness pass or norm.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", amplitudes)
        _freeze(amplitudes)
        return state

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """A positive unit-trace operator."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = as_complex_matrix(self.matrix, "density matrix")
        if hermiticity_defect(mat) > HERMITIAN_TOL:
            raise NotHermitianError(
                f"density matrix deviates from self-adjointness by {hermiticity_defect(mat):.3e}"
            )
        eigvals = _eigvalsh((mat + mat.conj().T) / 2.0, "the density matrix")
        if eigvals.min() < -POVM_EIG_TOL:
            raise NotPositiveError(
                f"density matrix has eigenvalue {eigvals.min():.3e}"
            )
        trace = float(np.real(np.trace(mat)))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix has trace {trace!r}, expected 1")
        object.__setattr__(self, "matrix", mat)
        _freeze(mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HermitianObservable:
    """A self-adjoint operator stored as its spectral decomposition.

    ``eigenvalues`` are strictly increasing after degeneracy grouping;
    ``basis`` holds an orthonormal eigenvector basis whose columns are
    grouped by eigenspace in the same order, ``ranks[i]`` columns for
    ``eigenvalues[i]``. These three fields are validated once, when the
    observable is built; ``matrix``, ``projectors``, ``factors``, ``instrument``
    and ``seed_rows`` are derived from them on first access and are read-only.
    The ``projectors`` are formed in stacks, one product per distinct rank.
    """

    eigenvalues: np.ndarray
    ranks: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self):
        eigvals = np.asarray(self.eigenvalues, dtype=float).ravel()
        ranks = tuple(map(_whole, self.ranks))
        basis = as_complex_matrix(self.basis, "eigenbasis")
        d = basis.shape[0]
        if not np.all(np.isfinite(eigvals)):
            raise ValidationError("eigenvalues contain non-finite entries")
        if None in ranks or len(ranks) != eigvals.size or sum(ranks) != d or min(ranks) < 1:
            raise ValidationError("eigenspace ranks must be positive whole numbers that sum to dim")
        if (eigvals[1:] <= eigvals[:-1]).any():
            raise ValidationError("grouped eigenvalues must be strictly increasing")
        gram = basis.conj().T @ basis
        gram.reshape(-1)[:: d + 1] -= 1.0  # the diagonal of the fresh C-ordered product
        if np.abs(gram).max() > 1e-8:
            raise ValidationError("eigenbasis columns are not orthonormal")
        object.__setattr__(self, "eigenvalues", eigvals)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "basis", basis)
        _freeze(eigvals, basis)

    @classmethod
    def _trusted(cls, eigenvalues: np.ndarray, ranks: tuple[int, ...],
                 basis: np.ndarray) -> "HermitianObservable":
        """An observable on fields the package has just formed, stored without ``__post_init__``.

        The fields must already be what validation stores: finite, strictly
        increasing 1-D float ``eigenvalues``, a tuple of positive ``int``
        ``ranks`` summing to the dimension, and a C-contiguous ``complex128``
        ``basis`` with orthonormal columns that no caller writes to
        afterwards. Both arrays are frozen and stored as they are.
        """
        obs = object.__new__(cls)
        object.__setattr__(obs, "eigenvalues", eigenvalues)
        object.__setattr__(obs, "ranks", ranks)
        object.__setattr__(obs, "basis", basis)
        _freeze(eigenvalues, basis)
        return obs

    @cached_property
    def projectors(self) -> np.ndarray:
        """Stack of eigenprojectors, ``projectors[i]`` of rank ``ranks[i]``.

        Each is ``(P + P^H) / 2`` with ``P = B B^H`` for its block B of
        ``basis`` columns, formed in one stacked product per distinct rank.
        """
        projs = _block_products(self.basis, self.factors[1])
        projs = (projs + projs.conj().transpose(0, 2, 1)) / 2.0
        _freeze(projs)
        return projs

    @property
    def kraus(self) -> np.ndarray:
        """The Kraus operators of the collapse instrument: the ``projectors``."""
        return self.projectors

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``basis``, whose block i factors ``projectors[i]``, and each block's start column."""
        offsets = np.array((0, *accumulate(self.ranks[:-1])))
        _freeze(offsets)
        return self.basis, offsets

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator sum_i eigenvalues[i] * projectors[i]."""
        matrix = np.einsum("k,kij->ij", self.eigenvalues, self.projectors)
        matrix = (matrix + matrix.conj().T) / 2.0
        _freeze(matrix)
        return matrix

    @cached_property
    def instrument(self) -> "Instrument":
        """The projective instrument, built on first access and shared afterwards."""
        return projective_instrument(self)

    @cached_property
    def seed_rows(self) -> np.ndarray:
        """Read-only unit rows of the candidate states a supremum starts from.

        They are every eigenvector, the uniform superposition of the basis,
        and that of the first eigenvector of each eigenspace, which spreads a
        state evenly over the outcomes, where the disturbance ceiling 1 - 1/r
        is attained.
        """
        rows = _candidate_rows(self.basis[None], _spread(self))
        _freeze(rows)
        return rows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.eigenvalues.size

    @property
    def is_nondegenerate(self) -> bool:
        return all(r == 1 for r in self.ranks)

    def block_slices(self) -> list[slice]:
        """Column ranges of ``basis`` belonging to each eigenspace."""
        out, start = [], 0
        for rank in self.ranks:
            out.append(slice(start, start + rank))
            start += rank
        return out

    @classmethod
    def from_eigensystem(cls, eigenvalues, basis, group_tol: float = 1e-12) -> "HermitianObservable":
        """Build an observable from eigenvalues and an orthonormal basis.

        Columns of ``basis`` are the eigenvectors. Sorted eigenvalues within
        ``group_tol`` (finite, non-negative) of their neighbour are merged
        into one eigenspace, so a chain of close values is one group. A group
        is valued at its lowest member plus the mean offset of its members
        from it, so equal eigenvalues keep their value bit for bit.
        """
        if not 0 <= group_tol < np.inf:
            raise ParamOutOfRangeError("group_tol must be finite and non-negative")
        vals = np.asarray(eigenvalues, dtype=float).ravel()
        vecs = np.asarray(basis, dtype=np.complex128)  # validated once, in __post_init__
        if not vals.size or vecs.shape != (vals.size, vals.size):
            as_complex_matrix(vecs, "eigenbasis")  # a malformed basis is reported first
            raise ValidationError("number of eigenvalues must match dimension")
        order = np.argsort(vals, kind="stable")
        vals = vals[order]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, rejected in __post_init__
            bounds = np.concatenate(([0], np.flatnonzero(np.diff(vals) > group_tol) + 1, [vals.size]))
            starts, ranks = bounds[:-1], np.diff(bounds)
            lowest = vals[starts]
            # subtracted: x - 0.0 is x for x = -0.0 too, where -0.0 + 0.0 is 0.0
            eigvals = lowest - np.add.reduceat(np.repeat(lowest, ranks) - vals, starts) / ranks
        return cls(eigvals, tuple(ranks.tolist()), vecs[:, order])


def _spread(obs: HermitianObservable) -> np.ndarray:
    """The sum of the first eigenvector of each eigenspace of an observable, unnormalized."""
    # take, unlike basis[:, starts], copies C-ordered, which fixes the rounding of the row sums
    return obs.basis.take(obs.factors[1], axis=1).sum(axis=1)


@dataclass(frozen=True)
class Povm:
    """A positive-operator-valued measure: effects summing to the identity.

    Each effect is eigendecomposed once, into ``spectra``, when the POVM is
    validated; everything that needs an effect's spectrum reads it there,
    everything that needs its square roots reads ``roots``, everything
    that needs the effects as sums of ``|w><w|`` reads ``factors``, and
    everything that needs the Lüders Kraus operators reads ``kraus``. Its
    candidate states for a supremum are formed once too, as ``seed_rows``,
    and those of its Lüders instrument, for its disturbance, as ``luders_rows``.
    Each of these is formed in stacks from the stacked spectra, one product
    per quantity over all effects, never effect by effect; each slice rounds
    as the product of its effect alone would.
    """

    elements: tuple[np.ndarray, ...]

    def __post_init__(self):
        elems = tuple(as_complex_matrix(e, f"POVM element {i}") for i, e in enumerate(self.elements))
        if not elems:
            raise ValidationError("POVM needs at least one element")
        d = elems[0].shape[0]
        for i, elem in enumerate(elems):
            if elem.shape[0] != d:
                raise DimensionMismatchError("POVM elements have inconsistent dimensions")
            if hermiticity_defect(elem) > HERMITIAN_TOL:
                raise NotHermitianError(f"POVM element {i} is not self-adjoint")
        object.__setattr__(self, "elements", elems)
        for i, (eigvals, _) in enumerate(self.spectra):
            if eigvals.min() < -POVM_EIG_TOL or eigvals.max() > 1.0 + POVM_EIG_TOL:
                raise NotPositiveError(
                    f"POVM element {i} has eigenvalues outside [0, 1]: "
                    f"[{eigvals.min():.3e}, {eigvals.max():.3e}]"
                )
        total = sum(elems)
        if max_abs(total - np.eye(d)) > COMPLETENESS_TOL:
            raise ValidationError("POVM elements do not sum to the identity")
        _freeze(*elems)

    @cached_property
    def _eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(n, d)`` eigenvalues and ``(n, d, d)`` eigenvectors of every effect, stacked.

        They are ``eigh((E + E^H)/2)`` of each effect E, in one stacked call.
        """
        elems = np.array(self.elements)
        eigvals, eigvecs = _eigh((elems + elems.conj().transpose(0, 2, 1)) / 2.0, "a POVM effect")
        _freeze(eigvals, eigvecs)
        return eigvals, eigvecs

    @cached_property
    def spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only ``(eigenvalues, eigenvectors)`` of ``eigh((E + E^H)/2)`` per effect E.

        All effects are decomposed in one stacked call; each entry is a view of its stack.
        """
        return tuple(zip(*self._eigen))

    @cached_property
    def roots(self) -> np.ndarray:
        """Read-only ``(n, d)`` square roots of the ``spectra`` eigenvalues, one row per effect.

        Each row is ``sqrt(zero_floor(eigenvalues))``: negative and round-off
        eigenvalues are zeroed, not rooted. These are the eigenvalues of the
        Lüders Kraus operators, with the eigenvectors of ``spectra``.
        """
        roots = np.sqrt(zero_floor(self._eigen[0]))
        _freeze(roots)
        return roots

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only columns W with ``E_j = W_j W_j^H`` per effect, and each block's start column.

        Effect j's block holds the ``spectra`` eigenvectors with a nonzero
        ``roots`` entry, each scaled by it; an effect with none has one zero
        column, so every outcome keeps a block.
        """
        n, dim = self.roots.shape
        keep = self.roots > 0
        empty = ~keep.any(axis=1)
        keep[empty, 0] = True  # zeroed below
        scaled = np.multiply(self._eigen[1].transpose(1, 0, 2), self.roots, order="C")
        factors = scaled.reshape(dim, n * dim).take(np.flatnonzero(keep), axis=1)
        widths = keep.sum(axis=1)
        offsets = np.cumsum(widths) - widths
        factors[:, offsets[empty]] = 0.0
        _freeze(factors, offsets)
        return factors, offsets

    @cached_property
    def kraus(self) -> np.ndarray:
        """Read-only Lüders Kraus operators ``sqrt(E_k)``, stacked, from ``spectra`` and ``roots``."""
        eigvecs = self._eigen[1]
        roots = (eigvecs * self.roots[:, None, :]) @ eigvecs.conj().transpose(0, 2, 1)
        kraus = (roots + roots.conj().transpose(0, 2, 1)) / 2.0
        _freeze(kraus)
        return kraus

    @cached_property
    def seed_rows(self) -> np.ndarray:
        """Read-only unit rows of the candidate states a supremum starts from.

        They are the ``spectra`` eigenvectors of each effect and their sum,
        effect by effect, then the sum of every effect's top eigenvector.
        """
        eigvecs = self._eigen[1]
        tops = np.ascontiguousarray(eigvecs[:, :, -1].T)
        rows = _candidate_rows(eigvecs, tops.sum(axis=1))
        _freeze(rows)
        return rows

    @cached_property
    def luders_rows(self) -> np.ndarray:
        """Read-only ``seed_rows`` of the Lüders instrument, formed from ``kraus`` without building it."""
        return _kraus_rows(self.kraus)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

    @cached_property
    def instrument(self) -> "Instrument":
        """The Lüders instrument, built and validated on first access and shared afterwards."""
        return luders_from_povm(self)

    @classmethod
    def from_observable(cls, obs: HermitianObservable) -> "Povm":
        """The projective POVM formed by the observable's eigenprojectors."""
        return cls(tuple(obs.projectors))


@dataclass(frozen=True)
class Instrument:
    """Outcome-indexed Kraus collections whose total channel preserves trace."""

    outcomes: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        outs = []
        for i, kraus_list in enumerate(self.outcomes):
            ops = tuple(
                as_complex_matrix(k, f"Kraus operator {i}.{j}")
                for j, k in enumerate(kraus_list)
            )
            if not ops:
                raise ValidationError(f"outcome {i} has no Kraus operators")
            outs.append(ops)
        outs = tuple(outs)
        if not outs:
            raise ValidationError("instrument needs at least one outcome")
        d = outs[0][0].shape[0]
        total = np.zeros((d, d), dtype=np.complex128)
        for ops in outs:
            for k in ops:
                if k.shape[0] != d:
                    raise DimensionMismatchError("Kraus operators have inconsistent dimensions")
                total += k.conj().T @ k
        if max_abs(total - np.eye(d)) > COMPLETENESS_TOL:
            raise ValidationError(
                f"instrument is not trace preserving: sum K^dag K deviates from I "
                f"by {max_abs(total - np.eye(d)):.3e}"
            )
        object.__setattr__(self, "outcomes", outs)
        for ops in outs:
            _freeze(*ops)

    @property
    def dim(self) -> int:
        return self.outcomes[0][0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def kraus_flat(self) -> list[np.ndarray]:
        """All Kraus operators, outcome-major order."""
        return [k for ops in self.outcomes for k in ops]

    @cached_property
    def kraus(self) -> np.ndarray:
        """Read-only stack of :meth:`kraus_flat`."""
        kraus = np.stack(self.kraus_flat())
        _freeze(kraus)
        return kraus

    @cached_property
    def seed_rows(self) -> np.ndarray:
        """Read-only unit candidate rows: each Kraus operator's :func:`_normal_basis` and its sum."""
        return _kraus_rows(self.kraus)

    def effects(self) -> tuple[np.ndarray, ...]:
        """The POVM implemented by this instrument: E_i = sum_k K_ik^dag K_ik."""
        out = []
        for ops in self.outcomes:
            eff = sum(k.conj().T @ k for k in ops)
            out.append((eff + eff.conj().T) / 2.0)
        return tuple(out)


def spectral_decompose(matrix, group_tol: float | None = None) -> HermitianObservable:
    """Eigendecompose a Hermitian matrix, merging near-degenerate eigenvalues.

    ``group_tol`` defaults to ``1e-8 * max|A|`` so that grouping is scale
    invariant; eigenvalues within the tolerance of their neighbor collapse
    into a single eigenspace. Raises :class:`NotHermitianError` when the
    input deviates from self-adjointness by more than 1e-10,
    :class:`NumericalFailureError` if the eigensolver does not converge and
    :class:`ValidationError` if the grouped spectrum no longer reconstructs
    the matrix.
    """
    mat = as_complex_matrix(matrix, "matrix")
    defect = hermiticity_defect(mat)
    if defect > HERMITIAN_TOL:
        raise NotHermitianError(
            f"matrix deviates from self-adjointness by {defect:.3e} (tolerance {HERMITIAN_TOL})"
        )
    sym = (mat + mat.conj().T) / 2.0
    if group_tol is None:
        scale = max_abs(sym)
        group_tol = 1e-8 * scale if scale > 0 else 1e-12
    elif group_tol <= 0:
        raise ParamOutOfRangeError("group_tol must be positive")
    eigvals, eigvecs = _eigh(sym, "the matrix")
    obs = HermitianObservable.from_eigensystem(eigvals, eigvecs, group_tol)
    if max_abs(obs.matrix - sym) > RECONSTRUCTION_TOL:
        raise ValidationError("spectral decomposition does not reconstruct the matrix")
    return obs


def luders_from_povm(povm: Povm) -> Instrument:
    """The instrument whose Kraus operators are the positive roots of the effects, ``povm.kraus``."""
    return Instrument(tuple((root,) for root in povm.kraus))


def projective_instrument(obs: HermitianObservable) -> Instrument:
    """The von Neumann collapse instrument: one eigenprojector per outcome."""
    return Instrument(tuple((p,) for p in obs.projectors))


def canonical_instrument(meas) -> Instrument:
    """Map a measurement description to its canonical instrument.

    Observables collapse via their eigenprojectors, POVMs act through
    their positive square roots, and instruments pass through unchanged.
    An observable or a POVM builds its instrument once and returns that
    same object on every later call.
    """
    if isinstance(meas, Instrument):
        return meas
    if isinstance(meas, (HermitianObservable, Povm)):
        return meas.instrument
    raise TypeError(f"cannot build an instrument from {type(meas).__name__}")


def measurement_effects(meas) -> tuple[np.ndarray, ...]:
    """Outcome effects of a measurement description."""
    if isinstance(meas, HermitianObservable):
        return tuple(meas.projectors)
    if isinstance(meas, Povm):
        return meas.elements
    if isinstance(meas, Instrument):
        return meas.effects()
    raise TypeError(f"cannot extract effects from {type(meas).__name__}")


def commutator_maxnorm(a: HermitianObservable, b: HermitianObservable) -> float:
    """Largest entrywise magnitude of AB - BA; 0 within 1e-12 marks a commuting pair."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimensions differ: {a.dim} vs {b.dim}")
    return max_abs(a.matrix @ b.matrix - b.matrix @ a.matrix)
