"""Validated quantum objects and spectral machinery.

Everything downstream (outcome statistics, incompatibility measures, the
state optimizer) consumes the types defined here. Matrices are dense
``complex128`` numpy arrays. Every object checks its defining invariants at
construction time and freezes its arrays afterwards, so instances are
immutable and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

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
    """Coerce ``entries`` to a square complex128 matrix, rejecting NaN/Inf."""
    mat = np.array(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValidationError(
            f"{name} must be a nonempty square matrix, got shape {mat.shape}"
        )
    if not (np.all(np.isfinite(mat.real)) and np.all(np.isfinite(mat.imag))):
        raise ValidationError(f"{name} contains non-finite entries")
    return mat


def max_abs(mat: np.ndarray) -> float:
    """Largest entrywise magnitude."""
    return float(np.max(np.abs(mat)))


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entrywise deviation of ``mat`` from its own adjoint."""
    return max_abs(mat - mat.conj().T)


def sqrt_psd(mat: np.ndarray, name: str = "operator") -> np.ndarray:
    """Positive square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-10, 0) are treated as round-off and clamped to zero;
    anything more negative raises :class:`NotPositiveError`. Eigenvalues at
    the round-off floor are zeroed rather than clipped because the square
    root would amplify them from 1e-16 to 1e-8 (visible, for example, as a
    spurious perturbation of sqrt(P) for an exact projector P).
    """
    sym = (mat + mat.conj().T) / 2.0
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh rarely fails
        raise NumericalFailureError(f"eigendecomposition of {name} failed") from exc
    if eigvals.min() < -POVM_EIG_TOL:
        raise NotPositiveError(
            f"{name} has eigenvalue {eigvals.min():.3e} below -{POVM_EIG_TOL}"
        )
    floor = 1e-14 * max(float(eigvals.max()), 1.0)
    eigvals = np.where(eigvals > floor, eigvals, 0.0)
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
    return (root + root.conj().T) / 2.0


def _freeze(*arrays: np.ndarray) -> None:
    for arr in arrays:
        arr.setflags(write=False)


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
        if not (np.all(np.isfinite(vec.real)) and np.all(np.isfinite(vec.imag))):
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
        vec = np.asarray(vector, dtype=np.complex128).ravel()
        norm = float(np.linalg.norm(vec))
        if norm == 0.0 or not np.isfinite(norm):
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return cls(vec / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    def overlap(self, other: "PureState") -> float:
        """|<self|other>|, insensitive to global phase."""
        return float(abs(self.amplitudes.conj() @ other.amplitudes))


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
        eigvals = np.linalg.eigvalsh((mat + mat.conj().T) / 2.0)
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
    observable is built; ``matrix`` and ``projectors`` are derived from them
    on first access and are read-only.
    """

    eigenvalues: np.ndarray
    ranks: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self):
        eigvals = np.asarray(self.eigenvalues, dtype=float).ravel()
        ranks = tuple(int(r) for r in self.ranks)
        basis = as_complex_matrix(self.basis, "eigenbasis")
        d = basis.shape[0]
        if not np.all(np.isfinite(eigvals)):
            raise ValidationError("eigenvalues contain non-finite entries")
        if len(ranks) != eigvals.size or sum(ranks) != d or min(ranks) < 1:
            raise ValidationError("eigenspace ranks must be positive and sum to dim")
        if eigvals.size > 1 and np.min(np.diff(eigvals)) <= 0:
            raise ValidationError("grouped eigenvalues must be strictly increasing")
        if max_abs(basis.conj().T @ basis - np.eye(d)) > 1e-8:
            raise ValidationError("eigenbasis columns are not orthonormal")
        object.__setattr__(self, "eigenvalues", eigvals)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "basis", basis)
        _freeze(eigvals, basis)

    @cached_property
    def projectors(self) -> np.ndarray:
        """Stack of eigenprojectors, ``projectors[i]`` of rank ``ranks[i]``."""
        projs = []
        for sl in self.block_slices():
            block = self.basis[:, sl]
            proj = block @ block.conj().T
            projs.append((proj + proj.conj().T) / 2.0)
        projs = np.array(projs)
        _freeze(projs)
        return projs

    @cached_property
    def matrix(self) -> np.ndarray:
        """The operator sum_i eigenvalues[i] * projectors[i]."""
        matrix = np.einsum("k,kij->ij", self.eigenvalues, self.projectors)
        matrix = (matrix + matrix.conj().T) / 2.0
        _freeze(matrix)
        return matrix

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def n_outcomes(self) -> int:
        return self.eigenvalues.size

    @property
    def is_nondegenerate(self) -> bool:
        return all(r == 1 for r in self.ranks)

    def spectrum(self) -> Iterator[tuple[float, np.ndarray, int]]:
        """Iterate over (eigenvalue, projector, rank) triples."""
        for val, proj, rank in zip(self.eigenvalues, self.projectors, self.ranks):
            yield float(val), proj, rank

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

        Columns of ``basis`` are the eigenvectors; eigenvalues within
        ``group_tol`` of one another are merged into a single eigenspace.
        """
        vals = np.asarray(eigenvalues, dtype=float).ravel()
        vecs = as_complex_matrix(basis, "eigenbasis")
        if vals.size != vecs.shape[0]:
            raise ValidationError("number of eigenvalues must match dimension")
        order = np.argsort(vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        groups = _cluster_sorted(vals, group_tol)
        return cls(
            eigenvalues=np.array([float(np.mean(vals[idx])) for idx in groups]),
            ranks=tuple(len(idx) for idx in groups),
            basis=np.hstack([vecs[:, idx] for idx in groups]),
        )


@dataclass(frozen=True)
class Povm:
    """A positive-operator-valued measure: effects summing to the identity."""

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
            eigvals = np.linalg.eigvalsh((elem + elem.conj().T) / 2.0)
            if eigvals.min() < -POVM_EIG_TOL or eigvals.max() > 1.0 + POVM_EIG_TOL:
                raise NotPositiveError(
                    f"POVM element {i} has eigenvalues outside [0, 1]: "
                    f"[{eigvals.min():.3e}, {eigvals.max():.3e}]"
                )
        total = sum(elems)
        if max_abs(total - np.eye(d)) > COMPLETENESS_TOL:
            raise ValidationError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", elems)
        _freeze(*elems)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self.elements)

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

    def effects(self) -> tuple[np.ndarray, ...]:
        """The POVM implemented by this instrument: E_i = sum_k K_ik^dag K_ik."""
        out = []
        for ops in self.outcomes:
            eff = sum(k.conj().T @ k for k in ops)
            out.append((eff + eff.conj().T) / 2.0)
        return tuple(out)


def _cluster_sorted(values: np.ndarray, tol: float) -> list[list[int]]:
    """Group indices of a sorted array whose neighbors differ by at most tol."""
    groups = [[0]]
    for k in range(1, values.size):
        if values[k] - values[groups[-1][-1]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


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
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("eigensolver did not converge") from exc
    obs = HermitianObservable.from_eigensystem(eigvals, eigvecs, group_tol)
    if max_abs(obs.matrix - sym) > RECONSTRUCTION_TOL:
        raise ValidationError("spectral decomposition does not reconstruct the matrix")
    return obs


def luders_from_povm(povm: Povm) -> Instrument:
    """The instrument whose Kraus operators are the positive roots of the effects."""
    outcomes = tuple((sqrt_psd(e, f"POVM element {i}"),) for i, e in enumerate(povm.elements))
    return Instrument(outcomes)


def projective_instrument(obs: HermitianObservable) -> Instrument:
    """The von Neumann collapse instrument: one eigenprojector per outcome."""
    return Instrument(tuple((p,) for p in obs.projectors))


def canonical_instrument(meas) -> Instrument:
    """Map a measurement description to its canonical instrument.

    Observables collapse via their eigenprojectors, POVMs act through
    their positive square roots, and instruments pass through unchanged.
    """
    if isinstance(meas, Instrument):
        return meas
    if isinstance(meas, HermitianObservable):
        return projective_instrument(meas)
    if isinstance(meas, Povm):
        return luders_from_povm(meas)
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
