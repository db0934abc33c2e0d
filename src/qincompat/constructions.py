"""Generators for the observable families and instruments the measures are tested on.

Mutually unbiased pairs use the discrete-Fourier basis, which exists in
every dimension; eigenvalues of constructed observables are the integers
1..d (or 1, 2 for two-outcome coarse grainings) since the incompatibility
measures depend only on the eigenprojectors.

Every observable whose arrays a function here forms itself (a fresh
identity, Fourier or Haar basis and strictly increasing eigenvalues, one
per eigenspace) is stored through ``HermitianObservable._trusted``, to the
bytes validation would store. A basis a caller passes in is validated.
"""

from __future__ import annotations

import numpy as np

from .core import HermitianObservable, Instrument, Povm, PureState, _eigh, _qr, _whole
from .errors import ParamOutOfRangeError


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(dim: int, seed=0, count: int | None = None) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix.

    The R diagonal's phases are divided out so the distribution is exactly
    Haar rather than QR-convention dependent (Mezzadri, Notices AMS 54, 592
    (2007)). R's diagonal is read from LAPACK's raw factor, so R itself is
    never formed, and Q is ``np.linalg.qr``'s bit for bit. With ``count``
    the result is a stack of ``count`` unitaries from one Gaussian block and
    one stacked QR; the block holds the Gaussians in the order single draws
    take them, so the stack equals ``count`` successive draws from one
    generator bit for bit and leaves the generator where they would.
    """
    if dim < 1:
        raise ParamOutOfRangeError("dimension must be positive")
    n = 1 if count is None else count
    if n < 1:
        raise ParamOutOfRangeError("count must be positive")
    gauss = _as_rng(seed).standard_normal((n, 2, dim, dim))
    q, diag = _qr(gauss[:, 0] + 1j * gauss[:, 1])
    diag[diag == 0] = 1.0
    unitaries = q * (diag / np.abs(diag))[:, None, :]
    return unitaries[0] if count is None else unitaries


def random_pure_state(dim: int, seed=0) -> PureState:
    """Haar-random unit vector."""
    if dim < 1:
        raise ParamOutOfRangeError("dimension must be positive")
    rng = _as_rng(seed)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState.normalized(vec)


def random_observable(dim: int, seed=0) -> HermitianObservable:
    """Non-degenerate observable with a Haar-random eigenbasis and eigenvalues 1..d."""
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    return _observable_on(random_unitary(dim, seed))


def _observable_on(basis: np.ndarray, values: np.ndarray | None = None) -> HermitianObservable:
    """Non-degenerate observable with strictly increasing ``values`` (1..d by default) over ``basis``.

    ``basis`` is a fresh C-contiguous ``complex128`` array with orthonormal
    columns that no caller holds, such as a :func:`random_unitary` draw, which
    QR made unitary to round-off, far inside the 1e-8 that validation allows,
    or an identity or Fourier basis formed here; ``values`` is a fresh float
    array. Both are stored as they are, as ``from_eigensystem`` would store
    them bit for bit, since it values each distinct eigenvalue at ``x - 0.0``.
    """
    dim = basis.shape[0]
    if values is None:
        values = np.arange(1.0, dim + 1.0)
    return HermitianObservable._trusted(values, (1,) * dim, basis)


def random_povm(dim: int, n_outcomes: int, seed=0) -> Povm:
    """Random POVM from normalized Wishart blocks: S^-1/2 G_i S^-1/2."""
    if dim < 2 or n_outcomes < 1:
        raise ParamOutOfRangeError("need dim >= 2 and at least one outcome")
    rng = _as_rng(seed)
    blocks = []
    for _ in range(n_outcomes):
        gauss = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        blocks.append(gauss @ gauss.conj().T)
    total = sum(blocks)
    eigvals, eigvecs = _eigh(total, "the Wishart sum")
    inv_root = (eigvecs / np.sqrt(eigvals)) @ eigvecs.conj().T
    elems = []
    for block in blocks:
        elem = inv_root @ block @ inv_root
        elems.append((elem + elem.conj().T) / 2.0)
    return Povm(tuple(elems))


def random_density_matrix(dim: int, seed=0, rank: int | None = None) -> np.ndarray:
    """Random mixed state G G^dag / tr(G G^dag) with G complex Gaussian d x rank."""
    if dim < 1:
        raise ParamOutOfRangeError("dimension must be positive")
    rng = _as_rng(seed)
    k = dim if rank is None else rank
    gauss = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    rho = gauss @ gauss.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def computational_observable(dim: int) -> HermitianObservable:
    """Diagonal observable with eigenvalues 1..d in the standard basis."""
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    return _observable_on(np.eye(dim, dtype=np.complex128))


def fourier_basis(dim: int) -> np.ndarray:
    """Columns b_j with entries b_j[k] = exp(2 pi i j k / d) / sqrt(d)."""
    if dim < 1:
        raise ParamOutOfRangeError("dimension must be positive")
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="xy")
    return np.exp(2j * np.pi * j * k / dim) / np.sqrt(dim)


def fourier_mub_pair(dim: int) -> tuple[HermitianObservable, HermitianObservable]:
    """A computational-basis observable and its Fourier-basis partner.

    The two eigenbases are mutually unbiased: every squared overlap equals
    1/d exactly (up to float round-off).
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    return computational_observable(dim), _observable_on(fourier_basis(dim))


def mub_triple_qubit() -> tuple[HermitianObservable, HermitianObservable, HermitianObservable]:
    """Three pairwise mutually unbiased qubit observables (X-, Y-, Z-type bases)."""
    sq = 1.0 / np.sqrt(2.0)
    x_basis = np.array([[sq, sq], [sq, -sq]], dtype=np.complex128)
    y_basis = np.array([[sq, sq], [1j * sq, -1j * sq]], dtype=np.complex128)
    return (
        _observable_on(x_basis),
        _observable_on(y_basis),
        computational_observable(2),
    )


def commuting_subspace_pair(dim: int, n_shared: int) -> tuple[HermitianObservable, HermitianObservable]:
    """Non-degenerate pair sharing exactly ``n_shared`` eigenvectors.

    The first ``n_shared`` eigenvectors coincide with the standard basis;
    on the remaining block the second observable uses the Fourier basis of
    size d - n_shared, so overlaps are 0 across blocks and
    1/sqrt(d - n_shared) inside the non-shared block.
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    if not 0 <= n_shared <= dim - 1:
        raise ParamOutOfRangeError("shared-eigenvector count must lie in [0, dim - 1]")
    block = dim - n_shared
    basis_b = np.eye(dim, dtype=np.complex128)
    basis_b[n_shared:, n_shared:] = fourier_basis(block)
    return computational_observable(dim), _observable_on(basis_b)


def asymmetric_pair(dim: int, m: int) -> tuple[HermitianObservable, HermitianObservable]:
    """Pair whose incompatibility depends on the measurement order.

    A is non-degenerate in the standard basis; B has two eigenvalues, its
    first eigenspace spanned by the first ``m`` Fourier vectors (a basis
    unbiased to A) and the second by the rest. ``m`` must stay below d/2,
    which is what makes the forward incompatibility exceed the backward one.
    """
    if dim < 3:
        raise ParamOutOfRangeError("dimension must be at least 3")
    if not 1 <= m < dim / 2:
        raise ParamOutOfRangeError("block size m must satisfy 1 <= m < dim / 2")
    obs_b = HermitianObservable._trusted(np.array([1.0, 2.0]), (m, dim - m), fourier_basis(dim))
    return computational_observable(dim), obs_b


def degenerate_observable(ranks, basis=None) -> HermitianObservable:
    """Observable with eigenvalue multiplicities ``ranks`` over ``basis`` columns.

    Defaults to the standard basis; eigenvalues are 1..len(ranks). A
    ``basis`` passed in is validated, the default one is not.
    """
    ranks = tuple(map(_whole, ranks))
    if not ranks or None in ranks or min(ranks) < 1:
        raise ParamOutOfRangeError("ranks must be positive integers")
    dim = sum(ranks)
    if basis is None:
        return HermitianObservable._trusted(
            np.arange(1.0, len(ranks) + 1.0), ranks, np.eye(dim, dtype=np.complex128)
        )
    values = np.concatenate(
        [np.full(r, float(i + 1)) for i, r in enumerate(ranks)]
    )
    return HermitianObservable.from_eigensystem(values, basis)


def z_channel(p: float) -> Instrument:
    """Qubit instrument applying Z with probability p: rho -> p Z rho Z + (1-p) rho."""
    if not 0.0 <= p <= 1.0:
        raise ParamOutOfRangeError("mixing probability must lie in [0, 1]")
    pauli_z = np.diag([1.0, -1.0]).astype(np.complex128)
    ident = np.eye(2, dtype=np.complex128)
    return Instrument(
        ((np.sqrt(p) * pauli_z,), (np.sqrt(1.0 - p) * ident,))
    )


def trine_povm() -> Povm:
    """Three-outcome qubit POVM from equiangular real vectors, elements (2/3)|phi><phi|."""
    angles = [0.0, 2.0 * np.pi / 3.0, 4.0 * np.pi / 3.0]
    elems = []
    for theta in angles:
        vec = np.array([np.cos(theta / 2.0), np.sin(theta / 2.0)], dtype=np.complex128)
        elems.append((2.0 / 3.0) * np.outer(vec, vec.conj()))
    return Povm(tuple(elems))
