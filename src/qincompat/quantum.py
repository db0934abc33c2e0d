"""Measurement statistics, measurement channels, and quantum distance measures."""

from __future__ import annotations

import numpy as np

from .core import (
    DensityMatrix,
    Instrument,
    PureState,
    canonical_instrument,
    measurement_effects,
    zero_floor,
)
from .errors import DimensionMismatchError, NumericalFailureError
from .probdist import ProbDist


def _density_of(state) -> np.ndarray:
    if isinstance(state, DensityMatrix):
        return state.matrix
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    raise TypeError(f"expected DensityMatrix or PureState, got {type(state).__name__}")


def _check_dims(dim_a: int, dim_b: int) -> None:
    if dim_a != dim_b:
        raise DimensionMismatchError(f"dimensions differ: {dim_a} vs {dim_b}")


def outcome_distribution(meas, state) -> ProbDist:
    """Probabilities tr[E_j rho] of measuring ``meas`` on ``state``."""
    effects = measurement_effects(meas)
    rho = _density_of(state)
    _check_dims(effects[0].shape[0], rho.shape[0])
    probs = np.einsum("nij,ji->n", np.stack(effects), rho).real
    return ProbDist(probs)


def apply_instrument(inst: Instrument, state) -> DensityMatrix:
    """Non-selective post-measurement state sum_ik K_ik rho K_ik^dag."""
    rho = _density_of(state)
    _check_dims(inst.dim, rho.shape[0])
    out = np.zeros_like(rho)
    for kraus in inst.kraus:
        out += kraus @ rho @ kraus.conj().T
    return DensityMatrix((out + out.conj().T) / 2.0)


def sequential_distribution(first, second, state) -> ProbDist:
    """Outcome distribution of ``second`` measured after ``first`` on ``state``.

    ``first`` may be an observable, a POVM, or an instrument; it acts through
    its canonical instrument (eigenprojector collapse for observables, the
    positive-square-root instrument for POVMs). By construction this equals
    ``outcome_distribution(second, apply_instrument(first, state))``.
    """
    inst = canonical_instrument(first)
    return outcome_distribution(second, apply_instrument(inst, state))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma, in [0, 1]."""
    a, b = _density_of(rho), _density_of(sigma)
    _check_dims(a.shape[0], b.shape[0])
    diff = (a - b + (a - b).conj().T) / 2.0
    eigvals = np.linalg.eigvalsh(diff)
    return float(0.5 * np.abs(eigvals).sum())


def quantum_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(rho^1/2 sigma rho^1/2), in [0, 1].

    Computed by eigendecomposing rho, sandwiching sigma with rho^1/2 and
    summing square roots of the clamped eigenvalues of the product, which
    avoids a general non-Hermitian matrix square root.
    """
    a, b = _density_of(rho), _density_of(sigma)
    _check_dims(a.shape[0], b.shape[0])
    try:
        eigvals, eigvecs = np.linalg.eigh((a + a.conj().T) / 2.0)
        root = (eigvecs * np.sqrt(zero_floor(eigvals))) @ eigvecs.conj().T
        inner = root @ b @ root
        lam = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("fidelity eigendecomposition failed") from exc
    fid = float(np.sqrt(zero_floor(lam)).sum())
    return min(fid, 1.0)


def pure_channel_fidelity(inst, psi: PureState) -> float:
    """Fidelity between a pure state and its image under an instrument's channel.

    For a pure input the Uhlmann fidelity reduces to
    sqrt(<psi| Phi(|psi><psi|) |psi>) = sqrt(sum_ik |<psi|K_ik|psi>|^2).
    """
    instrument = canonical_instrument(inst)
    _check_dims(instrument.dim, psi.dim)
    vec = psi.amplitudes
    total = 0.0
    for kraus in instrument.kraus:
        amp = vec.conj() @ (kraus @ vec)
        total += float(abs(amp)) ** 2
    return float(np.sqrt(np.clip(total, 0.0, 1.0)))
