"""Finite probability distributions and classical distance measures.

Three distances are provided: the variational (L1) distance, the
fidelity-based distance 1 - F^2 built on the Bhattacharyya overlap, and the
Chebyshev (L-infinity) distance. All of them map pairs of distributions
into [0, 1] and vanish exactly on identical pairs; the fidelity-based
distance is symmetric but fails the triangle inequality, so it is not a
metric.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError, ValidationError

NEGATIVE_TOL = 1e-12
SUM_TOL = 1e-9
RENORM_TRIGGER = 1e-12


class ProbDist:
    """A finite probability vector.

    Entries within 1e-12 below zero are clamped to 0 on construction (the
    usual round-off from traces of near-PSD matrices); if the clamped total
    then drifts from 1 by more than 1e-12 the vector is renormalized.
    Totals off by more than 1e-9 are rejected outright.
    """

    __slots__ = ("_probs",)

    def __init__(self, values):
        probs = np.array(values, dtype=float).ravel()
        if probs.size == 0:
            raise ValidationError("probability vector must be nonempty")
        if not np.all(np.isfinite(probs)):
            raise ValidationError("probability vector contains non-finite entries")
        if probs.min() < -NEGATIVE_TOL:
            raise ValidationError(
                f"probability entry {probs.min():.3e} is below -{NEGATIVE_TOL}"
            )
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if abs(total - 1.0) > SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, expected 1 ± {SUM_TOL}")
        if abs(total - 1.0) > RENORM_TRIGGER:
            probs = probs / total
        probs.setflags(write=False)
        self._probs = probs

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, idx):
        return self._probs[idx]

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self._probs
        return self._probs.astype(dtype)

    def __repr__(self) -> str:
        return f"ProbDist({np.array2string(self._probs, precision=6, suppress_small=True)})"


def _paired(p, q) -> tuple[np.ndarray, np.ndarray]:
    pv = np.asarray(p, dtype=float).ravel()
    qv = np.asarray(q, dtype=float).ravel()
    if pv.size != qv.size:
        raise LengthMismatchError(f"distribution lengths differ: {pv.size} vs {qv.size}")
    return pv, qv


def variational_distance(p, q) -> float:
    """L1 distance: half the summed absolute difference."""
    pv, qv = _paired(p, q)
    return float(0.5 * np.abs(pv - qv).sum())


def classical_fidelity(p, q) -> float:
    """Bhattacharyya overlap sum_i sqrt(p_i q_i), in [0, 1]."""
    pv, qv = _paired(p, q)
    return float(np.sqrt(np.clip(pv, 0.0, None)) @ np.sqrt(np.clip(qv, 0.0, None)))


def fidelity_distance(p, q) -> float:
    """1 - F(p, q)^2 with F the classical fidelity."""
    fid = classical_fidelity(p, q)
    return float(1.0 - fid * fid)


def chebyshev_distance(p, q) -> float:
    """L-infinity distance: the largest per-outcome probability difference."""
    pv, qv = _paired(p, q)
    return float(np.abs(pv - qv).max())
