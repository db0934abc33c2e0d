"""Fixed-POVM evaluation of the accessible-fidelity incompatibility measure.

This older measure rates a set of non-degenerate observables by the best
average largest-eigenvalue a rank-one POVM can extract from their summed
measurement channels. The full supremum over POVMs is not attempted here:
evaluating any fixed candidate lower-bounds that supremum, so
``1 - objective`` is always a valid upper bound on the measure, which is
exactly how it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import COMPLETENESS_TOL, HermitianObservable, PureState, _eigvalsh, as_complex_matrix, max_abs
from .constructions import fourier_basis, random_unitary
from .errors import (
    DegenerateObservableError,
    DimensionMismatchError,
    ValidationError,
)


@dataclass(frozen=True)
class RankOnePovm:
    """Rank-one POVM given by (non-normalized) vectors xi_m with sum |xi><xi| = I."""

    vectors: np.ndarray

    def __post_init__(self):
        vecs = np.array(self.vectors, dtype=np.complex128)
        if vecs.ndim != 2 or not 0 < vecs.shape[1] <= vecs.shape[0]:
            raise ValidationError(
                "vectors must form an (n, d) array with d >= 1 and at least d rows"
            )
        if not np.isfinite(vecs).all():
            raise ValidationError("vectors contain non-finite entries")
        total = vecs.T @ vecs.conj()  # sum_m |xi_m><xi_m| with xi_m as rows
        if max_abs(total - np.eye(vecs.shape[1])) > COMPLETENESS_TOL:
            raise ValidationError("rank-one elements do not sum to the identity")
        object.__setattr__(self, "vectors", vecs)
        vecs.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.vectors.shape[0]

    @classmethod
    def from_basis(cls, basis) -> "RankOnePovm":
        """The projective rank-one POVM of an orthonormal basis (columns)."""
        mat = as_complex_matrix(basis, "basis")
        return cls(mat.T.copy())

    def states(self) -> list[PureState]:
        return [PureState.normalized(v) for v in self.vectors]


def acc_fid_objective(
    povm: RankOnePovm, observables: Sequence[HermitianObservable]
) -> float:
    """Average top eigenvalue of the summed post-measurement states.

    Returns (1 / (N d)) * sum_m lambda_max[ sum_i E_i(|xi_m><xi_m|) ] where
    E_i is the eigenprojector collapse of the i-th observable. The value
    lies in [1/d, 1]; its complement 1 - value upper-bounds the
    accessible-fidelity incompatibility of the observables, because any
    fixed POVM lower-bounds the supremum defining it.
    """
    if not observables:
        raise ValidationError("need at least one observable")
    dim = povm.dim
    for obs in observables:
        if obs.dim != dim:
            raise DimensionMismatchError("observable and POVM dimensions differ")
        if not obs.is_nondegenerate:
            raise DegenerateObservableError(
                "the accessible-fidelity objective requires non-degenerate observables"
            )
    bases = [obs.basis for obs in observables]
    posts = np.zeros((len(povm.vectors), dim, dim), dtype=np.complex128)
    for post, xi in zip(posts, povm.vectors):
        for basis in bases:
            weights = np.abs(basis.conj().T @ xi) ** 2
            post += (basis * weights) @ basis.conj().T
    lam = _eigvalsh((posts + posts.conj().transpose(0, 2, 1)) / 2.0, "a post-measurement state")
    total = 0.0
    for top in lam[:, -1].tolist():  # left to right, which sum() is not from Python 3.12
        total += top
    return total / (len(observables) * dim)


def q_acc_upper_bound(
    obs_a: HermitianObservable,
    obs_b: HermitianObservable,
    candidate_povms: Sequence[RankOnePovm] | None = None,
    n_random: int = 16,
    rng_seed: int = 0,
) -> float:
    """Best upper bound on the accessible-fidelity incompatibility of a pair.

    Minimizes 1 - objective over candidate rank-one POVMs. The default
    candidates are the two eigenbases, each eigenbasis rotated by the
    discrete Fourier transform, and ``n_random`` seeded Haar-random bases;
    supplying more candidates can only tighten the bound.
    """
    dim = obs_a.dim
    candidates = list(candidate_povms) if candidate_povms else []
    if candidate_povms is None:
        fourier = fourier_basis(dim)
        candidates = [
            RankOnePovm.from_basis(obs_a.basis),
            RankOnePovm.from_basis(obs_b.basis),
            RankOnePovm.from_basis(obs_a.basis @ fourier),
            RankOnePovm.from_basis(obs_b.basis @ fourier),
        ]
        for k in range(n_random):
            candidates.append(
                RankOnePovm.from_basis(random_unitary(dim, rng_seed * 1_000_003 + k))
            )
    if not candidates:
        raise ValidationError("need at least one candidate POVM")
    return min(1.0 - acc_fid_objective(povm, (obs_a, obs_b)) for povm in candidates)
