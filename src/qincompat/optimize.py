"""Supremum search over pure states.

Objectives defined on the state space are maximized by evaluating a set of
analytic candidate states exactly and then running a derivative-free
simplex search from Haar-random starts. The returned value is therefore a
certified lower bound on the true supremum; equality claims downstream rest
on candidate states at which the optimum is known to be attained.

Restricting the search to pure states loses nothing for the objectives used
here: outcome distributions are affine in the density operator, the L1 and
Chebyshev distances are jointly convex in the pair of distributions and the
classical fidelity is jointly concave, so the extrema over the convex set
of states sit at its extreme points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np
from scipy.optimize import minimize

from .core import PureState
from .errors import ObjectiveNaNError, ParamOutOfRangeError, ValidationError

_ZERO_NORM_PENALTY = 1e6


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and reproducibility knobs for the multistart optimizer."""

    n_random_starts: int = 32
    max_iterations: int = 2000
    convergence_tol: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        if self.n_random_starts < 1 or self.max_iterations < 1:
            raise ValidationError("optimizer counts must be positive")
        if not self.convergence_tol > 0:
            raise ValidationError("convergence tolerance must be positive")


class Provenance(str, enum.Enum):
    """How the best state of an optimization run was found."""

    ANALYTIC_SEED = "analytic-seed"
    RANDOM_START = "random-start"


@dataclass(frozen=True)
class OptResult:
    """Best value found for a supremum, with the achieving state."""

    value: float
    argmax: PureState
    provenance: Provenance
    starts_used: int


def maximize_over_pure_states(
    objective: Callable[[np.ndarray], float],
    dim: int,
    seeds: Iterable[PureState] = (),
    config: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize ``objective`` over unit vectors in C^dim.

    ``objective`` receives a unit ``complex128`` amplitude vector of shape
    ``(dim,)``: seeds are validated once, as :class:`PureState` objects, and
    the search hands the objective plain arrays, so nothing is re-validated
    per evaluation. Every seed is evaluated exactly; each random start runs
    a Nelder-Mead search on the 2*dim real coordinates of the state
    (normalized before every evaluation). Results merge deterministically:
    seeds are visited first, in order, and a later candidate replaces the
    incumbent only on a strict improvement, so with identical inputs and
    ``rng_seed`` the result is bitwise reproducible. ``starts_used`` counts
    the random starts that ended at a nonzero vector. Raises
    :class:`ObjectiveNaNError` if the objective returns a non-finite value
    at any probed state.
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    cfg = config if config is not None else OptimizerConfig()

    def evaluate(vec: np.ndarray) -> float:
        value = float(objective(vec))
        if not np.isfinite(value):
            raise ObjectiveNaNError(f"objective returned {value!r}")
        return value

    def unit_vector(coords: np.ndarray) -> np.ndarray | None:
        vec = coords[:dim] + 1j * coords[dim:]
        norm = np.linalg.norm(vec)
        if norm < 1e-12:
            return None
        return vec / norm

    best_value = -np.inf
    best_state: PureState | None = None
    best_prov = Provenance.ANALYTIC_SEED
    for seed in seeds:
        value = evaluate(seed.amplitudes)
        if value > best_value:
            best_value, best_state, best_prov = value, seed, Provenance.ANALYTIC_SEED

    def neg_objective(coords: np.ndarray) -> float:
        vec = unit_vector(coords)
        if vec is None:
            return _ZERO_NORM_PENALTY
        return -evaluate(vec)

    rng = np.random.default_rng(cfg.rng_seed)
    starts_used = 0
    for _ in range(cfg.n_random_starts):
        x0 = rng.standard_normal(2 * dim)
        result = minimize(
            neg_objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxiter": cfg.max_iterations,
                "fatol": cfg.convergence_tol,
                "xatol": 1e-8,
            },
        )
        vec = unit_vector(np.asarray(result.x, dtype=float))
        if vec is None:
            continue
        starts_used += 1
        value = evaluate(vec)
        if value > best_value:
            best_value, best_state, best_prov = value, PureState(vec), Provenance.RANDOM_START

    if best_state is None:  # pragma: no cover - requires every start to collapse to 0
        raise ObjectiveNaNError("no valid state was probed")
    return OptResult(
        value=best_value,
        argmax=best_state,
        provenance=best_prov,
        starts_used=starts_used,
    )
