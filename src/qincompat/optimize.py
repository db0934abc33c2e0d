"""Supremum search over pure states.

Objectives defined on the state space are maximized by evaluating a set of
analytic candidate states exactly and then running a gradient search
(L-BFGS-B on the real and imaginary parts of an unnormalized vector, with
the exact gradient of the objective at its normalization) from the best
candidates and from Haar-random starts. The returned value is therefore a
certified lower bound on the true supremum; equality claims downstream
rest on candidate states at which the optimum is known to be attained.
Each run drives scipy's compiled L-BFGS-B routine through a direct loop,
:func:`minimize`, instead of ``scipy.optimize.minimize``, whose
per-evaluation bookkeeping cost more than the objectives;
``tests/test_optimize.py`` checks that both give the same iterates and
the same iteration and evaluation counts, bit for bit.
This search serves the fidelity directional values, the maximal
disturbance of POVMs and instruments, and the L1 directional value of a
second measurement with too many outcomes. It is skipped where the answer
is known: the other L1 and all Chebyshev directional values, and the
disturbance of every observable, are exact suprema computed in
:mod:`qincompat.incompatibility`, and a directional value whose best seed
(see :func:`rank_seeds`) already reaches a proven ceiling is returned
without a search.

Every objective maps a unit ``complex128`` vector ``v`` of shape ``(dim,)``
to ``(value, grad)``: ``grad`` is complex of shape ``(dim,)`` with
``df = Re(grad^H dv)`` to first order. Seeds and the final comparison use
only ``value``.

Restricting the search to pure states loses nothing for the objectives used
here: outcome distributions are affine in the density operator, the L1 and
Chebyshev distances are jointly convex in the pair of distributions and the
classical fidelity is jointly concave, so the extrema over the convex set
of states sit at its extreme points.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy.optimize import _lbfgsb

from .core import PureState
from .errors import ObjectiveNaNError, ParamOutOfRangeError, ValidationError

_ZERO_NORM_PENALTY = 1e6

# scipy's defaults for method="L-BFGS-B": stored corrections, line-search
# steps per iteration, and objective evaluations per run.
_MAXCOR = 10
_MAXLS = 20
_MAXFUN = 15000


class LocalSearch(NamedTuple):
    """End point of one L-BFGS-B run, with its iteration and evaluation counts."""

    x: np.ndarray
    nit: int
    nfev: int


def minimize(fun, x0: np.ndarray, options: dict) -> LocalSearch:
    """Minimize ``fun(x) -> (f, grad)`` over R^n from ``x0`` with L-BFGS-B, unbounded.

    Drives scipy's compiled routine ``setulb`` (Byrd, Lu, Nocedal & Zhu,
    SIAM J. Sci. Comput. 16, 1190 (1995)) through the reverse-communication
    loop of ``scipy.optimize.minimize(fun, x0, method="L-BFGS-B",
    jac=True, options=options)``, with its defaults for everything but
    ``options``: ``maxiter``, ``ftol`` (relative reduction of ``f``) and
    ``gtol`` (largest gradient component). It stops with the same codes
    after ``maxiter`` iterations or more than ``_MAXFUN`` evaluations, and
    like scipy's ``ScalarFunction`` it keeps the last ``(x, f, grad)``, so
    a request at an unchanged ``x`` is not evaluated again. The iterates,
    ``nit`` and ``nfev`` therefore equal scipy's bit for bit;
    ``tests/test_optimize.py`` checks this against scipy itself.
    """
    m, n = _MAXCOR, x0.size
    x = np.array(x0, dtype=np.float64)
    bounds = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    factr = options["ftol"] / np.finfo(float).eps
    pgtol = options["gtol"]
    maxiter = options["maxiter"]
    f, g, at = 0.0, np.zeros(n), None
    nit = nfev = 0
    while True:
        _lbfgsb.setulb(m, x, bounds, bounds, nbd, f, g, factr, pgtol, wa, iwa, task,
                       lsave, isave, dsave, _MAXLS, ln_task)
        if task[0] == 3:  # FG: the routine asks for f and grad at x
            if at is None or not (x == at).all():
                at = x.copy()
                f, g = fun(at)
                nfev += 1
        elif task[0] == 1:  # NEW_X: an iteration is complete
            nit += 1
            if nit >= maxiter:
                task[:] = 5, 504  # STOP: iteration limit
            elif nfev > _MAXFUN:
                task[:] = 5, 502  # STOP: evaluation limit
        else:  # converged, stopped, or abnormal
            return LocalSearch(x, nit, nfev)


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
    """How the best state of a supremum was found.

    ``ANALYTIC_SEED`` covers a candidate state and the local search started
    from one; ``RANDOM_START`` a local search from a Haar-random state.
    ``EXACT`` marks a value computed in closed or spectral form rather than
    by :func:`maximize_over_pure_states`; it is the supremum itself.
    """

    ANALYTIC_SEED = "analytic-seed"
    RANDOM_START = "random-start"
    EXACT = "exact"


@dataclass(frozen=True)
class OptResult:
    """Best value found for a supremum, with the achieving state.

    ``upper_bound`` is the lowest proven ceiling the value was checked
    against: the value itself for an ``exact`` result, and ``None`` where
    nothing is proven, as for every result of
    :func:`maximize_over_pure_states` itself. ``evaluations`` counts the
    objective calls behind the value: 0 for an ``exact`` result.
    """

    value: float
    argmax: PureState
    provenance: Provenance
    starts_used: int
    upper_bound: float | None = None
    evaluations: int = 0


def _checked(value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ObjectiveNaNError(f"objective returned {value!r}")
    return value


Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def rank_seeds(objective: Objective, seeds: Iterable[PureState]) -> list[tuple[float, PureState]]:
    """Every seed with its exact value, best first; ties keep the given order.

    A non-finite value at any seed raises :class:`ObjectiveNaNError`.
    """
    scored = [(_checked(objective(seed.amplitudes)[0]), seed) for seed in seeds]
    return sorted(scored, key=lambda pair: -pair[0])


def _unit_vector(coords: np.ndarray) -> tuple[np.ndarray | None, float]:
    """``z/|z|`` for the interleaved real coordinates of ``z``, or None near 0."""
    norm = math.sqrt(coords @ coords)
    if norm < 1e-12:
        return None, norm
    return coords.view(np.complex128) / norm, norm


def _folded_objective(objective: Objective, dim: int) -> Objective:
    """The function L-BFGS-B minimizes: ``-objective(z/|z|)`` on real coordinates.

    The 2*dim coordinates interleave the real and imaginary parts of ``z``.
    The gradient folds in the normalization,
    ``-(grad - Re(v^H grad) v) / |z|`` at ``v = z/|z|``; a vector of norm
    below 1e-12 gets a constant penalty and zero gradient.
    """

    def negated(coords: np.ndarray) -> tuple[float, np.ndarray]:
        vec, norm = _unit_vector(coords)
        if vec is None:
            return _ZERO_NORM_PENALTY, np.zeros(2 * dim)
        value, grad = objective(vec)
        value = _checked(value)
        grad = (np.vdot(vec, grad).real * vec - grad) / norm
        return -value, grad.view(np.float64)

    return negated


def maximize_over_pure_states(
    objective: Objective,
    dim: int,
    seeds: Iterable[PureState] = (),
    config: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize ``objective`` over unit vectors in C^dim.

    ``objective`` receives a unit ``complex128`` amplitude vector ``v`` of
    shape ``(dim,)`` and returns ``(value, grad)`` as described in the
    module docstring: seeds are validated once, as :class:`PureState`
    objects, and the search hands the objective plain arrays, so nothing is
    re-validated per evaluation. Every seed is evaluated exactly. Then
    L-BFGS-B runs from each of the ``n_random_starts`` best seeds and from
    ``n_random_starts`` Haar-random starts. It works on the 2*dim real
    coordinates of an unnormalized ``z`` (real and imaginary parts
    interleaved, so ``z`` is a complex view of them), evaluates the
    objective at ``v = z/|z|`` and folds the normalization into the
    gradient, ``(grad - Re(v^H grad) v) / |z|``. Refining seeds as well
    matters because a gradient search only climbs its own basin: from 4
    random starts alone it ended below the best known value in about one
    Lueders fidelity search in ten, and never once the 4 best seeds were
    refined too (900 searches at d=2,3). Each run is :func:`minimize`, the
    direct loop over scipy's compiled L-BFGS-B routine, which matches
    ``scipy.optimize.minimize(method="L-BFGS-B")`` bit for bit.

    A start stops after ``max_iterations`` iterations, once an iteration
    improves the value by less than ``convergence_tol * 1e-5`` (relative
    to ``max(|value|, 1)``), or once the largest gradient component falls
    below 1e-12. At the default tolerance this runs to round-off: the
    seedless searches of the MUB fidelity value and the z-channel
    disturbance end within 1e-14 of the closed forms.

    Results merge deterministically: the best seed comes first (the first
    one on ties), then the refined seeds, best first, then the random
    starts, and a later candidate replaces the incumbent only on a strict
    improvement, so with identical inputs and ``rng_seed`` the result is
    bitwise reproducible. A state refined from a seed keeps provenance
    ``analytic-seed``. ``starts_used`` counts the random starts that ended
    at a nonzero vector, and ``evaluations`` every objective call: the
    seeds, each run's evaluations and the exact re-evaluation of each
    nonzero end point. Raises :class:`ObjectiveNaNError` if the objective
    returns a non-finite value at any probed state.
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    cfg = config if config is not None else OptimizerConfig()

    ranked = rank_seeds(objective, seeds)
    evaluations = len(ranked)
    best_value, best_state = ranked[0] if ranked else (-np.inf, None)
    best_prov = Provenance.ANALYTIC_SEED

    search_objective = _folded_objective(objective, dim)
    options = {
        "maxiter": cfg.max_iterations,
        "ftol": cfg.convergence_tol * 1e-5,
        "gtol": 1e-12,
    }

    def refine(x0: np.ndarray) -> tuple[float, np.ndarray] | None:
        nonlocal evaluations
        result = minimize(search_objective, x0, options=options)
        evaluations += result.nfev
        vec, _ = _unit_vector(result.x)
        if vec is None:
            return None
        evaluations += 1
        return _checked(objective(vec)[0]), vec

    for _, seed in ranked[: cfg.n_random_starts]:
        found = refine(np.ascontiguousarray(seed.amplitudes).view(np.float64))
        if found is not None and found[0] > best_value:
            best_value, best_state = found[0], PureState(found[1])
    rng = np.random.default_rng(cfg.rng_seed)
    starts_used = 0
    for _ in range(cfg.n_random_starts):
        found = refine(rng.standard_normal(2 * dim))
        if found is None:
            continue
        starts_used += 1
        if found[0] > best_value:
            best_value, best_state, best_prov = found[0], PureState(found[1]), Provenance.RANDOM_START

    if best_state is None:  # pragma: no cover - requires every start to collapse to 0
        raise ObjectiveNaNError("no valid state was probed")
    return OptResult(
        value=best_value,
        argmax=best_state,
        provenance=best_prov,
        starts_used=starts_used,
        evaluations=evaluations,
    )
