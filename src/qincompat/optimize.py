"""Supremum search over pure states.

Objectives defined on the state space are maximized by evaluating a set of
analytic candidate states exactly and then running a gradient search
(L-BFGS-B on the real and imaginary parts of an unnormalized vector, with
the exact gradient of the objective at its normalization) from the best
candidates and from Haar-random starts. The returned value is therefore a
certified lower bound on the true supremum; equality claims downstream
rest on candidate states at which the optimum is known to be attained.
All starts of a supremum run as one lockstep L-BFGS-B search,
:func:`minimize`: each start drives scipy's compiled routine in its own
workspace, and each step evaluates the points every start asks for in one
call of the objective, so the per-call cost of numpy and of the Python
glue is paid once per step rather than once per start. The lockstep can
span several suprema whose objectives share one shape and differ in their
constants (:func:`_maximize_many`), such as the directional values of
random pairs of one dimension that ``verify`` checks claim by claim. Each start's
iterates and its iteration and evaluation counts equal those of
``scipy.optimize.minimize`` from the same start, bit for bit, which
``tests/test_optimize.py`` checks, until the start reaches a face where
some outcome probability vanishes; it then restarts on that face (see
:func:`minimize`).
A step costs its starts' ``setulb`` calls, one call of the objective with
its fold into real coordinates, and a few microseconds of gathering and
scattering: a step where no start is near a face, on one or tried on one
skips the face, trial and projector work. Of a 2.9 ms Lueders fidelity
search of two random qutrit POVMs at the CLI budget, ``setulb`` takes
0.81 ms, the objective 0.84, the fold 0.50, the Python around ``setulb``
0.25 and the gathering and scattering 0.21 (0.42 before the face work was
skipped; README "multistart gradient search").
That routine, ``setulb``, is all the package uses of scipy at run time, and
:func:`_load_lbfgsb` loads its compiled extension alone: importing
``scipy.optimize`` would add 0.5-0.6 s and 49 MB to every process (scipy
1.17 on a 2-vCPU Xeon), even to commands that never search.
This search serves the fidelity directional values, the maximal
disturbance of POVMs and instruments, and the L1 directional value of a
second measurement with too many outcomes. It is skipped where the answer
is known: the other L1 and all Chebyshev directional values, the fidelity
value of two qubit observables, and the disturbance of every observable,
are exact suprema computed in
:mod:`qincompat.incompatibility`, and a directional value or fidelity
disturbance whose best candidate state already reaches a proven ceiling is
returned without a search.

Every objective maps an ``(S, dim)`` stack of unit ``complex128`` vectors
to ``(values, grads)``: ``values`` has shape ``(S,)`` and ``grads`` is
complex of shape ``(S, dim)``, with ``df = Re(grad^H dv)`` to first order
in each row. Row ``s`` of the result depends on row ``s`` of the stack
alone, bit for bit: the kernels use elementwise operations, reductions
along the last axis, row-by-row dot products (``np.vecdot``) and stacked
products such as ``(S, 1, d) @ (d, m)`` or per-matrix ``eigh``, never one
2-D product across the stack, whose rows BLAS may round differently
depending on ``S``. A single state is a stack of one. An objective of
several problems takes each row's problem too, and row ``s`` then depends
on its point and on its problem's constants alone: a stacked product
``(S, 1, d) @ (S, d, m)`` with each row's own matrix, which rounds as the
broadcast ``(S, 1, d) @ (d, m)`` does (``tests/test_incompatibility.py``
checks it). Seeds and the final
comparison use only ``values``. An objective whose value has a square-root
kink where a block of outcome probability vanishes (the fidelity pair
objective with a rank-deficient effect) returns a third item,
:class:`Faces`: each row's block probabilities, and the columns that
define each block. The face data travels in the return value, so a wrapper
that passes the result on, such as a timer, keeps it.

Restricting the search to pure states loses nothing for the objectives used
here: outcome distributions are affine in the density operator, the L1 and
Chebyshev distances are jointly convex in the pair of distributions and the
classical fidelity is jointly concave, so the extrema over the convex set
of states sit at its extreme points.
"""

from __future__ import annotations

import ctypes
import enum
import glob
import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import STATE_NORM_TOL, PureState, _svd
from .errors import ObjectiveNaNError, ParamOutOfRangeError, ValidationError


def _load_lbfgsb():
    """scipy's compiled L-BFGS-B extension, without importing ``scipy.optimize``.

    ``find_spec("scipy")`` locates the package without running its
    ``__init__``, and the extension is loaded from its directory under its
    own name, so a later ``import scipy.optimize`` finds it in
    ``sys.modules`` and there is one module object either way.
    """
    name = "scipy.optimize._lbfgsb"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("qincompat needs scipy for its compiled L-BFGS-B routine")
    finder = importlib.machinery.FileFinder(
        os.path.join(scipy.submodule_search_locations[0], "optimize"),
        (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.origin} has no compiled {name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


_lbfgsb = _load_lbfgsb()


def _load_lbfgsb_blas(libs: str):
    """A ctypes handle on scipy's OpenBLAS in ``libs`` (numpy's is another), or ``None``."""
    for path in glob.glob(os.path.join(libs, "libscipy_openblas-*")):
        try:
            blas = ctypes.CDLL(path)
            get, put = blas.scipy_openblas_get_num_threads, blas.scipy_openblas_set_num_threads
        except (OSError, AttributeError):
            return None
        get.argtypes, get.restype = (), ctypes.c_int
        put.argtypes, put.restype = (ctypes.c_int,), None
        return blas
    return None


_lbfgsb_blas = _load_lbfgsb_blas(os.path.dirname(_lbfgsb.__file__) + "/../../scipy.libs")
# The count is per process: concurrent searches share the pin, and the last one restores it.
_pin = {"searches": 0, "threads": 0}
_pin_lock = threading.Lock()

_ZERO_NORM_PENALTY = 1e6

# scipy's defaults for method="L-BFGS-B": stored corrections, line-search
# steps per iteration, and objective evaluations per run.
_MAXCOR = 10
_MAXLS = 20
_MAXFUN = 15000


# A block probability below this at a completed iteration, or at a start's
# first evaluation, marks a face the start is near, and the start is tried on
# that face. A larger threshold ends more of the crawl toward the face, but
# commits starts to faces their paths would have passed by, and more random
# starts end in lower local maxima (BENCH_early_faces.json).
FACE_TOL = 1e-6


class Faces(NamedTuple):
    """Where an objective's evaluated states are close to a face.

    ``probs`` is ``(S, B)``: the probability of each of the objective's
    ``B`` blocks at each evaluated row. Block ``b`` vanishes at a state psi
    exactly where ``psi @ columns[b] == 0``, so a face, a set of blocks, is
    the subspace on which all of them vanish. :func:`minimize` reads
    ``probs`` at each start's first evaluation and at each completed
    iteration, and ``columns`` only to build the projector of a face it
    tries. ``columns`` is any sequence of arrays: a pair objective passes
    one that slices each block's columns out of its column matrix only when
    an entry is read, by spans formed once per block structure, so an
    evaluation builds no per-block views. An objective of several problems
    gives ``columns`` per problem: a tuple whose entry ``p`` is problem
    ``p``'s sequence of block columns.
    """

    probs: np.ndarray
    columns: Sequence[np.ndarray]


def _face_projector(columns: Sequence[np.ndarray], blocks: tuple[int, ...]) -> np.ndarray | None:
    """The projector onto a face, in the real coordinates of :func:`minimize`.

    ``psi @ C = 0`` for the stacked columns ``C`` of the blocks puts psi
    orthogonal to the range of ``conj(C)``, so the face is spanned by the
    last left singular vectors of ``conj(C)``, with the rank cut of
    ``np.linalg.matrix_rank``. A complex basis vector ``b`` spans the real
    directions ``b`` and ``i b``; the projector on the interleaved real and
    imaginary parts is symmetric. ``None`` if the face is ``{0}``.
    """
    stacked = np.hstack([columns[b] for b in blocks]).conj()
    left, sing, _ = _svd(stacked, "a face")
    rank = int(np.count_nonzero(sing > sing.max() * max(stacked.shape) * np.finfo(float).eps))
    if rank == len(left):
        return None
    basis = left[:, rank:]
    real = np.ascontiguousarray(np.hstack((basis, 1j * basis)).T).view(np.float64)
    return real.T @ real


class LocalSearch(NamedTuple):
    """End points of a stack of L-BFGS-B runs, with each run's iteration and evaluation counts."""

    x: np.ndarray
    nits: np.ndarray
    nfevs: np.ndarray

    @property
    def nit(self) -> int:
        """The most iterations any start took."""
        return int(self.nits.max())

    @property
    def nfev(self) -> int:
        """The evaluations of all starts."""
        return int(self.nfevs.sum())


def minimize(fun, x0: np.ndarray, options: dict, problems: np.ndarray | None = None) -> LocalSearch:
    """Minimize ``fun`` over R^n with L-BFGS-B, unbounded, from each row of ``x0``.

    ``x0`` is an ``(S, n)`` stack of starts, and ``fun`` maps a ``(k, n)``
    stack of points to ``(values (k,), grads (k, n))``. Each start runs
    scipy's compiled routine ``setulb`` (Byrd, Lu, Nocedal & Zhu, SIAM J.
    Sci. Comput. 16, 1190 (1995)) in its own workspace, through the
    reverse-communication loop of ``scipy.optimize.minimize(fun, x0,
    method="L-BFGS-B", jac=True, options=options)``, with its defaults for
    everything but ``options``: ``maxiter``, ``ftol`` (relative reduction of
    ``f``) and ``gtol`` (largest gradient component). A start stops with
    the same codes after ``maxiter`` iterations or more than ``_MAXFUN``
    evaluations, and like scipy's ``ScalarFunction`` it keeps its last
    ``(x, f, grad)``, so a request at an unchanged ``x`` is not evaluated
    again. The starts advance in lockstep: each step advances every running
    start to its next request at a new point, and evaluates those points in
    one call of ``fun``. Each row of ``fun``'s result depends on that row's
    point alone, so each start's iterates, iterations and evaluations equal
    scipy's from the same start, bit for bit; ``tests/test_optimize.py``
    checks this against scipy itself.

    ``fun`` may also return a third item, :class:`Faces`, reading each row
    as the interleaved real and imaginary parts of a complex vector. When an
    iteration of a start completes at a point where some blocks have
    probability below ``FACE_TOL``, the start is evaluated at that point
    projected onto the face where those blocks and the blocks of its
    current face vanish, in the next step's call. If ``fun`` is no higher
    there, up to ``n`` eps of ``max(|f|, 1)``, the start's workspace
    restarts from the projected point, and from then on it is evaluated at
    ``P x`` with gradient ``P grad``, which is ``fun`` restricted to the
    face; otherwise it goes on as before. A square-root kink at a vanishing
    probability makes L-BFGS-B crawl toward the face; on the face the
    problem is smooth. A start whose first point is near a face, such as an
    eigenvector of the second measurement, first takes the step L-BFGS-B
    proposes, so a step that lowers ``fun`` carries it off the face as it
    would carry scipy's. Only if that step does not lower ``fun``, where
    the line search would go on backtracking at the kink, is the start tried
    on the face from its first point. A start that never meets a face
    follows scipy's iterates, a face whose only point is 0 is skipped, each
    face's projector is made once per call, and every evaluation, accepted
    or not, is counted.

    ``problems``, if given, is an ``(S,)`` array that assigns each start a
    problem, and ``fun(points, problems)`` then receives, with the points,
    the problem of each; its :class:`Faces` ``columns`` are a tuple with one
    entry per problem, and each face projector is made once per problem and
    face. Rows may depend on their problem's constants as well as on their
    point, so the starts of several searches of one shape advance in one
    lockstep, one call per step, and each start follows the same iterates
    as in a call of its problem alone. Without ``problems`` nothing is
    gathered per step. ``setulb``'s BLAS calls are too small to gain from
    threads, and waking them stalls each call for milliseconds while another
    process keeps a core busy, so scipy's OpenBLAS (:func:`_load_lbfgsb_blas`)
    runs on one thread until the last running search returns or raises.
    """
    blas = _lbfgsb_blas
    with _pin_lock:
        if blas is not None and not _pin["searches"]:
            _pin["threads"] = blas.scipy_openblas_get_num_threads()
            blas.scipy_openblas_set_num_threads(1)
        _pin["searches"] += 1
    try:
        return _lockstep(fun, x0, options, problems)
    finally:
        with _pin_lock:
            _pin["searches"] -= 1
            if blas is not None and not _pin["searches"]:
                blas.scipy_openblas_set_num_threads(_pin["threads"])


def _lockstep(fun, x0: np.ndarray, options: dict, problems: np.ndarray | None) -> LocalSearch:
    """The search of :func:`minimize`."""
    x = np.array(x0, dtype=np.float64)
    starts, n = x.shape
    m = _MAXCOR
    bounds = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    g = np.zeros((starts, n))
    tasks = np.zeros((starts, 2), np.int32)
    rows = list(zip(
        x,
        g,
        np.zeros((starts, 2 * m * n + 5 * n + 11 * m * m + 8 * m)),  # wa
        np.zeros((starts, 3 * n), np.int32),  # iwa
        tasks,
        np.zeros((starts, 4), np.int32),  # lsave
        np.zeros((starts, 44), np.int32),  # isave
        np.zeros((starts, 29)),  # dsave
        np.zeros((starts, 2), np.int32),  # ln_task
    ))
    codes = [memoryview(task) for task in tasks]  # code[0] reads a task code as an int
    setulb, maxls = _lbfgsb.setulb, _MAXLS
    factr = options["ftol"] / np.finfo(float).eps
    pgtol = options["gtol"]
    maxiter = options["maxiter"]
    # A start that begins on a face is compared with its own point projected
    # onto the face, whose value differs by round-off alone: up to 6 eps for
    # fidelity pairs at d <= 32.
    tie = n * np.finfo(float).eps
    # Per start: the last value and the point it was evaluated at, as a list
    # (list equality of floats is the elementwise == of scipy's cache check).
    f = [0.0] * starts
    at = [None] * starts
    nits = [0] * starts
    nfevs = [0] * starts
    # Per start: a mask of the blocks below FACE_TOL at its last evaluation
    # (None if none), and its face and that face's projector. A start whose
    # first evaluation is near a face keeps that face, value and point until
    # its second. A start to be tried on a face holds the face, the value it
    # may not exceed, the point to project, and the gradient to go on with.
    # A face's projector is made once per problem and face, and keyed by both.
    near = [None] * starts
    face = [()] * starts
    projector = [None] * starts
    owner = [None] * starts  # each start's problem; None for the one problem
    first = {}
    trial = {}
    projectors = {}
    columns = ()
    faced = False  # whether any start has restarted on a face
    if problems is not None:  # fun(points, problems): pass each pending row's problem
        stacked, problems = fun, np.asarray(problems)
        owner = problems.tolist()

        def fun(points):
            return stacked(points, problems[index])

    def face_to_try(i):
        """The key of start i's face joined with its blocks near 0, if that face is new, not {0}."""
        blocks = near[i].nonzero()[0].tolist()
        if face[i]:
            blocks = sorted(set(blocks).union(face[i]))
        blocks = tuple(blocks)
        if blocks == face[i]:
            return None
        key = owner[i], blocks
        if key not in projectors:
            own = columns if owner[i] is None else columns[owner[i]]
            projectors[key] = _face_projector(own, blocks)
        return key if projectors[key] is not None else None

    running = range(starts)
    while running:
        # Each start that asks for an evaluation at a new point, with that point as a list.
        pending, listed = [], []
        for i in running:
            xi, gi, wa, iwa, task, lsave, isave, dsave, ln_task = rows[i]
            if i in trial:  # to be tried on a face after its second evaluation
                pending.append(i)
                listed.append(xi.tolist())
                continue
            code = codes[i]
            while True:
                setulb(m, xi, bounds, bounds, nbd, f[i], gi, factr, pgtol, wa, iwa,
                       task, lsave, isave, dsave, maxls, ln_task)
                if code[0] == 3:  # FG: the routine asks for f and grad at x
                    point = xi.tolist()
                    if point != at[i]:
                        pending.append(i)
                        listed.append(point)
                        break
                elif code[0] == 1:  # NEW_X: an iteration is complete
                    nits[i] += 1
                    if nits[i] >= maxiter:
                        task[:] = 5, 504  # STOP: iteration limit
                    elif nfevs[i] > _MAXFUN:
                        task[:] = 5, 502  # STOP: evaluation limit
                    elif near[i] is not None and (key := face_to_try(i)):
                        trial[i] = key, f[i], xi.copy(), gi.copy()
                        pending.append(i)
                        listed.append(xi.tolist())
                        break
                else:  # converged, stopped, or abnormal
                    break
        if not pending:
            break
        index = np.array(pending)
        points = x.take(index, axis=0)
        # Each row's projector, only in a step where some start is on a face or tried on one.
        through = None
        if trial or faced:
            through = []
            for k, i in enumerate(pending):
                if i in trial:
                    points[k] = trial[i][2]
                    through.append(projectors[trial[i][0]])
                else:
                    through.append(projector[i])
            for k, proj in enumerate(through):
                if proj is not None:
                    points[k] = points[k] @ proj
        found = fun(points)
        values, grads = found[0], found[1]
        if through is not None:
            for k, proj in enumerate(through):
                if proj is not None:
                    grads[k] = grads[k] @ proj
        g[index] = grads
        faces = found[2] if len(found) > 2 else None
        if faces is not None:
            columns = faces.columns
        if through is None and not first and (faces is None or not faces.probs.min() < FACE_TOL):
            # No start is near a face, on one or tried on one: scipy's loop alone.
            for i, point, value in zip(pending, listed, values.tolist()):
                nfevs[i] += 1
                at[i], f[i], near[i] = point, value, None
            running = pending
            continue
        hits = [False] * len(pending)
        if faces is not None:
            small = faces.probs < FACE_TOL
            hits = small.any(axis=1).tolist()
        for k, (i, point, value) in enumerate(zip(pending, listed, values.tolist())):
            nfevs[i] += 1
            if i in trial:
                key, ref, _, before = trial.pop(i)
                if value - ref > tie * max(abs(ref), 1.0):  # higher on the face: go on as before
                    g[i] = before
                    continue
                face[i], projector[i], faced = key[1], through[k], True
                x[i] = points[k]
                point = points[k].tolist()
                for state in rows[i][2:]:
                    state[:] = 0  # task START: restart the workspace at x
            at[i], f[i] = point, value
            near[i] = small[k] if hits[k] else None
            if nfevs[i] == 1:
                if near[i] is not None and (key := face_to_try(i)):
                    first[i] = key, value, x[i].copy()
            elif i in first:  # the first point of its first line search
                key, ref, start = first.pop(i)
                if not value < ref:
                    trial[i] = key, ref, start, g[i].copy()
        running = pending
    for i, proj in enumerate(projector):
        if proj is not None:
            x[i] = x[i] @ proj
    return LocalSearch(x, np.array(nits), np.array(nfevs))


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class OptimizerConfig:
    """Search budget and reproducibility knobs for the multistart optimizer.

    The counts must be positive integers and ``rng_seed`` a non-negative
    integer (Python or numpy), checked here because a candidate state on a
    ceiling returns before any random start would reject them.
    """

    n_random_starts: int = 32
    max_iterations: int = 2000
    convergence_tol: float = 1e-10
    rng_seed: int = 0

    def __post_init__(self):
        counts = (self.n_random_starts, self.max_iterations)
        if not all(_is_integer(n) and n >= 1 for n in counts):
            raise ValidationError("optimizer counts must be positive integers")
        if not (_is_integer(self.rng_seed) and self.rng_seed >= 0):
            raise ValidationError(f"rng_seed must be a non-negative integer, got {self.rng_seed!r}")
        if not 0 < self.convergence_tol < np.inf:
            raise ValidationError("convergence tolerance must be positive and finite")


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
    states at which the objective was evaluated to obtain the value, and
    ``iterations`` the L-BFGS-B iterations of all its starts; both are 0 for
    an ``exact`` result, and ``iterations`` is 0 for a seed on a ceiling.
    """

    value: float
    argmax: PureState
    provenance: Provenance
    starts_used: int
    upper_bound: float | None = None
    evaluations: int = 0
    iterations: int = 0


def _checked(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ObjectiveNaNError(f"objective returned {values[~np.isfinite(values)][0]!r}")
    return values


Objective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def _folded_objective(objective: Objective, dim: int) -> Objective:
    """The function L-BFGS-B minimizes: ``-objective(z/|z|)`` on real coordinates.

    Each row's 2*dim coordinates interleave the real and imaginary parts of
    ``z``. The gradient folds in the normalization,
    ``-(grad - Re(v^H grad) v) / |z|`` at ``v = z/|z|``; a row whose norm
    is below 1e-12, or NaN, gets a constant penalty and zero gradient, and
    a non-finite objective value raises :class:`ObjectiveNaNError`. The
    objective's :class:`Faces`, if any, are passed on, with probability 1 in
    every block of a penalized row. A face of ``v`` is a face of ``z``,
    because the blocks vanish on a complex subspace. A stacked objective of
    :func:`_maximize_many` takes each row's problem as a second argument,
    and so does its folded form.
    """

    def negated(coords: np.ndarray, *problems: np.ndarray) -> tuple:
        # One pass, in ufuncs: ndarray.min and .all go through Python wrappers.
        norms = np.sqrt(np.vecdot(coords, coords))
        if not np.minimum.reduce(norms) >= 1e-12:  # a norm near zero, or NaN
            kept = norms >= 1e-12
            values = np.full(len(coords), _ZERO_NORM_PENALTY)
            grads = np.zeros_like(coords)
            if not kept.any():
                return values, grads
            found = negated(coords[kept], *(rows[kept] for rows in problems))
            values[kept], grads[kept] = found[:2]
            if len(found) == 2:
                return values, grads
            probs = np.ones((len(coords), found[2].probs.shape[1]))
            probs[kept] = found[2].probs
            return values, grads, found[2]._replace(probs=probs)
        norms = norms[:, None]
        vecs = coords.view(np.complex128) / norms
        found = objective(vecs, *problems)
        values, grad = found[0], found[1]
        if not np.logical_and.reduce(np.isfinite(values)):
            raise ObjectiveNaNError(f"objective returned {values[~np.isfinite(values)][0]!r}")
        along = np.vecdot(vecs, grad).real[:, None]  # Re(v^H grad), row by row
        folded = ((along * vecs - grad) / norms).view(np.float64)
        if len(found) == 2:
            return -values, folded
        return -values, folded, found[2]

    return negated


def maximize_over_pure_states(
    objective: Objective,
    dim: int,
    seeds: np.ndarray | Sequence[np.ndarray] = (),
    config: OptimizerConfig | None = None,
) -> OptResult:
    """Maximize ``objective`` over unit vectors in C^dim.

    ``objective`` receives an ``(S, dim)`` stack of unit ``complex128``
    amplitude vectors and returns ``(values, grads)`` as described in the
    module docstring; nothing is validated per evaluation. ``seeds`` are
    candidate states as unit rows, an ``(S, dim)`` array or a list of
    ``dim``-vectors, such as
    :func:`~qincompat.incompatibility.analytic_seed_states` returns; they
    are checked once, for shape and norm. Every seed is evaluated exactly,
    in one call, and they are ranked best first, ties in the given order.
    Then L-BFGS-B runs from each of the ``n_random_starts`` best seeds and from
    ``n_random_starts`` Haar-random starts. It works on the 2*dim real
    coordinates of an unnormalized ``z`` (real and imaginary parts
    interleaved, so ``z`` is a complex view of them), evaluates the
    objective at ``v = z/|z|`` and folds the normalization into the
    gradient, ``(grad - Re(v^H grad) v) / |z|``. Refining seeds as well
    matters because a gradient search only climbs its own basin: from 4
    random starts alone it ended below the best known value in about one
    Lueders fidelity search in ten, and never once the 4 best seeds were
    refined too (900 searches at d=2,3). All starts are one call of
    :func:`minimize`, which advances them in lockstep with one objective
    call per step; each start follows the iterates of
    ``scipy.optimize.minimize(method="L-BFGS-B")`` from it, bit for bit,
    unless the objective reports :class:`Faces` and the start comes within
    ``FACE_TOL`` of one. It then finishes on the face, where the objective
    is smooth, instead of crawling into the square-root kink: there the
    value error scales as the square root of the vanishing probability, and
    a random start of a random observable pair took about 70 iterations to
    bring it to round-off.

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
    at a nonzero vector, ``evaluations`` every state evaluated (the seeds,
    each start's evaluations, including its trials on faces, and the exact
    re-evaluation of each nonzero end point, in one call), and
    ``iterations`` the iterations of all starts. Raises
    :class:`ObjectiveNaNError` if the objective returns a non-finite value
    at any probed state.
    """
    if dim < 2:
        raise ParamOutOfRangeError("dimension must be at least 2")
    return _maximize_many(objective, dim, [_checked_seeds(seeds, dim)], config, stacked=False)[0]


def _checked_seeds(seeds, dim: int) -> np.ndarray:
    """``seeds`` as an ``(S, dim)`` complex array, checked for shape and unit norm."""
    seeds = np.asarray(seeds, dtype=np.complex128)
    if seeds.size == 0:
        seeds = seeds.reshape(0, dim)
    if seeds.shape[1:] != (dim,) or not np.all(
        np.abs(np.vecdot(seeds, seeds).real - 1.0) <= STATE_NORM_TOL
    ):
        raise ValidationError(f"seeds must be unit vectors of length {dim}, as rows")
    return seeds


def _maximize_many(
    objective, dim: int, seed_sets: Sequence, config: OptimizerConfig | None, stacked: bool = True
) -> list[OptResult]:
    """:func:`maximize_over_pure_states` for several problems of one stacked objective.

    ``objective(vecs, problems)`` evaluates each row of the ``(S, dim)``
    stack ``vecs`` for the problem that ``problems``, an ``(S,)`` array of
    indices into ``seed_sets``, gives it, and returns what a one-problem
    objective returns, with :class:`Faces` columns per problem. Row ``s`` of
    the result may depend on row ``s`` and its problem alone, bit for bit.
    Each seed set must be an ``(S, dim)`` ``complex128`` array of unit rows,
    as the package forms them, and ``dim`` at least 2: neither is checked
    here, where :func:`maximize_over_pure_states` has checked its own.
    Each problem's seeds are evaluated, ranked and refined, with the same
    random starts, as :func:`maximize_over_pure_states` would, and all
    starts of all problems are one :func:`minimize` call, with one
    objective call per step; each problem's end points merge in the same
    order. So result ``p`` equals, bit for bit, a separate search of
    problem ``p`` from ``seed_sets[p]`` with ``config``. With ``stacked``
    False the objective takes ``vecs`` alone, there is one seed set, and
    :func:`minimize` runs without problems: the search of
    :func:`maximize_over_pure_states`.
    """
    cfg = config if config is not None else OptimizerConfig()
    if stacked:
        evaluate = objective
    else:
        def evaluate(vecs, problems):
            return objective(vecs)

    n = cfg.n_random_starts
    seeds = seed_sets[0] if len(seed_sets) == 1 else np.concatenate(seed_sets)
    seed_problems = np.repeat(np.arange(len(seed_sets)), [len(rows) for rows in seed_sets])
    values = _checked(evaluate(seeds, seed_problems)[0]) if len(seeds) else np.empty(0)
    # Per problem: the best value, its vector and provenance, and the seeds to refine.
    best, refined, lo = [], [], 0
    for rows in seed_sets:
        own, lo = values[lo:lo + len(rows)], lo + len(rows)
        ranked = rows[np.argsort(-own, kind="stable")]
        top = (own.max(), ranked[0]) if len(rows) else (-np.inf, None)
        best.append([*top, Provenance.ANALYTIC_SEED])
        refined.append(ranked[:n].view(np.float64))

    randoms = np.random.default_rng(cfg.rng_seed).standard_normal((n, 2 * dim))
    starts = np.vstack([part for rows in refined for part in (rows, randoms)])
    # Per problem: its first start, its first random start and its end, in the stack.
    spans, lo = [], 0
    for rows in refined:
        spans.append((lo, lo + len(rows), lo + len(rows) + n))
        lo = spans[-1][2]
    owner = [p for p, (first, _, end) in enumerate(spans) for _ in range(first, end)]
    problems = np.array(owner)
    options = {
        "maxiter": cfg.max_iterations,
        "ftol": cfg.convergence_tol * 1e-5,
        "gtol": 1e-12,
    }
    fun = _folded_objective(objective, dim)
    if stacked:
        result = minimize(fun, starts, options=options, problems=problems)
    else:
        result = minimize(fun, starts, options=options)
    norms = np.sqrt(np.vecdot(result.x, result.x))  # one dot product per row
    kept = norms >= 1e-12
    vecs = result.x[kept].view(np.complex128) / norms[kept, None]
    values = _checked(evaluate(vecs, problems[kept])[0]).tolist() if len(vecs) else ()
    # The merge reads Python floats and ints, not a numpy scalar or .sum() per start or problem.
    for k, (row, value) in enumerate(zip(np.flatnonzero(kept).tolist(), values)):
        entry = best[owner[row]]
        if value > entry[0]:
            seeded = row < spans[owner[row]][1]
            entry[:] = value, vecs[k], Provenance.ANALYTIC_SEED if seeded else Provenance.RANDOM_START
    kept, nfevs, nits = kept.tolist(), result.nfevs.tolist(), result.nits.tolist()

    results = []
    for (value, vec, provenance), rows, (lo, mid, hi) in zip(best, seed_sets, spans):
        if vec is None:  # pragma: no cover - requires every start to collapse to 0
            raise ObjectiveNaNError("no valid state was probed")
        results.append(OptResult(
            value=float(value),
            argmax=PureState._trusted(vec.copy()),  # not a view that keeps every end point
            provenance=provenance,
            starts_used=sum(kept[mid:hi]),
            evaluations=len(rows) + sum(nfevs[lo:hi]) + sum(kept[lo:hi]),
            iterations=sum(nits[lo:hi]),
        ))
    return results
