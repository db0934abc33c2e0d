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
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

from .core import (
    HermitianObservable,
    Instrument,
    Povm,
    PureState,
    canonical_instrument,
    hermiticity_defect,
    max_abs,
    measurement_effects,
)
from .constructions import (
    computational_observable,
    fourier_mub_pair,
    random_observable,
)
from .errors import DimensionMismatchError, NumericalFailureError, ParamOutOfRangeError
from .optimize import (
    Objective,
    OptimizerConfig,
    OptResult,
    Provenance,
    maximize_over_pure_states,
    rank_seeds,
)

BOUND_SLACK = 1e-8
# Above this many outcomes of the second measurement the exact L1 path would
# solve more than 2^11 eigenproblems, and the multistart search runs instead.
EXACT_L1_MAX_OUTCOMES = 12
# A seed within this distance of a proven ceiling is taken as the supremum,
# and the multistart search is skipped.
CEILING_TOL = 1e-12


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


def _solve(solver, mat: np.ndarray, what: str):
    """Run a dense decomposition, reporting non-convergence as NumericalFailureError."""
    try:
        return solver(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"decomposition of {what} did not converge") from exc


def _effect_factors(meas) -> tuple[np.ndarray, np.ndarray]:
    """Columns W with E_j = sum over its block of |w><w|, plus block start offsets.

    Observables factor exactly through their stored eigenbasis; POVM
    elements factor through their eigendecompositions with round-off
    negatives clamped. Evaluating probabilities as sums of |<w|psi>|^2
    keeps near-zero outcomes at the square of the round-off level, which
    matters because the fidelity distance takes square roots of them.
    """
    if isinstance(meas, HermitianObservable):
        offsets = np.cumsum((0,) + meas.ranks[:-1])
        return meas.basis, offsets
    columns: list[np.ndarray] = []
    offsets = []
    dim = meas.dim
    for effect in measurement_effects(meas):
        offsets.append(sum(c.shape[1] for c in columns))
        eigvals, eigvecs = _solve(np.linalg.eigh, effect, "a POVM effect")
        keep = eigvals > 1e-14
        if not np.any(keep):
            columns.append(np.zeros((dim, 1), dtype=np.complex128))
        else:
            columns.append(eigvecs[:, keep] * np.sqrt(eigvals[keep]))
    return np.hstack(columns), np.asarray(offsets)


# Square roots of block probabilities are floored before dividing by them.
# A block whose p_j underflows to 0 has amplitudes below 1e-161, so its
# floored weight times those amplitudes is 0 up to round-off.
_ROOT_FLOOR = 1e-150


def _fidelity_weights(sums: np.ndarray) -> tuple[float, np.ndarray]:
    """1 - F^2 with F = sum_j sqrt(p_j q_j), and twice its derivative in p and q.

    ``sums`` holds p in row 0 and q in row 1. Where p_j = 0 the derivative
    dF/dp_j = sqrt(q_j / p_j) / 2 is infinite, but every amplitude of that
    block vanishes, so the block adds nothing to the gradient (and likewise
    for q_j).
    """
    root = np.sqrt(sums)
    fid = float(root[1] @ root[0])
    return 1.0 - fid * fid, (-2.0 * fid) * (root[::-1] / np.maximum(root, _ROOT_FLOOR))


_SIGNS = np.array([[-1.0], [1.0]])


def _l1_weights(sums: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_j |q_j - p_j| / 2 and twice its derivative in p and q."""
    diff = sums[1] - sums[0]
    return float(0.5 * np.abs(diff).sum()), _SIGNS * np.sign(diff)


def _chebyshev_weights(sums: np.ndarray) -> tuple[float, np.ndarray]:
    """max_j |q_j - p_j| and twice its derivative in p and q at the arg-max outcome."""
    diff = sums[1] - sums[0]
    j = int(np.argmax(np.abs(diff)))
    weights = np.zeros_like(sums)
    weights[:, j] = 2.0 * np.sign(diff[j]) * _SIGNS[:, 0]
    return float(abs(diff[j])), weights


_WEIGHTS: dict[Measure, Callable[[np.ndarray], tuple[float, np.ndarray]]] = {
    Measure.L1: _l1_weights,
    Measure.FIDELITY: _fidelity_weights,
    Measure.LINF: _chebyshev_weights,
}


def pair_distance_objective(measure: Measure, first, second) -> Objective:
    """State objective: distance between second's statistics with and without first.

    The objective takes a unit ``complex128`` amplitude vector psi of shape
    ``(dim,)``, does not validate it, and returns the distance and its
    gradient (the contract of :mod:`qincompat.optimize`); pass
    ``state.amplitudes`` to evaluate a :class:`PureState`. With W the
    columns factoring second's effects (E_j = sum of |w><w| over block j)
    and K_k the Kraus operators of first's canonical instrument, one column
    matrix ``cols = [conj(W) | K_k^T conj(W) for every k]`` is built per
    ordered pair, grouped by outcome, so ``amp = psi @ cols`` holds every
    <w|psi> and <w|K_k psi>. The undisturbed and sequential probabilities
    p_j and q_j are sums of |amp|^2 over blocks, one ``np.add.reduceat``,
    so both stay exactly nonnegative and match the public distribution
    functions up to round-off. The gradient is
    ``conj(cols) @ (weights * amp)``, with each column weighted by twice the
    derivative of the distance in its block's probability.
    """
    inst = canonical_instrument(first)
    factors, offsets = _effect_factors(second)
    if inst.dim != factors.shape[0]:
        raise DimensionMismatchError(
            f"dimensions differ: {inst.dim} vs {factors.shape[0]}"
        )
    kraus = inst.kraus_flat()
    factors_conj = factors.conj()
    blocks = np.split(factors_conj, offsets[1:], axis=1)
    cols = np.hstack([factors_conj] + [k.T @ block for block in blocks for k in kraus])
    cols_conj = cols.conj()
    sizes = np.array([block.shape[1] for block in blocks])
    widths = np.concatenate((sizes, len(kraus) * sizes))
    starts = np.cumsum(widths) - widths
    column_block = np.repeat(np.arange(widths.size), widths)
    weigh = _WEIGHTS[measure]

    def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
        amp = vec @ cols
        sums = np.add.reduceat(np.abs(amp) ** 2, starts).reshape(2, -1)
        value, weights = weigh(sums)
        return value, cols_conj @ (weights.ravel()[column_block] * amp)

    return objective


def _disturbance_objective(measure: Measure, inst: Instrument) -> Objective:
    """State objective of :func:`maximal_disturbance`, with its gradient.

    With a_k = <psi|K_k|psi>, the fidelity objective is 1 - sum_k |a_k|^2
    and its gradient -2 sum_k (conj(a_k) K_k psi + a_k K_k^dag psi). The L1
    objective is half the trace norm of M = sum_k K_k|psi><psi|K_k^dag -
    |psi><psi|; with S = sign(M) from the same ``eigh``, its gradient is
    sum_k K_k^dag S K_k psi - S psi.
    """
    kraus = np.stack(inst.kraus_flat())
    n, dim, _ = kraus.shape
    adjoints = kraus.conj().transpose(0, 2, 1)
    if measure is Measure.FIDELITY:
        both = np.concatenate((kraus, adjoints)).reshape(2 * n * dim, dim)

        def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
            images, adj_images = (both @ vec).reshape(2, n, dim)
            amps = images @ vec.conj()
            total = float((np.abs(amps) ** 2).sum())
            grad = -2.0 * (amps.conj() @ images + amps @ adj_images)
            return 1.0 - float(np.clip(total, 0.0, 1.0)), grad

    elif measure is Measure.L1:
        rows = kraus.reshape(n * dim, dim)
        adjoint_row = np.hstack(list(adjoints))

        def objective(vec: np.ndarray) -> tuple[float, np.ndarray]:
            images = (rows @ vec).reshape(n, dim)
            diff = images.T @ images.conj() - np.outer(vec, vec.conj())
            lam, vecs = _solve(np.linalg.eigh, diff, "a state difference")
            sign = (vecs * np.sign(lam)) @ vecs.conj().T
            grad = adjoint_row @ (images @ sign.T).ravel() - sign @ vec
            return float(0.5 * np.abs(lam).sum()), grad

    else:
        raise ParamOutOfRangeError("disturbance is defined for the L1 and fidelity measures")
    return objective


def _add_seed(seeds: list[PureState], state: PureState) -> None:
    for existing in seeds:
        if existing.dim == state.dim and existing.overlap(state) > 1.0 - 1e-9:
            return
    seeds.append(state)


def _basis_seed_family(seeds: list[PureState], columns: np.ndarray) -> None:
    for col in columns.T:
        _add_seed(seeds, PureState.normalized(col))
    if columns.shape[1] > 1:
        _add_seed(seeds, PureState.normalized(columns.sum(axis=1)))


def analytic_seed_states(meas) -> list[PureState]:
    """Candidate extremal states for suprema involving a measurement.

    Observables contribute every eigenvector, the uniform superposition of
    the full eigenbasis, and the uniform superposition of one representative
    vector per eigenspace (the state that equidistributes probability over
    the distinct outcomes of a degenerate spectrum). POVMs and instruments
    contribute the eigenbases of their effects and Kraus operators plus the
    same superpositions.
    """
    seeds: list[PureState] = []
    if isinstance(meas, HermitianObservable):
        _basis_seed_family(seeds, meas.basis)
        if meas.n_outcomes > 1:
            _add_seed(seeds, _eigenspace_superposition(meas))
        return seeds
    if isinstance(meas, Povm):
        for elem in meas.elements:
            _, vecs = _solve(np.linalg.eigh, elem, "a POVM element")
            _basis_seed_family(seeds, vecs)
        return seeds
    if isinstance(meas, Instrument):
        for kraus in meas.kraus_flat():
            _basis_seed_family(seeds, _normal_basis(kraus))
        return seeds
    raise TypeError(f"cannot derive seed states from {type(meas).__name__}")


def _eigenspace_superposition(obs: HermitianObservable) -> PureState:
    """Uniform superposition of one eigenvector per eigenspace of an observable."""
    reps = np.stack([obs.basis[:, sl.start] for sl in obs.block_slices()], axis=1)
    return PureState.normalized(reps.sum(axis=1))


def _normal_basis(kraus: np.ndarray) -> np.ndarray:
    """Orthonormal basis adapted to a Kraus operator's invariant directions."""
    if hermiticity_defect(kraus) <= 1e-9:
        _, vecs = _solve(np.linalg.eigh, (kraus + kraus.conj().T) / 2.0, "a Kraus operator")
        return vecs
    commut = kraus @ kraus.conj().T - kraus.conj().T @ kraus
    if max_abs(commut) <= 1e-9:
        _, vecs = _solve(
            lambda k: scipy.linalg.schur(k, output="complex"), kraus, "a Kraus operator"
        )
        return vecs
    _, vecs = _solve(np.linalg.eigh, kraus.conj().T @ kraus, "a Kraus operator")
    return vecs


def _heralded_differences(first, second) -> np.ndarray:
    """Stack of D_j = sum_k K_k^dag E_j K_k - E_j, one per outcome of second.

    The K_k are the Kraus operators of first's canonical instrument and the
    E_j second's effects, so the sequential and plain outcome probabilities
    of a state psi differ by q_j - p_j = <psi|D_j|psi>. The D_j are Hermitian
    up to round-off; the eigensolvers read only their lower triangles.
    """
    kraus = np.stack(canonical_instrument(first).kraus_flat())
    effects = np.stack(measurement_effects(second))
    if kraus.shape[1] != effects.shape[1]:
        raise DimensionMismatchError(
            f"dimensions differ: {kraus.shape[1]} vs {effects.shape[1]}"
        )
    kraus_adj = kraus.conj().transpose(0, 2, 1)
    heralded = (kraus_adj[None] @ effects[:, None] @ kraus[None]).sum(axis=1)
    return heralded - effects


def _exact_directional(measure: Measure, first, second) -> OptResult:
    """Q_inf or Q_1 from the spectra of the D_j.

    Q_inf is the largest |eigenvalue| of any D_j. Because the D_j sum to
    zero, half the L1 distance is the largest sum of q_j - p_j over a subset
    of outcomes (Helstrom's event form of total variation), so Q_1 is the
    largest eigenvalue of any subset sum. A subset holding the last outcome
    is the negated complement of one that does not, so the 2^(n-1) sums of
    D_1..D_{n-1} cover every subset through their extreme eigenvalues.
    """
    diff = _heralded_differences(first, second)
    n, dim, _ = diff.shape
    if measure is Measure.L1:
        masks = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
        sums = (masks @ diff[: n - 1].reshape(n - 1, dim * dim)).reshape(-1, dim, dim)
        lam = _solve(np.linalg.eigvalsh, sums, "the subset sums")
        best = int(np.argmax(np.maximum(lam[:, -1], -lam[:, 0])))
        candidates = sums[best : best + 1]
    else:
        candidates = diff
    lam, vecs = _solve(np.linalg.eigh, candidates, "the outcome differences")
    top, bottom = lam[:, -1], -lam[:, 0]
    j = int(np.argmax(np.maximum(top, bottom)))
    if top[j] >= bottom[j]:
        value, vec = top[j], vecs[j, :, -1]
    else:
        value, vec = bottom[j], vecs[j, :, 0]
    return OptResult(
        value=float(value),
        argmax=PureState.normalized(vec),
        provenance=Provenance.EXACT,
        starts_used=0,
    )


def directional_incompatibility(
    measure: Measure,
    first,
    second,
    config: OptimizerConfig | None = None,
    extra_seeds: Iterable[PureState] = (),
) -> OptResult:
    """Supremum over states of the chosen distance between second's statistics
    with and without a preceding measurement of first.

    Observables act through their eigenprojector instrument, POVMs through
    their positive-square-root instrument. The Chebyshev value, and the L1
    value when second has at most ``EXACT_L1_MAX_OUTCOMES`` outcomes, are
    exact suprema computed from eigenvalues, with provenance ``exact``; they
    ignore ``config`` and ``extra_seeds``. Otherwise the value is an exact
    evaluation at the best state found by the seeded multistart search and
    hence a lower bound on the supremum; the default seed set contains every
    state at which the known closed-form values are attained.

    The seeds are evaluated first. If first has a proven ceiling (1 - 1/r
    for an observable with r distinct eigenvalues, its maximal disturbance;
    1 - 1/N for an N-outcome POVM under the fidelity measure) and the best
    seed comes within ``CEILING_TOL`` of it, that seed is the supremum up to
    round-off and is returned with ``starts_used=0`` and no search.
    """
    if measure is Measure.LINF or (
        measure is Measure.L1 and second.n_outcomes <= EXACT_L1_MAX_OUTCOMES
    ):
        return _exact_directional(measure, first, second)
    objective = pair_distance_objective(measure, first, second)
    seeds = analytic_seed_states(first)
    for state in analytic_seed_states(second):
        _add_seed(seeds, state)
    for state in extra_seeds:
        _add_seed(seeds, state)
    ceiling = _proven_ceiling(measure, first)
    if ceiling is not None:
        value, state = rank_seeds(objective, seeds)[0]
        if value >= ceiling - CEILING_TOL:
            return OptResult(value, state, Provenance.ANALYTIC_SEED, starts_used=0)
    return maximize_over_pure_states(objective, first.dim, seeds, config)


def _proven_ceiling(measure: Measure, first) -> float | None:
    """An upper bound on the L1 or fidelity value of Q(first -> B) for every B.

    For an observable it is its maximal disturbance, which bounds every
    directional value; for a POVM under the fidelity measure it is the
    outcome bound of its Lueders instrument. Elsewhere none is known.
    """
    if isinstance(first, HermitianObservable):
        return closed_form("degenerate_disturbance", n_distinct=first.n_outcomes)
    if isinstance(first, Povm) and measure is Measure.FIDELITY:
        return closed_form("luders_fidelity_max", n_outcomes=first.n_outcomes)
    return None


def maximal_disturbance(
    measure: Measure,
    meas,
    config: OptimizerConfig | None = None,
    extra_seeds: Iterable[PureState] = (),
) -> OptResult:
    """Largest distance, over states, between a state and its post-measurement image.

    For the L1 measure this is the supremum of the trace distance between
    Phi(rho) and rho; for the fidelity measure it is 1 - (inf F)^2, realized
    as the supremum of 1 - F^2 over pure states. The Chebyshev measure has
    no disturbance analogue here.

    For an observable with r distinct eigenvalues both values are exactly
    1 - 1/r, attained at the uniform superposition of one eigenvector per
    eigenspace; they are returned with provenance ``exact``, ignoring
    ``config`` and ``extra_seeds``. Proof: write psi = sum_k sqrt(p_k) e_k
    with e_k a unit vector in the k-th eigenspace. The fidelity objective
    is 1 - sum_k p_k^2 <= 1 - 1/r by Cauchy-Schwarz. In the span of the
    e_k, Phi(psi) - psi is diag(p) - sqrt(p) sqrt(p)^T: traceless, with one
    negative eigenvalue -t, so its trace distance is t, the root of
    sum_k p_k / (p_k + t) = 1. Each term is concave in p_k, so by Jensen the
    sum is at most r / (1 + r t), which gives t <= 1 - 1/r, with equality
    at uniform p. POVMs and instruments are searched from seeds.
    """
    if isinstance(meas, HermitianObservable) and measure is not Measure.LINF:
        return OptResult(
            value=closed_form("degenerate_disturbance", n_distinct=meas.n_outcomes),
            argmax=_eigenspace_superposition(meas),
            provenance=Provenance.EXACT,
            starts_used=0,
        )
    inst = canonical_instrument(meas)
    objective = _disturbance_objective(measure, inst)
    seeds = analytic_seed_states(meas)
    if not isinstance(meas, Instrument):
        for state in analytic_seed_states(inst):
            _add_seed(seeds, state)
    for state in extra_seeds:
        _add_seed(seeds, state)
    return maximize_over_pure_states(objective, meas.dim, seeds, config)


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
    """Both directions of a pair's incompatibility plus applicable bounds."""

    measure: Measure
    forward: OptResult
    backward: OptResult
    bound_checks: tuple[BoundCheck, ...] = ()

    @property
    def symmetric(self) -> float:
        """The symmetric value (forward + backward) / 4."""
        return (self.forward.value + self.backward.value) / 4.0

    @property
    def upper_bounds(self) -> tuple[tuple[str, float], ...]:
        return tuple((c.name, c.bound) for c in self.bound_checks)

    @property
    def bound_violations(self) -> tuple[BoundCheck, ...]:
        return tuple(c for c in self.bound_checks if not c.satisfied)

    @property
    def gap_unknown(self) -> bool:
        """True when the values may fall short of the suprema: they are not both
        exact, and no computed value sits on one of its bounds, in which case
        the local search cannot certify that the supremum was reached."""
        if self.forward.provenance is self.backward.provenance is Provenance.EXACT:
            return False
        return not any(
            abs(c.measured - c.bound) <= BOUND_SLACK for c in self.bound_checks
        )


def check_bounds(
    report: IncompatReport,
    first,
    second,
    config: OptimizerConfig | None = None,
) -> tuple[BoundCheck, ...]:
    """Evaluate every bound applicable to a pair report.

    The disturbance bound of an observable is its exact value 1 - 1/r (see
    :func:`maximal_disturbance`). For a POVM or instrument it is searched,
    seeded with the report's own maximizers, which makes the ordering
    ``incompatibility <= disturbance`` hold state-by-state and not just in
    the limit of perfect optimization.
    """
    checks: list[BoundCheck] = []
    dim = first.dim
    if report.measure is Measure.FIDELITY:
        dim_bound = 1.0 - 1.0 / dim
        if isinstance(first, HermitianObservable):
            checks.append(BoundCheck("fidelity-dim-forward", dim_bound, report.forward.value))
        if isinstance(second, HermitianObservable):
            checks.append(BoundCheck("fidelity-dim-backward", dim_bound, report.backward.value))
        if isinstance(first, HermitianObservable) and isinstance(second, HermitianObservable):
            checks.append(
                BoundCheck("fidelity-dim-symmetric", 0.5 * dim_bound, report.symmetric)
            )
        if isinstance(first, Povm):
            checks.append(
                BoundCheck(
                    "luders-outcomes-forward",
                    1.0 - 1.0 / first.n_outcomes,
                    report.forward.value,
                )
            )
        if isinstance(second, Povm):
            checks.append(
                BoundCheck(
                    "luders-outcomes-backward",
                    1.0 - 1.0 / second.n_outcomes,
                    report.backward.value,
                )
            )
    disturbance_kind = Measure.FIDELITY if report.measure is Measure.FIDELITY else Measure.L1
    dist_first = maximal_disturbance(
        disturbance_kind, first, config, extra_seeds=(report.forward.argmax,)
    )
    dist_second = maximal_disturbance(
        disturbance_kind, second, config, extra_seeds=(report.backward.argmax,)
    )
    checks.append(BoundCheck("disturbance-forward", dist_first.value, report.forward.value))
    checks.append(BoundCheck("disturbance-backward", dist_second.value, report.backward.value))
    return tuple(checks)


def pair_incompatibility(
    measure: Measure,
    first,
    second,
    config: OptimizerConfig | None = None,
    with_bounds: bool = True,
) -> IncompatReport:
    """Both directional values and the symmetric average (forward + backward) / 4."""
    forward = directional_incompatibility(measure, first, second, config)
    backward = directional_incompatibility(measure, second, first, config)
    report = IncompatReport(measure=measure, forward=forward, backward=backward)
    if with_bounds:
        report = replace(report, bound_checks=check_bounds(report, first, second, config))
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
      eigenvectors and unbiased on the rest.
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
    if name == "fidelity_directional_max":
        d = int(params["d"])
        if d < 2:
            raise ParamOutOfRangeError("d must be at least 2")
        return 1.0 - 1.0 / d
    if name == "fidelity_shared_eigenvectors":
        d, d_c = int(params["d"]), int(params["d_c"])
        if d < 2 or not 0 <= d_c <= d - 1:
            raise ParamOutOfRangeError("need d >= 2 and 0 <= d_c <= d - 1")
        return 0.5 * (1.0 - 1.0 / (d - d_c))
    if name == "luders_fidelity_max":
        n = int(params["n_outcomes"])
        if n < 1:
            raise ParamOutOfRangeError("n_outcomes must be at least 1")
        return 1.0 - 1.0 / n
    n = int(params["n_distinct"])
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
    """Evidence from a randomized scan of the symmetric L1 / Chebyshev values.

    The threshold is (1 - 1/d) / 2 + 1e-8, the conjectured ceiling; rows
    above it are collected as counterexamples rather than raising, since the
    question is open. A row whose ``is_exact`` holds carries the symmetric
    supremum itself, so if it is flagged it is a counterexample up to
    eigensolver round-off; any other row is a lower bound.
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
    """Probe Haar-random non-degenerate pairs for symmetric values above (1 - 1/d)/2.

    Each row's value comes from :func:`directional_incompatibility` in both
    directions, so it is exact whenever both directions are (always for the
    Chebyshev measure, and for L1 up to ``EXACT_L1_MAX_OUTCOMES`` outcomes);
    each row records the provenance of its two directions.

    Injected fixtures (``"mub"``, ``"commuting"``) occupy the first trial
    slots with the sentinel seed -1; random trials record the integer seed
    that regenerates the pair, so any row can be reproduced in isolation.
    """
    if measure not in (Measure.L1, Measure.LINF):
        raise ParamOutOfRangeError("the scan covers the L1 and Chebyshev measures only")
    if n_trials < 1:
        raise ParamOutOfRangeError("need at least one trial")
    threshold = 0.5 * (1.0 - 1.0 / dim) + 1e-8
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
        rng = np.random.default_rng(seed)
        obs_a = random_observable(dim, rng)
        obs_b = random_observable(dim, rng)
        record(trial, seed, obs_a, obs_b)
        trial += 1
    return ScanReport(measure=measure, dim=dim, threshold=threshold, rows=tuple(rows))


def commuting_fixture(dim: int) -> tuple[HermitianObservable, HermitianObservable]:
    """A canonical fully commuting non-degenerate pair (both diagonal)."""
    obs_a = computational_observable(dim)
    values = np.arange(1.0, dim + 1.0) ** 2
    obs_b = HermitianObservable.from_eigensystem(values, np.eye(dim, dtype=np.complex128))
    return obs_a, obs_b
