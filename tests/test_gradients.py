"""The search objectives: analytic gradients against central differences,
and the pointwise ordering of the pair and disturbance objectives."""

import numpy as np
import pytest

from qincompat import (
    Instrument,
    Measure,
    apply_instrument,
    canonical_instrument,
    luders_from_povm,
    outcome_distribution,
    pair_distance_objective,
    random_observable,
    random_povm,
    random_pure_state,
    random_unitary,
    sequential_distribution,
    trine_povm,
)
from qincompat.incompatibility import _disturbance_objective

STEP = 1e-6
RTOL = 1e-6
# Every quantity an objective takes a square root, an absolute value or a
# maximum of must stay this far from its kink at the probed state; a step of
# STEP moves those quantities by about 1e-6.
MARGIN = 1e-3
DIMS = (2, 3, 4, 5)
PAIR_MEASURES = (Measure.FIDELITY, Measure.L1, Measure.LINF)
FIRST_KINDS = ("observable", "povm", "instrument")


def _mixing_instrument(dim, rng):
    """Three outcomes with two Kraus operators each: rotated halves of Lueders roots."""
    roots = luders_from_povm(random_povm(dim, 3, rng)).kraus
    return Instrument(
        tuple(
            tuple(random_unitary(dim, rng) @ root / np.sqrt(2.0) for _ in range(2))
            for root in roots
        )
    )


def _first_measurement(kind, dim, rng):
    if kind == "observable":
        return random_observable(dim, rng)
    if kind == "povm":
        return random_povm(dim, 3, rng)
    return _mixing_instrument(dim, rng)


def _pair_kink_distance(measure, first, second, state):
    p = np.asarray(outcome_distribution(second, state.density()))
    q = np.asarray(sequential_distribution(first, second, state.density()))
    if measure is Measure.FIDELITY:
        return min(p.min(), q.min())
    gaps = np.sort(np.abs(q - p))
    if measure is Measure.L1:
        return gaps[0]
    return gaps[-1] - gaps[-2]


def _disturbance_kink_distance(measure, inst, state):
    if measure is Measure.FIDELITY:
        amps = [state.amplitudes.conj() @ k @ state.amplitudes for k in inst.kraus]
        return 1.0 - sum(abs(a) ** 2 for a in amps)
    rho = state.density()
    diff = apply_instrument(inst, rho).matrix - rho.matrix
    return np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)).min()


def _state_away_from_kinks(rng, dim, kink_distance):
    for _ in range(100):
        state = random_pure_state(dim, rng)
        if kink_distance(state) > MARGIN:
            return state.amplitudes
    raise AssertionError("no probe state away from the kinks")


def _central_difference(objective, vec):
    """Complex g with df = Re(g^H dv), one real and one imaginary step per entry.

    All 4 * dim probe states are one stack.
    """
    steps = STEP * np.concatenate((np.eye(vec.size), 1j * np.eye(vec.size)))
    values = objective(np.concatenate((vec + steps, vec - steps)))[0]
    slopes = (values[: len(steps)] - values[len(steps) :]) / (2.0 * STEP)
    return slopes[: vec.size] + 1j * slopes[vec.size :]


def _assert_exact_gradient(objective, vec):
    values, grads = objective(vec[None])
    assert values.dtype == np.float64 and values.shape == (1,)
    assert grads.dtype == np.complex128 and grads.shape == (1, vec.size)
    grad = grads[0]
    numeric = _central_difference(objective, vec)
    assert np.abs(grad - numeric).max() <= RTOL * np.abs(numeric).max()
    # The objectives ignore the global phase, so the gradient has no component along i*v.
    assert abs(np.vdot(vec, grad).imag) <= 1e-12


@pytest.mark.parametrize("kind", FIRST_KINDS)
@pytest.mark.parametrize("measure", PAIR_MEASURES, ids=lambda m: m.name)
def test_pair_objective_gradient(measure, kind):
    rng = np.random.default_rng([7, PAIR_MEASURES.index(measure), FIRST_KINDS.index(kind)])
    for dim in DIMS:
        first = _first_measurement(kind, dim, rng)
        second = random_povm(dim, 3, rng)
        vec = _state_away_from_kinks(
            rng, dim, lambda s: _pair_kink_distance(measure, first, second, s)
        )
        _assert_exact_gradient(pair_distance_objective(measure, first, second), vec)


@pytest.mark.parametrize("kind", ("povm", "instrument"))
@pytest.mark.parametrize("measure", (Measure.FIDELITY, Measure.L1), ids=lambda m: m.name)
def test_disturbance_objective_gradient(measure, kind):
    rng = np.random.default_rng([11, measure is Measure.L1, kind == "povm"])
    for dim in DIMS:
        # d outcomes keep the L1 state difference of full rank, away from |0|.
        meas = random_povm(dim, dim, rng) if kind == "povm" else _mixing_instrument(dim, rng)
        inst = canonical_instrument(meas)
        vec = _state_away_from_kinks(
            rng, dim, lambda s: _disturbance_kink_distance(measure, inst, s)
        )
        _assert_exact_gradient(_disturbance_objective(measure, inst), vec)


@pytest.mark.parametrize("kind", ("povm", "trine", "instrument"))
def test_pair_distance_never_exceeds_the_disturbance_at_the_same_state(kind):
    """The state-by-state form of Q(A -> B) <= D_max(A) that check_bounds evaluates.

    At every state, the classical fidelity of B's statistics with and without
    A is at least the Uhlmann fidelity of psi and Phi_A(psi); their total
    variation is at most the trace distance, and the Chebyshev distance is at
    most the total variation.
    """
    rng = np.random.default_rng([13, ("povm", "trine", "instrument").index(kind)])
    for dim in (2,) if kind == "trine" else DIMS:
        first = trine_povm() if kind == "trine" else _first_measurement(kind, dim, rng)
        inst = canonical_instrument(first)
        gauss = rng.standard_normal((64, dim)) + 1j * rng.standard_normal((64, dim))
        states = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
        disturbance = {
            m: _disturbance_objective(m, inst)(states)[0] for m in (Measure.FIDELITY, Measure.L1)
        }
        for second in (random_observable(dim, rng), random_povm(dim, 4, rng)):
            for measure in PAIR_MEASURES:
                values = pair_distance_objective(measure, first, second)(states)[0]
                paired = Measure.FIDELITY if measure is Measure.FIDELITY else Measure.L1
                assert np.all(values <= disturbance[paired] + 1e-12)
