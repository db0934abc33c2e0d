"""Analytic gradients of the search objectives against central differences."""

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
    roots = luders_from_povm(random_povm(dim, 3, rng)).kraus_flat()
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
        amps = [state.amplitudes.conj() @ k @ state.amplitudes for k in inst.kraus_flat()]
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
    """Complex g with df = Re(g^H dv), one real and one imaginary step per entry."""
    grad = np.zeros(vec.size, dtype=complex)
    for i in range(vec.size):
        for unit in (1.0, 1j):
            step = np.zeros(vec.size, dtype=complex)
            step[i] = STEP * unit
            slope = (objective(vec + step)[0] - objective(vec - step)[0]) / (2.0 * STEP)
            grad[i] += slope * unit
    return grad


def _assert_exact_gradient(objective, vec):
    value, grad = objective(vec)
    assert isinstance(value, float)
    assert grad.dtype == np.complex128 and grad.shape == vec.shape
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
