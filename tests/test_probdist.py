"""Classical distance measures: frozen values, metric axioms, chain inequalities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat import (
    LengthMismatchError,
    ProbDist,
    ValidationError,
    chebyshev_distance,
    classical_fidelity,
    fidelity_distance,
    variational_distance,
)

RNG = np.random.default_rng(20240811)

# fidelity-distance triangle-inequality counterexample, found once by search
# and frozen: the two half-steps are exactly 0.2 each while the direct
# distance is 0.64
TRIANGLE_P = (0.9, 0.1)
TRIANGLE_S = (0.5, 0.5)
TRIANGLE_Q = (0.1, 0.9)


def random_dist(rng, n):
    v = rng.random(n) + 1e-12
    return v / v.sum()


def test_variational_frozen_values():
    assert variational_distance((1.0, 0.0), (1.0, 0.0)) == 0.0
    assert variational_distance((1.0, 0.0), (0.0, 1.0)) == 1.0
    # direct evaluation of the defining sum: 0.5 * (0.5 + 0.5)
    assert variational_distance((1.0, 0.0), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)


def test_classical_fidelity_frozen_values():
    assert classical_fidelity((1.0, 0.0), (1.0, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert classical_fidelity((1.0, 0.0), (0.0, 1.0)) == 0.0
    assert classical_fidelity((1.0, 0.0), (0.5, 0.5)) == pytest.approx(
        0.7071067811865476, abs=1e-15
    )


def test_fidelity_distance_frozen_values():
    assert fidelity_distance((1.0, 0.0), (1.0, 0.0)) == pytest.approx(0.0, abs=1e-15)
    assert fidelity_distance((1.0, 0.0), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)
    assert fidelity_distance((1.0, 0.0), (0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)


def test_chebyshev_frozen_values():
    assert chebyshev_distance((0.5, 0.5), (0.5, 0.5)) == 0.0
    assert chebyshev_distance((1.0, 0.0), (0.0, 1.0)) == 1.0
    assert chebyshev_distance((0.7, 0.3), (0.4, 0.6)) == pytest.approx(0.3, abs=1e-15)


def test_length_mismatch():
    with pytest.raises(LengthMismatchError):
        variational_distance((1.0, 0.0), (1.0, 0.0, 0.0))


def test_probdist_clamping_and_renormalization():
    dist = ProbDist([0.5, 0.5, -1e-13])
    assert dist.probs.min() == 0.0
    assert dist.probs.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        ProbDist([0.5, 0.5, -1e-6])
    with pytest.raises(ValidationError):
        ProbDist([0.7, 0.7])
    drifted = ProbDist([0.5 + 3e-10, 0.5])
    assert drifted.probs.sum() == pytest.approx(1.0, abs=1e-15)


def test_range_symmetry_and_identity_on_random_pairs():
    for _ in range(10_000):
        n = int(RNG.integers(2, 7))
        p, q = random_dist(RNG, n), random_dist(RNG, n)
        for dist in (variational_distance, fidelity_distance, chebyshev_distance):
            value = dist(p, q)
            assert 0.0 <= value <= 1.0
            assert dist(q, p) == value


def test_triangle_inequality_for_l1_and_chebyshev():
    for _ in range(10_000):
        n = int(RNG.integers(2, 7))
        p, q, s = (random_dist(RNG, n) for _ in range(3))
        for dist in (variational_distance, chebyshev_distance):
            assert dist(p, q) <= dist(p, s) + dist(s, q) + 1e-12


def test_fidelity_distance_triangle_counterexample():
    direct = fidelity_distance(TRIANGLE_P, TRIANGLE_Q)
    via = fidelity_distance(TRIANGLE_P, TRIANGLE_S) + fidelity_distance(
        TRIANGLE_S, TRIANGLE_Q
    )
    assert direct == pytest.approx(0.64, abs=1e-12)
    assert via == pytest.approx(0.4, abs=1e-12)
    assert direct > via + 0.2


def test_classical_fuchs_van_de_graaf_chain():
    for _ in range(10_000):
        n = int(RNG.integers(2, 7))
        p, q = random_dist(RNG, n), random_dist(RNG, n)
        fid = classical_fidelity(p, q)
        l1 = variational_distance(p, q)
        assert 1.0 - fid <= l1 + 1e-12
        assert l1 <= np.sqrt(fidelity_distance(p, q)) + 1e-12


def test_zero_distance_implies_equality():
    for _ in range(200):
        p = random_dist(RNG, 4)
        q = p + RNG.uniform(-1e-12, 1e-12, 4)
        q = np.clip(q, 0.0, None)
        q /= q.sum()
        for dist in (variational_distance, fidelity_distance, chebyshev_distance):
            if dist(p, q) == 0.0:
                assert np.max(np.abs(p - q)) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6),
    st.data(),
)
def test_distance_properties_hypothesis(weights, data):
    p = np.array(weights) / np.sum(weights)
    other = data.draw(
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0),
            min_size=len(weights),
            max_size=len(weights),
        )
    )
    q = np.array(other) / np.sum(other)
    for dist in (variational_distance, fidelity_distance, chebyshev_distance):
        assert dist(p, p) <= 1e-12
        value = dist(p, q)
        assert -1e-12 <= value <= 1.0 + 1e-12
        assert value == dist(q, p)
    assert 1.0 - classical_fidelity(p, q) <= variational_distance(p, q) + 1e-12
