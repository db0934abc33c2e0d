"""Acceptance suite: one test per criterion, at full counts and tolerances.

Every ``verify`` suite runs here too, and all its claims must pass. A
criterion is kept only where it probes more fixtures or uses a tighter
tolerance than the suite that checks the same claim. Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import itertools

import numpy as np
import pytest

from qincompat import (
    Measure,
    OptimizerConfig,
    PureState,
    RankOnePovm,
    acc_fid_objective,
    chebyshev_distance,
    classical_fidelity,
    closed_form,
    commutator_maxnorm,
    commuting_fixture,
    commuting_subspace_pair,
    conjecture_scan,
    directional_incompatibility,
    fidelity_distance,
    fourier_mub_pair,
    maximal_disturbance,
    outcome_distribution,
    pair_distance_objective,
    pure_channel_fidelity,
    projective_instrument,
    q_acc_upper_bound,
    quantum_fidelity,
    random_observable,
    random_povm,
    random_pure_state,
    spectral_decompose,
    trace_distance,
    variational_distance,
)
from qincompat import DensityMatrix, incompatibility, verify
from qincompat.constructions import (
    degenerate_observable,
    random_density_matrix,
    random_unitary,
)

ALL_MEASURES = (Measure.L1, Measure.FIDELITY, Measure.LINF)


def cfg(seed, starts=2, iters=300):
    return OptimizerConfig(n_random_starts=starts, max_iterations=iters, rng_seed=seed)


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS - {text}")


def test_criterion_01_mub_directional_attainment():
    """Fidelity forward value equals 1 - 1/d for unbiased pairs, d = 2..8."""
    for d in range(2, 9):
        obs_a, obs_b = fourier_mub_pair(d)
        expected = 1.0 - 1.0 / d
        result = directional_incompatibility(
            Measure.FIDELITY, obs_a, obs_b, cfg(d, starts=2, iters=350)
        )
        assert result.value == pytest.approx(expected, abs=1e-9)
        objective = pair_distance_objective(Measure.FIDELITY, obs_a, obs_b)
        seed_value = objective(PureState(obs_b.basis[:, 0]).amplitudes[None])[0][0]
        assert seed_value == pytest.approx(expected, abs=1e-12)
        rng = np.random.default_rng(1000 + d)
        for _ in range(200):
            probe = objective(random_pure_state(d, rng).amplitudes[None])[0][0]
            assert probe <= expected + 1e-9
    report(1, "fidelity forward value = 1 - 1/d for d=2..8, 200 probes per d below bound")


def test_criterion_03_zero_iff_commuting():
    """Commuting fixtures vanish; noncommuting random pairs stay above 1e-6."""
    fixtures = [commuting_fixture(2), commuting_fixture(3)]
    base = random_observable(3, 303)
    fixtures.append((base, spectral_decompose(base.matrix @ base.matrix)))
    tiny = cfg(0, starts=1, iters=100)
    for obs_a, obs_b in fixtures:
        for measure in ALL_MEASURES:
            assert directional_incompatibility(measure, obs_a, obs_b, tiny).value < 1e-9
    for d, count in ((2, 25), (3, 25)):
        rng = np.random.default_rng(5000 + d)
        done = 0
        while done < count:
            obs_a = random_observable(d, rng)
            obs_b = random_observable(d, rng)
            if commutator_maxnorm(obs_a, obs_b) < 1e-3:
                continue
            done += 1
            for measure in ALL_MEASURES:
                value = directional_incompatibility(measure, obs_a, obs_b, tiny).value
                assert value > 1e-6
    report(3, "commuting fixtures < 1e-9; 50 noncommuting pairs > 1e-6, all measures")


def test_criterion_04_disturbance_dominates_incompatibility():
    """Directional values sit below the maximal disturbance of the first measurement."""
    counts = {2: 34, 3: 33, 4: 33}
    tiny = cfg(0, starts=1, iters=120)
    for d, count in counts.items():
        rng = np.random.default_rng(7000 + d)
        for _ in range(count):
            obs_a = random_observable(d, rng)
            obs_b = random_observable(d, rng)
            q_l1 = directional_incompatibility(Measure.L1, obs_a, obs_b, tiny)
            q_linf = directional_incompatibility(Measure.LINF, obs_a, obs_b, tiny)
            q_fid = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, tiny)
            d1_max = maximal_disturbance(Measure.L1, obs_a, tiny).value
            df_max = maximal_disturbance(Measure.FIDELITY, obs_a, tiny).value
            assert q_l1.value <= d1_max + 1e-8
            assert q_linf.value <= d1_max + 1e-8
            assert q_fid.value <= df_max + 1e-8
    report(4, "100 random projective pairs (d=2,3,4) obey the disturbance bounds")


def test_criterion_05_shared_eigenvector_grid():
    """Partially commuting pairs hit (1 - 1/(d - d_c))/2 with equal directions."""
    for d, d_c in ((4, 1), (4, 2), (6, 3), (8, 5)):
        obs_a, obs_b = commuting_subspace_pair(d, d_c)
        config = cfg(100 + d + d_c, starts=2, iters=400)
        fwd = directional_incompatibility(Measure.FIDELITY, obs_a, obs_b, config).value
        bwd = directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, config).value
        directional = 1.0 - 1.0 / (d - d_c)
        assert fwd == pytest.approx(directional, abs=1e-8)
        assert bwd == pytest.approx(directional, abs=1e-8)
        assert (fwd + bwd) / 4.0 == pytest.approx(
            closed_form("fidelity_shared_eigenvectors", d=d, d_c=d_c), abs=1e-8
        )
    report(5, "fidelity values on the shared-eigenvector grid match the closed form")


def test_criterion_07_luders_outcome_bound():
    """Square-root instruments of N_A-outcome POVMs stay below 1 - 1/N_A."""
    tiny = cfg(0, starts=2, iters=200)
    checked = 0
    for d in (2, 3):
        for n_a in (2, 3, 4):
            rng = np.random.default_rng(9000 + 10 * d + n_a)
            for _ in range(5):
                povm_a = random_povm(d, n_a, rng)
                povm_b = random_povm(d, int(rng.integers(2, 5)), rng)
                value = directional_incompatibility(
                    Measure.FIDELITY, povm_a, povm_b, tiny
                ).value
                assert value <= (1.0 - 1.0 / n_a) + 1e-8
                checked += 1
    assert checked == 30
    report(7, "30 random POVM pairs obey the 1 - 1/N_A bound")


def test_criterion_09_degenerate_disturbance():
    """Projective measurements with r distinct eigenvalues disturb by 1 - 1/r."""
    grids = [
        (4, (2, 2)), (4, (2, 1, 1)), (4, (1, 1, 1, 1)),
        (5, (3, 2)), (5, (2, 2, 1)), (5, (2, 1, 1, 1)),
        (6, (3, 3)), (6, (2, 2, 2)), (6, (3, 1, 1, 1)),
    ]
    for d, ranks in grids:
        r = len(ranks)
        obs = degenerate_observable(ranks, random_unitary(d, 7 * d + r))
        value = maximal_disturbance(Measure.FIDELITY, obs, cfg(90 + d + r)).value
        assert value == pytest.approx(1.0 - 1.0 / r, abs=1e-9)
        # the equal-weight superposition of one vector per eigenspace attains it
        reps = [obs.basis[:, start] for start in (0, *itertools.accumulate(obs.ranks[:-1]))]
        psi_opt = PureState.normalized(np.sum(reps, axis=0))
        fid_sq = pure_channel_fidelity(projective_instrument(obs), psi_opt) ** 2
        assert fid_sq == pytest.approx(1.0 / r, abs=1e-12)
    report(9, "disturbance = 1 - 1/r for r = 2, 3, 4 in d = 4..6, attained at the seed")


def test_criterion_11_accessible_fidelity_comparison():
    """Fixed-POVM accessible-fidelity bounds match and separate from the fidelity value."""
    for d, d_c in ((4, 2), (6, 3)):
        obs_a, obs_b = commuting_subspace_pair(d, d_c)
        povm = RankOnePovm.from_basis(obs_b.basis)
        value = 1.0 - acc_fid_objective(povm, (obs_a, obs_b))
        assert value == pytest.approx(0.5 * (1.0 - (d_c + 1.0) / d), abs=1e-10)
    obs_a, obs_b = commuting_subspace_pair(4, 1)
    fid_value = closed_form("fidelity_shared_eigenvectors", d=4, d_c=1)
    acc_bound = q_acc_upper_bound(obs_a, obs_b)
    assert acc_bound <= 0.5 * (1.0 - 2.0 / 4.0) + 1e-10
    assert fid_value > acc_bound
    report(11, "accessible-fidelity bounds reproduced; measures separate at d_c = 1")


def test_criterion_12_property_suites():
    """Metric axioms, chain inequalities, and measured-distance domination."""
    rng = np.random.default_rng(121212)

    def rand_dist(n):
        v = rng.random(n) + 1e-12
        return v / v.sum()

    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        p, q, s = rand_dist(n), rand_dist(n), rand_dist(n)
        l1, linf = variational_distance(p, q), chebyshev_distance(p, q)
        assert 0.0 <= l1 <= 1.0 and 0.0 <= linf <= 1.0
        assert variational_distance(q, p) == l1
        assert chebyshev_distance(q, p) == linf
        assert l1 <= variational_distance(p, s) + variational_distance(s, q) + 1e-10
        assert linf <= chebyshev_distance(p, s) + chebyshev_distance(s, q) + 1e-10
        fid = classical_fidelity(p, q)
        assert 1.0 - fid <= l1 + 1e-10
        assert l1 <= np.sqrt(fidelity_distance(p, q)) + 1e-10

    # recorded triangle-inequality violation for the fidelity distance
    p, s, q = (0.9, 0.1), (0.5, 0.5), (0.1, 0.9)
    assert fidelity_distance(p, q) > fidelity_distance(p, s) + fidelity_distance(s, q)

    for _ in range(10_000):
        d = int(rng.integers(2, 5))
        rho = DensityMatrix(random_density_matrix(d, rng))
        sigma = DensityMatrix(random_density_matrix(d, rng))
        fid = quantum_fidelity(rho, sigma)
        dist = trace_distance(rho, sigma)
        assert 1.0 - fid <= dist + 1e-10
        assert dist <= np.sqrt(max(1.0 - fid * fid, 0.0)) + 1e-10

    for _ in range(1000):
        d = int(rng.integers(2, 4))
        rho = DensityMatrix(random_density_matrix(d, rng))
        sigma = DensityMatrix(random_density_matrix(d, rng))
        povm = random_povm(d, int(rng.integers(2, 5)), rng)
        p_meas = outcome_distribution(povm, rho)
        q_meas = outcome_distribution(povm, sigma)
        dist = trace_distance(rho, sigma)
        assert variational_distance(p_meas, q_meas) <= dist + 1e-10
        assert classical_fidelity(p_meas, q_meas) >= quantum_fidelity(rho, sigma) - 1e-10
        k = int(rng.integers(1, d))
        gauss = rng.standard_normal((d, k)) + 1j * rng.standard_normal((d, k))
        basis, _ = np.linalg.qr(gauss)
        proj = basis @ basis.conj().T
        assert np.trace(proj @ (rho.matrix - sigma.matrix)).real <= dist + 1e-10

    report(12, "metric axioms, chain inequalities, and domination hold at stated slack")


def test_criterion_13_conjecture_scan_evidence():
    """No randomized scan row exceeds the proven (1 - 1/d)/2 ceiling."""
    scan_cfg = OptimizerConfig(n_random_starts=1, max_iterations=150, rng_seed=13)
    for dim in (2, 3):
        for measure in (Measure.L1, Measure.LINF):
            scan = conjecture_scan(
                measure, dim, 250, config=scan_cfg, base_seed=1300 + dim
            )
            assert len(scan.rows) == 250
            assert all(np.isfinite(row.value) for row in scan.rows)
            assert scan.counterexamples == ()
            print(
                f"  scan {measure.value} d={dim}: max {scan.max_value:.12f} "
                f"vs threshold {scan.threshold:.12f}"
            )
    report(13, "no scan row above the (1 - 1/d)/2 ceiling in 500 random pairs per measure")


@pytest.mark.parametrize("suite", verify.SUITES)
def test_verify_suite_claims_pass(suite):
    """Every claim of each ``verify`` suite passes at the CLI's light config."""
    claims = verify.run_suites([suite])
    assert claims
    assert [c.name for c in claims if not c.passed] == []


def test_commuting_fixtures_of_the_commutation_suite_do_not_search(monkeypatch):
    """The three commuting fixtures of ``commutation`` are exact or stop on
    their block ceiling of 0, so their claims are the same bits whatever
    seed they are given: rng_seed + 3, their dimension, and rng_seed + 5."""

    def refuse(*args):
        raise AssertionError("a commuting fixture started a search")

    monkeypatch.setattr(incompatibility, "maximize_over_pure_states", refuse)

    def commuting_claims(offset):
        def config_for(dim):
            return OptimizerConfig(n_random_starts=4, max_iterations=400, rng_seed=offset + dim)

        claims = itertools.islice(verify._suite_commutation(config_for), 3)
        return np.array([claim.measured for claim in claims])

    assert commuting_claims(0).tobytes() == commuting_claims(2).tobytes()
