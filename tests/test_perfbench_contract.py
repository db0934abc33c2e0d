"""The names and call shapes that the benchmark harness wraps.

``perfbench/instrument.py`` replaces these functions with timing wrappers in
every loaded ``qincompat`` module that refers to them, and reads their
results. A refactor that renames one, passes an argument the wrappers do
not forward, or changes a result field they read breaks ``--trace 1``
without failing anything else; these tests install the harness's own
wrappers and fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

import qincompat
from qincompat import (
    Measure,
    OptimizerConfig,
    OptResult,
    asymmetric_pair,
    random_povm,
    trine_povm,
    z_channel,
)
# The harness reaches every module it wraps as an attribute of the package.
from qincompat import cli, constructions, incompatibility, optimize, serialization, verify  # noqa: F401

BUDGET = OptimizerConfig(n_random_starts=2, max_iterations=50, rng_seed=3)

_spec = importlib.util.spec_from_file_location(
    "perfbench_instrument", Path(__file__).resolve().parents[1] / "perfbench" / "instrument.py"
)
instrument = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(instrument)


@pytest.fixture
def patches():
    patches = instrument.Patches()
    yield patches
    patches.restore()


def test_wrapped_names_exist():
    assert any(callable(v) and not k.startswith("_") for k, v in vars(constructions).items())
    assert isinstance(verify._SUITE_RUNNERS, dict) and verify._SUITE_RUNNERS
    assert all(callable(runner) for runner in verify._SUITE_RUNNERS.values())


def _searches():
    """A searched directional value and disturbance, with their seed row counts.

    The z channel's fidelity disturbance stops at its dual ceiling without a
    search, so the disturbance is the L1 one.
    """
    first, second, channel = trine_povm(), random_povm(2, 4, seed=0), z_channel(0.3)
    seed_rows = [
        len(incompatibility.analytic_seed_states(first, second)),
        len(incompatibility.analytic_seed_states(channel, channel)),
    ]
    results = (
        incompatibility.directional_incompatibility(Measure.FIDELITY, first, second, BUDGET),
        incompatibility.maximal_disturbance(Measure.L1, channel, BUDGET),
    )
    return results, seed_rows


def _fields(result):
    return (result.value, result.argmax.amplitudes.tobytes(), result.provenance,
            result.starts_used, result.evaluations, result.iterations)


def test_the_tracer_counts_the_searches(patches):
    untraced, _ = _searches()
    tracer = instrument.Tracer()
    tracer.install(qincompat, patches)
    (directional, disturbance), seed_rows = _searches()
    metrics = tracer.layer_metrics([])
    for result in (directional, disturbance):
        assert isinstance(result, OptResult)
    assert [prov for _, prov in tracer.suprema] == [
        directional.provenance.value, disturbance.provenance.value
    ]
    # The tracer counts the seed rows and forwards them as a list of 1-D
    # rows, which is searched exactly as the array it was made from.
    assert [n for n, _ in tracer.suprema] == seed_rows
    assert [_fields(r) for r in (directional, disturbance)] == [_fields(r) for r in untraced]
    assert metrics["incompatibility.directional_calls"] == 1
    assert metrics["incompatibility.disturbance_calls"] == 1
    assert metrics["optimize.calls"] == 2
    assert metrics["optimize.nm_runs"] == 2
    assert 0 < metrics["optimize.nm_nfev"] < directional.evaluations + disturbance.evaluations
    assert 0 < metrics["optimize.nm_nit_mean"] <= BUDGET.max_iterations
    assert metrics["objective.pair_evals"] > 0
    assert metrics["objective.disturbance_evals"] > 0
    assert metrics["optimize.nm_maxiter_frac"] == 0.0


def test_a_face_search_is_the_same_under_the_tracer(patches):
    # The face data travels in the objective's return value, which the
    # tracer's objective wrapper passes on; an attribute would be lost. The
    # backward search of asymmetric_pair(3, 1) builds 4 face projectors.
    obs_a, obs_b = asymmetric_pair(3, 1)
    config = OptimizerConfig(n_random_starts=8, max_iterations=600, rng_seed=0)
    untraced = incompatibility.directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, config)
    tracer = instrument.Tracer()
    tracer.install(qincompat, patches)
    traced = incompatibility.directional_incompatibility(Measure.FIDELITY, obs_b, obs_a, config)
    assert _fields(traced) == _fields(untraced)
    assert abs(traced.value - 4.0 / 9.0) <= 1e-12
    assert tracer.layer_metrics([])["objective.pair_evals"] > 0


def test_the_tracer_reads_the_iteration_cap(patches):
    # The cap reaches the tracer only as the ``options=`` keyword of minimize.
    tracer = instrument.Tracer()
    tracer.install(qincompat, patches)
    capped = OptimizerConfig(n_random_starts=2, max_iterations=1, rng_seed=3)
    incompatibility.maximal_disturbance(Measure.L1, z_channel(0.3), capped)
    assert tracer.layer_metrics([])["optimize.nm_maxiter_frac"] == 1.0


def test_the_recorder_notes_every_supremum(patches):
    clock = instrument.Clock()
    recorder = instrument.Recorder(clock)
    recorder.install(qincompat, patches)
    result = incompatibility.maximal_disturbance(Measure.FIDELITY, z_channel(0.3), BUDGET)
    assert [prov for _, prov in recorder.suprema] == [result.provenance.value]
    assert clock.kernel_s


@pytest.mark.parametrize("measure", [Measure.L1, Measure.LINF])
def test_the_recorder_notes_two_exact_suprema_per_scan_row(patches, measure):
    # The scan workload reads a row's provenance and end time from the two
    # suprema it notes for that row, one per direction.
    recorder = instrument.Recorder(instrument.Clock())
    recorder.install(qincompat, patches)
    report = incompatibility.conjecture_scan(measure, 3, 2, base_seed=4, inject=("mub",))
    assert len(report.rows) == 3
    assert [prov for _, prov in recorder.suprema] == ["exact"] * (2 * len(report.rows))


def test_the_tracer_times_the_draw_of_a_scan_row(patches):
    tracer = instrument.Tracer()
    tracer.install(qincompat, patches)
    incompatibility.conjecture_scan(Measure.L1, 3, 1, base_seed=4)
    metrics = tracer.layer_metrics([])
    # One draw per row: both unitaries come from one random_unitary call.
    assert metrics["constructions.calls"] == 1
    assert metrics["constructions.s"] > 0
    assert metrics["incompatibility.directional_calls"] == 2


def test_suite_runners_yield_claims_under_the_tracer(patches):
    tracer = instrument.Tracer()
    tracer.install(qincompat, patches)
    claim = next(iter(verify._SUITE_RUNNERS["zchannel"](lambda dim: BUDGET)))
    assert claim.suite == "zchannel"
    assert tracer.claims == 1


@pytest.mark.parametrize("name", ["directional_incompatibility", "maximal_disturbance"])
def test_public_names_are_the_module_functions(name):
    assert getattr(qincompat, name) is getattr(incompatibility, name)
