"""Measurement plumbing for the benchmark: speed calibration, item recorder, tracer.

Everything here acts on the program from outside. Functions are replaced by
timing wrappers in every loaded ``qincompat`` module that refers to them, and
the originals are put back afterwards; nothing under ``src/`` is edited.

- :class:`Clock` runs a fixed calibration kernel between items. A machine
  shared with other tenants changes speed within a second (the same work can
  take 1.7x as long), so reported times other than set-up are rescaled to
  the reference speed at which the kernel takes ``REF_KERNEL_S``.
- :class:`Recorder` is always installed. It notes when each supremum and
  each verify claim ends and how each supremum was found, which gives
  per-item times and provenance at a cost of microseconds per supremum, and
  has the clock sample the speed inside long items.
- :class:`Tracer` is installed only for the traced run. It records spans at
  every layer boundary and counts objective evaluations and Nelder-Mead runs.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

REF_KERNEL_S = 0.008
CALIBRATE_EVERY_S = 0.1
_KERNEL_STEPS = 1000

_rng = np.random.default_rng(12345)
_KERNEL_M = _rng.standard_normal((6, 6)) + 1j * _rng.standard_normal((6, 6))
_KERNEL_M /= np.linalg.norm(_KERNEL_M, 2)
_KERNEL_V = _rng.standard_normal(6) + 1j * _rng.standard_normal(6)
_KERNEL_OFFSETS = np.array([0, 2, 4])


def _kernel() -> float:
    """Small complex mat-vecs, reductions and Python overhead, like one objective call."""
    x = _KERNEL_V
    acc = 0.0
    for _ in range(_KERNEL_STEPS):
        y = _KERNEL_M @ x
        acc += float(np.add.reduceat(np.abs(y) ** 2, _KERNEL_OFFSETS).max())
        x = y / np.linalg.norm(y)
    return acc


class Clock:
    """Calibration samples over time and the rescaling they imply.

    Between two samples the machine's speed is taken as the mean of the two
    kernel times; work in an interval is rescaled piece by piece and the
    kernel's own time is left out. Same-seed repeats of the scan spread 1%
    this way, against 3-4% for a median of the three nearest samples and 13%
    for one scale factor per run.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.kernel_s: list[float] = []
        self.tracer: Tracer | None = None

    def calibrate(self) -> None:
        span = self.tracer.open("harness.calibrate") if self.tracer else None
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        if span is not None:
            self.tracer.close(span)
        self.starts.append(t0)
        self.ends.append(t1)
        self.kernel_s.append(t1 - t0)

    def maybe_calibrate(self) -> None:
        """Sample again if the last sample is older than ``CALIBRATE_EVERY_S``."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= CALIBRATE_EVERY_S:
            self.calibrate()

    def _pieces(self, t0: float, t1: float):
        """(seconds, kernel time) for each stretch of [t0, t1] between two samples."""
        n = len(self.starts)
        g = bisect.bisect_right(self.starts, t0)
        while True:
            lo = self.ends[g - 1] if g > 0 else -math.inf
            hi = self.starts[g] if g < n else math.inf
            if lo >= t1:
                return
            overlap = min(t1, hi) - max(t0, lo)
            if overlap > 0:
                yield overlap, 0.5 * (self.kernel_s[max(g - 1, 0)] + self.kernel_s[min(g, n - 1)])
            if g >= n:
                return
            g += 1

    def wall_seconds(self, t0: float, t1: float) -> float:
        return sum(dt for dt, _ in self._pieces(t0, t1))

    def ref_seconds(self, t0: float, t1: float) -> float:
        return sum(dt * REF_KERNEL_S / kernel for dt, kernel in self._pieces(t0, t1))

    def speed(self) -> float:
        """Mean machine speed over the reference, from all samples."""
        return REF_KERNEL_S / statistics.fmean(self.kernel_s)


class Patches:
    """Swaps functions for wrappers in every loaded qincompat module, and back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, module, name: str, make) -> None:
        orig = getattr(module, name)
        wrapper = make(orig)
        for modname, mod in list(sys.modules.items()):
            if modname != "qincompat" and not modname.startswith("qincompat."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, orig))

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()


class Recorder:
    """End time and provenance of every supremum, start and end of every claim."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.suprema: list[tuple[float, str]] = []
        self.claims: list[tuple[str, float, float]] = []

    def install(self, q, patches: Patches) -> None:
        for name in ("directional_incompatibility", "maximal_disturbance"):
            patches.wrap(q.incompatibility, name, self._supremum)
        patches.wrap(q.optimize, "minimize", self._local_search)
        runners = q.verify._SUITE_RUNNERS
        for suite, runner in list(runners.items()):
            patches.set_item(runners, suite, self._suite(suite, runner))

    def _local_search(self, fn):
        def sampled(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.clock.maybe_calibrate()
            return result

        return sampled

    def _supremum(self, fn):
        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.suprema.append((time.perf_counter(), result.provenance.value))
            self.clock.maybe_calibrate()
            return result

        return recorded

    def _suite(self, suite: str, runner):
        def recorded(config_for):
            claims = runner(config_for)
            while True:
                t0 = time.perf_counter()
                try:
                    claim = next(claims)
                except StopIteration:
                    return
                self.claims.append((suite, t0, time.perf_counter()))
                self.clock.calibrate()
                yield claim

        return recorded

    def provenance_between(self, t0: float, t1: float) -> str:
        found = Counter(prov for t, prov in self.suprema if t0 <= t <= t1)
        return ",".join(f"{k}:{n}" for k, n in sorted(found.items())) or "no-supremum"


# Span record fields: name, start, end, parent index, item id, time in child
# spans and objective calls, time in calibration anywhere below.
_NAME, _START, _END, _PARENT, _ITEM, _CHILD, _HARNESS = range(7)

_INCOMPATIBILITY_SPANS = {
    "pair_incompatibility": "incompatibility.pair",
    "directional_incompatibility": "incompatibility.directional",
    "maximal_disturbance": "incompatibility.disturbance",
    "check_bounds": "incompatibility.check_bounds",
    "conjecture_scan": "incompatibility.scan",
    "analytic_seed_states": "incompatibility.seed_states",
    "set_incompatibility": "incompatibility.set",
}
_OBJECTIVE_KIND = {
    "incompatibility.directional": "pair",
    "incompatibility.disturbance": "disturbance",
}


class Tracer:
    """Spans at layer boundaries plus counters for the work inside them."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = ""
        self.objective = {"pair": [0, 0.0], "disturbance": [0, 0.0], "other": [0, 0.0]}
        self.nelder_mead: list[tuple[int, int, bool]] = []
        self.suprema: list[tuple[int, str]] = []
        self.claims = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.item, 0.0, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        end = time.perf_counter()
        span = self.spans[index]
        span[_END] = end
        self.stack.pop()
        if self.stack:
            self.spans[self.stack[-1]][_CHILD] += end - span[_START]
        if span[_NAME].startswith("harness."):
            for index in self.stack:
                self.spans[index][_HARNESS] += end - span[_START]

    def _timed(self, name: str):
        def make(fn):
            def timed(*args, **kwargs):
                index = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(index)

            return timed

        return make

    def install(self, q, patches: Patches) -> None:
        patches.wrap(q.cli, "main", self._timed("cli.main"))
        patches.wrap(q.serialization, "load_observable_file", self._timed("serialization.load"))
        for name in ("save_observable_file", "write_json_atomic"):
            patches.wrap(q.serialization, name, self._timed("serialization.write"))
        for name, value in list(vars(q.constructions).items()):
            if (callable(value) and not name.startswith("_")
                    and getattr(value, "__module__", "") == q.constructions.__name__):
                patches.wrap(q.constructions, name, self._timed(f"constructions.{name}"))
        for name, span in _INCOMPATIBILITY_SPANS.items():
            patches.wrap(q.incompatibility, name, self._timed(span))
        patches.wrap(q.optimize, "maximize_over_pure_states", self._maximize)
        patches.wrap(q.optimize, "minimize", self._minimize)
        runners = q.verify._SUITE_RUNNERS
        for suite, runner in list(runners.items()):
            patches.set_item(runners, suite, self._suite(suite, runner))

    def _maximize(self, fn):
        def traced(objective, dim, seeds=(), config=None):
            caller = self.spans[self.stack[-1]][_NAME] if self.stack else ""
            counter = self.objective[_OBJECTIVE_KIND.get(caller, "other")]

            def timed_objective(state):
                t0 = time.perf_counter()
                try:
                    return objective(state)
                finally:
                    dt = time.perf_counter() - t0
                    counter[0] += 1
                    counter[1] += dt
                    self.spans[self.stack[-1]][_CHILD] += dt

            seeds = list(seeds)
            index = self.open("optimize.maximize")
            try:
                result = fn(timed_objective, dim, seeds, config)
            finally:
                self.close(index)
            self.suprema.append((len(seeds), result.provenance.value))
            return result

        return traced

    def _minimize(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            maxiter = (kwargs.get("options") or {}).get("maxiter")
            self.nelder_mead.append(
                (int(result.nit), int(result.nfev), maxiter is not None and result.nit >= maxiter)
            )
            return result

        return counted

    def _suite(self, suite: str, runner):
        def traced(config_for):
            claims = runner(config_for)
            unit = self.item
            k = 0
            while True:
                self.item = f"{unit}/{suite}/{k}"
                index = self.open(f"verify.{suite}")
                try:
                    claim = next(claims)
                except StopIteration:
                    return
                finally:
                    self.close(index)
                    self.item = unit
                k += 1
                self.claims += 1
                yield claim

        return traced

    def layer_metrics(self, suites) -> dict[str, float]:
        """Per-layer counts and seconds (wall, not yet rescaled) from the spans."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for span in self.spans:
            name = span[_NAME]
            layer = name.split(".")[0]
            dur = span[_END] - span[_START] - span[_HARNESS]
            self_s[name] += span[_END] - span[_START] - span[_CHILD]
            parent = span[_PARENT]
            nested = parent >= 0 and self.spans[parent][_NAME].split(".")[0] == layer
            if layer in ("constructions", "serialization") and nested:
                continue
            calls[name] += 1
            total[name] += dur
            if layer == "constructions":
                calls[layer] += 1
                total[layer] += dur

        n_sup = len(self.suprema)
        n_nm = len(self.nelder_mead)
        evals = sum(c[0] for c in self.objective.values())
        out: dict[str, float] = {}
        for kind in ("pair", "disturbance"):
            n, s = self.objective[kind]
            out[f"objective.{kind}_evals"] = n
            out[f"objective.{kind}_s"] = s
            out[f"objective.{kind}_us_per_eval"] = 1e6 * s / n if n else 0.0
        out.update({
            "optimize.calls": calls["optimize.maximize"],
            "optimize.self_s": self_s["optimize.maximize"],
            "optimize.nm_runs": n_nm,
            "optimize.nm_nfev": sum(r[1] for r in self.nelder_mead),
            "optimize.nm_nit_mean": sum(r[0] for r in self.nelder_mead) / n_nm if n_nm else 0.0,
            "optimize.nm_maxiter_frac": sum(r[2] for r in self.nelder_mead) / n_nm if n_nm else 0.0,
            "optimize.evals_per_supremum": evals / n_sup if n_sup else 0.0,
            "optimize.random_win_frac":
                sum(p == "random-start" for _, p in self.suprema) / n_sup if n_sup else 0.0,
            "incompatibility.disturbance_calls": calls["incompatibility.disturbance"],
            "incompatibility.check_bounds_s": total["incompatibility.check_bounds"],
            "incompatibility.directional_calls": calls["incompatibility.directional"],
            "incompatibility.directional_self_s": self_s["incompatibility.directional"],
            "incompatibility.pair_self_s": self_s["incompatibility.pair"],
            "incompatibility.seed_states_s": total["incompatibility.seed_states"],
            "incompatibility.seeds_per_supremum":
                sum(n for n, _ in self.suprema) / n_sup if n_sup else 0.0,
            "serialization.load_calls": calls["serialization.load"],
            "serialization.load_s": total["serialization.load"],
            "serialization.write_s": total["serialization.write"],
            "cli.calls": calls["cli.main"],
            "cli.self_s": self_s["cli.main"],
            "constructions.calls": calls["constructions"],
            "constructions.s": total["constructions"],
            "verify.claims": self.claims,
        })
        for suite in suites:
            out[f"verify.suite_s.{suite}"] = total[f"verify.{suite}"]
        return out

    def dump(self) -> dict:
        """Spans as plain lists, times relative to the first span."""
        origin = self.spans[0][_START] if self.spans else 0.0
        return {
            "fields": ["name", "start_s", "end_s", "parent", "item", "child_s", "harness_s"],
            "spans": [[s[_NAME], s[_START] - origin, s[_END] - origin, s[_PARENT], s[_ITEM],
                       s[_CHILD], s[_HARNESS]] for s in self.spans],
        }
