#!/usr/bin/env python3
"""Closed-loop benchmark of qincompat, one caller in one process.

    python3 perfbench/run.py --workload {scan,compute,verify} --seed N \
        --seconds S --trace {0,1} [--tiny]

Set-up imports the package from ``src/`` next to this directory and builds
the workload's fixtures. It is timed in three fresh interpreters
(``--setup-only``) and the median is reported. The run then repeats passes
of the workload until ``--seconds`` have passed, and checks every item
against the oracle in ``workloads.py``. ``--trace 0`` reports the end-to-end
metrics named in ``BENCHMARK.json``; ``--trace 1`` then repeats the first
pass under the tracer and reports the per-layer metrics of that pass and the
tracing overhead against its untraced run.
Times other than set-up are rescaled to a reference machine speed (see
``instrument.py``).
The last line of standard output is one JSON object; items, machine and
all metrics go to ``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 60
TAIL_MIN_BEYOND = 10
TAIL_PERCENTILE = {"scan": 90, "compute": 60, "verify": 83}


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the usable core count; must run before numpy loads."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))
    return int(os.environ["OMP_NUM_THREADS"])


def import_program():
    sys.path.insert(0, str(SRC))
    import qincompat
    import qincompat.cli
    import qincompat.verify

    if Path(qincompat.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qincompat was imported from {qincompat.__file__}, not from {SRC}")
    return qincompat


def machine(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "cpu": cpu or platform.processor(),
        "seed": seed,
    }


def setup_samples(args) -> list[float]:
    """Set-up seconds of fresh interpreters, not rescaled.

    Import speed barely follows the calibration kernel: while the kernel ran
    1.5-2x slower, set-up took the same time, so rescaling would bias it.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              cwd=ROOT, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_wall_s"])
    return samples


def run_passes(workload, clock, recorder, seconds=None, passes=None, tracer=None) -> dict:
    """Closed loop over passes; stops after ``passes`` or once ``seconds`` have passed."""
    items, units = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for unit_id, call in workload.units(done):
            clock.calibrate()
            if tracer is not None:
                tracer.item = unit_id
            mark = (len(recorder.suprema), len(recorder.claims))
            t0 = time.perf_counter()
            result = call()
            t1 = time.perf_counter()
            units.append((done, t0, t1))
            items.extend(workload.items(unit_id, result, recorder, t0, t1, mark))
        done += 1
        if passes is not None:
            if done >= passes:
                break
        elif done >= workload.min_passes and time.perf_counter() - start >= seconds:
            break
    clock.calibrate()
    for item in items:
        item["wall"] = clock.wall_seconds(item["t0"], item["t1"])
        item["s"] = clock.ref_seconds(item["t0"], item["t1"])
    return {"items": items, "passes": done,
            "busy_s": sum(clock.ref_seconds(t0, t1) for _, t0, t1 in units),
            "busy_wall": sum(clock.wall_seconds(t0, t1) for _, t0, t1 in units),
            "first_pass_s": sum(clock.ref_seconds(t0, t1) for p, t0, t1 in units if p == 0)}


def check_items(workload, items) -> None:
    for item in items:
        try:
            note, exact = workload.check(item)
        except Exception as exc:  # an oracle crash marks the item, it does not end the run
            note, exact = f"oracle raised {type(exc).__name__}: {exc}", None
        item["failure"] = "; ".join(filter(None, (note, item.get("note"))))
        item["exact"] = exact


def end_to_end(name, run, setup) -> tuple[dict, dict]:
    """Gated metrics (BENCHMARK.json) and the extra figures printed beside them."""
    items = run["items"]
    times = [i["s"] for i in items]
    ratios = [i["value"] / i["exact"] for i in items
              if i.get("exact") and not i["failure"] and i["value"] is not None]
    failed = sum(bool(i["failure"]) for i in items)
    gated = {
        "setup_s": statistics.median(setup),
        "items_per_s": len(items) / run["busy_s"],
        "item_p50_s": statistics.median(times),
        "value_ratio_mean": statistics.fmean(ratios) if ratios else float("nan"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "failed_frac": (failed / len(items), f"of {len(items)} items"),
        "items_per_wall_s": (len(items) / run["busy_wall"], "1/s, not rescaled"),
        "value_ratio_n": (len(ratios), "items with an exact value"),
    }
    pct = TAIL_PERCENTILE[name]
    beyond = len(times) * (100 - pct) / 100.0
    if beyond >= TAIL_MIN_BEYOND:
        tail = statistics.quantiles(times, n=100, method="inclusive")[pct - 1]
        extra["item_tail_s"] = (tail, f"s, p{pct} of {len(times)} items, "
                                      f"{math.floor(beyond)} beyond")
    else:
        extra["item_tail_s"] = (None, f"omitted: {len(times)} items leave fewer than "
                                      f"{TAIL_MIN_BEYOND} beyond p{pct}")
    return gated, extra


def run_all(args) -> int:
    """Each workload in its own process, one after the other; output passes through."""
    worst = 0
    for name in ("scan", "compute", "verify"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return worst


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["scan", "compute", "verify", "all"],
                        help="'all' runs the three in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    blas_threads = cap_threads()
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        try:
            spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
            q = import_program()
        except (OSError, ImportError, ValueError) as exc:
            print(f"error: cannot set up the benchmark: {exc}", file=sys.stderr)
            return 2
        import workloads

        workload = workloads.WORKLOADS[args.workload](q, args.seed, work, args.tiny)
        workload.setup()
        if args.setup_only:
            print(json.dumps({"setup_wall_s": time.perf_counter() - t_start}))
            return 0
        return measure(args, spec, q, workload, blas_threads)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec, q, workload, blas_threads) -> int:
    import instrument

    setup = setup_samples(args)
    clock = instrument.Clock()
    recorder = instrument.Recorder(clock)
    patches = instrument.Patches()
    recorder.install(q, patches)
    try:
        run = run_passes(workload, clock, recorder, seconds=args.seconds)
    finally:
        patches.restore()
    items = run["items"]

    traced = tracer = None
    if args.trace:
        tracer = instrument.Tracer()
        speed_mark = len(clock.kernel_s)
        clock.tracer = tracer
        recorder = instrument.Recorder(clock)
        tracer.install(q, patches)
        recorder.install(q, patches)
        try:
            traced = run_passes(workload, clock, recorder, passes=1, tracer=tracer)
        finally:
            patches.restore()
            clock.tracer = None
        for before, after in zip(items, traced["items"]):
            if before["id"] == after["id"] and repr(before["value"]) != repr(after["value"]):
                after["note"] = f"traced value {after['value']!r} != untraced {before['value']!r}"
        if len(traced["items"]) != sum(i["id"].startswith("p0/") for i in items):
            items[0]["note"] = "traced pass produced a different number of items"

    all_items = items + (traced["items"] if traced else [])
    check_items(workload, all_items)
    gated, extra = end_to_end(workload.name, run, setup)
    extra.update(workload.extra_metrics(items))
    extra["speed"] = (clock.speed(), "machine speed over the reference, calibration kernel")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": gated[name], "unit": units[name]} for name in units}

    doc = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "tiny": args.tiny, "passes": run["passes"],
           "machine": machine(args.seed, blas_threads),
           "end_to_end": gated, "extra": {k: v[0] for k, v in extra.items()},
           "setup_samples_s": setup}
    if traced is not None:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        scale = instrument.REF_KERNEL_S / statistics.fmean(clock.kernel_s[speed_mark:])
        layers = tracer.layer_metrics(list(q.verify.SUITES))
        for key in layers:
            if units.get(key) in ("s", "us"):
                layers[key] *= scale
        layers["trace.overhead_s"] = traced["busy_s"] - run["first_pass_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / run["first_pass_s"]
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        doc["per_layer"] = layers
        spans_path = OUT / f"{workload.name}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()), encoding="utf-8")
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
    keep = ("id", "name", "value", "exact", "provenance", "s", "wall", "failure")
    doc["items"] = [{k: i[k] for k in keep if k in i} for i in all_items]
    out_path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1), encoding="utf-8")

    failed = sum(bool(i["failure"]) for i in all_items)
    print("machine: " + " ".join(f"{k}={v}" for k, v in doc["machine"].items()))
    print(f"{workload.name}: {run['passes']} pass(es), {len(all_items)} items, {failed} failed; "
          f"items in {out_path.relative_to(ROOT)}")
    print("set-up samples: " + ", ".join(f"{s:.4f} s" for s in setup))
    for item in all_items:
        if item["failure"]:
            print(f"  FAILED {item['id']}: {item['failure']}")
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        for name, (value, note) in extra.items():
            shown = "" if value is None else f"{value:.6g} "
            print(f"{name:40s} {shown}({note})")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_items), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
