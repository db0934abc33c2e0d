#!/usr/bin/env python3
"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny``, untraced and traced,
and checks that the last output line has the agreed keys, that every
end-to-end metric (untraced) or per-layer metric (traced) is emitted with its
unit, that the tracing overhead is among them, that the extra figures and the
per-item records reach the output file, and that the benchmark refuses to run
from a copy that holds only BENCHMARK.json and this directory. Exits 1 and
lists the problems if any check fails; takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXTRA = {"scan": ["value_mean"], "compute": ["gap_unknown_frac"], "verify": []}
COMMON_EXTRA = ["failed_frac", "item_tail_s", "items_per_wall_s", "speed"]
MACHINE = {"python", "numpy", "scipy", "nproc", "blas_threads", "cpu", "seed"}


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=600, cwd=cwd)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    label = f"{workload} trace={trace}"
    proc = run([str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
                "--seconds", "1", "--trace", str(trace), "--tiny"], ROOT)
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted={result.get('attempted')!r}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry.get("unit") for name, entry in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"{label}: missing {sorted(set(wanted) - set(got))}, "
                        f"unexpected {sorted(set(got) - set(wanted))}, "
                        f"wrong units {sorted(k for k in got if k in wanted and got[k] != wanted[k])}")
    for name, entry in result.get("metrics", {}).items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} = {value!r}")
    if trace and "trace.overhead_s" not in got:
        problems.append(f"{label}: tracing overhead not reported")

    doc = json.loads((BENCH / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
    if set(doc.get("machine", {})) != MACHINE:
        problems.append(f"{label}: machine record {sorted(doc.get('machine', {}))}")
    if not trace:
        missing = [k for k in COMMON_EXTRA + EXTRA[workload] if k not in doc.get("extra", {})]
        if missing:
            problems.append(f"{label}: extra figures missing {missing}")
    bad = [i for i in doc.get("items", []) if not {"id", "value", "provenance"} <= set(i)]
    if bad or not doc.get("items"):
        problems.append(f"{label}: {len(bad)} items lack id, value or provenance")
    return problems


def check_bare_copy() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run([str(bare / BENCH.name / "run.py"), "--workload", "scan", "--seed", "0",
                    "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (BENCH / "out").mkdir(exist_ok=True)
    problems = check_bare_copy()
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, workload["name"], trace)
            print(f"checked {workload['name']} trace={trace}", flush=True)
    for problem in problems:
        print("PROBLEM", problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
