"""The three workloads: inputs from the seed, one pass of units, and the oracle.

A unit is one call into the program; it yields one or more items (a scan
pair, a report, a claim). A run repeats passes of units. Each pass draws
fresh inputs or optimizer seeds from the workload seed, so no call is an
exact repeat of an earlier one and a cache of whole results cannot win.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics

import numpy as np

TOL = 1e-9


def _quiet_cli(q, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return q.cli.main(argv)


def _derived_seed(*parts) -> int:
    return int(np.random.SeedSequence([int(p) for p in parts]).generate_state(1)[0])


def exact_directional(measure, first, second) -> float:
    """Exact Q_1 or Q_inf of a projective pair by its spectral form.

    With D_j = sum_k P_k E_j P_k - E_j (second's effect seen after first's
    collapse, minus the plain effect), q_j - p_j = <psi|D_j|psi>. Hence
    Q_inf = max_j ||D_j|| and, because the D_j sum to zero, half the L1
    distance is the largest sum over a subset of outcomes, so
    Q_1 = max over subsets S of lambda_max(sum_{j in S} D_j).
    """
    proj = first.projectors
    eff = second.projectors
    diff = np.einsum("kab,jbc,kcd->jad", proj, eff, proj) - eff
    if measure.value == "inf":
        return float(np.abs(np.linalg.eigvalsh(diff)).max())
    n = len(diff)
    # Subsets of all but the last outcome; a subset containing it is the
    # negated complement of one that does not.
    masks = (np.arange(2 ** (n - 1))[:, None] >> np.arange(n - 1)) & 1
    sums = np.einsum("sj,jab->sab", masks.astype(float), diff[: n - 1])
    lam = np.linalg.eigvalsh(sums)
    return float(max(lam[:, -1].max(), -lam[:, 0].min()))


class Workload:
    name = ""
    min_passes = 1

    def __init__(self, q, seed: int, work_dir: str, tiny: bool):
        self.q = q
        self.seed = seed
        self.work = work_dir
        self.tiny = tiny

    def setup(self) -> None:
        """Build the fixtures the timed items read."""

    def units(self, pass_index: int):
        """(unit id, callable) pairs for one pass, in run order."""
        raise NotImplementedError

    def items(self, unit_id, result, recorder, t0, t1, mark) -> list[dict]:
        """Items of a finished unit, each with id, value, provenance and its span t0..t1."""
        raise NotImplementedError

    def check(self, item: dict) -> tuple[str, float | None]:
        """Oracle verdict ("" when correct) and the exact value, if one is known."""
        raise NotImplementedError

    def extra_metrics(self, items: list[dict]) -> dict:
        return {}


class Scan(Workload):
    """Symmetric Q_1 / Q_inf of Haar-random pairs at the CLI scan budget."""

    name = "scan"
    DIMS = (3, 6)
    RANDOM_UNITS = 22  # per measure and dimension and pass, beside one injected unit

    def __init__(self, q, seed, work_dir, tiny):
        super().__init__(q, seed, work_dir, tiny)
        self.measures = (q.Measure.L1, q.Measure.LINF)
        self.config = q.OptimizerConfig(
            n_random_starts=2, max_iterations=200, convergence_tol=1e-10, rng_seed=seed
        )

    def units(self, pass_index):
        dims = self.DIMS[:1] if self.tiny else self.DIMS
        n_random = 4 if self.tiny else self.RANDOM_UNITS
        out = []
        for k in range(n_random + 1):
            for measure in self.measures:
                for dim in dims:
                    inject = ("mub", "commuting") if k == 0 else ()
                    base = _derived_seed(self.seed, pass_index, k, dim, measure is self.q.Measure.LINF)
                    uid = f"p{pass_index}/{measure.value}/d{dim}/u{k}"
                    out.append((uid, self._call(measure, dim, base, inject)))
        return out

    def _call(self, measure, dim, base_seed, inject):
        def call():
            return self.q.conjecture_scan(
                measure, dim, 1, config=self.config, base_seed=base_seed, inject=inject
            )

        return call

    def items(self, unit_id, result, recorder, t0, t1, mark):
        sup = recorder.suprema[mark[0]:]
        _, measure, dim, _ = unit_id.split("/")
        labels = ["mub", "commuting"][: len(result.rows) - 1] + ["random"]
        out = []
        start = t0
        for k, (row, label) in enumerate(zip(result.rows, labels)):
            end = t1 if k == len(result.rows) - 1 else sup[2 * k + 1][0]
            out.append({
                "id": f"{unit_id}/{label}",
                "measure": measure,
                "dim": int(dim[1:]),
                "label": label,
                "seed": row.seed,
                "value": row.value,
                "provenance": f"{sup[2 * k][1]}/{sup[2 * k + 1][1]}",
                "t0": start,
                "t1": end,
            })
            start = end
        return out

    def check(self, item):
        q = self.q
        dim, value = item["dim"], item["value"]
        measure = q.Measure.from_flag(item["measure"])
        if item["label"] == "mub":
            exact = 0.5 * (1.0 - 1.0 / dim)
        elif item["label"] == "commuting":
            return ("" if abs(value) <= TOL else f"commuting row {value!r} != 0"), None
        else:
            rng = np.random.default_rng(item["seed"])
            obs_a = q.random_observable(dim, rng)
            obs_b = q.random_observable(dim, rng)
            exact = 0.25 * (exact_directional(measure, obs_a, obs_b)
                            + exact_directional(measure, obs_b, obs_a))
            if value > exact + TOL:
                return f"lower bound {value!r} above the exact supremum {exact!r}", exact
            return "", exact
        ok = abs(value - exact) <= TOL
        return ("" if ok else f"mub row {value!r} != {exact!r}"), exact

    def extra_metrics(self, items):
        return {"value_mean": (statistics.fmean(i["value"] for i in items), "1")}


class Compute(Workload):
    """Fidelity pair reports with bound checks and disturbance reports via the CLI."""

    name = "compute"
    min_passes = 2  # 14 reports a pass; the median and tail rest on two passes' worth

    def setup(self):
        q, out, seed = self.q, self.work, self.seed

        def construct(*args):
            rc = _quiet_cli(q, ["construct", *args, "--out", out])
            if rc != 0:
                raise RuntimeError(f"construct {args} exited {rc}")

        dims = (2,) if self.tiny else range(2, 7)
        for d in dims:
            construct("mub", "--dim", str(d))
        construct("trine")
        for p in ("0.1", "0.5", "0.9"):
            construct("zchannel", "--p", p)
        if self.tiny:
            return
        construct("commuting-subspace", "--dim", "4", "--dc", "1")
        construct("commuting-subspace", "--dim", "6", "--dc", "3")
        construct("asymmetric", "--dim", "4", "--m", "1")
        construct("random-povm", "--dim", "2", "--outcomes", "4", "--seed", str(seed))
        construct("random-povm", "--dim", "3", "--outcomes", "3", "--seed", str(seed))
        construct("random-povm", "--dim", "3", "--outcomes", "4", "--seed", str(seed + 1))
        degenerate = q.degenerate_observable((2, 2, 1), q.random_unitary(5, seed))
        q.save_observable_file(degenerate, self._path("degenerate_r3_d5.json"))

    def _path(self, name):
        return os.path.join(self.work, name)

    def fixtures(self):
        """(name, CLI arguments, closed-form expectations) for one pass."""
        s = self.seed
        pair = []
        for d in ((2,) if self.tiny else range(2, 7)):
            pair.append((f"mub_d{d}", "--pair", f"mub_d{d}_a.json", f"mub_d{d}_b.json",
                         {"symmetric": 0.5 * (1 - 1 / d), "forward": 1 - 1 / d}))
        luders = [("luders_trine", "--luders", "trine.json", "trine.json",
                   {"luders_forward": 3, "luders_backward": 3})]
        dist = [(f"zchannel_p{p}", f"zchannel_p{p}.json", {"value": float(p)})
                for p in ("0.1", "0.5", "0.9")]
        if not self.tiny:
            for d, dc in ((4, 1), (6, 3)):
                pair.append((f"shared_d{d}_c{dc}", "--pair", f"shared_d{d}_c{dc}_a.json",
                             f"shared_d{d}_c{dc}_b.json", {"symmetric": 0.5 * (1 - 1 / (d - dc))}))
            pair.append(("asym_d4_m1", "--pair", "asym_d4_m1_a.json", "asym_d4_m1_b.json",
                         {"forward_ge": 0.75, "backward_le": 0.5}))
            luders = [
                ("luders_trine_povm4", "--luders", "trine.json", f"random_povm_d2_n4_s{s}.json",
                 {"luders_forward": 3, "luders_backward": 4}),
                ("luders_povm3_povm4", "--luders", f"random_povm_d3_n3_s{s}.json",
                 f"random_povm_d3_n4_s{s + 1}.json", {"luders_forward": 3, "luders_backward": 4}),
            ]
            dist.append(("degenerate_r3_d5", "degenerate_r3_d5.json", {"value": 1 - 1 / 3}))
        out = [(n, ["compute", "--measure", "F", mode, self._path(a), self._path(b)], e)
               for n, mode, a, b, e in pair + luders]
        out += [(n, ["disturbance", self._path(f), "--measure", "F"], e) for n, f, e in dist]
        return out

    def units(self, pass_index):
        opt_seed = str(self.seed * 1000 + pass_index)
        report = self._path("report.json")
        out = []
        for name, argv, expect in self.fixtures():
            uid = f"p{pass_index}/{name}"
            full = argv + ["--seed", opt_seed, "--out", report]
            out.append((uid, self._call(full, report, expect)))
        return out

    def _call(self, argv, report, expect):
        def call():
            if os.path.exists(report):
                os.unlink(report)
            rc = _quiet_cli(self.q, argv)
            return rc, report, expect

        return call

    def items(self, unit_id, result, recorder, t0, t1, mark):
        rc, report, expect = result
        doc = None
        if os.path.exists(report):
            with open(report, encoding="utf-8") as handle:
                doc = json.load(handle)
        item = {"id": unit_id, "rc": rc, "expect": expect, "t0": t0, "t1": t1,
                "value": None, "provenance": ""}
        if doc and doc["command"] == "compute":
            res = doc["results"]
            item.update(value=res["symmetric"], forward=res["forward"]["value"],
                        backward=res["backward"]["value"],
                        provenance=f"{res['forward']['provenance']}/{res['backward']['provenance']}",
                        gap_unknown=doc["gap_unknown"],
                        bounds_ok=all(b["satisfied"] for b in doc["bounds"]))
        elif doc:
            item.update(value=doc["result"]["value"], provenance=doc["result"]["provenance"])
        return [item]

    def check(self, item):
        if item["rc"] != 0 or item["value"] is None:
            return f"exit code {item['rc']}, report value {item['value']!r}", None
        if item.get("bounds_ok") is False:
            return "a bound check is violated", None
        exp = item["expect"]
        problems = []
        exact = None
        for key in ("symmetric", "value"):
            if key in exp:
                exact = exp[key]
                if abs(item["value"] - exact) > TOL:
                    problems.append(f"{key} {item['value']!r} != {exact!r}")
        if "forward" in exp and abs(item["forward"] - exp["forward"]) > TOL:
            problems.append(f"forward {item['forward']!r} != {exp['forward']!r}")
        if "forward_ge" in exp and item["forward"] < exp["forward_ge"] - TOL:
            problems.append(f"forward {item['forward']!r} < {exp['forward_ge']}")
        if "backward_le" in exp and item["backward"] > exp["backward_le"] + TOL:
            problems.append(f"backward {item['backward']!r} > {exp['backward_le']}")
        for key, direction in (("luders_forward", "forward"), ("luders_backward", "backward")):
            if key in exp and item[direction] > 1 - 1 / exp[key] + TOL:
                problems.append(f"Lueders {direction} {item[direction]!r} > 1 - 1/{exp[key]}")
        return "; ".join(problems), exact

    def extra_metrics(self, items):
        reports = [i for i in items if "gap_unknown" in i]
        frac = sum(i["gap_unknown"] for i in reports) / len(reports) if reports else 0.0
        return {"gap_unknown_frac": (frac, f"of {len(reports)} pair reports")}


class Verify(Workload):
    """``verify --suite all``: every claim of the paper at the light config."""

    name = "verify"
    TINY_SUITES = ("zchannel", "luders", "triple", "accessible")

    def units(self, pass_index):
        suites = self.TINY_SUITES if self.tiny else ("all",)
        report = os.path.join(self.work, "verify.json")
        argv = ["verify", "--seed", str(self.seed + 1000 * pass_index), "--out", report]
        for suite in suites:
            argv += ["--suite", suite]

        def call():
            if os.path.exists(report):
                os.unlink(report)
            return _quiet_cli(self.q, argv), report

        return [(f"p{pass_index}", call)]

    def items(self, unit_id, result, recorder, t0, t1, mark):
        rc, report = result
        claims = recorder.claims[mark[1]:]
        doc = {"claims": []}
        if os.path.exists(report):
            with open(report, encoding="utf-8") as handle:
                doc = json.load(handle)
        out = []
        counts: dict[str, int] = {}
        for (suite, c0, c1), claim in zip(claims, doc["claims"]):
            k = counts[suite] = counts.get(suite, -1) + 1
            out.append({
                "id": f"{unit_id}/{suite}/{k}",
                "name": claim["name"],
                "comparator": claim["comparator"],
                "value": claim["measured"],
                "expected": claim["expected"],
                "passed": claim["passed"],
                "rc": rc,
                "provenance": recorder.provenance_between(c0, c1),
                "t0": c0,
                "t1": c1,
            })
        if rc != 0 or len(claims) != len(doc["claims"]) or not out:
            out.append({"id": f"{unit_id}/command", "value": None, "provenance": "", "rc": rc,
                        "passed": False, "t0": t1, "t1": t1,
                        "note": f"{len(claims)} claims timed, {len(doc['claims'])} reported"})
        return out

    def check(self, item):
        if not item["passed"]:
            return f"claim failed (command exit code {item['rc']})", None
        if item["comparator"] == "eq" and item["expected"] != 0:
            return "", item["expected"]
        return "", None


WORKLOADS = {w.name: w for w in (Scan, Compute, Verify)}
