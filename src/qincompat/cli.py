"""Command-line interface: compute, verify, construct, scan.

Exit codes: 0 on success, 2 on input/validation problems, bad parameters
and output paths that cannot be written, 3 when a scientific check fails: a
bound violation in ``compute``, a scan row above the proven (1 - 1/d)/2
ceiling in ``scan``, or a failed claim in ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys

from .constructions import (
    asymmetric_pair,
    commuting_subspace_pair,
    fourier_mub_pair,
    mub_triple_qubit,
    random_observable,
    random_povm,
    trine_povm,
    z_channel,
)
from .core import HermitianObservable, Instrument, Povm
from .errors import (
    DimensionMismatchError,
    ParamOutOfRangeError,
    ParseError,
    QincompatError,
    ValidationError,
)
from .incompatibility import (
    Measure,
    conjecture_scan,
    maximal_disturbance,
    pair_incompatibility,
)
from .optimize import OptimizerConfig
from .serialization import (
    MAX_DIM,
    REPORT_VERSION,
    _pairs,
    load_observable_file,
    save_observable_file,
    write_json_atomic,
    write_text_atomic,
)
from .verify import SUITES, run_suites

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SCIENCE = 3
# The largest --starts and --outcomes: ``disturbance`` of the trine then takes
# under 1 s and 52 MB, a d = 32 random POVM 11 s and 243 MB.
MAX_COUNT = 1024
# The largest scan --trials: every row is kept until the CSV is written. A
# --dim 2 scan then takes about 20 s and 96 MB (2 shared vCPUs); one d = 32
# trial takes about 0.05 s under L1 and 0.015 s under Chebyshev, so there a
# full scan runs 25-90 minutes.
MAX_TRIALS = 100_000


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def _config_from_args(args) -> OptimizerConfig:
    return OptimizerConfig(
        n_random_starts=args.starts,
        max_iterations=args.iterations,
        convergence_tol=args.tol,
        rng_seed=args.seed,
    )


_KIND = {HermitianObservable: "observable", Povm: "povm", Instrument: "instrument"}


def _describe_input(path: str, obj) -> dict:
    return {"path": path, "kind": _KIND[type(obj)], "dim": obj.dim}


def _opt_result_json(result) -> dict:
    bound = result.upper_bound
    return {
        "value": result.value,
        "provenance": result.provenance.value,
        "starts_used": result.starts_used,
        "upper_bound": bound,
        "gap": None if bound is None else max(0.0, bound - result.value),
        "evaluations": result.evaluations,
        "iterations": result.iterations,
        "argmax": _pairs(result.argmax.amplitudes),
    }


@contextlib.contextmanager
def _writing(path):
    """Report an output path that cannot be written as a bad parameter (exit 2)."""
    try:
        yield
    except OSError as exc:
        raise ParamOutOfRangeError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit_report(args, report: dict) -> None:
    if args.out:
        with _writing(args.out):
            write_json_atomic(args.out, report)
        print(f"report written to {args.out}")


def cmd_compute(args) -> int:
    if args.pair:
        mode, wanted, paths = "pair", "observable", args.pair
    else:
        mode, wanted, paths = "luders", "povm", args.luders
    first = load_observable_file(paths[0])
    second = load_observable_file(paths[1])
    measure = Measure.from_flag(args.measure)
    config = _config_from_args(args)
    for path, obj in zip(paths, (first, second)):
        if _KIND[type(obj)] != wanted:
            raise ValidationError(
                f"--{mode} accepts only {wanted} files; {path} is of kind {_KIND[type(obj)]}"
            )
    report = pair_incompatibility(measure, first, second, config)
    doc = {
        "report_version": REPORT_VERSION,
        "command": "compute",
        "measure": measure.value,
        "inputs": {
            "first": _describe_input(paths[0], first),
            "second": _describe_input(paths[1], second),
        },
        "optimizer": {
            "n_random_starts": config.n_random_starts,
            "max_iterations": config.max_iterations,
            "convergence_tol": config.convergence_tol,
            "rng_seed": config.rng_seed,
        },
        "results": {
            "forward": _opt_result_json(report.forward),
            "backward": _opt_result_json(report.backward),
            "symmetric": report.symmetric,
        },
        "bounds": [
            {
                "name": c.name,
                "bound": c.bound,
                "measured": c.measured,
                "satisfied": c.satisfied,
            }
            for c in report.bound_checks
        ],
        "gap_unknown": report.gap_unknown,
    }
    print(f"measure {measure.value}: forward={_fmt(report.forward.value)} "
          f"backward={_fmt(report.backward.value)} symmetric={_fmt(report.symmetric)}")
    for check in report.bound_checks:
        flag = "ok" if check.satisfied else "VIOLATED"
        print(f"  bound {check.name}: measured {_fmt(check.measured)} "
              f"<= {_fmt(check.bound)} [{flag}]")
    _emit_report(args, doc)
    if report.bound_violations:
        print(f"{len(report.bound_violations)} bound violation(s) detected", file=sys.stderr)
        return EXIT_SCIENCE
    return EXIT_OK


def cmd_disturbance(args) -> int:
    inst = load_observable_file(args.input)
    measure = Measure.from_flag(args.measure)
    config = _config_from_args(args)
    result = maximal_disturbance(measure, inst, config)
    print(f"maximal {measure.value}-disturbance: {_fmt(result.value)} "
          f"({result.provenance.value})")
    doc = {
        "report_version": REPORT_VERSION,
        "command": "disturbance",
        "measure": measure.value,
        "input": _describe_input(args.input, inst),
        "result": _opt_result_json(result),
    }
    _emit_report(args, doc)
    return EXIT_OK


# Families that exist only on a qubit, for which --dim must be absent or 2.
_QUBIT_FAMILIES = ("mub-triple", "zchannel", "trine")


def _construct_objects(args) -> list[tuple[str, object]]:
    family = args.family
    if family in _QUBIT_FAMILIES and args.dim not in (None, 2):
        raise ParamOutOfRangeError(f"{family} is a qubit family; --dim must be 2, got {args.dim}")
    dim = 2 if args.dim is None else args.dim
    if family == "mub":
        obs_a, obs_b = fourier_mub_pair(dim)
        return [(f"mub_d{dim}_a.json", obs_a), (f"mub_d{dim}_b.json", obs_b)]
    if family == "mub-triple":
        names = ("x", "y", "z")
        return [
            (f"mub_triple_{n}.json", obs) for n, obs in zip(names, mub_triple_qubit())
        ]
    if family == "commuting-subspace":
        if args.dc is None:
            raise ParamOutOfRangeError("commuting-subspace needs --dc")
        obs_a, obs_b = commuting_subspace_pair(dim, args.dc)
        stem = f"shared_d{dim}_c{args.dc}"
        return [(f"{stem}_a.json", obs_a), (f"{stem}_b.json", obs_b)]
    if family == "asymmetric":
        obs_a, obs_b = asymmetric_pair(dim, args.m)
        stem = f"asym_d{dim}_m{args.m}"
        return [(f"{stem}_a.json", obs_a), (f"{stem}_b.json", obs_b)]
    if family == "zchannel":
        return [(f"zchannel_p{args.p:g}.json", z_channel(args.p))]
    if family == "trine":
        return [("trine.json", trine_povm())]
    if family == "random-observable":
        return [
            (f"random_obs_d{dim}_s{args.seed}.json", random_observable(dim, args.seed))
        ]
    if family == "random-povm":
        return [
            (
                f"random_povm_d{dim}_n{args.outcomes}_s{args.seed}.json",
                random_povm(dim, args.outcomes, args.seed),
            )
        ]
    raise ParamOutOfRangeError(f"unknown family {family!r}")


def cmd_construct(args) -> int:
    objects = _construct_objects(args)
    out_dir = args.out or "."
    with _writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
        for filename, obj in objects:
            path = os.path.join(out_dir, filename)
            save_observable_file(obj, path)
            print(f"wrote {path}")
    return EXIT_OK


def cmd_scan(args) -> int:
    measure = Measure.from_flag(args.measure)
    config = _config_from_args(args)
    report = conjecture_scan(
        measure,
        args.dim,
        args.trials,
        config=config,
        base_seed=args.seed,
        inject=args.inject,
    )
    table = io.StringIO()
    writer = csv.writer(table)
    writer.writerow(["trial", "seed", "value", "argmax_state"])
    for row in report.rows:
        argmax = json.dumps(_pairs(row.argmax.amplitudes))
        writer.writerow([row.trial, row.seed, repr(row.value), argmax])
    with _writing(args.out):
        write_text_atomic(args.out, table.getvalue())
    n_bad = len(report.counterexamples)
    n_exact = sum(row.is_exact for row in report.rows)
    print(f"scan: {len(report.rows)} rows written to {args.out}")
    print(f"max value {_fmt(report.max_value)} against threshold {_fmt(report.threshold)} "
          f"({n_exact} exact suprema, {len(report.rows) - n_exact} lower bounds)")
    if n_bad:
        trials = ", ".join(str(r.trial) for r in report.counterexamples)
        print(f"{n_bad} value(s) above the proven bound (trials {trials})", file=sys.stderr)
        return EXIT_SCIENCE
    print("no counterexample found")
    return EXIT_OK


def cmd_verify(args) -> int:
    results = run_suites(selectors=args.suite, rng_seed=args.seed)
    n_fail = 0
    for claim in results:
        status = "PASS" if claim.passed else "FAIL"
        n_fail += not claim.passed
        rel = {"eq": "==", "le": "<=", "ge": ">="}[claim.comparator]
        print(
            f"[{status}] {claim.suite}: {claim.name}: "
            f"{_fmt(claim.measured)} {rel} {_fmt(claim.expected)} (tol {claim.tol:g})"
        )
    print(f"{len(results) - n_fail}/{len(results)} claims passed")
    doc = {
        "report_version": REPORT_VERSION,
        "command": "verify",
        "claims": [
            {
                "suite": c.suite,
                "name": c.name,
                "comparator": c.comparator,
                "measured": c.measured,
                "expected": c.expected,
                "tol": c.tol,
                "passed": c.passed,
            }
            for c in results
        ],
    }
    _emit_report(args, doc)
    return EXIT_SCIENCE if n_fail else EXIT_OK


def _seed(text: str) -> int:
    """The type of every ``--seed``: numpy's generators take only seeds >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _at_most(limit: int):
    """The argparse type of an integer up to ``limit``; the command checks its floor."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"at most {limit}, got {value}")
        return value

    return parse


def _add_optimizer_flags(parser, starts=8, iterations=600) -> None:
    parser.add_argument("--starts", type=_at_most(MAX_COUNT), default=starts,
                        help="random optimizer starts per supremum; as many of the "
                             "best candidate states are refined as well")
    parser.add_argument("--iterations", type=int, default=iterations,
                        help="L-BFGS-B iteration cap per start")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="convergence tolerance: a start stops once an iteration "
                             "improves the value by less than tol * 1e-5")
    parser.add_argument("--seed", type=_seed, default=0, help="RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qincompat",
        description="Distance-based incompatibility and disturbance measures "
        "for quantum measurements",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser(
        "compute", help="incompatibility of a pair from observable/POVM files"
    )
    group = p_compute.add_mutually_exclusive_group(required=True)
    group.add_argument("--pair", nargs=2, metavar="FILE",
                       help="two observable files (projective measurements)")
    group.add_argument("--luders", nargs=2, metavar="FILE",
                       help="two POVM files measured through their square-root instruments")
    p_compute.add_argument("--measure", required=True, choices=["1", "F", "inf"])
    p_compute.add_argument("--out", help="write a JSON report here")
    _add_optimizer_flags(p_compute)

    p_dist = sub.add_parser(
        "disturbance", help="maximal disturbance of a measurement file"
    )
    p_dist.add_argument("input", metavar="FILE")
    p_dist.add_argument("--measure", default="F", choices=["1", "F"])
    p_dist.add_argument("--out")
    _add_optimizer_flags(p_dist)

    p_construct = sub.add_parser("construct", help="emit observable/POVM/instrument files")
    p_construct.add_argument(
        "family",
        choices=[
            "mub",
            "mub-triple",
            "commuting-subspace",
            "asymmetric",
            "zchannel",
            "trine",
            "random-observable",
            "random-povm",
        ],
    )
    p_construct.add_argument("--dim", type=_at_most(MAX_DIM), default=None,
                             help="dimension (default 2; the qubit families accept only 2)")
    p_construct.add_argument("--dc", type=int, default=None,
                             help="shared-eigenvector count for commuting-subspace")
    p_construct.add_argument("--m", type=int, default=1,
                             help="degenerate block size for asymmetric")
    p_construct.add_argument("--p", type=float, default=0.5,
                             help="mixing probability for zchannel")
    p_construct.add_argument("--outcomes", type=_at_most(MAX_COUNT), default=2,
                             help="outcome count for random-povm")
    p_construct.add_argument("--seed", type=_seed, default=0)
    p_construct.add_argument("--out", help="output directory (default: current)")

    p_scan = sub.add_parser(
        "scan", help="randomized check of the proven (1-1/d)/2 ceiling on symmetric values"
    )
    p_scan.add_argument("--measure", required=True, choices=["1", "inf"])
    p_scan.add_argument("--dim", type=_at_most(MAX_DIM), required=True)
    p_scan.add_argument("--trials", type=_at_most(MAX_TRIALS), required=True)
    p_scan.add_argument("--inject", action="append", default=[],
                        choices=["mub", "commuting"],
                        help="prepend a known fixture as an extra trial")
    p_scan.add_argument("--out", required=True, help="CSV output path")
    _add_optimizer_flags(p_scan, starts=2, iterations=200)

    p_verify = sub.add_parser("verify", help="run the claim suites")
    p_verify.add_argument("--suite", action="append", default=None,
                          choices=["all"] + list(SUITES),
                          help="suite selector (repeatable; default all)")
    p_verify.add_argument("--seed", type=_seed, default=0)
    p_verify.add_argument("--out", help="write a JSON report here")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`main` call in this process, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command; may be called any number of times in one process."""
    args = _parser().parse_args(argv)
    if args.command == "verify" and args.suite is None:
        args.suite = ["all"]
    # Looked up per call, so a handler replaced after the first call is the one run.
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except (ParseError, ValidationError, ParamOutOfRangeError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except QincompatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCIENCE


if __name__ == "__main__":
    sys.exit(main())
