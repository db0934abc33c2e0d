"""CLI surface: subcommands, exit codes, file round-trips."""

import argparse
import csv
import dataclasses
import errno
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qincompat
from qincompat import core, load_observable_file, random_povm, save_observable_file, trine_povm
from qincompat.cli import MAX_COUNT, MAX_DIM, MAX_TRIALS, main
from qincompat.verify import SUITES

FAST = ["--starts", "2", "--iterations", "200"]


def run(argv):
    return main([str(a) for a in argv])


def test_construct_mub_and_compute_pair(tmp_path, capsys):
    assert run(["construct", "mub", "--dim", 5, "--out", tmp_path]) == 0
    file_a = tmp_path / "mub_d5_a.json"
    file_b = tmp_path / "mub_d5_b.json"
    obs_a = load_observable_file(file_a)
    obs_b = load_observable_file(file_b)
    overlaps = np.abs(obs_a.basis.conj().T @ obs_b.basis) ** 2
    np.testing.assert_allclose(overlaps, np.full((5, 5), 0.2), atol=1e-12)

    report_path = tmp_path / "report.json"
    code = run(
        ["compute", "--measure", "F", "--pair", file_a, file_b, "--out", report_path]
        + FAST
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "symmetric=0.4" in out
    doc = json.loads(report_path.read_text())
    assert doc["results"]["symmetric"] == pytest.approx(0.4, abs=1e-9)
    assert doc["bounds"]
    assert all(b["satisfied"] for b in doc["bounds"])


def test_construct_commuting_subspace_pattern(tmp_path):
    assert run(
        ["construct", "commuting-subspace", "--dim", 6, "--dc", 3, "--out", tmp_path]
    ) == 0
    obs_a = load_observable_file(tmp_path / "shared_d6_c3_a.json")
    obs_b = load_observable_file(tmp_path / "shared_d6_c3_b.json")
    ov = np.abs(obs_a.basis.conj().T @ obs_b.basis)
    np.testing.assert_allclose(ov[:3, :3], np.eye(3), atol=1e-12)
    np.testing.assert_allclose(ov[3:, 3:], np.full((3, 3), 1 / np.sqrt(3)), atol=1e-12)


def test_construct_zchannel_and_disturbance(tmp_path, capsys):
    assert run(["construct", "zchannel", "--p", 0.3, "--out", tmp_path]) == 0
    inst_path = tmp_path / "zchannel_p0.3.json"
    assert inst_path.exists()
    assert run(["disturbance", inst_path, "--measure", "F"] + FAST) == 0
    assert "0.3" in capsys.readouterr().out


def test_compute_luders_respects_outcome_bound(tmp_path, capsys):
    trine_path = tmp_path / "trine.json"
    save_observable_file(trine_povm(), trine_path)
    other_path = tmp_path / "povm2.json"
    save_observable_file(random_povm(2, 2, seed=3), other_path)
    report_path = tmp_path / "luders.json"
    code = run(
        ["compute", "--measure", "F", "--luders", trine_path, other_path,
         "--out", report_path] + FAST
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["results"]["forward"]["value"] <= 2.0 / 3.0 + 1e-8
    names = [b["name"] for b in doc["bounds"]]
    assert "luders-outcomes-forward" in names


def test_compute_luders_rejects_observable_file(tmp_path):
    assert run(["construct", "mub", "--dim", 2, "--out", tmp_path]) == 0
    code = run(
        ["compute", "--measure", "F", "--luders",
         tmp_path / "mub_d2_a.json", tmp_path / "mub_d2_b.json"] + FAST
    )
    assert code == 2


@pytest.mark.parametrize(
    "mode, first, second",
    [("--luders", "zchannel_p0.5.json", "trine.json"), ("--pair", "trine.json", "mub_d2_a.json")],
)
def test_compute_mode_accepts_only_its_kind_of_file(tmp_path, capsys, mode, first, second):
    for family in (["mub", "--dim", 2], ["trine"], ["zchannel"]):
        assert run(["construct", *family, "--out", tmp_path]) == 0
    capsys.readouterr()
    code = run(["compute", "--measure", "F", mode, tmp_path / first, tmp_path / second] + FAST)
    assert code == 2
    assert str(tmp_path / first) in capsys.readouterr().err


def test_compute_rejects_files_of_different_dimension(tmp_path, capsys):
    assert run(["construct", "mub", "--dim", 2, "--out", tmp_path]) == 0
    assert run(["construct", "mub", "--dim", 3, "--out", tmp_path]) == 0
    code = run(
        ["compute", "--measure", "F", "--pair",
         tmp_path / "mub_d2_a.json", tmp_path / "mub_d3_b.json"] + FAST
    )
    assert code == 2
    assert "dimensions differ" in capsys.readouterr().err


def test_compute_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    good = tmp_path / "mub_d2_a.json"
    run(["construct", "mub", "--dim", 2, "--out", tmp_path])
    assert run(["compute", "--measure", "F", "--pair", bad, good] + FAST) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "eigenvalues, first_entry, field",
    [
        ("[0, 1" + "0" * 400 + "]", "[1, 0]", "payload.eigenvalues"),
        ("[0, 1]", "[1" + "0" * 400 + ", 0]", "payload.vectors[0][0]"),
        ("[0, 1" + "0" * 5000 + "]", "[1, 0]", "unreadable JSON number"),
    ],
    ids=["eigenvalue", "vector-entry", "digit-limit"],
)
def test_disturbance_rejects_numbers_beyond_float_range(
    tmp_path, capsys, eigenvalues, first_entry, field
):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"format_version": "1", "dim": 2, "payload": {"type": "basis", '
        f'"eigenvalues": {eigenvalues}, "vectors": [[{first_entry}, [0, 0]], [[0, 0], [1, 0]]]}}}}'
    )
    assert run(["disturbance", path] + FAST) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_scan_csv_format_and_determinism(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run(
        ["scan", "--measure", "1", "--dim", 2, "--trials", 2, "--inject", "mub",
         "--seed", 3, "--out", out]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "no counterexample found" in stdout
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["trial", "seed", "value", "argmax_state"]
    assert len(rows) == 4
    assert rows[1][1] == "-1"
    assert float(rows[1][2]) == pytest.approx(0.25, abs=1e-9)
    amplitudes = json.loads(rows[1][3])
    assert len(amplitudes) == 2

    second = tmp_path / "scan2.csv"
    run(["scan", "--measure", "1", "--dim", 2, "--trials", 2, "--inject", "mub",
         "--seed", 3, "--out", second])
    assert out.read_text() == second.read_text()


def test_a_scan_that_fails_while_writing_leaves_the_previous_csv(tmp_path, monkeypatch):
    import qincompat.cli as cli
    from qincompat.serialization import _pairs

    out = tmp_path / "scan.csv"
    args = ["scan", "--measure", "1", "--dim", 2, "--trials", 3, "--seed", 3, "--out", out]
    assert run(args) == 0
    before = out.read_bytes()
    formatted = []

    def failing(amplitudes):
        if len(formatted) == 2:
            raise RuntimeError("row formatting failed")
        formatted.append(amplitudes)
        return _pairs(amplitudes)

    monkeypatch.setattr(cli, "_pairs", failing)
    with pytest.raises(RuntimeError, match="row formatting failed"):
        run(args)
    assert out.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["scan.csv"]


def test_exact_values_say_so_in_reports_and_scan_summary(tmp_path, capsys, monkeypatch):
    import qincompat.incompatibility as incompatibility

    assert run(["construct", "mub", "--dim", 3, "--out", tmp_path]) == 0
    report_path = tmp_path / "report.json"
    code = run(["compute", "--measure", "1", "--pair", tmp_path / "mub_d3_a.json",
                tmp_path / "mub_d3_b.json", "--out", report_path, *FAST])
    assert code == 0
    doc = json.loads(report_path.read_text())
    for direction in ("forward", "backward"):
        assert doc["results"][direction]["provenance"] == "exact"
        assert doc["results"][direction]["starts_used"] == 0
    assert doc["gap_unknown"] is False

    capsys.readouterr()
    scan_args = ["scan", "--measure", "1", "--dim", 3, "--trials", 2, "--inject", "mub",
                 "--out", tmp_path / "scan.csv", *FAST]
    assert run(scan_args) == 0
    assert "(3 exact suprema, 0 lower bounds)" in capsys.readouterr().out
    monkeypatch.setattr(incompatibility, "EXACT_L1_MAX_OUTCOMES", 2)
    assert run(scan_args) == 0
    assert "(0 exact suprema, 3 lower bounds)" in capsys.readouterr().out


def test_reports_count_objective_evaluations(tmp_path):
    assert run(["construct", "mub", "--dim", 3, "--out", tmp_path]) == 0
    assert run(["construct", "zchannel", "--p", 0.3, "--out", tmp_path]) == 0
    pair = [tmp_path / "mub_d3_a.json", tmp_path / "mub_d3_b.json"]
    report_path = tmp_path / "report.json"
    counts = {}
    for measure in ("1", "F"):
        assert run(["compute", "--measure", measure, "--pair", *pair,
                    "--out", report_path, *FAST]) == 0
        results = json.loads(report_path.read_text())["results"]
        counts[measure] = [results[d]["evaluations"] for d in ("forward", "backward")]
    assert counts["1"] == [0, 0]  # exact
    assert min(counts["F"]) > 0  # seeds ranked for the ceiling exit
    for path, expected_zero in ((pair[0], True), (tmp_path / "zchannel_p0.3.json", False)):
        assert run(["disturbance", path, "--measure", "F", "--out", report_path, *FAST]) == 0
        evaluations = json.loads(report_path.read_text())["result"]["evaluations"]
        assert (evaluations == 0) is expected_zero


def test_reports_count_lbfgsb_iterations(tmp_path):
    assert run(["construct", "mub", "--dim", 3, "--out", tmp_path]) == 0
    save_observable_file(trine_povm(), tmp_path / "trine.json")
    save_observable_file(random_povm(2, 4, seed=0), tmp_path / "povm4.json")
    report_path = tmp_path / "report.json"
    iterations = {}
    for mode, pair in (("--pair", ["mub_d3_a.json", "mub_d3_b.json"]),
                       ("--luders", ["trine.json", "povm4.json"])):
        assert run(["compute", "--measure", "F", mode, *(tmp_path / p for p in pair),
                    "--out", report_path, *FAST]) == 0
        results = json.loads(report_path.read_text())["results"]
        iterations[mode] = [results[d]["iterations"] for d in ("forward", "backward")]
    assert iterations["--pair"] == [0, 0]  # seeds on the ceiling, no search
    assert min(iterations["--luders"]) > 0
    assert run(["disturbance", tmp_path / "trine.json", "--measure", "F",
                "--out", report_path, *FAST]) == 0
    assert json.loads(report_path.read_text())["result"]["iterations"] > 0


def test_reports_carry_the_proven_upper_bound(tmp_path):
    assert run(["construct", "mub", "--dim", 3, "--out", tmp_path]) == 0
    assert run(["construct", "commuting-subspace", "--dim", 6, "--dc", 3,
                "--out", tmp_path]) == 0
    assert run(["construct", "zchannel", "--p", 0.3, "--out", tmp_path]) == 0
    report_path = tmp_path / "report.json"
    for stem in ("mub_d3", "shared_d6_c3"):
        assert run(["compute", "--measure", "F", "--pair", tmp_path / f"{stem}_a.json",
                    tmp_path / f"{stem}_b.json", "--out", report_path, *FAST]) == 0
        doc = json.loads(report_path.read_text())
        for direction in ("forward", "backward"):
            assert doc["results"][direction]["upper_bound"] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert doc["gap_unknown"] is False
    assert run(["disturbance", tmp_path / "zchannel_p0.3.json", "--measure", "F",
                "--out", report_path, *FAST]) == 0
    result = json.loads(report_path.read_text())["result"]
    assert result["upper_bound"] == pytest.approx(0.3, abs=1e-12)
    assert result["upper_bound"] >= result["value"]
    assert result["iterations"] == 0


def test_reports_carry_the_gap_to_the_upper_bound(tmp_path):
    save_observable_file(random_povm(2, 4, seed=0), tmp_path / "povm4.json")
    for family in ("mub", "zchannel", "trine"):
        assert run(["construct", family, "--out", tmp_path]) == 0
    report_path = tmp_path / "report.json"

    def results(argv):
        assert run([*argv, "--out", report_path, *FAST]) == 0
        doc = json.loads(report_path.read_text())
        return [doc["result"]] if "result" in doc else [
            doc["results"]["forward"], doc["results"]["backward"]]

    # Exact: the Chebyshev values of a MUB pair sit on their bounds.
    for result in results(["compute", "--measure", "inf", "--pair", tmp_path / "mub_d2_a.json",
                           tmp_path / "mub_d2_b.json"]):
        assert (result["provenance"], result["gap"]) == ("exact", 0.0)
    # Certified: the z channel's disturbance stops on its dual ceiling.
    [result] = results(["disturbance", tmp_path / "zchannel_p0.5.json", "--measure", "F"])
    assert result["provenance"] == "analytic-seed"
    assert result["gap"] == max(0.0, result["upper_bound"] - result["value"])
    assert 0.0 <= result["gap"] <= 1e-12
    # Uncertified: Lueders values far below their ceilings.
    for result in results(["compute", "--measure", "F", "--luders", tmp_path / "trine.json",
                           tmp_path / "povm4.json"]):
        assert result["gap"] == result["upper_bound"] - result["value"]
        assert result["gap"] > 0.1
    # Unbounded: an L1 disturbance proves no ceiling.
    [result] = results(["disturbance", tmp_path / "zchannel_p0.5.json", "--measure", "1"])
    assert result["upper_bound"] is None and result["gap"] is None


def test_verify_suite_selector_and_report(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code = run(["verify", "--suite", "accessible", "--out", report_path])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout
    doc = json.loads(report_path.read_text())
    assert all(claim["passed"] for claim in doc["claims"])


def test_verify_fails_under_impossible_tolerance(capsys, monkeypatch):
    import qincompat.verify as verify

    def impossible(config_for):
        for claim in verify._suite_zchannel(config_for):
            yield dataclasses.replace(claim, tol=-1.0)

    monkeypatch.setitem(verify._SUITE_RUNNERS, "zchannel", impossible)
    assert run(["verify", "--suite", "zchannel"]) == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_scan_exits_3_on_a_row_above_the_ceiling(tmp_path, capsys, monkeypatch):
    import qincompat.cli as cli

    real_scan = cli.conjecture_scan

    def inflated(*args, **kwargs):
        report = real_scan(*args, **kwargs)
        row = dataclasses.replace(report.rows[-1], value=report.threshold + 1e-9)
        return dataclasses.replace(report, rows=report.rows[:-1] + (row,))

    monkeypatch.setattr(cli, "conjecture_scan", inflated)
    out = tmp_path / "scan.csv"
    code = run(["scan", "--measure", "inf", "--dim", 2, "--trials", 2, "--out", out])
    assert code == 3
    assert "1 value(s) above the proven bound (trials 1)" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 3


def test_compute_exits_3_on_a_violated_bound_and_still_writes_its_report(tmp_path, capsys, monkeypatch):
    import qincompat.incompatibility as incompatibility

    real_checks = incompatibility.check_bounds

    def lowered(report, first, second):  # the first check's bound falls below its measured value
        first_check, *rest = real_checks(report, first, second)
        return (dataclasses.replace(first_check, bound=first_check.measured - 0.25), *rest)

    monkeypatch.setattr(incompatibility, "check_bounds", lowered)
    a, b, _ = _fixture_files(tmp_path)
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["compute", "--measure", "F", "--pair", a, b, "--out", out, *FAST]) == 3
    captured = capsys.readouterr()
    assert captured.err == "1 bound violation(s) detected\n"
    assert captured.out.count("[VIOLATED]") == 1
    bounds = json.loads(out.read_text())["bounds"]
    assert [b["satisfied"] for b in bounds] == [False] + [True] * (len(bounds) - 1)


def test_a_numerical_failure_inside_a_compute_exits_3(tmp_path, capsys, monkeypatch):
    import qincompat.incompatibility as incompatibility
    from qincompat import NumericalFailureError

    def diverging(*args, **kwargs):
        raise NumericalFailureError("decomposition of the outcome differences did not converge")

    monkeypatch.setattr(incompatibility, "directional_incompatibility", diverging)
    a, b, _ = _fixture_files(tmp_path)
    out = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["compute", "--measure", "1", "--pair", a, b, "--out", out]) == 3
    assert capsys.readouterr().err == (
        "error: decomposition of the outcome differences did not converge\n"
    )
    assert not out.exists()


def test_construct_commuting_subspace_without_dc_exits_2(tmp_path, capsys):
    assert run(["construct", "commuting-subspace", "--dim", 4, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == "error: commuting-subspace needs --dc\n"
    assert not list(tmp_path.iterdir())


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        run(["verify", "--suite", "nonsense"])


def test_verify_runs_a_repeated_suite_once(capsys):
    assert run(["verify", "--suite", "triple", "--suite", "triple"]) == 0
    out = capsys.readouterr().out
    assert out.count("triple: fidelity value of the unbiased qubit triple") == 1
    assert out.splitlines()[-1] == "1/1 claims passed"


def test_run_suites_checks_every_selector_and_runs_each_suite_once(monkeypatch):
    import qincompat.verify as verify

    for suite in SUITES:
        monkeypatch.setitem(verify._SUITE_RUNNERS, suite, lambda config_for, suite=suite: [suite])
    assert verify.run_suites(["triple", "triple"]) == ["triple"]
    assert verify.run_suites(["all", "all"]) == list(SUITES)
    rest = [suite for suite in SUITES if suite != "zchannel"]
    assert verify.run_suites(["zchannel", "all", "triple"]) == ["zchannel"] + rest
    for selectors in (["all", "bogus"], ["bogus", "all"], ["triple", "bogus"]):
        with pytest.raises(qincompat.ParamOutOfRangeError, match="bogus"):
            verify.run_suites(selectors)


_SHARING_SUITES = ["mub-directional", "mub-symmetric", "shared-eigenvectors", "accessible"]


def _recorded_fixtures(monkeypatch):
    """Record each fixture the suites read, with its key, and each fixture construction that runs."""
    import qincompat.constructions as constructions
    import qincompat.verify as verify

    read, built = [], []
    real_fixture = verify._fixture

    def reading(name, *args):
        pair = real_fixture(name, *args)
        read.append(((name, *args), pair))
        return pair

    def building(name, real):
        return lambda *args: built.append((name, *args)) or real(*args)

    monkeypatch.setattr(verify, "_fixture", reading)
    for name in ("fourier_mub_pair", "commuting_subspace_pair"):
        monkeypatch.setattr(constructions, name, building(name, getattr(constructions, name)))
    return read, built


def test_suites_of_one_run_share_each_fixture_and_the_next_run_builds_anew(monkeypatch):
    import qincompat.verify as verify

    read, built = _recorded_fixtures(monkeypatch)
    verify.run_suites(_SHARING_SUITES)
    first = dict(read)
    assert len(read) == 7 + 5 + 4 + 3 and len(first) == 7 + 4  # MUB d = 2..8, shared (4, 1) .. (8, 5)
    assert sorted(built) == sorted(first)  # one construction per fixture
    for key, pair in read:
        assert pair is first[key]
    read.clear()
    built.clear()
    verify.run_suites(_SHARING_SUITES)
    assert sorted(built) == sorted(first)
    assert all(pair is not first[key] for key, pair in read)
    assert verify._FIXTURES.get() is None  # nothing is kept between runs


def test_verify_reports_of_one_process_equal_a_fresh_processs(tmp_path):
    """Two ``verify --suite all`` runs in one process write what a fresh process writes."""
    src = Path(qincompat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for seed in (0, 1, 2):
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--out"]
        fresh = tmp_path / f"fresh{seed}.json"
        subprocess.run([sys.executable, "-m", "qincompat.cli", *argv, str(fresh)],
                       capture_output=True, env=env, timeout=300, check=True)
        for again in range(2):
            here = tmp_path / f"here{seed}_{again}.json"
            assert run([*argv, here]) == 0
            assert here.read_bytes() == fresh.read_bytes()


def test_construct_asymmetric_and_random_families(tmp_path):
    assert run(["construct", "asymmetric", "--dim", 4, "--m", 1, "--out", tmp_path]) == 0
    obs_b = load_observable_file(tmp_path / "asym_d4_m1_b.json")
    assert obs_b.ranks == (1, 3)
    assert run(
        ["construct", "random-povm", "--dim", 2, "--outcomes", 3, "--seed", 5,
         "--out", tmp_path]
    ) == 0
    povm = load_observable_file(tmp_path / "random_povm_d2_n3_s5.json")
    assert povm.n_outcomes == 3


def test_scan_rejects_dimension_below_two(tmp_path, capsys):
    code = run(["scan", "--measure", "1", "--dim", 0, "--trials", 1, "--out", tmp_path / "s.csv"])
    assert code == 2
    assert capsys.readouterr().err == "error: dimension must be at least 2\n"


def _fixture_files(tmp_path):
    for family in (["mub", "--dim", 2], ["trine"]):
        assert run(["construct", *family, "--out", tmp_path]) == 0
    return tmp_path / "mub_d2_a.json", tmp_path / "mub_d2_b.json", tmp_path / "trine.json"


# Every subcommand that takes --seed or --out, with fixture files from _fixture_files.
_COMMANDS = {
    "construct-random-observable": lambda a, b, t: ["construct", "random-observable"],
    "construct-random-povm": lambda a, b, t: ["construct", "random-povm", "--outcomes", 3],
    "scan": lambda a, b, t: ["scan", "--measure", "1", "--dim", 2, "--trials", 1],
    "disturbance": lambda a, b, t: ["disturbance", t, *FAST],
    "compute-luders": lambda a, b, t: ["compute", "--measure", "F", "--luders", t, t, *FAST],
    "compute-pair": lambda a, b, t: ["compute", "--measure", "F", "--pair", a, b, *FAST],
    "verify": lambda a, b, t: ["verify", "--suite", "luders"],
}


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    argv = _COMMANDS[command](*_fixture_files(tmp_path))
    out = ["--out", tmp_path / "out.csv"] if command == "scan" else []
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run(argv + out + ["--seed", -1])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a non-negative integer, got '-1'" in err
    assert "Traceback" not in err


_WRITERS = ["construct-random-observable", "scan", "disturbance", "compute-pair", "verify"]


# A path below a regular file fails for every writer; a missing directory fails
# for all but construct, which creates its output directory.
@pytest.mark.parametrize(
    "command, parent",
    [(c, "file") for c in _WRITERS] + [(c, "missing") for c in _WRITERS[1:]],
)
def test_unwritable_out_path_exits_2(tmp_path, capsys, command, parent):
    argv = _COMMANDS[command](*_fixture_files(tmp_path))
    (tmp_path / "file").write_text("")
    bad = tmp_path / parent / "out"
    capsys.readouterr()
    assert run(argv + ["--out", bad]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {bad}: ")


@pytest.mark.parametrize("tol", ["inf", "nan"])
@pytest.mark.parametrize("command", ["disturbance", "compute-luders", "scan"])
def test_non_finite_tolerance_exits_2(tmp_path, capsys, command, tol):
    argv = _COMMANDS[command](*_fixture_files(tmp_path))
    out = ["--out", tmp_path / "out.csv"] if command == "scan" else []
    capsys.readouterr()
    assert run(argv + out + ["--tol", tol]) == 2
    assert capsys.readouterr().err == "error: convergence tolerance must be positive and finite\n"


# Every subcommand that takes --dim, writing into the directory it is given.
_DIM_COMMANDS = {
    "construct-mub": lambda out: ["construct", "mub", "--out", out],
    "construct-random-povm": lambda out: ["construct", "random-povm", "--out", out],
    "scan": lambda out: ["scan", "--measure", "1", "--trials", 1, "--out", out / "s.csv"],
}


@pytest.mark.parametrize("dim", [MAX_DIM + 1, 100000])
@pytest.mark.parametrize("command", list(_DIM_COMMANDS))
def test_dimension_above_the_limit_is_a_usage_error(tmp_path, capsys, command, dim):
    with pytest.raises(SystemExit) as exit_info:
        run(_DIM_COMMANDS[command](tmp_path) + ["--dim", dim])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument --dim: at most {MAX_DIM}, got {dim}" in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["compute-pair", "compute-luders", "disturbance"])
def test_an_input_file_above_the_dimension_limit_exits_2_before_its_payload_is_read(
    tmp_path, capsys, command
):
    big = tmp_path / "big.json"
    payload = {"type": "povm", "elements": "not a list"}
    big.write_text(json.dumps({"format_version": "1", "dim": MAX_DIM + 1, "payload": payload}))
    argv = _COMMANDS[command](big, big, big)
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {big}: dim {MAX_DIM + 1} is above the limit of {MAX_DIM}\n"
    )


def test_out_keeps_the_mode_of_the_report_it_replaces(tmp_path):
    assert run(["construct", "zchannel", "--p", "0.3", "--out", tmp_path]) == 0
    report = tmp_path / "secret.json"
    report.write_text("{}")
    report.chmod(0o600)
    previous = os.umask(0o022)
    try:
        assert run(["disturbance", tmp_path / "zchannel_p0.3.json", "--out", report, *FAST]) == 0
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(report).st_mode) == 0o600
    assert json.loads(report.read_text())["command"] == "disturbance"


def test_dimension_at_the_limit_is_accepted(tmp_path):
    assert run(["construct", "random-observable", "--dim", MAX_DIM, "--out", tmp_path]) == 0


@pytest.mark.parametrize("value", [MAX_COUNT + 1, 10**12])
@pytest.mark.parametrize(
    "command, flag",
    [(c, "--starts") for c in ("disturbance", "compute-pair", "scan")]
    + [("construct-random-povm", "--outcomes")],
)
def test_counts_above_the_limit_are_usage_errors(tmp_path, capsys, command, flag, value):
    argv = _COMMANDS[command](*_fixture_files(tmp_path))
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run(argv + ["--out", out, flag, value])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: at most {MAX_COUNT}, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_outcomes_at_the_limit_are_accepted(tmp_path):
    argv = ["construct", "random-povm", "--dim", 2, "--outcomes", MAX_COUNT, "--out", tmp_path]
    assert run(argv) == 0


@pytest.mark.parametrize("value", [MAX_TRIALS + 1, 10**12])
def test_trials_above_the_limit_are_usage_errors(tmp_path, capsys, monkeypatch, value):
    import qincompat.cli as cli

    monkeypatch.setattr(cli, "conjecture_scan", None)  # a trial would raise TypeError
    out = tmp_path / "scan.csv"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_info:
        run(["scan", "--measure", "1", "--dim", 2, "--trials", value, "--out", out])
    assert exit_info.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == [f"qincompat scan: error: argument --trials: at most {MAX_TRIALS}, got {value}"]
    assert not out.exists()


@pytest.mark.parametrize("family", ["trine", "zchannel", "mub-triple"])
def test_qubit_families_reject_another_dimension(tmp_path, capsys, family):
    capsys.readouterr()
    assert run(["construct", family, "--dim", 5, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        f"error: {family} is a qubit family; --dim must be 2, got 5\n"
    )
    assert not list(tmp_path.iterdir())
    assert run(["construct", family, "--dim", 2, "--out", tmp_path]) == 0
    for path in tmp_path.iterdir():
        assert json.loads(path.read_text())["dim"] == 2


def test_a_failed_write_through_exits_2(tmp_path, capsys, monkeypatch):
    import qincompat.serialization as serialization

    def full(path, mode="r", **kwargs):  # a device that accepts no data, for writers
        if "w" in mode:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return open(path, mode, **kwargs)

    a, b, _ = _fixture_files(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    monkeypatch.setattr(serialization, "open", full, raising=False)
    capsys.readouterr()
    assert run(["compute", "--measure", "F", "--pair", a, b, "--out", fifo, *FAST]) == 2
    assert capsys.readouterr().err == f"error: cannot write {fifo}: {os.strerror(errno.ENOSPC)}\n"


# main keeps one parser for the process; nothing from one call may reach the next.
def test_a_usage_error_leaves_the_next_report_as_a_fresh_process_writes_it(tmp_path):
    a, b, trine = _fixture_files(tmp_path)
    argv = ["compute", "--measure", "F", "--luders", trine, trine, *FAST, "--seed", 4]
    with pytest.raises(SystemExit):
        run(["compute", "--measure", "F", "--pair", a])
    assert run(argv + ["--out", tmp_path / "here.json"]) == 0
    src = Path(qincompat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-m", "qincompat.cli", *map(str, argv),
                    "--out", str(tmp_path / "fresh.json")],
                   capture_output=True, env=env, timeout=120, check=True)
    assert (tmp_path / "here.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


def test_scan_inject_does_not_carry_over_to_the_next_call(tmp_path):
    out = tmp_path / "scan.csv"
    base = ["scan", "--measure", "1", "--dim", 2, "--trials", 2, "--out", out]
    assert run(base + ["--inject", "mub"]) == 0
    assert run(base) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[0] for row in rows] == ["0", "1"]
    assert "-1" not in [row[1] for row in rows]


def test_bare_verify_after_a_selected_suite_runs_every_suite(tmp_path):
    report = tmp_path / "verify.json"
    assert run(["verify", "--suite", "triple", "--out", report]) == 0
    assert {c["suite"] for c in json.loads(report.read_text())["claims"]} == {"triple"}
    assert run(["verify", "--out", report]) == 0
    assert {c["suite"] for c in json.loads(report.read_text())["claims"]} == set(SUITES)


def test_a_second_main_builds_no_parser_and_runs_the_current_handler(tmp_path, monkeypatch):
    import qincompat.cli as cli

    assert run(["construct", "trine", "--out", tmp_path]) == 0
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["construct", "trine", "--out", tmp_path]) == 0
    assert built == []
    monkeypatch.setattr(cli, "cmd_construct", lambda args: 7)
    assert run(["construct", "trine", "--out", tmp_path]) == 7


def test_a_luders_report_builds_no_instrument_and_forms_each_povms_kraus_once(tmp_path, monkeypatch):
    import functools

    import qincompat.core as core

    save_observable_file(trine_povm(), tmp_path / "trine.json")
    save_observable_file(random_povm(2, 4, seed=0), tmp_path / "povm4.json")
    built, formed = [], []
    real_init, real_kraus = core.Instrument.__post_init__, core.Povm.kraus.func

    def counting_init(self):
        built.append(self)
        real_init(self)

    def counting_kraus(povm):
        formed.append(povm)
        return real_kraus(povm)

    monkeypatch.setattr(core.Instrument, "__post_init__", counting_init)
    kraus = functools.cached_property(counting_kraus)
    kraus.__set_name__(core.Povm, "kraus")
    monkeypatch.setattr(core.Povm, "kraus", kraus)
    for measure in ("F", "1", "inf"):
        formed.clear()
        assert run(["compute", "--measure", measure, "--luders", tmp_path / "trine.json",
                    tmp_path / "povm4.json", *FAST]) == 0
        assert built == []
        assert [povm.n_outcomes for povm in formed] == [3, 4]


def test_a_luders_report_decomposes_each_effect_once(tmp_path, monkeypatch):
    trine, povm4 = trine_povm(), random_povm(2, 4, seed=0)
    save_observable_file(trine, tmp_path / "trine.json")
    save_observable_file(povm4, tmp_path / "povm4.json")
    effects = trine.elements + povm4.elements
    decomposed = []

    def counting(gufunc):
        def solve(mat, **kwargs):
            for one in mat.reshape(-1, *mat.shape[-2:]):
                decomposed.extend(i for i, e in enumerate(effects)
                                  if one.shape == e.shape and np.allclose(one, e, rtol=0, atol=1e-12))
            return gufunc(mat, **kwargs)
        return solve

    # Every Hermitian decomposition goes through the LAPACK seam of core;
    # each matrix of a stacked call counts.
    for name in ("_EIGH", "_EIGVALSH"):
        monkeypatch.setattr(core, name, counting(getattr(core, name)))
    assert run(["compute", "--measure", "F", "--luders", tmp_path / "trine.json",
                tmp_path / "povm4.json", *FAST]) == 0
    assert sorted(decomposed) == list(range(7))


# Imports the package and runs an exact and a searched command through main,
# then prints every scipy module loaded.
_FOOTPRINT = """
import sys
import qincompat, qincompat.cli, qincompat.verify
a, b, trine = sys.argv[1:]
assert qincompat.cli.main(["compute", "--measure", "1", "--pair", a, b]) == 0
assert qincompat.cli.main(["disturbance", trine, "--starts", "2", "--iterations", "200"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_load_no_scipy_module_but_the_lbfgsb_extension(tmp_path):
    src = Path(qincompat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *map(str, _fixture_files(tmp_path))],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "['scipy.optimize._lbfgsb']"


# Runs construct, an exact compute, an exact scan and an observable's
# disturbance through main, then prints every scipy module loaded.
_EXACT_FOOTPRINT = """
import os, sys
import qincompat, qincompat.cli, qincompat.verify
out = sys.argv[1]
main = qincompat.cli.main
assert main(["construct", "mub", "--dim", "3", "--out", out]) == 0
a, b = (os.path.join(out, f"mub_d3_{side}.json") for side in "ab")
assert main(["compute", "--measure", "1", "--pair", a, b]) == 0
assert main(["compute", "--measure", "inf", "--pair", a, b]) == 0
assert main(["scan", "--measure", "1", "--dim", "3", "--trials", "2",
             "--out", os.path.join(out, "scan.csv")]) == 0
assert main(["disturbance", a, "--measure", "F"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runs_that_never_search_load_no_scipy_module(tmp_path):
    """The L-BFGS-B extension and its OpenBLAS are loaded by the first search, not at import."""
    src = Path(qincompat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _EXACT_FOOTPRINT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


# Runs a Lueders compute and verify's luders suite through main, counting the
# block splits, then prints the count and whether numpy.ma was imported.
_NO_MASKED_ARRAYS = """
import sys
import qincompat.cli, qincompat.incompatibility as inc
split, calls = inc._invariant_blocks, []
inc._invariant_blocks = lambda *pair: calls.append(1) or split(*pair)
a, b = sys.argv[1:3]
assert qincompat.cli.main(["compute", "--measure", "F", "--luders", a, b, *sys.argv[3:]]) == 0
assert qincompat.cli.main(["verify", "--suite", "luders"]) == 0
print(len(calls), "numpy.ma" in sys.modules)
"""


def test_lueders_commands_do_not_import_numpy_ma(tmp_path):
    """The block split labels its components without ``np.unique``, which imports numpy.ma."""
    for outcomes, seed in ((3, 1), (4, 2)):
        assert run(["construct", "random-povm", "--dim", 3, "--outcomes", outcomes,
                    "--seed", seed, "--out", tmp_path]) == 0
    files = [tmp_path / "random_povm_d3_n3_s1.json", tmp_path / "random_povm_d3_n4_s2.json"]
    src = Path(qincompat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS, *map(str, files), *FAST],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    splits, masked = proc.stdout.splitlines()[-1].split()
    assert int(splits) >= 2 and masked == "False"
