"""CLI surface: subcommands, exit codes, file round-trips."""

import csv
import json

import numpy as np
import pytest

from qincompat import load_observable_file, random_povm, save_observable_file, trine_povm
from qincompat.cli import main

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


def test_verify_suite_selector_and_report(tmp_path, capsys):
    report_path = tmp_path / "verify.json"
    code = run(["verify", "--suite", "accessible", "--out", report_path])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout and "[FAIL]" not in stdout
    doc = json.loads(report_path.read_text())
    assert all(claim["passed"] for claim in doc["claims"])


def test_verify_fails_under_impossible_tolerance(capsys):
    code = run(["verify", "--suite", "zchannel", "--tol-scale", "1e-12",
                "--starts", "1"])
    assert code == 3
    assert "[FAIL]" in capsys.readouterr().out


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        run(["verify", "--suite", "nonsense"])


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
