"""File formats: exact round-trips and diagnostics."""

import json
import os

import numpy as np
import pytest

from qincompat import (
    HermitianObservable,
    Instrument,
    ParseError,
    Povm,
    ValidationError,
    fourier_mub_pair,
    load_observable_file,
    random_observable,
    random_povm,
    save_observable_file,
    trine_povm,
    z_channel,
)


def roundtrip(obj, path):
    save_observable_file(obj, path)
    return load_observable_file(path)


def test_observable_roundtrip_is_exact(tmp_path):
    obs = random_observable(4, 3)
    path = tmp_path / "obs.json"
    loaded = roundtrip(obs, path)
    assert isinstance(loaded, HermitianObservable)
    np.testing.assert_array_equal(loaded.basis, obs.basis)
    np.testing.assert_array_equal(loaded.eigenvalues, obs.eigenvalues)
    # a second cycle reproduces the file byte for byte
    second = tmp_path / "obs2.json"
    save_observable_file(loaded, second)
    assert path.read_text() == second.read_text()


def test_degenerate_observable_roundtrip(tmp_path):
    _, obs_b = fourier_mub_pair(4)
    from qincompat import asymmetric_pair

    _, degenerate = asymmetric_pair(4, 1)
    loaded = roundtrip(degenerate, tmp_path / "deg.json")
    assert loaded.ranks == degenerate.ranks
    np.testing.assert_array_equal(loaded.basis, degenerate.basis)


def test_povm_roundtrip_is_exact(tmp_path):
    povm = random_povm(3, 4, seed=9)
    loaded = roundtrip(povm, tmp_path / "povm.json")
    assert isinstance(loaded, Povm)
    for a, b in zip(loaded.elements, povm.elements):
        np.testing.assert_array_equal(a, b)


def test_instrument_roundtrip_is_exact(tmp_path):
    inst = z_channel(0.3)
    loaded = roundtrip(inst, tmp_path / "inst.json")
    assert isinstance(loaded, Instrument)
    for ops_a, ops_b in zip(loaded.outcomes, inst.outcomes):
        for a, b in zip(ops_a, ops_b):
            np.testing.assert_array_equal(a, b)


def test_hermitian_payload_loads_via_decomposition(tmp_path):
    path = tmp_path / "herm.json"
    mat = [[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [2.0, 0.0]]]
    doc = {"format_version": "1", "dim": 2, "payload": {"type": "hermitian", "matrix": mat}}
    path.write_text(json.dumps(doc))
    obs = load_observable_file(path)
    assert isinstance(obs, HermitianObservable)
    assert obs.n_outcomes == 2


def test_parse_errors_have_diagnostics(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_observable_file(path)

    path.write_text(json.dumps({"format_version": "99", "dim": 2, "payload": {}}))
    with pytest.raises(ParseError, match="format_version"):
        load_observable_file(path)

    doc = {"format_version": "1", "dim": 2, "payload": {"type": "povm", "elements": [[[1]]]}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="elements"):
        load_observable_file(path)

    doc = {"format_version": "1", "dim": 2, "payload": {"type": "mystery"}}
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match="mystery"):
        load_observable_file(path)

    with pytest.raises(ParseError, match="cannot read"):
        load_observable_file(tmp_path / "missing.json")


def test_invalid_quantum_object_rejected_on_load(tmp_path):
    half = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    doc = {
        "format_version": "1",
        "dim": 2,
        "payload": {"type": "povm", "elements": [half, half, half]},
    }
    path = tmp_path / "badpovm.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError):
        load_observable_file(path)


def test_atomic_write_leaves_no_temp_files(tmp_path):
    save_observable_file(trine_povm(), tmp_path / "trine.json")
    leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
    assert leftovers == []
    assert (tmp_path / "trine.json").exists()


def test_booleans_are_not_numbers(tmp_path):
    path = tmp_path / "bool.json"

    def load(dim, eigenvalues, first_entry):
        vectors = [[first_entry, [0, 0]], [[0, 0], [1, 0]]]
        payload = {"type": "basis", "eigenvalues": eigenvalues, "vectors": vectors}
        path.write_text(json.dumps({"format_version": "1", "dim": dim, "payload": payload}))
        return load_observable_file(path)

    assert load(2, [0, 1], [1, 0]).n_outcomes == 2
    with pytest.raises(ParseError, match=r"payload\.vectors\[0\]\[0\]"):
        load(2, [0, 1], [True, 0])
    with pytest.raises(ParseError, match="payload.eigenvalues"):
        load(2, [False, True], [1, 0])
    with pytest.raises(ParseError, match="dim must be a positive integer, got True"):
        load(True, [0, 1], [1, 0])


def test_numbers_beyond_float_range_are_parse_errors(tmp_path):
    path = tmp_path / "huge.json"
    huge = 10**400

    def load(payload):
        doc = {"format_version": "1", "dim": 2, "payload": payload}
        path.write_text(json.dumps(doc))
        return load_observable_file(path)

    vectors = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    with pytest.raises(ParseError, match="payload.eigenvalues"):
        load({"type": "basis", "eigenvalues": [0, huge], "vectors": vectors})
    vectors[1][0] = [0, huge]
    with pytest.raises(ParseError, match=r"payload\.vectors\[1\]\[0\]"):
        load({"type": "basis", "eigenvalues": [0, 1], "vectors": vectors})
    matrix = [[[huge, 0], [0, 0]], [[0, 0], [0, 0]]]
    with pytest.raises(ParseError, match=r"payload\.matrix\[0\]\[0\]"):
        load({"type": "hermitian", "matrix": matrix})
    with pytest.raises(ParseError, match=r"payload\.elements\[0\]\[0\]\[0\]"):
        load({"type": "povm", "elements": [matrix]})
    with pytest.raises(ParseError, match=r"payload\.outcomes\[0\]\[0\]\[0\]\[0\]"):
        load({"type": "instrument", "outcomes": [[matrix]]})


def test_integers_beyond_the_digit_limit_are_parse_errors(tmp_path):
    path = tmp_path / "digits.json"
    path.write_text(
        '{"format_version": "1", "dim": 2, "payload": {"type": "basis", '
        '"eigenvalues": [0, 1' + "0" * 5000 + '], "vectors": []}}'
    )
    with pytest.raises(ParseError, match="unreadable JSON number"):
        load_observable_file(path)
