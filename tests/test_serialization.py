"""File formats: exact round-trips and diagnostics."""

import contextlib
import copy
import hashlib
import io
import json
import os
import stat
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qincompat import (
    DimensionMismatchError,
    HermitianObservable,
    Instrument,
    ParseError,
    Povm,
    ValidationError,
    asymmetric_pair,
    commuting_subspace_pair,
    degenerate_observable,
    fourier_mub_pair,
    load_observable_file,
    random_observable,
    random_povm,
    random_unitary,
    save_observable_file,
    trine_povm,
    z_channel,
)
from qincompat.serialization import MAX_DIM, to_payload, write_json_atomic


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


def test_degenerate_observables_with_fractional_eigenvalues_roundtrip_byte_for_byte(tmp_path):
    # Three 0.1s average to 0.10000000000000002; a group keeps its value.
    rng = np.random.default_rng(21)
    cases = [([0.1, 0.1, 0.1, 1.0], np.eye(4))]
    for _ in range(60):
        ranks = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        values = np.repeat(np.sort(rng.uniform(-2.0, 2.0, ranks.size)), ranks)
        cases.append((values, random_unitary(int(ranks.sum()), rng)))
    path, again = tmp_path / "deg.json", tmp_path / "again.json"
    for values, basis in cases:
        obs = HermitianObservable.from_eigensystem(values, basis)
        assert np.repeat(obs.eigenvalues, obs.ranks).tobytes() == np.asarray(values).tobytes()
        loaded = roundtrip(obs, path)
        assert loaded.eigenvalues.tobytes() == obs.eigenvalues.tobytes()
        assert loaded.basis.tobytes() == obs.basis.tobytes()
        save_observable_file(loaded, again)
        assert path.read_bytes() == again.read_bytes()


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


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_atomic_writes_get_the_mode_of_a_plain_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        (tmp_path / "plain.txt").write_text("")
        save_observable_file(trine_povm(), tmp_path / "trine.json")
        write_json_atomic(tmp_path / "report.json", {"value": 1.0})
    finally:
        os.umask(previous)
    modes = {name: os.stat(tmp_path / name).st_mode & 0o777
             for name in ("plain.txt", "trine.json", "report.json")}
    assert modes == dict.fromkeys(modes, 0o666 & ~umask)


@pytest.mark.parametrize("mode", [0o600, 0o640, 0o604])
def test_replacing_a_regular_file_keeps_its_permission_bits(tmp_path, mode):
    path = tmp_path / "report.json"
    path.write_text("old")
    path.chmod(mode)
    previous = os.umask(0o022)
    try:
        write_json_atomic(path, {"value": 1.0})
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert json.loads(path.read_text()) == {"value": 1.0}


def test_a_declared_dim_above_the_limit_is_refused_before_the_payload(tmp_path):
    path = tmp_path / "big.json"
    for dim, message in ((MAX_DIM, r"payload\.elements"), (MAX_DIM + 1, "above the limit of 32")):
        doc = {"format_version": "1", "dim": dim, "payload": {"type": "povm", "elements": 1}}
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=message):
            load_observable_file(path)


@pytest.mark.parametrize("target_exists", [True, False])
def test_atomic_write_through_a_symlink_replaces_its_target(tmp_path, target_exists):
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "report.json"
    if target_exists:
        target.write_text("old")
    link = tmp_path / "link.json"
    link.symlink_to(os.path.join("sub", "report.json"))
    write_json_atomic(link, {"value": 1.0})
    assert link.is_symlink() and os.readlink(link) == os.path.join("sub", "report.json")
    assert target.read_text() == json.dumps({"value": 1.0}, indent=1) + "\n"
    leftovers = [p.name for p in tmp_path.rglob("*.tmp")]
    assert leftovers == []


def test_atomic_write_to_a_fifo_writes_through_it(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []

    def read():
        with open(fifo, encoding="utf-8") as handle:
            received.append(handle.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    write_json_atomic(fifo, {"value": 1.0})
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [json.dumps({"value": 1.0}, indent=1) + "\n"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["fifo"]


@pytest.mark.parametrize("taken", ["regular file", "dangling symlink"])
def test_a_taken_temp_name_is_left_alone_and_the_next_one_used(tmp_path, monkeypatch, taken):
    from qincompat import serialization

    squatter = tmp_path / "tmptaken.tmp"
    if taken == "regular file":
        squatter.write_text("someone else's")
    else:
        squatter.symlink_to("nowhere")
    names = iter(["tmptaken.tmp", "tmpfree.tmp"])
    handed = []
    monkeypatch.setattr(serialization, "_temp_name", lambda: handed.append(next(names)) or handed[-1])
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: replaced.append(src) or real_replace(src, dst))
    write_json_atomic(tmp_path / "report.json", {"value": 1.0})
    assert handed == ["tmptaken.tmp", "tmpfree.tmp"]
    assert replaced == [os.path.join(str(tmp_path), "tmpfree.tmp")]
    assert (tmp_path / "report.json").read_text() == json.dumps({"value": 1.0}, indent=1) + "\n"
    if taken == "regular file":
        assert squatter.read_text() == "someone else's" and not squatter.is_symlink()
    else:
        assert squatter.is_symlink() and os.readlink(squatter) == "nowhere"
        assert not (tmp_path / "nowhere").exists()
    assert sorted(os.listdir(tmp_path)) == ["report.json", "tmptaken.tmp"]


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


def test_files_that_are_not_utf8_are_parse_errors(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format_version": "\xff"}')
    with pytest.raises(ParseError, match="not UTF-8 text"):
        load_observable_file(path)


_TEMPLATES = {
    name: {"format_version": "1", "dim": obj.dim, "payload": to_payload(obj)}
    for name, obj in (
        ("observable", fourier_mub_pair(2)[0]),
        ("povm", trine_povm()),
        ("instrument", z_channel(0.3)),
    )
}
_TEMPLATES["hermitian"] = {
    "format_version": "1",
    "dim": 2,
    "payload": {"type": "hermitian", "matrix": [[[1.0, 0.0], [0.5, -0.5]],
                                                [[0.5, 0.5], [-1.0, 0.0]]]},
}
# Scalars that no position of a valid file holds: every number must be finite
# and fit a float, and the only strings are the version and the kind.
_BAD_SCALARS = (
    st.none()
    | st.booleans()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400])
    | st.text(max_size=4).filter(lambda s: s not in {"1", "basis", "povm", "hermitian"})
    | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)
)


def _positions(doc, path=()):
    """Every key and index path into a JSON document, parents first."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _positions(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _positions(value, path + (index,))


def _value(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _malformed_files(draw) -> bytes:
    """The bytes of an observable file that breaks its schema or a quantum invariant.

    A valid file gets one edit: a value is replaced by a bad scalar, an
    entry of a vector or operator by a huge number, or a key or list entry
    is removed or repeated (each list holds entries that must match the
    dimension or sum to the identity). Or the file is cut short, or is
    arbitrary bytes.
    """
    kind = draw(st.sampled_from(sorted(_TEMPLATES) + ["truncated", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    doc = copy.deepcopy(_TEMPLATES["povm" if kind == "truncated" else kind])
    if kind == "truncated":
        text = json.dumps(doc).encode()
        return text[: draw(st.integers(0, len(text) - 1))]
    paths = list(_positions(doc))[1:]
    # No number in a basis vector, an effect or a Kraus operator exceeds 1;
    # eigenvalues and the entries of a Hermitian matrix may be any finite numbers.
    entries = [p for p in paths if len(p) > 2 and p[1] in {"vectors", "elements", "outcomes"}
               and isinstance(_value(doc, p), float)]
    edit = draw(st.sampled_from(["replace", "remove", "repeat"] + ["huge"] * bool(entries)))
    path = draw(st.sampled_from(entries if edit == "huge" else paths))
    parent = _value(doc, path[:-1])
    if edit == "replace":
        parent[path[-1]] = draw(_BAD_SCALARS)
    elif edit == "huge":
        parent[path[-1]] = draw(st.sampled_from([1e300, -1e300, 1.7e308]))
    elif edit == "remove":
        del parent[path[-1]]
    elif isinstance(parent, list):
        parent.append(parent[path[-1]])
    else:
        parent[path[-1]] = [parent[path[-1]]] * 2
    return json.dumps(doc).encode()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_malformed_files(), st.sampled_from(["load", "compute", "disturbance"]))
def test_malformed_files_exit_2_without_a_traceback(content, route):
    from qincompat.cli import main

    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "bad.json")
        with open(path, "wb") as handle:
            handle.write(content)
        if route == "load":
            with pytest.raises((ParseError, ValidationError, DimensionMismatchError)):
                load_observable_file(path)
            return
        good = os.path.join(work, "good.json")
        save_observable_file(trine_povm(), good)
        argv = [route, path, "--measure", "F", "--starts", "1", "--iterations", "5"]
        if route == "compute":
            argv[1:2] = ["--luders", good, path]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert main(argv) == 2
        assert err.getvalue().startswith("error: ")


def _written(tree) -> str:
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "tree.json")
        write_json_atomic(path, tree)
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")


_KEYS = (st.text(max_size=6) | st.integers() | st.floats() | st.booleans() | st.none())
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**400, -(10**30), 2**63, 0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                       float("nan"), float("inf"), -float("inf")])
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["", "\x00\x1f\x7f", "é \U0001f600", '"\\/', "\ud800"])
)
_TREES = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_TREES)
def test_written_files_are_the_indent_1_dumps_of_any_json_tree(tree):
    assert _written(tree) == json.dumps(tree, indent=1) + "\n"


def test_values_json_does_not_encode_raise_its_error():
    # np.float64 is a float and prints as one; other numpy scalars, sets and
    # tuple keys are refused by json.dumps, and the writer raises its error.
    assert _written({"x": [np.float64(0.1), np.float64(-0.0)]}) == (
        json.dumps({"x": [0.1, -0.0]}, indent=1) + "\n"
    )
    for bad in (np.float32(0.5), np.int64(3), np.bool_(True), {1, 2}, {(1, 2): 0},
                {"report": [1.0, {"value": np.float32(0.5)}]}):
        with pytest.raises(TypeError) as expected:
            json.dumps(bad, indent=1)
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "bad.json")
            with pytest.raises(TypeError) as raised:
                write_json_atomic(path, bad)
            assert str(raised.value) == str(expected.value)
            assert os.listdir(work) == []


def test_a_cycle_raises_as_json_dumps_does():
    cycle: list = []
    cycle.append(cycle)
    with pytest.raises(ValueError, match="Circular reference detected"):
        _written({"cycle": cycle})


def _outcome(content: bytes):
    """The loaded object's type and a digest of its stored arrays' bytes, or the error raised."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "file.json")
        with open(path, "wb") as handle:
            handle.write(content)
        try:
            obj = load_observable_file(path)
        except Exception as exc:  # pinned by type and message
            return type(exc).__name__, str(exc).replace(path, "<file>")
    if isinstance(obj, HermitianObservable):
        arrays = (obj.eigenvalues, np.array(obj.ranks), obj.basis)
    elif isinstance(obj, Povm):
        arrays = obj.elements
    else:
        arrays = obj.kraus_flat()
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return type(obj).__name__, digest.hexdigest()[:32]


def _edited(name, edit):
    doc = copy.deepcopy(_TEMPLATES[name])
    edit(doc["payload"])
    return json.dumps(doc).encode()


def _set(path, value):
    def edit(payload):
        target = payload
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

    return edit


_LOADER_CASES = {
    **{f"valid {name}": json.dumps(doc).encode() for name, doc in _TEMPLATES.items()},
    "negative zeros": _edited("observable", _set(("vectors", 0, 1), [-0.0, -0.0])),
    "negative zero in an effect": _edited("povm", _set(("elements", 0, 0, 1), [-0.0, 0.0])),
    "integer entries": _edited("observable", _set(("vectors",), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])),
    "integer eigenvalues": _edited("observable", _set(("eigenvalues",), [-1, 2**62])),
    "a huge integer among floats": _edited("observable", _set(("eigenvalues",), [0.5, 2**64])),
    "a true among floats": _edited("observable", _set(("vectors", 1, 0), [True, 0.0])),
    "a false eigenvalue": _edited("observable", _set(("eigenvalues", 0), False)),
    "a true in a string": _edited("observable", _set(("note",), "true")),
    "10**400 in a vector": _edited("observable", _set(("vectors", 0, 0), [10**400, 0])),
    "10**400 in an effect": _edited("povm", _set(("elements", 1, 1, 1), [0.0, 10**400])),
    "a long eigenvalue list": _edited("observable", _set(("eigenvalues",), [0.25] * 100_000)),
    "a long vector list": _edited("observable", _set(("vectors",), [[[1.0, 0.0]] * 2] * 5000)),
    "ragged Kraus lists": json.dumps({"format_version": "1", "dim": 2, "payload": to_payload(
        Instrument(((np.diag([1.0, 0.0]),), (np.diag([0.0, 0.6]), np.diag([0.0, 0.8])))))}).encode(),
    "a NaN entry": _edited("hermitian", _set(("matrix", 0, 0), [float("nan"), 0.0])),
    "a tiny float": _edited("hermitian", _set(("matrix", 0, 0), [5e-324, -5e-324])),
}


def _file(obj) -> bytes:
    return json.dumps({"format_version": "1", "dim": obj.dim, "payload": to_payload(obj)}).encode()


# The fixture families of the benchmark's compute workload, as construct writes them.
_FAMILIES = {
    **{f"mub d={d} {side}": obs for d in range(2, 7)
       for side, obs in zip("ab", fourier_mub_pair(d))},
    **{f"commuting-subspace ({d}, {dc}) {side}": obs for d, dc in ((4, 1), (6, 3))
       for side, obs in zip("ab", commuting_subspace_pair(d, dc))},
    **{f"asymmetric (4, 1) {side}": obs for side, obs in zip("ab", asymmetric_pair(4, 1))},
    **{f"random POVM ({d}, {n})": random_povm(d, n, seed)
       for d, n, seed in ((2, 4, 5), (3, 3, 5), (3, 4, 6))},
    "trine": trine_povm(),
    **{f"z channel p={p}": z_channel(p) for p in (0.1, 0.5, 0.9)},
    "degenerate d=5": degenerate_observable((2, 2, 1), random_unitary(5, 5)),
}
_LOADER_CASES.update({f"family {name}": _file(obj) for name, obj in _FAMILIES.items()})


# Each case's outcome when every numeric field could also be converted in one
# np.array call; that route and the entry-by-entry walk agreed on all of them.
_LOADER_OUTCOMES = {
    "10**400 in a vector": ("ParseError", "<file>: payload.vectors[0][0]: expected a [re, im] pair, "
                            f"got [{10**400}, 0]"),
    "10**400 in an effect": ("ParseError", "<file>: payload.elements[1][1][1]: expected a [re, im] "
                             f"pair, got [0.0, {10**400}]"),
    "a NaN entry": ("ValidationError", "matrix contains non-finite entries"),
    "a false eigenvalue": ("ParseError", "<file>: payload.eigenvalues: expected 2 numbers"),
    "a huge integer among floats": ("HermitianObservable", "068513fc6db55ff771b645da3ddbb166"),
    "a long eigenvalue list": ("ParseError", "<file>: payload.eigenvalues: expected 2 numbers"),
    "a long vector list": ("ParseError", "<file>: payload.vectors: expected 2 vectors"),
    "a tiny float": ("HermitianObservable", "8d2ff14599fd1b516ef337318cbde608"),
    "a true among floats": ("ParseError", "<file>: payload.vectors[1][0]: expected a [re, im] pair, "
                            "got [True, 0.0]"),
    "a true in a string": ("HermitianObservable", "23055b075e51bc44c945cd5f121200a8"),
    "integer eigenvalues": ("HermitianObservable", "e5772c25fbe88006c80adeb7460b477d"),
    "integer entries": ("HermitianObservable", "a871f569157a8775e5fa96aef64d4354"),
    "negative zero in an effect": ("Povm", "5c882b11f9663e613c052615f2321333"),
    "negative zeros": ("HermitianObservable", "0e060b280852f4c1de3e0e895da0d7fc"),
    "ragged Kraus lists": ("Instrument", "f35f967396dc9c6d52f4f35b12e07556"),
    "valid hermitian": ("HermitianObservable", "4c4ce68cc0d6acfd73c57c3397d0ae59"),
    "valid instrument": ("Instrument", "52043603de9ad0dde097076cffa73901"),
    "valid observable": ("HermitianObservable", "23055b075e51bc44c945cd5f121200a8"),
    "valid povm": ("Povm", "8ddf29841c8a33a37c7efbd16fddad3e"),
    # The fixture families, as the walk-and-store loader read them.
    "family asymmetric (4, 1) a": ("HermitianObservable", "a112e82f486b5f9b67362df332813554"),
    "family asymmetric (4, 1) b": ("HermitianObservable", "18d94e3eee1f3fa1d280ae0bb23308ad"),
    "family commuting-subspace (4, 1) a": ("HermitianObservable", "a112e82f486b5f9b67362df332813554"),
    "family commuting-subspace (4, 1) b": ("HermitianObservable", "69568c2564b7f71863e7bd2fb3db0120"),
    "family commuting-subspace (6, 3) a": ("HermitianObservable", "96096d73a8e94a4777203c9b218b5395"),
    "family commuting-subspace (6, 3) b": ("HermitianObservable", "26b0e2701b121a6c5093e58a1f57abc5"),
    "family degenerate d=5": ("HermitianObservable", "2756edc707eccdb169bc0e73cb4c1f9a"),
    "family mub d=2 a": ("HermitianObservable", "23055b075e51bc44c945cd5f121200a8"),
    "family mub d=2 b": ("HermitianObservable", "e5b9ebc86f7238c1fbf6b8bbf1cc028b"),
    "family mub d=3 a": ("HermitianObservable", "85094a14e962922085fce632e0541ed7"),
    "family mub d=3 b": ("HermitianObservable", "8ef9301be179100f71781065a1537b0f"),
    "family mub d=4 a": ("HermitianObservable", "a112e82f486b5f9b67362df332813554"),
    "family mub d=4 b": ("HermitianObservable", "3f9163f5846e4c9c52e8b502f7c476af"),
    "family mub d=5 a": ("HermitianObservable", "d6cb559d29afe22df8a9b23dca1267af"),
    "family mub d=5 b": ("HermitianObservable", "1a8fca1f8038d9a9ca09aa9ea3e6a30a"),
    "family mub d=6 a": ("HermitianObservable", "96096d73a8e94a4777203c9b218b5395"),
    "family mub d=6 b": ("HermitianObservable", "a400f851566e83f3fd28e36606e49bd7"),
    "family random POVM (2, 4)": ("Povm", "4b6b3913262ec5c079bcf8284476c21f"),
    "family random POVM (3, 3)": ("Povm", "7a7195012584e99bf964787508034f7c"),
    "family random POVM (3, 4)": ("Povm", "9998ea5f8bf0b3a3190bba681ba0270a"),
    "family trine": ("Povm", "8ddf29841c8a33a37c7efbd16fddad3e"),
    "family z channel p=0.1": ("Instrument", "3e2fbcfcdeb177ede4766275a3bf18a9"),
    "family z channel p=0.5": ("Instrument", "f5eeb167714d8c58090c208a335835a5"),
    "family z channel p=0.9": ("Instrument", "de685203603a809ced6b7e116a3501e9"),
}


@pytest.mark.parametrize("case", sorted(_LOADER_CASES))
def test_a_file_loads_the_same_whole_and_walked(case):
    assert _outcome(_LOADER_CASES[case]) == _LOADER_OUTCOMES[case]
