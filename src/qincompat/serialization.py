"""Versioned JSON file formats for observables, POVMs, instruments and reports.

Complex entries are stored as [re, im] pairs. Floats pass through Python's
shortest-round-trip decimal encoding, so a save/load cycle reproduces the
exact binary64 values; files are written atomically (temp file + rename).
"""

from __future__ import annotations

import json
import os
import stat
import tempfile
from typing import Any

import numpy as np

from .core import HermitianObservable, Instrument, Povm, spectral_decompose
from .errors import ParseError, QincompatError, ValidationError

FORMAT_VERSION = "1"
REPORT_VERSION = "1"
# The largest dim of a loaded file and of the CLI's --dim, refused before anything is allocated.
# At d = 32 a fidelity pair report of two random observables takes 4.5 s and 51 MB, and one of
# the commuting-subspace --dc 16 pair, which the block split certifies, 0.34 s and 43 MB (2-vCPU
# Xeon); the limit is part of the CLI contract.
MAX_DIM = 32


def _complex_to_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _matrix_to_json(mat: np.ndarray) -> list:
    return [[_complex_to_pair(z) for z in row] for row in np.asarray(mat, dtype=complex)]


def _vector_to_json(vec: np.ndarray) -> list:
    return [_complex_to_pair(z) for z in np.asarray(vec, dtype=complex).ravel()]


def _is_number(x) -> bool:
    """A JSON number that a float can hold.

    Booleans are excluded although Python counts them as ints, and so are
    integers too large to convert to a float.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _pair_from_json(obj, where: str) -> complex:
    if not isinstance(obj, (list, tuple)) or len(obj) != 2 or not all(map(_is_number, obj)):
        raise ParseError(f"{where}: expected a [re, im] pair, got {obj!r}")
    return complex(obj[0], obj[1])


def _matrix_from_json(obj, dim: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"{where}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}[{i}]: expected {dim} entries")
        for j, pair in enumerate(row):
            out[i, j] = _pair_from_json(pair, f"{where}[{i}][{j}]")
    return out


def to_payload(obj) -> dict:
    """Serializable payload for an observable, POVM, or instrument."""
    if isinstance(obj, HermitianObservable):
        values = np.repeat(obj.eigenvalues, obj.ranks)
        return {
            "type": "basis",
            "eigenvalues": [float(v) for v in values],
            "vectors": [_vector_to_json(col) for col in obj.basis.T],
        }
    if isinstance(obj, Povm):
        return {"type": "povm", "elements": [_matrix_to_json(e) for e in obj.elements]}
    if isinstance(obj, Instrument):
        return {
            "type": "instrument",
            "outcomes": [[_matrix_to_json(k) for k in ops] for ops in obj.outcomes],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_payload(payload: dict, dim: int):
    """Reconstruct and validate an object from its payload."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ParseError("payload: expected an object with a 'type' field")
    kind = payload["type"]
    if kind == "hermitian":
        mat = _matrix_from_json(payload.get("matrix"), dim, "payload.matrix")
        return spectral_decompose(mat)
    if kind == "basis":
        values = payload.get("eigenvalues")
        vectors = payload.get("vectors")
        if not isinstance(values, list) or len(values) != dim or not all(map(_is_number, values)):
            raise ParseError(f"payload.eigenvalues: expected {dim} numbers")
        if not isinstance(vectors, list) or len(vectors) != dim:
            raise ParseError(f"payload.vectors: expected {dim} vectors")
        basis = np.empty((dim, dim), dtype=np.complex128)
        for j, vec in enumerate(vectors):
            if not isinstance(vec, list) or len(vec) != dim:
                raise ParseError(f"payload.vectors[{j}]: expected {dim} entries")
            for i, pair in enumerate(vec):
                basis[i, j] = _pair_from_json(pair, f"payload.vectors[{j}][{i}]")
        return HermitianObservable.from_eigensystem(np.asarray(values, float), basis)
    if kind == "povm":
        elems = payload.get("elements")
        if not isinstance(elems, list) or not elems:
            raise ParseError("payload.elements: expected a nonempty list")
        return Povm(
            tuple(
                _matrix_from_json(e, dim, f"payload.elements[{i}]")
                for i, e in enumerate(elems)
            )
        )
    if kind == "instrument":
        outcomes = payload.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise ParseError("payload.outcomes: expected a nonempty list")
        built = []
        for i, ops in enumerate(outcomes):
            if not isinstance(ops, list) or not ops:
                raise ParseError(f"payload.outcomes[{i}]: expected a nonempty list")
            built.append(
                tuple(
                    _matrix_from_json(k, dim, f"payload.outcomes[{i}][{j}]")
                    for j, k in enumerate(ops)
                )
            )
        return Instrument(tuple(built))
    raise ParseError(f"payload.type: unknown kind {kind!r}")


def save_observable_file(obj, path) -> None:
    """Write an observable/POVM/instrument file (atomic replace)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "dim": int(obj.dim),
        "payload": to_payload(obj),
    }
    write_json_atomic(path, doc)


def load_observable_file(path):
    """Read and validate an observable/POVM/instrument file.

    Raises :class:`ParseError` with a field diagnostic for malformed input or
    a ``dim`` above ``MAX_DIM`` (checked before the payload is read), and the
    relevant :class:`ValidationError` subclass when the parsed object breaks
    a quantum invariant, including entries too large to check without overflow.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    except ValueError as exc:  # an integer beyond Python's limit on digits
        raise ParseError(f"{path}: unreadable JSON number: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format_version {version!r}")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{path}: dim must be a positive integer, got {dim!r}")
    if dim > MAX_DIM:
        raise ParseError(f"{path}: dim {dim} is above the limit of {MAX_DIM}")
    try:
        with np.errstate(over="raise"):
            return from_payload(doc.get("payload"), dim)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except QincompatError:
        raise
    except FloatingPointError as exc:
        raise ValidationError(f"{path}: entries too large to validate ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_json_atomic(path, data: Any) -> None:
    """Serialize ``data`` to JSON at ``path`` via a temp file in the same directory.

    A replaced regular file keeps its permission bits; a new file gets those of a
    plain ``open``, ``0o666`` less the umask, rather than the ``0o600`` of ``mkstemp``.
    A symlink is followed: its final target is replaced and the link kept.
    An existing target that is not a regular file, such as a FIFO or a
    device, cannot be replaced without destroying it, so it is written
    through with a plain ``open`` instead.
    """
    text = json.dumps(data, indent=1) + "\n"
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:  # a new file, or the missing target of a symlink
        umask = os.umask(0o022)  # reading the umask means setting it, so it is set back
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    target = os.path.realpath(path)
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
    try:
        os.chmod(tmp_path, mode & 0o777)
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, target)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
