"""Versioned JSON file formats for observables, POVMs, instruments and reports.

Complex entries are stored as [re, im] pairs. Floats pass through Python's
shortest-round-trip decimal encoding, so a save/load cycle reproduces the
exact binary64 values; files are written atomically (temp file + rename).
"""

from __future__ import annotations

import errno
import json
import os
import stat
from typing import Any

import numpy as np

from .core import HermitianObservable, Instrument, Povm, spectral_decompose
from .errors import NumericalFailureError, ParseError, QincompatError, ValidationError

FORMAT_VERSION = "1"
REPORT_VERSION = "1"
# The largest dim of a loaded file and of the CLI's --dim, refused before anything is allocated,
# so that one command stays within a second and about 50 MB: README "Scope" gives the measured
# time and memory of the largest reports. The limit is part of the CLI contract.
MAX_DIM = 32


def _pairs(arr: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats, one pair per entry of ``arr``."""
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    return arr.view(np.float64).reshape(*arr.shape, 2).tolist()


def _is_number(x) -> bool:
    """A JSON number that a float can hold.

    Booleans are excluded although Python counts them as ints, and so are
    integers too large to convert to a float.
    """
    if type(x) is float:  # every number a writer of these files stores
        return True
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def _matrix(obj, dim: int, where: str) -> np.ndarray:
    """A ``dim x dim`` matrix of [re, im] pairs.

    Every entry is checked in order, so a diagnostic names the first bad one;
    the checked field is then converted in one call.
    """
    if not isinstance(obj, list) or len(obj) != dim:
        raise ParseError(f"{where}: expected {dim} rows")
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{where}[{i}]: expected {dim} entries")
        for j, pair in enumerate(row):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and _is_number(pair[0]) and _is_number(pair[1])):
                raise ParseError(f"{where}[{i}][{j}]: expected a [re, im] pair, got {pair!r}")
    return np.array(obj, dtype=np.float64).view(np.complex128).reshape(dim, dim)


def _matrices_from_json(obj, dim: int, where: str) -> tuple[np.ndarray, ...]:
    """A nonempty list of ``dim x dim`` matrices."""
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{where}: expected a nonempty list")
    return tuple(_matrix(m, dim, f"{where}[{i}]") for i, m in enumerate(obj))


def to_payload(obj) -> dict:
    """Serializable payload for an observable, POVM, or instrument."""
    if isinstance(obj, HermitianObservable):
        return {
            "type": "basis",
            "eigenvalues": np.repeat(obj.eigenvalues, obj.ranks).tolist(),
            "vectors": _pairs(obj.basis.T),
        }
    if isinstance(obj, Povm):
        return {"type": "povm", "elements": [_pairs(e) for e in obj.elements]}
    if isinstance(obj, Instrument):
        return {
            "type": "instrument",
            "outcomes": [[_pairs(k) for k in ops] for ops in obj.outcomes],
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _decode_payload(payload, dim: int):
    """Reconstruct and validate an object from its payload."""
    if not isinstance(payload, dict) or "type" not in payload:
        raise ParseError("payload: expected an object with a 'type' field")
    kind = payload["type"]
    if kind == "hermitian":
        return spectral_decompose(_matrix(payload.get("matrix"), dim, "payload.matrix"))
    if kind == "basis":
        values = payload.get("eigenvalues")
        vectors = payload.get("vectors")
        if not isinstance(values, list) or len(values) != dim or not all(map(_is_number, values)):
            raise ParseError(f"payload.eigenvalues: expected {dim} numbers")
        if not isinstance(vectors, list) or len(vectors) != dim:
            raise ParseError(f"payload.vectors: expected {dim} vectors")
        columns = _matrix(vectors, dim, "payload.vectors")  # row j is vector j
        return HermitianObservable.from_eigensystem(np.asarray(values, float), columns.T)
    if kind == "povm":
        return Povm(_matrices_from_json(payload.get("elements"), dim, "payload.elements"))
    if kind == "instrument":
        outcomes = payload.get("outcomes")
        if not isinstance(outcomes, list) or not outcomes:
            raise ParseError("payload.outcomes: expected a nonempty list")
        return Instrument(tuple(
            _matrices_from_json(ops, dim, f"payload.outcomes[{i}]")
            for i, ops in enumerate(outcomes)
        ))
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
    a quantum invariant, including entries too large to check without overflow
    and a matrix whose decomposition fails.
    Each numeric field is checked entry by entry, so a diagnostic names the
    first bad entry, and then converted in one call.
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
            return _decode_payload(doc.get("payload"), dim)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except NumericalFailureError as exc:  # a file no decomposition can validate is bad input
        raise ValidationError(f"{path}: {exc}") from exc
    except QincompatError:
        raise
    except FloatingPointError as exc:
        raise ValidationError(f"{path}: entries too large to validate ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def write_json_atomic(path, data: Any) -> None:
    """Serialize ``data`` as ``json.dumps(data, indent=1)`` at ``path`` with :func:`write_text_atomic`."""
    write_text_atomic(path, json.dumps(data, indent=1) + "\n")


def _temp_name() -> str:
    """A temp file name with 64 random bits from the OS."""
    return f"tmp{os.urandom(8).hex()}.tmp"


# Names tried before giving up; mkstemp tries os.TMP_MAX, far more than random
# 64-bit names ever need.
_TEMP_TRIES = 100
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_NOFOLLOW | os.O_CLOEXEC


def write_text_atomic(path, text: str) -> None:
    """Write ``text`` as UTF-8 at ``path`` via a temp file.

    The temp file is made in the target's directory under a random name, as
    ``tempfile.mkstemp`` makes it (exclusive create, never through a
    symlink, a new name while one is taken), and renamed over the target.
    A new file gets the mode of a plain ``open``, ``0o666`` less the umask,
    applied by the kernel; a replaced regular file keeps its permission bits.
    A symlink is followed: its final target is replaced and the link kept.
    An existing target that is not a regular file, such as a FIFO or a
    device, cannot be replaced without destroying it, so it is written
    through with a plain ``open`` instead. A write that fails leaves the
    target as it was and removes its temp file.
    """
    target = path
    try:
        mode = os.lstat(path).st_mode
        if stat.S_ISLNK(mode):
            target = os.path.realpath(path)
            mode = os.stat(target).st_mode
    except FileNotFoundError:  # a new file, or the missing target of a symlink
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        return
    directory = os.path.dirname(target)
    for _ in range(_TEMP_TRIES):
        tmp_path = os.path.join(directory, _temp_name())
        try:
            fd = os.open(tmp_path, _TEMP_FLAGS, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(errno.EEXIST, "no unused temp file name found", directory)
    try:
        try:
            if mode is not None:
                os.fchmod(fd, mode & 0o777)
            remaining = memoryview(text.encode("utf-8"))
            while remaining:
                remaining = remaining[os.write(fd, remaining):]
        finally:
            os.close(fd)
        os.replace(tmp_path, target)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
