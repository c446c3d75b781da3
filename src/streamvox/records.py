"""Line-delimited record files and atomic JSON output.

Every persistent artifact in this package is either a single JSON document or
a UTF-8 JSONL file (one JSON object per line, each carrying a ``schema``
field).  Writes go through a temporary file in the target directory followed
by an atomic rename, so failed runs never leave truncated outputs.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable


class RecordFormatError(ValueError):
    """A record file does not parse or does not match its declared schema."""


def positive_int(name: str, value) -> int:
    """``value`` if it is an int in [1, sys.maxsize] and not a bool; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value > sys.maxsize:
        raise ValueError(f"{name} must be at most {sys.maxsize}, got {value!r}")
    return value


def nonneg_int(name: str, value) -> int:
    """``value`` if it is an int >= 0 and not a bool; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def finite_nonneg(name: str, value):
    """``value`` if it is a real in [0, float max] (so neither inf nor an int
    too large for a float) and not a bool; else a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 <= value <= sys.float_info.max:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return value


def string(name: str, value) -> str:
    """``value`` if it is a str; else a ValueError naming ``name``."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


@contextmanager
def prefixed(prefix: str):
    """Re-raise a ValueError from the block as a RecordFormatError led by ``prefix``, a field path."""
    try:
        yield
    except ValueError as exc:
        raise RecordFormatError(f"{prefix}{exc}") from exc


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


# The text dumps_canonical gives a str: quoted, with its ASCII escapes.
quote = json.encoder.encode_basestring_ascii


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators.  NaN or an
    infinity raises a ValueError."""
    return _CANONICAL.encode(obj)


def write_json(path, obj) -> None:
    """Write one JSON document atomically (write-then-rename); a document
    :func:`dumps_canonical` rejects leaves no file."""
    _atomic_write(path, dumps_canonical(obj) + "\n")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


# Every JSON input (read_json, read_jsonl, the tensors-v1 header) is decoded
# through this one decoder, so NaN, Infinity and numbers beyond the float
# range (1e400) are rejected where they enter.
DECODER = json.JSONDecoder(parse_constant=_finite_float, parse_float=_finite_float)


def _lines(path):
    """The file's lines, broken where text mode breaks them (``\\r\\n``, ``\\r``
    or ``\\n``) and decoded as UTF-8 one at a time; a line that is not UTF-8
    raises a RecordFormatError naming the file and the line."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate((part for chunk in fh for part in chunk.splitlines(True)), start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise RecordFormatError(f"{path}: line {lineno}: not UTF-8 ({exc.reason} at byte {exc.start} of the line)") from exc
            yield line


def read_json(path) -> dict:
    text = "".join(_lines(path))
    try:
        return DECODER.decode(text)
    except ValueError as exc:
        raise RecordFormatError(f"{path}: invalid JSON ({exc})") from exc


def write_jsonl(path, rows: Iterable, encode: Callable[..., str] = dumps_canonical) -> None:
    """Write rows as one JSON object per line, ``encode(row)``, atomically."""
    text = "".join([encode(row) + "\n" for row in rows])
    _atomic_write(path, text)


def read_jsonl(path, schema: str | None = None, parse: Callable | None = None) -> list:
    """Read a JSONL file; errors name the offending line number.

    If ``schema`` is given, every record's ``schema`` field must match.  If
    ``parse`` is given, each record is replaced by ``parse(record)``, the
    schema's row parser, whose ValueError is prefixed with the line.
    """
    rows: list = []
    for lineno, line in enumerate(_lines(path), start=1):
        if not line.strip():
            continue
        try:
            row = DECODER.decode(line)
        except ValueError as exc:
            raise RecordFormatError(f"{path}: line {lineno}: invalid JSON ({getattr(exc, 'msg', exc)})") from exc
        if not isinstance(row, dict):
            raise RecordFormatError(f"{path}: line {lineno}: expected a JSON object")
        if schema is not None and row.get("schema") != schema:
            raise RecordFormatError(
                f"{path}: line {lineno}: schema {row.get('schema')!r}, expected {schema!r}"
            )
        if parse is not None:
            with prefixed(f"{path}: line {lineno}: "):
                row = parse(row)
        rows.append(row)
    return rows


def _atomic_write(path, data: str | bytes) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
