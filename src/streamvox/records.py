"""Line-delimited record files and atomic JSON output.

Every persistent artifact in this package is either a single JSON document or
a UTF-8 JSONL file (one JSON object per line, each carrying a ``schema``
field).  Writes go through a temporary file in the target directory followed
by an atomic rename, so failed runs never leave truncated outputs.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Iterable


class RecordFormatError(ValueError):
    """A record file does not parse or does not match its declared schema."""


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_json(path, obj) -> None:
    """Write one JSON document atomically (write-then-rename)."""
    _atomic_write(path, dumps_canonical(obj) + "\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_jsonl(path, rows: Iterable[dict]) -> None:
    """Write records as one JSON object per line, atomically."""
    text = "".join(dumps_canonical(row) + "\n" for row in rows)
    _atomic_write(path, text)


def read_jsonl(path, schema: str | None = None) -> list[dict]:
    """Read a JSONL file; errors name the offending line number.

    If ``schema`` is given, every record's ``schema`` field must match.
    """
    rows: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise RecordFormatError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise RecordFormatError(f"{path}: line {lineno}: expected a JSON object")
            if schema is not None and row.get("schema") != schema:
                raise RecordFormatError(
                    f"{path}: line {lineno}: schema {row.get('schema')!r}, expected {schema!r}"
                )
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
