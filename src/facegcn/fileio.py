"""File reads that fail with typed errors, and artifact writes that never
leave a partial file at the destination."""

from __future__ import annotations

import json
import os
from pathlib import Path

from .errors import ConfigError, ParseError


def read_text(path, encoding: str = "utf-8") -> str:
    """The text of ``path``, with ``\\r\\n`` and ``\\r`` line ends read as ``\\n``.

    A byte that does not decode is a ParseError naming its line (the count
    of ``\\n`` bytes before it, plus one).
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode(encoding)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"non-{encoding.upper()} byte", path=path, line=line)
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path):
    """The JSON value in ``path``; text that does not parse is a ConfigError."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}")


def write_atomic(path, data: bytes) -> None:
    """Replace ``path`` with ``data`` in one step.

    The bytes go to a temporary file in the same directory, which
    ``os.replace`` then renames over the destination: a reader sees the old
    file or the complete new one, and an interrupted write leaves the
    destination as it was. The temporary file is removed on failure.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
