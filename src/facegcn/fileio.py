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


class _NonFinite(str):
    """Placeholder for a NaN or ±Infinity constant while ``read_json`` parses."""


def read_json(path):
    """The JSON value in ``path``; text that does not parse is a ConfigError.

    So is a ``NaN``, ``Infinity`` or ``-Infinity`` constant, which JSON does
    not have but Python's parser accepts; the error names the constant and
    the keys and indices that lead to it.
    """
    try:
        value = json.loads(read_text(path), parse_constant=_NonFinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON: {exc}")
    stack = [(value, "")]  # depth first, in document order
    while stack:
        item, where = stack.pop()
        if isinstance(item, _NonFinite):
            raise ConfigError(f"{path}: non-finite number {item} at {where or 'top level'}")
        if isinstance(item, (dict, list)):
            keyed = list(item.items() if isinstance(item, dict) else enumerate(item))
            stack += [(v, f"{where}[{json.dumps(k)}]") for k, v in reversed(keyed)]
    return value


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
