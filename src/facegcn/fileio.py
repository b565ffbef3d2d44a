"""Artifact writes that never leave a partial file at the destination."""

from __future__ import annotations

import os
from pathlib import Path


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
