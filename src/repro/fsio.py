"""Crash-safe file writes.

Every persistent artifact (result tables, manifests, corpus journals,
fast-load matrices, rendered documents) goes through
:func:`atomic_write`: the bytes land in a temp file in the target's
directory, which then replaces the target in one ``os.replace``.  A
crash or exception midway leaves the previous file intact and removes
the temp file, so a reader never sees a torn write.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: Path | str, mode: str = "w") -> Iterator[IO]:
    """Open a temp file beside ``path`` for writing (``mode`` ``"w"`` or
    ``"wb"``); on a clean exit it replaces ``path``, on an exception it
    is deleted and ``path`` is left untouched.

    Example::

        with atomic_write(store / "manifest.json") as out:
            out.write(text)
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(6)}.tmp")
    # os.open with 0o666 applies the umask, so the result gets the
    # permissions a plain open() would give it (mkstemp forces 0600);
    # O_EXCL never clobbers another writer's temp file.
    handle = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, mode) as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
