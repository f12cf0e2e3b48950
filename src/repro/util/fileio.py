"""Crash-safe file writes.

Every artifact the library persists — dataset bundles, telemetry
snapshots, cache blobs and manifests — goes through
:func:`atomic_write`: the content lands in a temporary file in the
destination directory, is fsynced, and is moved into place with
``os.replace``. A reader therefore sees either the previous complete
file or the new complete file, never a truncated one, even if the
writer crashes mid-write.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def atomic_write(path: str, mode: str = "w") -> Iterator[IO]:
    """Write ``path`` atomically: yield a temp-file handle, then
    ``os.replace`` it over the destination on clean exit.

    Missing parent directories are created. On any exception the temp
    file is removed and the destination is left untouched. ``mode``
    must be a write mode (``"w"`` or ``"wb"``).
    """
    if "w" not in mode:
        raise ValueError(f"atomic_write needs a write mode, got {mode!r}")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory,
                               prefix=os.path.basename(path) + ".",
                               suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fp:
            yield fp
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
