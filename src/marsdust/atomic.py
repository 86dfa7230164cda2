"""Whole-file input and output: a reader finds the old file or the new one, never a part.

Every input file is read whole by ``read_input``, which words a failed open
one way.  Every output goes first to a fresh temporary file beside its target,
which ``os.replace`` then puts in the target's place.  On any failure the
temporary file is removed and the target is left as it was.  This guards
against a failed or interrupted process, not against power loss: nothing is
fsynced.
"""

from __future__ import annotations

import errno
import os
import uuid
from pathlib import Path


def read_input(path, error) -> bytes:
    """The bytes of the file ``path``.  A failed open or read raises
    ``error("<path>: cannot read (<reason>)")``."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte, or a name the OS cannot encode
        raise error(f"{path}: cannot read ({getattr(exc, 'strerror', None) or exc})") from exc


def write_atomic(path, parts) -> None:
    """Write the concatenation of the bytes-like ``parts`` to ``path``."""
    path = Path(path)
    tmp = path.parent / f".{path.name}.{uuid.uuid4().hex}.tmp"
    try:
        # the mode, less the umask, is what a plain open() gives a new file
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
        try:
            with open(fd, "wb") as out:
                for part in parts:
                    out.write(part)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:  # name the target, not the temporary file
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def check_file_output(path, what: str) -> None:
    """Raise the OSError that writing ``path`` would end with, so it ends no
    run after its work: the path is a directory, or its parent is not one.
    ``what`` names the path in the message."""
    path = Path(path)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, f"{what} is a directory", str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, f"the directory of {what} does not exist", str(path))
