"""The BLAS numpy loaded: its name, a block that runs it on one thread, and
the ``--jobs`` map that runs inside such a block.

Matrix products split across BLAS threads may sum in a thread-dependent
order, so a result can depend on ``OPENBLAS_NUM_THREADS``.  Code that wants
the same bytes on every host runs its products inside ``one_blas_thread``
and gets its parallelism from threads of its own.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


def blas_name() -> str:
    """The BLAS named in numpy's build configuration, or ``unknown``."""
    config = getattr(np.__config__, "CONFIG", {})  # numpy >= 1.26
    return config.get("Build Dependencies", {}).get("blas", {}).get("name", "unknown")


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with the OpenBLAS that numpy loaded on one thread, then
    restore its previous count, also on an exception.  Yields that count, or
    None when no such library was found and the block runs as it is."""
    numpy_dir = Path(np.__file__).parent
    for path in [*numpy_dir.parent.glob("numpy.libs/*openblas*"), *numpy_dir.glob(".dylibs/*openblas*")]:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            get, set_ = (getattr(lib, f"{prefix}{op}_num_threads{suffix}", None) for op in ("get", "set"))
            if get and set_:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                previous = get()
                set_(1)
                try:
                    yield previous
                finally:
                    set_(previous)
                return
    logger.debug("no OpenBLAS thread control in numpy's libraries (BLAS: %s)", blas_name())
    yield None


def map_in_order(fn, items, jobs: int) -> list:
    """``[fn(item) for item in items]``, run on ``jobs`` threads with BLAS on
    one, so the results and their bytes are the same at every ``jobs``."""
    with one_blas_thread(), ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
