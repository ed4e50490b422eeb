"""The thread count of numpy's OpenBLAS, read and set through its C API.

Training runs on one BLAS thread. A matrix product split across threads sums
in another order than on one thread, so with the default count a run's
checkpoint would depend on the environment's OPENBLAS_NUM_THREADS; and the
classifier's worker process (see `training`) takes the second core that
OpenBLAS would otherwise use.

The library is found as the OpenBLAS that numpy's wheels ship in
`numpy.libs`. A numpy built against another BLAS keeps its own threading, and
its results may then depend on the thread count again. Even at one thread, a
different CPU may run other OpenBLAS kernels (DYNAMIC_ARCH builds pick them at
load time), so bit-identical artifacts are promised for one machine only.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TRAIN_THREADS = 1


@functools.lru_cache(maxsize=None)
def _openblas():
    """(get_num_threads, set_num_threads) of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def single_thread():
    """Run the body on one OpenBLAS thread; the old count is restored on exit."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, put = funcs
    old = get()
    put(TRAIN_THREADS)
    try:
        yield
    finally:
        put(old)


def describe() -> dict:
    """numpy's BLAS name and version, and the thread count training runs it with.

    `threads` is None when the library's thread count cannot be set.
    """
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        info = {}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": TRAIN_THREADS if _openblas() is not None else None}
