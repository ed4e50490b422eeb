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
load time), and numpy's own loops (`exp`, `log`, `tanh`) pick SIMD code by
CPU too, so bit-identical artifacts are promised for one kind of CPU only;
`describe` names both choices. The environment variables OPENBLAS_CORETYPE
and NPY_DISABLE_CPU_FEATURES fix them when set before numpy is loaded.
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
    """(get_num_threads, set_num_threads, get_corename) of numpy's bundled OpenBLAS, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for suffix in ("64_", ""):
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            core = getattr(lib, f"scipy_openblas_get_corename{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                if core is not None:
                    core.argtypes, core.restype = [], ctypes.c_char_p
                return get, put, core
    return None


@contextmanager
def single_thread():
    """Run the body on one OpenBLAS thread; the old count is restored on exit."""
    funcs = _openblas()
    if funcs is None:
        yield
        return
    get, put, _ = funcs
    old = get()
    put(TRAIN_THREADS)
    try:
        yield
    finally:
        put(old)


def describe() -> dict:
    """What a run's bits depend on: numpy's BLAS and the kernels it and numpy chose.

    `name` and `version` are the BLAS's, `threads` the count training runs it
    with, `core` the OpenBLAS kernel set picked for this CPU (SkylakeX,
    Haswell, Zen, ...) and `simd` the highest SIMD target numpy dispatches
    its loops to (X86_V3 is AVX2, X86_V4 AVX-512). A value is None when the
    library or numpy does not report it.
    """
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        simd = config["SIMD Extensions"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        info, simd = {}, {}
    levels = simd.get("found") or simd.get("baseline") or [None]
    funcs = _openblas()
    core = funcs[2]() if funcs is not None and funcs[2] is not None else None
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": TRAIN_THREADS if funcs is not None else None,
            "core": core.decode() if core else None, "simd": levels[-1]}
