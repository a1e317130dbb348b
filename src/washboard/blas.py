"""One OpenBLAS thread per process, set through the libraries' own entry points.

numpy and scipy each load their own OpenBLAS: numpy's 64-bit-integer copy
exports ``scipy_openblas_set_num_threads64_``, scipy's
``scipy_openblas_set_num_threads``.  On a few cores OpenBLAS threads even the
small kernels of the level recursion and loses by it: on a 2-core Xeon,
``factor_hierarchy`` at N = 512 with 113 x 113 blocks (M = 56) takes 7-8 s on
two threads and 0.3 s on one.  :func:`one_thread` pins every loaded copy to
one thread and restores the previous counts on exit; where no loaded library
exports these symbols it does nothing.  Only the calling process is affected,
and a process forked under the pin inherits it.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache

__all__ = ["one_thread", "single_threaded"]

# (set, get) symbol pairs: numpy's copy, scipy's copy
_ENTRY_POINTS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                 ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:   # address perms offset dev inode path
            return sorted({line.split(None, 5)[5].strip() for line in fh
                           if "openblas" in line})
    except OSError:
        return []


@cache
def _controls() -> tuple:
    """(set, get) functions of every loaded OpenBLAS copy.

    Looked up once, at first use; by then importing the package has loaded
    numpy's copy and, through ``scipy.linalg``, scipy's.
    """
    controls = []
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)     # already loaded: the same handle
        except OSError:
            continue
        for set_name, get_name in _ENTRY_POINTS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
    return tuple(controls)


@contextmanager
def one_thread():
    """Run the block (or, as a decorator, the function) with every OpenBLAS
    copy on one thread, and restore each copy's previous count after it.

    Inside another pin this changes nothing and costs one call per copy.
    """
    changed = []
    for setter, getter in _controls():
        count = getter()
        if count != 1:
            setter(1)
            changed.append((setter, count))
    try:
        yield
    finally:
        for setter, count in changed:
            setter(count)


def single_threaded() -> bool:
    """Whether an OpenBLAS copy is loaded and every loaded copy runs on one
    thread, so that forking leaves no BLAS thread pool behind in use."""
    controls = _controls()
    return bool(controls) and all(getter() == 1 for _, getter in controls)
