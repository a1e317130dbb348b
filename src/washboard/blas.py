"""numpy's OpenBLAS, driven through its own entry points: one thread per
process, and the few LAPACK routines the level recursion needs.

The numpy wheel bundles OpenBLAS with 64-bit integers and exports its
symbols with a ``scipy_`` prefix and a ``64_`` suffix.  Calling that copy
through ctypes keeps scipy, and the second OpenBLAS copy its wheel brings,
out of the process.

**Threads.** On a few cores OpenBLAS threads even the small kernels of the
level recursion and loses by it: on a 2-core Xeon, ``factor_hierarchy`` at
N = 512 with 113 x 113 blocks (M = 56) takes 7-8 s on two threads and 0.3 s
on one.  :func:`one_thread` pins every loaded copy to one thread and
restores the previous counts on exit: numpy's copy exports
``scipy_openblas_set_num_threads64_``, and scipy's, loaded where it serves
the LAPACK below or where a caller loaded it first,
``scipy_openblas_set_num_threads``.  Where no loaded library exports these
symbols it does nothing.  Only the calling process is affected, and a
process forked under the pin inherits it.

**LAPACK.** :func:`inverter` inverts the blocks of a stack in place
(``dgetrf`` + ``dgetri``), with the stack's pointers converted once, and
:func:`lu_solve` solves one system with a reciprocal condition estimate
(``dgetrf``, ``dgecon``, ``dgetrs``).  Where numpy's copy does not export
these routines (a numpy built on a system LAPACK), both use
``scipy.linalg.lapack`` with the same results.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import cache
from types import SimpleNamespace

import numpy as np

__all__ = ["one_thread", "single_threaded", "inverter", "lu_solve"]

# (set, get) symbol pairs: numpy's copy, scipy's copy
_ENTRY_POINTS = (("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
                 ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"))

# numpy's copy's LAPACK routines: name -> number of arguments, all passed by
# reference as in Fortran; the gfortran ABI appends one size_t length per
# character argument, given here as the count of those
_ROUTINES = {"dgetrf": (6, 0), "dgetri": (7, 0), "dgetrs": (9, 1), "dgecon": (9, 1)}
_INT = ctypes.c_int64          # LAPACK's INTEGER in the 64-bit-integer build
_PTR = ctypes.c_void_p


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:   # address perms offset dev inode path
            return sorted({line.split(None, 5)[5].strip() for line in fh
                           if "openblas" in line})
    except OSError:
        return []


def _loaded() -> list[ctypes.CDLL]:
    libs = []
    for path in _mapped_openblas():
        try:
            libs.append(ctypes.CDLL(path))     # already loaded: the same handle
        except OSError:
            continue
    return libs


@cache
def _controls() -> tuple:
    """(set, get) functions of every loaded OpenBLAS copy.

    Looked up at first use, and again by every :func:`single_threaded`.  By
    then importing the package has loaded numpy's copy.  Where that copy
    exports no LAPACK, scipy's, which then runs every solve, is loaded here
    first so that the pin finds it; other than that, scipy's is found only
    if something imported it before the lookup.
    """
    if _lapack() is None:
        try:
            import scipy.linalg.lapack  # noqa: F401
        except ImportError:
            pass
    controls = []
    for lib in _loaded():
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
    thread, so that forking leaves no BLAS thread pool behind in use.

    The copies are looked up afresh (about 0.2 ms), so a copy loaded since
    the last lookup, such as scipy's by a later ``import scipy.linalg``,
    counts; :func:`one_thread` keeps using the copies it found.
    """
    _controls.cache_clear()
    controls = _controls()
    return bool(controls) and all(getter() == 1 for _, getter in controls)


# ---------------------------------------------------------------------------
# LAPACK
# ---------------------------------------------------------------------------

@cache
def _lapack() -> SimpleNamespace | None:
    """numpy's copy's LAPACK routines as ctypes functions, or None where no
    loaded OpenBLAS exports all of them."""
    symbols = {name: f"scipy_{name}_64_" for name in _ROUTINES}
    for lib in _loaded():
        if all(hasattr(lib, symbol) for symbol in symbols.values()):
            routines = {}
            for name, (count, lengths) in _ROUTINES.items():
                fn = getattr(lib, symbols[name])
                fn.argtypes = [_PTR] * count + [ctypes.c_size_t] * lengths
                fn.restype = None
                routines[name] = fn
            return SimpleNamespace(**routines)
    return None


class _Inverter:
    """Inverts stack[k] in place through ctypes; see :func:`inverter`."""

    def __init__(self, lapack: SimpleNamespace, stack: np.ndarray):
        size = stack.shape[1]
        self._stack = stack                    # the pointers below point into it
        self._getrf, self._getri = lapack.dgetrf, lapack.dgetri
        self._ipiv = np.empty(size, dtype=np.int64)
        self._info = _INT()
        # every argument but the block, converted once
        self._n, self._info_p = ctypes.byref(_INT(size)), ctypes.byref(self._info)
        self._ipiv_p = _PTR(self._ipiv.ctypes.data)
        base, step = stack.ctypes.data, stack.strides[0]
        self._blocks = [_PTR(base + k * step) for k in range(stack.shape[0])]
        query = np.empty(1)                    # workspace query: lwork = -1
        self._getri(self._n, self._blocks[0], self._n, self._ipiv_p,
                    _PTR(query.ctypes.data), ctypes.byref(_INT(-1)), self._info_p)
        self._work = np.empty(max(int(query[0]), size))
        self._work_p = _PTR(self._work.ctypes.data)
        self._lwork = ctypes.byref(_INT(self._work.size))

    def __call__(self, k: int) -> int:
        n, ipiv, info, block = self._n, self._ipiv_p, self._info_p, self._blocks[k]
        self._getrf(n, n, block, n, ipiv, info)
        if self._info.value == 0:
            self._getri(n, block, n, ipiv, self._work_p, self._lwork, info)
        return self._info.value


def _scipy_inverter(stack: np.ndarray):
    from scipy.linalg.lapack import dgetrf, dgetri, dgetri_lwork

    lwork = int(dgetri_lwork(stack.shape[1])[0])

    def invert(k: int) -> int:
        # stack[k].T is F-ordered, so f2py factors and inverts it in place
        lu, piv, info = dgetrf(stack[k].T, overwrite_a=1)
        if info == 0:
            _, info = dgetri(lu, piv, lwork=lwork, overwrite_lu=1)
        return info

    return invert


def inverter(stack: np.ndarray):
    """A function ``invert(k)`` that replaces the square block ``stack[k]`` of a
    C-contiguous float64 stack by its inverse, in place, and returns LAPACK's
    info (> 0: the block is singular and left factored, < 0: a bad argument).

    LAPACK sees block k in Fortran order, as its transpose, and factors and
    inverts that; the inverse of the transpose read in C order is the
    inverse.  The stack must outlive ``invert`` unchanged in place and shape.
    """
    if (stack.dtype != np.float64 or stack.ndim != 3 or stack.shape[1] != stack.shape[2]
            or not stack.flags.c_contiguous or not stack.flags.writeable):
        raise ValueError("expected a writeable C-contiguous float64 stack of square blocks")
    lapack = _lapack()
    return _scipy_inverter(stack) if lapack is None else _Inverter(lapack, stack)


def lu_solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray | None, float, int]:
    """(x, rcond, info) for the square system a x = b, with b of shape (n,):
    LU with partial pivoting, then LAPACK's reciprocal condition estimate in
    the 1-norm.  ``a`` and ``b`` are left as they are.  When the
    factorization fails (info != 0) x is None and rcond 0.
    """
    a = np.array(a, dtype=np.float64, order="F")
    x = np.array(b, dtype=np.float64, order="F")
    if a.ndim != 2 or a.shape[0] != a.shape[1] or x.shape != a.shape[:1]:
        raise ValueError(f"cannot solve a {a.shape} system for a {x.shape} right-hand side")
    n = a.shape[0]
    anorm = float(np.abs(a).sum(axis=0).max())
    lapack = _lapack()
    if lapack is None:
        from scipy.linalg.lapack import dgecon, dgetrf, dgetrs
        lu, piv, info = dgetrf(a, overwrite_a=1)
        if info != 0:
            return None, 0.0, int(info)
        rcond, _ = dgecon(lu, anorm, norm="1")
        x, info = dgetrs(lu, piv, x, overwrite_b=1)
        return x, float(rcond), int(info)

    ipiv = np.empty(n, dtype=np.int64)
    size, nrhs, info = _INT(n), _INT(1), _INT()
    rcond, norm = ctypes.c_double(), ctypes.c_double(anorm)
    ref = ctypes.byref
    a_p, ipiv_p = _PTR(a.ctypes.data), _PTR(ipiv.ctypes.data)
    lapack.dgetrf(ref(size), ref(size), a_p, ref(size), ipiv_p, ref(info))
    if info.value != 0:
        return None, 0.0, info.value
    work, iwork = np.empty(4 * n), np.empty(n, dtype=np.int64)
    lapack.dgecon(b"1", ref(size), a_p, ref(size), ref(norm), ref(rcond),
                  _PTR(work.ctypes.data), _PTR(iwork.ctypes.data), ref(info), 1)
    lapack.dgetrs(b"N", ref(size), ref(nrhs), a_p, ref(size), ipiv_p,
                  _PTR(x.ctypes.data), ref(size), ref(info), 1)
    return x, rcond.value, info.value
