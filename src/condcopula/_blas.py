"""Thread count and leading eigenpairs through the OpenBLAS loaded in this process.

After every multithreaded call OpenBLAS keeps its worker threads spinning
for a while (about 0.2 s of CPU per call on a 2-core box) before they sleep.
On the products and eigenproblems of a fit the extra threads save little,
while the spinning worker takes a core from the single-threaded stages that
follow, and a busy second core stalls every threaded call. ``limited_threads``
runs a block, or each call of a function it decorates, with at most a given
number of BLAS threads and then restores the previous count. The count is
process-wide, so while the block runs it also holds for BLAS calls made by
other Python threads. Where no OpenBLAS is loaded (another BLAS, or a
platform without ``/proc/self/maps``) it does nothing.

``leading_eigh`` returns only the largest eigenpairs of a symmetric matrix,
from LAPACK's ``dsyevr`` with an index range: the tridiagonal reduction, then
bisection and inverse iteration for the chosen eigenpairs alone (MRRR when
all are chosen). It calls the
64-bit-integer LAPACKE entry of the scipy-openblas library that numpy
bundles, which is already mapped into the process. Only where that library
is absent does it fall back to ``scipy.linalg.eigh``, whose import costs
about 0.08 s and 6 MiB of resident memory; it maps no new BLAS and starts no
thread, as ``scipy.special`` (which ``simulate`` imports) has mapped scipy's.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

__all__ = ["leading_eigh", "limited_threads"]

# (prefix, suffix) of the thread-count symbols: the scipy-openblas wheels
# that numpy and scipy bundle, then a system OpenBLAS
_SYMBOLS = (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "64_"), ("openblas", ""))
# LAPACKE_dsyevr of numpy's scipy-openblas wheel, with 64-bit integers
_DSYEVR = "scipy_LAPACKE_dsyevr64_"
_COL_MAJOR = 102


@lru_cache(maxsize=1)
def _libraries() -> tuple:
    """Each OpenBLAS library mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    paths = dict.fromkeys(
        fields[5]
        for fields in (line.split(maxsplit=5) for line in maps.splitlines())
        if len(fields) == 6 and "openblas" in Path(fields[5]).name.lower()
    )
    libraries = []
    for path in paths:
        try:
            libraries.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libraries)


@lru_cache(maxsize=1)
def _controls() -> tuple:
    """(get, set) thread-count functions of each mapped OpenBLAS library."""
    controls = []
    for lib in _libraries():
        for prefix, suffix in _SYMBOLS:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                controls.append((get, put))
                break
    return tuple(controls)


@lru_cache(maxsize=1)
def _dsyevr():
    """The mapped ``LAPACKE_dsyevr`` with 64-bit integers, or None."""
    for lib in _libraries():
        fn = getattr(lib, _DSYEVR, None)
        if fn is None:
            continue
        i64 = ctypes.c_int64
        doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
        fn.argtypes = [
            ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_char,  # layout, jobz, range, uplo
            i64, doubles, i64,  # n, a, lda
            ctypes.c_double, ctypes.c_double, i64, i64, ctypes.c_double,  # vl, vu, il, iu, abstol
            ints, doubles, doubles, i64, ints,  # m, w, z, ldz, isuppz
        ]
        fn.restype = i64
        return fn
    return None


def leading_eigh(a: np.ndarray, count: int) -> tuple:
    """The ``count`` largest eigenvalues of symmetric ``a`` and their eigenvectors.

    Returns (eigenvalues ascending, eigenvectors as the columns of an
    (N, count) array). ``a`` must be a C-contiguous float64 N x N matrix
    equal to its transpose; only one triangle is read, and ``a`` is
    overwritten. ``count`` must be in 1..N.
    """
    N = a.shape[0]
    if a.shape != (N, N) or a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("leading_eigh needs a C-contiguous float64 square matrix")
    if not 1 <= count <= N:
        raise ValueError(f"count={count} out of range 1..{N}")
    dsyevr = _dsyevr()
    if dsyevr is None:
        from scipy.linalg import eigh

        return eigh(
            a, subset_by_index=(N - count, N - 1), driver="evr",
            overwrite_a=True, check_finite=False,
        )
    found = np.zeros(1, dtype=np.int64)
    w = np.empty(N)
    # column-major N x count: row j is the j-th eigenvector
    z = np.empty((count, N))
    isuppz = np.empty(2 * count, dtype=np.int64)
    # a symmetric C-order array is its own column-major form
    info = dsyevr(
        _COL_MAJOR, b"V", b"I", b"L", N, a, N,
        0.0, 0.0, N - count + 1, N, 0.0, found, w, z, N, isuppz,
    )
    if info != 0 or found[0] != count:
        raise np.linalg.LinAlgError(
            f"dsyevr failed: info={info}, {found[0]} of {count} eigenpairs"
        )
    return w[:count], z.T


@contextmanager
def limited_threads(threads: int):
    """Run the block, or each call of the decorated function, with at most
    ``threads`` BLAS threads.

    The previous count is restored on exit, also when the block raises.
    """
    lowered = []
    for get, put in _controls():
        before = get()
        if before > threads:
            put(threads)
            lowered.append((put, before))
    try:
        yield
    finally:
        for put, before in lowered:
            put(before)
