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
by one of two routes chosen from the matrix order N and the count alone.
Where N is at least ``_CROSSOVER`` times the Lanczos step budget
(``_STEP_FACTOR * count + _STEP_SLACK`` steps), it runs Lanczos from a
fixed start vector with full reorthogonalisation (Lanczos 1950; Parlett,
*The Symmetric Eigenvalue Problem*, ch. 13) on the matrix as given: one
matrix-vector product and two Gram-Schmidt passes against the basis per
step, in numpy alone, with a basis of budget + 1 vectors of length N. It
stops once every requested Ritz pair's residual bound beta * |s_m| is at
most ``_RITZ_TOL`` times the largest Ritz value. The start vector is the
Weyl sequence frac(i * 0.618...) - 0.5: it has no structure that the fit's
eigenvectors share, where an all-ones vector is orthogonal to every
eigenfunction of zero integral. The other shapes, and any run whose beta
collapses to rounding at some step or whose budget runs out, go to LAPACK's
``dsyevr`` with an index range: the tridiagonal reduction, then bisection
and inverse iteration for the chosen eigenpairs alone (MRRR when all are
chosen). A collapse means the start vector lies in an invariant subspace of
fewer eigenvectors than the run needs, as with a rank-deficient stack; the
dense route then returns its own bits. One start vector sees, in exact
arithmetic, a single direction of an exactly repeated eigenvalue's
eigenspace, and only rounding brings in another; continuous data does not
produce a repeated eigenvalue among the leading ones, and a repeated zero
breaks down to ``dsyevr``. For the 16
leading eigenpairs of the fit's matrices, on one thread, the Lanczos route
took 36-48 steps; it was level with ``dsyevr`` at N = 200 and 2-11 times
faster at N = 400-2601, with eigenvalues within 2.3e-15 * lambda_1 of
``dsyevr``'s.

The dense route calls the 64-bit-integer LAPACKE entry of the
scipy-openblas library that numpy bundles, which is already mapped into the
process. Only where that library is absent does it fall back to numpy's
full ``eigh`` and keep the last ``count`` pairs. It imports nothing: the
package needs numpy alone, and a BLAS mapped after ``_controls`` has listed
the loaded libraries would run threads that ``limited_threads`` cannot
reach.
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
# Lanczos: a step budget of 3 * count + 48, taken only where N is at least
# twice it; on one thread the two routes tie at N of 1.6-2 budgets (count 1-24)
_STEP_FACTOR = 3
_STEP_SLACK = 48
_CROSSOVER = 2
_CHECK_EVERY = 4  # steps between Ritz-bound checks, each an eigh of the tridiagonal
_RITZ_TOL = 2.0**-50  # Ritz bound / largest Ritz value, about 4 eps
_COLLAPSE = 2.0**-40  # beta / largest |alpha| at which the Krylov space is invariant
_WEYL = 0.6180339887498949  # frac(i * (sqrt(5) - 1) / 2) is the start vector


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


def _budget(count: int) -> int:
    """Lanczos steps allowed for the ``count`` largest eigenpairs."""
    return _STEP_FACTOR * count + _STEP_SLACK


def _lanczos(a: np.ndarray, count: int):
    """The ``count`` largest eigenpairs of symmetric ``a`` by Lanczos, or None.

    None when beta collapses or the step budget runs out first; ``a`` is
    only read, so the dense route can take it as it was.
    """
    N = a.shape[0]
    steps = _budget(count)
    basis = np.empty((steps + 1, N))  # one Lanczos vector per row
    start = np.modf(np.arange(1, N + 1) * _WEYL)[0] - 0.5
    basis[0] = start / np.linalg.norm(start)
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    scale = 0.0
    for j in range(steps):
        w = a @ basis[j]
        done = basis[: j + 1]
        first = done @ w
        w -= first @ done
        second = done @ w
        w -= second @ done
        alpha[j] = first[j] + second[j]
        beta[j] = np.linalg.norm(w)
        scale = max(scale, abs(alpha[j]))
        if not beta[j] > _COLLAPSE * scale:  # also a NaN
            return None
        m = j + 1
        # no measured run converged in fewer than 2 * count steps
        if m >= 2 * count and (m % _CHECK_EVERY == 0 or m == steps):
            t = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, s = np.linalg.eigh(t)
            if np.all(beta[j] * np.abs(s[-1, m - count:]) <= _RITZ_TOL * theta[-1]):
                # (count, N) in C order, so the eigenvectors are its columns
                return theta[m - count:], (s[:, m - count:].T @ basis[:m]).T
        basis[j + 1] = w / beta[j]
    return None


def leading_eigh(a: np.ndarray, count: int) -> tuple:
    """The ``count`` largest eigenvalues of symmetric ``a`` and their eigenvectors.

    Returns (eigenvalues ascending, eigenvectors as the columns of an
    (N, count) array). ``a`` must be a C-contiguous float64 N x N matrix
    equal to its transpose, and ``count`` in 1..N. Where N is at least
    ``_CROSSOVER`` times the step budget ``_budget(count)``, Lanczos
    (``_lanczos``) reads the whole matrix and leaves it as it was. When its
    beta collapses to ``_COLLAPSE`` times the largest |alpha| or below, or
    its budget runs out before every requested Ritz bound is at most
    ``_RITZ_TOL`` times the largest Ritz value, and at every other shape,
    ``dsyevr`` reads one triangle and overwrites ``a``. The route thus
    depends on (N, count) and convergence alone. One start vector sees a
    single direction of an exactly repeated eigenvalue's eigenspace in exact
    arithmetic; continuous data does not produce one among the leading
    eigenvalues, and a rank-deficient matrix breaks down to ``dsyevr``.
    """
    N = a.shape[0]
    if a.shape != (N, N) or a.dtype != np.float64 or not a.flags.c_contiguous:
        raise ValueError("leading_eigh needs a C-contiguous float64 square matrix")
    if not 1 <= count <= N:
        raise ValueError(f"count={count} out of range 1..{N}")
    if N >= _CROSSOVER * _budget(count):
        found = _lanczos(a, count)
        if found is not None:
            return found
    dsyevr = _dsyevr()
    if dsyevr is None:
        w, v = np.linalg.eigh(a)
        return w[N - count:], v[:, N - count:]
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
