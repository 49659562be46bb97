"""Thread count of the OpenBLAS loaded in this process, and leading eigenpairs.

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
most ``_RITZ_TOL`` times the largest Ritz value. A caller that reads fewer
pairs than it may need (the fit under an automatic K reads those through
the CVP crossing plus one) passes ``enough``, which counts them on the
current Ritz values; the run then stops as soon as that many leading pairs
meet the bound, and returns those. On the fit's Gram matrices of order
800 (n = 800, G = 51, three samples) that run took 4.9-5.4 ms on one
thread, where 16 pairs took 11.2-13.4 ms. The start vector is the
Weyl sequence frac(i * 0.618...) - 0.5: it has no structure that the fit's
eigenvectors share, where an all-ones vector is orthogonal to every
eigenfunction of zero integral. The other shapes, and any run whose beta
collapses to rounding at some step or whose budget runs out, take numpy's
full ``eigh`` and keep its last ``count`` pairs. A collapse means the start
vector lies in an invariant subspace of fewer eigenvectors than the run
needs, as with a rank-deficient stack. One start vector sees, in exact
arithmetic, a single direction of an exactly repeated eigenvalue's
eigenspace, and only rounding brings in another; continuous data does not
produce a repeated eigenvalue among the leading ones, and a repeated zero
breaks down to ``eigh``. For the 16 leading eigenpairs of the benchmark's
matrices (N = 200, 400, 441 and 800, seeds 1 and 58213), the Lanczos route
took 36-52 steps. On one thread it took 1.6-12 ms on the fit's matrices of
those orders, where ``eigh`` took 3.0-91 ms. Both routes leave ``a`` as it
was.

The full ``eigh`` solves for every eigenpair, so a dense solve of a few
pairs at large N costs about twice what an index-range solve would: at
N = 2601 and count 16 on a random spectrum, 3.4 s against 1.5 s. Only a
Lanczos breakdown (a rank below about the count) or a count above
N / 6 - 16 (a large fixed K) reaches that shape. The module imports no
package but numpy: a BLAS mapped after ``_controls`` has listed the loaded
libraries would run threads that ``limited_threads`` cannot reach.
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
# Lanczos: a step budget of 3 * count + 48, taken only where N is at least
# twice it, where it tied an index-range dense solve on one thread (count 1-24)
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


def _budget(count: int) -> int:
    """Lanczos steps allowed for the ``count`` largest eigenpairs."""
    return _STEP_FACTOR * count + _STEP_SLACK


def _lanczos(a: np.ndarray, count: int, enough=None):
    """The ``count`` largest eigenpairs of symmetric ``a`` by Lanczos, or None.

    With ``enough``, the pairs returned are the leading ``min(count,
    enough(theta))`` at the first check where those converge, ``theta``
    being that check's Ritz values in descending order. None when beta
    collapses or the step budget runs out first; ``a`` is only read.
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
        # no measured run converged in fewer than 2 * count steps; with
        # ``enough`` the count is known only from the Ritz values
        if (m >= 2 * count or enough is not None) and (m % _CHECK_EVERY == 0 or m == steps):
            t = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, s = np.linalg.eigh(t)
            want = count if enough is None else min(count, enough(theta[::-1]))
            if m >= 2 * want and np.all(
                beta[j] * np.abs(s[-1, m - want:]) <= _RITZ_TOL * theta[-1]
            ):
                # (want, N) in C order, so the eigenvectors are its columns
                return theta[m - want:], (s[:, m - want:].T @ basis[:m]).T
        basis[j + 1] = w / beta[j]
    return None


def leading_eigh(a: np.ndarray, count: int, enough=None) -> tuple:
    """The ``count`` largest eigenvalues of symmetric ``a`` and their eigenvectors.

    Returns (eigenvalues ascending, eigenvectors as the columns of an
    (N, count) array). ``a`` must be a float64 N x N matrix equal to its
    transpose, and ``count`` in 1..N; it is only read. Where N is at least
    ``_CROSSOVER`` times the step budget ``_budget(count)``, Lanczos
    (``_lanczos``) reads the whole matrix. When its beta collapses to
    ``_COLLAPSE`` times the largest |alpha| or below, or its budget runs out
    before every requested Ritz bound is at most ``_RITZ_TOL`` times the
    largest Ritz value, and at every other shape, ``np.linalg.eigh`` reads
    one triangle and its last ``count`` pairs are returned. The route thus
    depends on (N, count) and convergence alone. One start vector sees a
    single direction of an exactly repeated eigenvalue's eigenspace in exact
    arithmetic; continuous data does not produce one among the leading
    eigenvalues, and a rank-deficient matrix breaks down to ``eigh``.

    ``enough``, if given, maps Ritz values in descending order to the number
    of leading pairs the caller reads. Lanczos then stops at the first check
    where that many pairs, at most ``count``, meet the Ritz bound, and
    returns them alone; the dense route still returns ``count`` pairs.
    """
    N = a.shape[0]
    if a.shape != (N, N) or a.dtype != np.float64:
        raise ValueError("leading_eigh needs a float64 square matrix")
    if not 1 <= count <= N:
        raise ValueError(f"count={count} out of range 1..{N}")
    if N >= _CROSSOVER * _budget(count):
        found = _lanczos(a, count, enough)
        if found is not None:
            return found
    w, v = np.linalg.eigh(a)
    return w[N - count:], v[:, N - count:]


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
