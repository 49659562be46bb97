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

``leading_eigh`` returns, in one call, the leading eigenpairs of a
symmetric matrix that its caller reads. The caller's ``enough`` counts them
on a descending set of eigenvalues: the leading pairs whose eigenvalues it
reads and, among those, the leading pairs whose eigenvectors it reads; a
fixed count reads ``count`` of each. Where N is at least ``_CROSSOVER``
times the Lanczos step budget (``_STEP_FACTOR * count + _STEP_SLACK``
steps), Lanczos with full reorthogonalisation runs from a fixed start
vector (Lanczos 1950; Parlett, *The Symmetric Eigenvalue Problem*, ch. 13)
and counts on its current Ritz values. Its result stands only when its
``count`` pairs hold every pair that ``enough`` counts. Everywhere else
(other shapes, a beta that collapses to rounding, a budget that runs out,
or a caller that reads past ``count``) numpy's full ``eigh`` returns the
leading pairs that ``enough`` counts on its whole spectrum, up to all N.

A Ritz pair whose eigenvector is read passes once its residual bound
beta * |s_m| is at most ``_RITZ_TOL`` times the largest Ritz value. A pair
read for its eigenvalue alone passes on the Kato-Temple bound of the
eigenvalue's error (Parlett, ch. 10-11), rho^2 / (gamma - rho) for a
residual bound rho below the distance gamma to the nearest other Ritz
value, at most ``_RITZ_TOL`` times its own Ritz value; that bound falls as
the square of the residual. The bounds are checked by an eigh of the
tridiagonal matrix, at steps timed by their own decay (``_steps_ahead``),
and the steps and checks read the alphas and betas alone, so a matrix and
the same matrix unformed stop at the same step with the same bits. The
start vector is the Weyl sequence frac(i * 0.618...) - 0.5, which shares no
structure with the fit's eigenvectors (an all-ones vector is orthogonal to
every eigenfunction of zero integral). A collapse means the start vector
lies in an invariant subspace of fewer eigenvectors than the run needs, as
with a rank-deficient stack; one start vector sees a single direction of
an exactly repeated eigenvalue's eigenspace, which continuous data does not
produce among the leading ones.

The matrix may also be given unformed, as an object that applies it to a
vector and forms it on request; it is then formed only for the dense
route. No route writes to ``a``, nor to the stack behind an unformed one.
The full ``eigh`` solves for every eigenpair, about twice the cost of an
index-range solve of a few pairs at large N (3.4 s against 1.5 s at
N = 2601 and count 16 on a random spectrum). The module imports no
package but numpy: a BLAS mapped after ``_controls`` has listed the loaded
libraries would run threads that ``limited_threads`` cannot reach.
"""

from __future__ import annotations

import ctypes
import math
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
_CHECK_EVERY = 4  # most steps between Ritz-bound checks, each an eigh of the tridiagonal
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


def _converged(theta: np.ndarray, rho: np.ndarray, want: int, vectors: int) -> tuple:
    """Which of the ``want`` leading Ritz pairs have converged, and how far each is off.

    ``theta`` holds every Ritz value in ascending order and ``rho`` each
    pair's residual bound beta |s_m|, in the same order. The leading
    ``vectors`` pairs pass when rho <= ``_RITZ_TOL`` * theta_1, the largest
    Ritz value. The next pairs, up to ``want``, are read for their
    eigenvalue alone. With gamma the distance from theta_i to the nearest
    other Ritz value, the eigenvalue's error is at most rho^2 / (gamma - rho)
    when rho < gamma (Kato-Temple), and at most rho in any case, so such a
    pair passes when rho^2 <= ``_RITZ_TOL`` * theta_i * (gamma - rho), or on
    the vector bound. Returns (passed, ratio), leading pair first: the pass
    is the direct comparison, and ``ratio``, each pair's bound over its
    tolerance, times the next check.
    """
    theta, rho = theta[::-1], rho[::-1]
    top = _RITZ_TOL * theta[0]
    k = min(want, theta.size)
    passed = rho[:k] <= top
    gaps = (theta[:-1] - theta[1:]).tolist() + [math.inf]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = rho[:k] / top
        for i in range(vectors, k):
            room = min(gaps[i - 1] if i else math.inf, gaps[i]) - rho[i]
            if room > 0.0:
                passed[i] |= rho[i] ** 2 <= _RITZ_TOL * theta[i] * room
                ratio[i] = min(ratio[i], rho[i] ** 2 / room / (_RITZ_TOL * theta[i]))
    return passed, ratio


def _steps_ahead(ratio: np.ndarray, passed: np.ndarray, before: np.ndarray, since: int) -> int:
    """Steps to the next check, 1 to ``_CHECK_EVERY``.

    Each failing pair's ratio (``_converged``) is carried forward at the
    rate it fell over the ``since`` steps from the previous check, whose
    ratios are ``before``, to the step where it reaches 1; the next check is
    the last whole step before the slowest one gets there, as the bounds fall
    faster the further Lanczos runs. A pair without a previous ratio, or
    whose ratio did not fall, asks for ``_CHECK_EVERY``.
    """
    slowest = 1.0
    for i in np.flatnonzero(~passed).tolist():
        ok = i < before.size and before[i] > ratio[i] > 0.0
        fall = math.log(before[i] / ratio[i]) if ok else 0.0  # over ``since`` steps
        if not fall > 0.0:
            return _CHECK_EVERY
        slowest = max(slowest, since * math.log(ratio[i]) / fall)
    return min(int(slowest), _CHECK_EVERY)


def _lanczos(a, count: int, enough):
    """Leading eigenpairs of symmetric ``a`` by Lanczos, or None.

    ``enough(theta)`` gives (values, vectors) on a check's Ritz values
    ``theta`` in descending order. The run stops at the first check where
    the leading ``want = min(count, values)`` pairs pass (``_converged``),
    and returns them when ``values <= count``; the first check is at step
    2, the next timed by ``_steps_ahead``, never before step 2 * want. None
    when the caller reads past ``count`` pairs, when beta collapses, or
    when the step budget runs out first. ``a`` is only read through
    ``a @ v``.
    """
    N = a.shape[0]
    steps = _budget(count)
    basis = np.empty((steps + 1, N))  # one Lanczos vector per row
    start = np.modf(np.arange(1, N + 1) * _WEYL)[0] - 0.5
    basis[0] = start / np.linalg.norm(start)
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    scale = 0.0
    check, last, before = 2, 0, np.empty(0)  # the next check; the previous one's step and ratios
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
        if m >= check or m == steps:
            t = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
            theta, s = np.linalg.eigh(t)
            values, vectors = enough(theta[::-1])
            want = min(count, values)
            passed, ratio = _converged(theta, beta[j] * np.abs(s[-1]), want, vectors)
            if m >= 2 * want and np.all(passed):
                if values > count:  # the caller reads past the pairs this run holds
                    return None
                # (want, N) in C order, so the eigenvectors are its columns
                return theta[m - want:], (s[:, m - want:].T @ basis[:m]).T
            check = max(m + _steps_ahead(ratio, passed, before, m - last), 2 * want)
            last, before = m, ratio
        basis[j + 1] = w / beta[j]
    return None


def leading_eigh(a, count: int, enough=None) -> tuple:
    """The leading eigenvalues of symmetric ``a`` that the caller reads, and their eigenvectors.

    Returns (eigenvalues ascending, eigenvectors as the columns of an
    (N, k) array). ``a`` is a float64 N x N matrix equal to its transpose,
    or the same matrix unformed: an object with ``shape`` (N, N), ``a @ v``
    its product with a length-N vector and ``a.form()`` the matrix.
    ``count``, in 1..N, sizes the Lanczos attempt, and ``a`` is only read.
    ``enough`` maps eigenvalues in descending order to (values, vectors):
    the leading pairs whose eigenvalues the caller reads, and those whose
    eigenvectors it reads; by default both are ``count``. A Lanczos result
    (``_lanczos``, where N >= ``_CROSSOVER * _budget(count)``) holds the
    leading min(count, values) pairs counted on its Ritz values, and stands
    only when that is all ``values`` of them. Otherwise ``np.linalg.eigh``
    reads one triangle of the matrix, formed first if ``a`` is unformed,
    and k = min(N, values) is counted on its whole spectrum.
    """
    N = a.shape[0]
    formed = isinstance(a, np.ndarray)
    if a.shape != (N, N) or (formed and a.dtype != np.float64):
        raise ValueError("leading_eigh needs a float64 square matrix")
    if not 1 <= count <= N:
        raise ValueError(f"count={count} out of range 1..{N}")
    if enough is None:
        def enough(theta):
            return count, count
    if N >= _CROSSOVER * _budget(count):
        found = _lanczos(a, count, enough)
        if found is not None:
            return found
    w, v = np.linalg.eigh(a if formed else a.form())
    k = min(N, enough(w[::-1])[0])
    return w[N - k:], v[:, N - k:]


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
