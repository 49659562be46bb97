"""Kernel regression of FPCA scores on the covariate.

The regression of each score column on x uses the same NW weights as the
conditional CDF machinery, but with its own kernel and bandwidth; a
leave-one-out cross-validation selector for that bandwidth is provided.
"""

from __future__ import annotations

import numpy as np

from .conditional import KernelSpec, _weight_blocks, nw_weights
from .errors import DegenerateWeightsError

__all__ = ["eval_alpha", "cv_bandwidth"]


def eval_alpha(
    x: float, xs: np.ndarray, scores: np.ndarray, kernel: KernelSpec
) -> np.ndarray:
    """NW regression estimate of each score's conditional mean at x.

    ``scores`` is (n, K) with one row per covariate value in ``xs``; a row
    count that differs from ``len(xs)`` raises ``ValueError``. Returns a
    length-K array; each entry is a convex combination of the corresponding
    score column.
    """
    return nw_weights(x, xs, kernel) @ scores


def cv_bandwidth(
    xs: np.ndarray,
    scores: np.ndarray,
    kernel_family: str = "epanechnikov",
    candidates=None,
) -> float:
    """Leave-one-out CV bandwidth for the score regression.

    Minimizes the squared leave-one-out prediction error summed over score
    columns and observations; candidates whose window isolates some
    observation get infinite error. Ties resolve to the smaller bandwidth.
    The leave-one-out weights come from ``_weight_blocks`` in the blocks of
    32 rows that every kernel-weighted stage uses, so no n x n array is held.
    """
    xs = np.asarray(xs, dtype=float)
    if np.unique(xs).size < 3:
        raise ValueError("cross-validation needs at least 3 distinct covariate values")
    if candidates is None or len(candidates) == 0:
        raise ValueError("empty candidate grid")
    scores = np.asarray(scores, dtype=float)
    candidates = sorted(float(h) for h in candidates)
    best_h, best_err = None, np.inf
    for h in candidates:
        blocks = _weight_blocks(xs, xs, KernelSpec(kernel_family, h), leave_one_out=True)
        try:
            err = sum(
                float(np.sum((scores[rows] - W @ scores[union]) ** 2))
                for rows, union, W in blocks
            )
        except DegenerateWeightsError:
            err = np.inf
        if err < best_err - 1e-15:
            best_err, best_h = err, h
    if best_h is None:
        # every candidate isolates some point; fall back to the smallest
        best_h = candidates[0]
    return best_h
