"""Kernel regression of FPCA scores on the covariate.

The regression of each score column on x uses the same NW weights as the
conditional CDF machinery, but with its own kernel and bandwidth. The
pipeline takes that bandwidth from the rule of thumb or from ``--h-alpha``;
there is no cross-validated selector (ROADMAP item 2 plans a
leave-window-out one).
"""

from __future__ import annotations

import numpy as np

from .conditional import KernelSpec, nw_weights

__all__ = ["eval_alpha"]


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
