"""Exception types shared across the package, and its integer-setting check.

Validation problems (bad arguments, malformed files) raise plain
``ValueError``; numerical failures that a caller can fix by changing a
parameter (bandwidth, grid, model) raise ``DegenerateWeightsError`` so the
CLI can map it to a distinct exit code.
"""

import numbers


def require_integer(name: str, value, low: int | None = None) -> int:
    """``value`` as an int; a bool, a non-integer or one below ``low`` names ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return int(value)


class DegenerateWeightsError(RuntimeError):
    """All kernel weights vanished at an evaluation point.

    Raised when the evaluation point is farther than one bandwidth from every
    covariate observation (compact-support kernels) or so far that the
    Gaussian kernel underflows. Enlarging the bandwidth or moving the
    evaluation point into the covariate support fixes it.
    """


class DegenerateSpectrumError(RuntimeError):
    """An eigenvalue gap a perturbation formula divides by is below resolution.

    No package code raises it any more: a fit with an all-zero spectrum gives
    K = 0, the partial copula and ``diagnostics["degenerate_spectrum"]``, and
    the perturbation experiment divides only by the gaps of its fixed model's
    distinct eigenvalues. It stays importable for callers that catch it.
    """
