"""Exception types shared across the package.

Validation problems (bad arguments, malformed files) raise plain
``ValueError``; numerical failures that a caller can fix by changing a
parameter (bandwidth, grid, model) raise the dedicated classes below so the
CLI can map them to a distinct exit code.
"""


class DegenerateWeightsError(RuntimeError):
    """All kernel weights vanished at an evaluation point.

    Raised when the evaluation point is farther than one bandwidth from every
    covariate observation (compact-support kernels) or so far that the
    Gaussian kernel underflows. Enlarging the bandwidth or moving the
    evaluation point into the covariate support fixes it.
    """


class DegenerateSpectrumError(RuntimeError):
    """An eigenvalue gap the perturbation formulas divide by is below resolution.

    Raised by ``fpca.tkn_projection`` when two eigenvalues lie within 1e-10.
    A fit never raises it: an all-zero spectrum gives K = 0, the partial
    copula and ``diagnostics["degenerate_spectrum"]``.
    """
