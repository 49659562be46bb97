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
    """The estimated covariance operator has no usable eigenvalue structure.

    Either every eigenvalue is (numerically) zero, or an eigenvalue gap
    required by the perturbation formulas is below resolution.
    """
