"""Data-generating processes with known conditional copulas.

Parametric copula families with covariate-dependent Kendall-tau links and
normal conditional margins provide samples whose true conditional copula is
available in closed form; a synthetic mean-plus-eigenfunction process with
prescribed spectrum exercises the FPCA and perturbation machinery in
isolation. Every copula CDF, conditional inverse and tau map is in closed
form; only Frank's tau-to-theta map takes a root search. All randomness
flows through counter-based per-observation substreams, so sampling is
order-independent and parallel-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .conditional import Sample
from .grid import Grid2D, GridFunction, from_callable

__all__ = [
    "CopulaModel",
    "TauLink",
    "MarginSpec",
    "ConditionalModel",
    "SyntheticKLModel",
    "TruthRecord",
    "copula_cdf",
    "conditional_v_given_u",
    "tau_to_theta",
    "sample_conditional",
    "true_conditional_copula",
    "synthetic_kl_sample",
    "cosine_tensor",
]

FAMILIES = ("independence", "clayton", "frank", "fgm", "gumbel")


def _obs_rng(seed: int, index: int) -> np.random.Generator:
    """Independent substream for observation ``index`` under ``seed``."""
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + index))


@dataclass(frozen=True)
class CopulaModel:
    """One bivariate copula family at a fixed parameter value."""

    family: str
    theta: float = 0.0

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in FAMILIES:
            raise ValueError(f"unknown copula family {self.family!r}")
        object.__setattr__(self, "family", fam)
        t = self.theta
        if fam == "clayton" and not t > 0:
            raise ValueError("Clayton requires theta > 0")
        if fam == "frank" and t == 0:
            raise ValueError("Frank requires theta != 0")
        if fam == "fgm" and not -1.0 <= t <= 1.0:
            raise ValueError("FGM requires theta in [-1, 1]")
        if fam == "gumbel" and not t >= 1.0:
            raise ValueError("Gumbel requires theta >= 1")


def copula_cdf(m: CopulaModel, u, v):
    """Closed-form copula CDF, vectorized over u and v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any(u < 0) or np.any(u > 1) or np.any(v < 0) or np.any(v > 1):
        raise ValueError("copula arguments must lie in [0, 1]")
    t = m.theta
    fam = m.family
    if fam == "independence":
        out = u * v
    elif fam == "clayton":
        uc, vc = np.maximum(u, 1e-300), np.maximum(v, 1e-300)
        with np.errstate(divide="ignore", over="ignore"):
            total = uc ** (-t) + vc ** (-t) - 1.0
            out = np.where((u > 0) & (v > 0), total ** (-1.0 / t), 0.0)
        over = (u > 0) & (v > 0) & ~np.isfinite(total)
        if np.any(over):
            # where the powers overflow: with a, b = -t log u, -t log v, m =
            # max(a, b), log(e^a + e^b - 1) = m + log1p(e^(min - m) (1 - e^-min))
            a = -t * np.log(np.broadcast_to(uc, over.shape)[over])
            b = -t * np.log(np.broadcast_to(vc, over.shape)[over])
            hi, lo = np.maximum(a, b), np.minimum(a, b)
            log_total = hi + np.log1p(np.exp(lo - hi) * -np.expm1(-lo))
            out[over] = np.exp(-log_total / t)
    elif fam == "frank":
        # C_s(u, w) = -log(q)/s, q = [a(1 - b) + (b - c)]/(1 - c), a, b, c =
        # e^{-su}, e^{-sw}, e^{-s}: two nonnegative terms, where the textbook
        # 1 + (a - 1)(b - 1)/(c - 1) cancels; t < 0 uses u - C_{-t}(u, 1 - v)
        s, w = (t, v) if t > 0 else (-t, 1.0 - v)
        with np.errstate(divide="ignore"):
            log_q = np.logaddexp(
                -s * u + np.log(-np.expm1(-s * w)),
                -s * w + np.log(-np.expm1(-s * (1.0 - w))),
            ) - math.log(-math.expm1(-s))
        out = -log_q / s if t > 0 else u + log_q / s
    elif fam == "fgm":
        out = u * v * (1.0 + t * (1.0 - u) * (1.0 - v))
    else:  # gumbel
        with np.errstate(divide="ignore"):
            lu = -np.log(np.maximum(u, 1e-300))
            lv = -np.log(np.maximum(v, 1e-300))
            hi = np.maximum(lu, lv)
            ratio = np.minimum(lu, lv) / np.where(hi > 0, hi, 1.0)
            out = np.where(
                (u > 0) & (v > 0),
                np.exp(-hi * (1.0 + ratio**t) ** (1.0 / t)),
                0.0,
            )
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


def conditional_v_given_u(m: CopulaModel, u: float, p: float) -> float:
    """Invert v -> dC/du(u, v) at probability level p (conditional sampling).

    Closed form for every family. Frank is evaluated in log space, and
    Clayton too where u^(-theta) overflows, so both hold at any admitted
    theta. For Gumbel, w = -log C(u, v) solves
    w + (theta - 1) log w = c, whose root is a scaled Wright omega value.
    """
    if not (0.0 < u < 1.0) or not (0.0 < p < 1.0):
        raise ValueError("u and p must lie strictly inside (0, 1)")
    t = m.theta
    fam = m.family
    if fam == "independence" or (fam == "fgm" and t == 0.0) or (
        fam == "gumbel" and t == 1.0
    ):
        return p
    if fam == "clayton":
        try:
            scaled = (p ** (-t / (1.0 + t)) - 1.0) * u ** (-t)
        except OverflowError:
            scaled = math.inf
        if math.isfinite(scaled):
            return float((scaled + 1.0) ** (-1.0 / t))
        # where u^(-t) overflows: log(scaled) = log(expm1(-t/(1+t) log p)) - t log u
        log_scaled = math.log(math.expm1(-t / (1.0 + t) * math.log(p))) - t * math.log(u)
        return math.exp(-float(np.logaddexp(log_scaled, 0.0)) / t)
    if fam == "frank":
        # v = -log(q)/t with q = [e^{-tu}(1 - p) + p e^{-t}] / [p + e^{-tu}(1 - p)]
        a = -t * u + math.log1p(-p)
        lp = math.log(p)
        return float(-(np.logaddexp(a, lp - t) - np.logaddexp(lp, a)) / t)
    if fam == "fgm":
        b = t * (1.0 - 2.0 * u)
        if abs(b) < 1e-10:
            return p
        return float(((1.0 + b) - math.sqrt((1.0 + b) ** 2 - 4.0 * b * p)) / (2.0 * b))
    # gumbel: with lu = -log u, dC/du = p reads w + (t - 1) log w = c for
    # w = (lu^t + lv^t)^(1/t); rounding near p = 1 can leave w at lu
    lu = -math.log(u)
    c = lu + (t - 1.0) * math.log(lu) - math.log(p)
    w = (t - 1.0) * float(special.wrightomega(c / (t - 1.0) - math.log(t - 1.0)))
    lv = w * max(-math.expm1(t * math.log(lu / w)), 0.0) ** (1.0 / t)
    return math.exp(-lv)


def frank_tau(theta: float) -> float:
    """Kendall tau of the Frank copula at parameter theta (odd in theta).

    At t = |theta|, tau = 1 - 4/t + 4 I/t^2 with the Debye integral I =
    int_0^t s/(e^s - 1) ds = pi^2/6 + t log(1 - e^{-t}) - Li2(e^{-t})
    (Nelsen 2006, sec. 5.1); below t = 0.2, where that cancels, its series.
    """
    t = abs(theta)
    if t < 0.2:
        t2 = t * t
        tau = t * (1 / 9 - t2 * (1 / 900 - t2 * (1 / 52920 - t2 / 2721600)))
    else:
        debye = math.pi**2 / 6 + t * math.log1p(-math.exp(-t))
        debye -= float(special.spence(-math.expm1(-t)))
        tau = 1.0 - 4.0 / t + 4.0 * debye / (t * t)
    return math.copysign(tau, theta)


# upper end of the theta bracket of the Frank tau solver; a tau beyond
# frank_tau of it has no root there, so the range check rejects it
_FRANK_THETA_MAX = 745.0
_FRANK_TAU_MAX = frank_tau(_FRANK_THETA_MAX)

_TAU_RANGES = {
    "independence": (-1.0, 1.0),
    "clayton": (0.0, 1.0),
    "frank": (-_FRANK_TAU_MAX, _FRANK_TAU_MAX),
    "fgm": (-2.0 / 9.0, 2.0 / 9.0),
    "gumbel": (0.0, 1.0),
}


def _check_tau(family: str, tau: float) -> None:
    """Raise unless ``tau`` lies in the Kendall-tau range of ``family``."""
    lo, hi = _TAU_RANGES[family]
    if family == "independence" and tau != 0.0:
        raise ValueError("independence family admits only tau = 0")
    if family == "clayton" and not (lo < tau < hi):
        raise ValueError(f"Clayton tau must lie in ({lo}, {hi}), got {tau}")
    if family == "fgm" and not (lo <= tau <= hi):
        raise ValueError(f"FGM tau must lie in [{lo:.6g}, {hi:.6g}], got {tau}")
    if family == "gumbel" and not (lo <= tau < hi):
        raise ValueError(f"Gumbel tau must lie in [{lo}, {hi}), got {tau}")
    if family == "frank" and (tau == 0.0 or not (lo < tau < hi)):
        raise ValueError(f"Frank tau must lie in ({lo}, {hi}) excluding 0, got {tau}")


def tau_to_theta(family: str, tau: float) -> float:
    """Map Kendall tau to the family parameter.

    Clayton, FGM and Gumbel use their closed-form relations; Frank is solved
    by a root search on [0, 745] to a relative 1e-14, which holds down to
    the tiniest |tau|. Independence accepts only tau = 0 and returns 0.
    """
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown copula family {family!r}")
    _check_tau(family, tau)
    if family == "independence":
        return 0.0
    if family == "clayton":
        return 2.0 * tau / (1.0 - tau)
    if family == "fgm":
        return 4.5 * tau
    if family == "gumbel":
        return 1.0 / (1.0 - tau)
    # frank
    sign = 1.0 if tau > 0 else -1.0
    target = abs(tau)
    theta = optimize.brentq(
        lambda t: frank_tau(t) - target, 0.0, _FRANK_THETA_MAX, xtol=1e-300, rtol=1e-14
    )
    return sign * theta


@dataclass(frozen=True)
class TauLink:
    """Kendall-tau link tau(x): constant c, linear a + b x, or sine
    a + b sin(2 pi x)."""

    form: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.form not in ("constant", "linear", "sine"):
            raise ValueError(f"unknown link form {self.form!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.form == "constant":
            out = np.full_like(x, self.a)
        elif self.form == "linear":
            out = self.a + self.b * x
        else:
            out = self.a + self.b * np.sin(2.0 * np.pi * x)
        return out if out.ndim else float(out)

    @staticmethod
    def parse(text: str) -> "TauLink":
        """Parse ``constant:c`` / ``linear:a,b`` / ``sine:a,b``."""
        form, _, rest = text.partition(":")
        parts = [float(p) for p in rest.split(",")] if rest else []
        if form == "constant":
            if len(parts) != 1:
                raise ValueError("constant link takes one parameter: constant:c")
            return TauLink(form="constant", a=parts[0])
        if form in ("linear", "sine"):
            if len(parts) != 2:
                raise ValueError(f"{form} link takes two parameters: {form}:a,b")
            return TauLink(form=form, a=parts[0], b=parts[1])
        raise ValueError(f"unknown link form {form!r}")


@dataclass(frozen=True)
class MarginSpec:
    """Conditional margin Y | X=x ~ Normal(a + b x, s)."""

    a: float = 0.0
    b: float = 1.0
    s: float = 1.0

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError("margin scale must be positive")

    def quantile(self, u, x):
        return self.a + self.b * np.asarray(x, dtype=float) + self.s * special.ndtri(u)


@dataclass(frozen=True)
class ConditionalModel:
    """Copula family + tau link + conditional margins + covariate law."""

    family: str
    link: TauLink
    margin1: MarginSpec = MarginSpec(a=0.0, b=1.0, s=1.0)
    margin2: MarginSpec = MarginSpec(a=0.0, b=-1.0, s=1.0)
    covariate: str = "uniform"  # uniform on (0,1) or standard normal

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in FAMILIES:
            raise ValueError(f"unknown copula family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if self.covariate not in ("uniform", "normal"):
            raise ValueError("covariate law must be 'uniform' or 'normal'")
        if self.covariate == "normal" and self.link.form == "linear" and self.link.b:
            raise ValueError(
                "a linear tau link with nonzero slope leaves every family's "
                "tau range on the real line; use the uniform covariate"
            )
        # the tau range must hold over the whole support; every link left
        # takes all its values on [0, 1] (sin(2 pi x) has period one)
        for x in np.linspace(0.0, 1.0, 201):
            _check_tau(fam, self.tau_at(x))

    def tau_at(self, x: float) -> float:
        return float(self.link(x))

    def theta_at(self, x: float) -> float:
        return tau_to_theta(self.family, self.tau_at(x))

    def copula_at(self, x: float) -> CopulaModel:
        return CopulaModel(family=self.family, theta=self.theta_at(x))


@dataclass(frozen=True)
class TruthRecord:
    """Hidden simulation truth: exact transforms and per-obs parameters."""

    eps1: np.ndarray
    eps2: np.ndarray
    theta: np.ndarray

    def to_dict(self) -> dict:
        return {
            "eps1": [float(v) for v in self.eps1],
            "eps2": [float(v) for v in self.eps2],
            "theta": [float(v) for v in self.theta],
        }


def sample_conditional(
    m: ConditionalModel, n: int, seed: int
) -> tuple[Sample, TruthRecord]:
    """Draw n triples (y1, y2, x) by conditional inversion.

    For each observation (own substream): draw X, map tau(X) to the family
    parameter, draw U uniform, invert the conditional distribution of V given
    U, then push (U, V) through the conditional marginal quantiles. The truth
    record keeps (U, V) = (eps1, eps2) for known-margins experiments.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    xs = np.empty(n)
    e1 = np.empty(n)
    e2 = np.empty(n)
    th = np.empty(n)
    for i in range(n):
        rng = _obs_rng(seed, i)
        if m.covariate == "uniform":
            x = float(rng.random())
        else:
            x = float(rng.standard_normal())
        cop = m.copula_at(x)
        u = float(rng.random())
        p = float(rng.random())
        u = min(max(u, 1e-12), 1.0 - 1e-12)
        p = min(max(p, 1e-12), 1.0 - 1e-12)
        v = conditional_v_given_u(cop, u, p)
        xs[i] = x
        e1[i] = u
        e2[i] = min(max(v, 1e-12), 1.0 - 1e-12)
        th[i] = cop.theta
    y1 = m.margin1.quantile(e1, xs) if n else np.empty(0)
    y2 = m.margin2.quantile(e2, xs) if n else np.empty(0)
    return (
        Sample(y1=y1, y2=y2, x=xs),
        TruthRecord(eps1=e1, eps2=e2, theta=th),
    )


def true_conditional_copula(m: ConditionalModel, x: float, grid: Grid2D) -> GridFunction:
    """Closed-form conditional copula surface at covariate value x."""
    cop = m.copula_at(x)
    return from_callable(grid, lambda u, v: copula_cdf(cop, u, v))


def cosine_tensor(grid: Grid2D, p: int, q: int) -> GridFunction:
    """Orthonormal cosine tensor basis element on the midpoint grid.

    c_p c_q cos(p pi u) cos(q pi v) with c_0 = 1 and c_p = sqrt(2); exactly
    quadrature-orthonormal for p, q < G (midpoint nodes are DCT nodes).
    """
    if not (0 <= p < grid.G and 0 <= q < grid.G):
        raise ValueError(f"cosine frequencies must lie in 0..{grid.G - 1}")
    cp = 1.0 if p == 0 else math.sqrt(2.0)
    cq = 1.0 if q == 0 else math.sqrt(2.0)
    return from_callable(
        grid, lambda u, v: cp * cq * np.cos(p * np.pi * u) * np.cos(q * np.pi * v)
    )


@dataclass(frozen=True)
class SyntheticKLModel:
    """Mean surface plus prescribed eigenpairs with Gaussian scores.

    Component k has eigenvalue ``eigenvalues[k]``, cosine-tensor eigenfunction
    with frequencies ``frequencies[k]`` = (p, q), conditional score mean
    ``alphas[k]`` (a callable of x; None means identically zero) and Gaussian
    noise of standard deviation ``noise_sd[k]`` (default sqrt(eigenvalue), so
    with a zero alpha the score variance equals the eigenvalue).
    """

    grid: Grid2D
    mean: GridFunction
    eigenvalues: tuple
    frequencies: tuple
    alphas: tuple = None
    noise_sd: tuple = None

    def __post_init__(self):
        lam = tuple(float(v) for v in self.eigenvalues)
        if len(lam) != len(self.frequencies):
            raise ValueError("eigenvalues and frequencies must align")
        if any(l2 <= 0 for l2 in lam):
            raise ValueError("eigenvalues must be positive")
        if any(lam[i] - lam[i + 1] < 1e-10 for i in range(len(lam) - 1)):
            raise ValueError("eigenvalues must be distinct and strictly decreasing")
        if len(set(self.frequencies)) != len(self.frequencies):
            raise ValueError("cosine frequencies must be pairwise distinct")
        if self.mean.grid != self.grid:
            raise ValueError("mean surface is on the wrong grid")
        object.__setattr__(self, "eigenvalues", lam)
        if self.alphas is None:
            object.__setattr__(self, "alphas", tuple([None] * len(lam)))
        if self.noise_sd is None:
            object.__setattr__(
                self, "noise_sd", tuple(math.sqrt(l2) for l2 in lam)
            )

    @property
    def K(self) -> int:
        return len(self.eigenvalues)

    def phi(self, k: int) -> GridFunction:
        p, q = self.frequencies[k - 1]
        return cosine_tensor(self.grid, p, q)

    def alpha_at(self, x) -> np.ndarray:
        return np.array(
            [0.0 if a is None else float(a(x)) for a in self.alphas]
        )

    def true_gamma_field(self) -> np.ndarray:
        """Node-pair covariance kernel sum(lambda_k phi_k (x) phi_k)."""
        m = self.grid.G ** 2
        out = np.zeros((m, m))
        for k in range(1, self.K + 1):
            f = self.phi(k).flat()
            out += self.eigenvalues[k - 1] * np.outer(f, f)
        return out


def synthetic_kl_sample(
    m: SyntheticKLModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate n trajectories mean + sum_k xi_k phi_k directly.

    Returns the covariates xs, the (n, G, G) surfaces and the realized
    (n, K) scores xi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    K = m.K
    xs = np.empty(n)
    xi = np.empty((n, K))
    for i in range(n):
        rng = _obs_rng(seed, i)
        x = float(rng.random())
        noise = rng.standard_normal(K)
        xs[i] = x
        xi[i] = m.alpha_at(x) + np.asarray(m.noise_sd) * noise
    phis = np.stack([m.phi(k).values for k in range(1, K + 1)])
    surfaces = m.mean.values[None, :, :] + np.einsum("ik,kab->iab", xi, phis)
    return xs, surfaces, xi
