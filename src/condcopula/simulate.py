"""Data-generating processes with known conditional copulas.

Parametric copula families with covariate-dependent Kendall-tau links and
the normal conditional margins N(x, 1) and N(-x, 1) provide samples whose
true conditional copula is available in closed form; a synthetic
mean-plus-eigenfunction process with prescribed spectrum exercises the FPCA
and perturbation machinery in isolation. Every copula CDF, conditional
inverse and tau map is one closed form that holds at every admitted
parameter; Frank's tau-to-theta map is a safeguarded Newton solve over its
closed-form tau and slope. All randomness flows through counter-based
per-observation Philox substreams, so sampling is order-independent and
parallel-safe. Every sampler computes the substream words of all its
observations in one array pass and turns each word into one draw: a
uniform as numpy's ``random()`` does, or a standard normal as ``ndtri`` of
an open-interval uniform.

The runtime needs numpy alone: three special functions are numpy ports
that give scipy's bits for every argument the samplers and maps pass.
``_ndtri`` is Moshier's Cephes ``ndtri`` (the normal quantile), ``_spence``
the branch of Cephes ``spence`` (the dilogarithm) that Frank's tau reads,
and ``_wrightomega`` the real Wright omega of Lawrence, Corless & Jeffrey
(2012, ACM TOMS Alg. 917) as scipy computes it. Each does its products and
quotients in the order of the C source, and takes every log, exp and pow
from libm (``_libm``), where numpy's SIMD versions can differ in the last
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .conditional import Sample
from .grid import Grid2D, GridFunction, from_callable

__all__ = [
    "CopulaModel",
    "TauLink",
    "ConditionalModel",
    "SyntheticKLModel",
    "TruthRecord",
    "copula_cdf",
    "conditional_v_given_u",
    "tau_to_theta",
    "sample_conditional",
    "true_conditional_copula",
    "synthetic_kl_sample",
    "COVARIATE_LAWS",
    "cosine_tensor",
]

FAMILIES = ("independence", "clayton", "frank", "fgm", "gumbel")
COVARIATE_LAWS = ("uniform", "normal")


# Philox-4x64-10 (Salmon, Moraes, Dror & Shaw 2011): the round multipliers
# and the Weyl increments of the two key words
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit products a * m, from 32-bit limbs."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    ll, lh, hl = a_lo * m_lo, a_lo * m_hi, a_hi * m_lo
    mid = (ll >> _SHIFT32) + (lh & _LOW32) + (hl & _LOW32)
    hi = a_hi * m_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, a * np.uint64(m)


def _substream_words(seed: int, index: np.ndarray, blocks: int) -> np.ndarray:
    """The (4 * blocks, len(index)) first words of substream i, for every i of ``index``.

    Substream i under ``seed`` is numpy's ``Philox(key=(seed << 64) + i)``,
    with key words (i, seed), so its block j is Philox-4x64-10 at counter
    (j, 0, 0, 0), j = 1, 2, ...: ten rounds over every (block, index) pair
    give the words of every ``random_raw(4 * blocks)`` at once.
    """
    if not 0 <= int(seed) < 1 << 64:
        raise ValueError("seed must lie in [0, 2**64)")
    n = np.size(index)
    k0, k1 = np.tile(np.asarray(index, dtype=np.uint64), blocks), int(seed)
    c0 = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64), n)
    c1 = c2 = c3 = np.zeros_like(k0)
    for r in range(10):
        if r:
            k0 = k0 + np.uint64(_PHILOX_W[0])
            k1 = (k1 + _PHILOX_W[1]) & ((1 << 64) - 1)
        hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
        hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ np.uint64(k1), lo0
    words = np.stack([c0, c1, c2, c3]).reshape(4, blocks, n)
    return words.transpose(1, 0, 2).reshape(4 * blocks, n)


def _uniform(words: np.ndarray) -> np.ndarray:
    """numpy's ``random()`` of each word: (word >> 11) 2^-53, in [0, 1)."""
    return (words >> np.uint64(11)).astype(float) * 2.0**-53


def _standard_normal(words: np.ndarray) -> np.ndarray:
    """A standard normal from each word: ``ndtri`` of ((word >> 12) + 1/2) 2^-52.

    That uniform is exact and lies in [2^-53, 1 - 2^-53], so the normal is
    finite; a 53-bit form would round the top word to 1.0.
    """
    return _ndtri(((words >> np.uint64(12)).astype(float) + 0.5) * 2.0**-52)


def _libm(fn, x, *consts) -> np.ndarray:
    """``fn(v, *consts)`` for each element v of ``x``, with ``fn`` from ``math``.

    numpy's SIMD ``log``, ``exp`` and ``expm1`` can differ from libm in the
    last bit; the Clayton inverse and the special-function ports take them
    from ``math`` through here, so their values have the bits of C code
    that calls libm.
    """
    x = np.asarray(x, dtype=float)
    values = map(fn, x.ravel().tolist(), *map(repeat, consts))
    return np.fromiter(values, dtype=float, count=x.size).reshape(x.shape)


# Cephes ndtri (Moshier 1989), numerators and monic denominators from the
# leading coefficient. np.polyval runs Horner's rule from 0 and Cephes's
# polevl from the leading coefficient; 0 x + c and 1 x + c round as c and
# x + c do, so np.polyval gives the bits of polevl, and of p1evl with the
# leading 1 written out. On the centre, |y - 1/2| <= 1/2 - e^-2, the rational
# (m + m m^2 P0(m^2)/Q0(m^2)) sqrt(2 pi) of m = y - 1/2; in the tails, for the smaller y of y and 1 - y
# and x = sqrt(-2 log y), x - log(x)/x - z P(z)/Q(z) of z = 1/x, with P1/Q1
# for x < 8 (y > e^-32) and P2/Q2 beyond
_NDTRI_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_NDTRI_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_NDTRI_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_NDTRI_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_NDTRI_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_NDTRI_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
_EXP_M2 = 0.13533528323661269189  # e^-2
_SQRT_2PI = 2.50662827463100050242


def _ndtri(y: np.ndarray) -> np.ndarray:
    """The standard normal quantile at each y in (0, 1), bit for bit Cephes ``ndtri``.

    Each branch runs over the elements that take it; the tails' logs come
    from libm.
    """
    upper = y > 1.0 - _EXP_M2
    near = np.where(upper, 1.0 - y, y)
    centre = near > _EXP_M2
    out = np.empty_like(near)
    mid = near[centre] - 0.5
    mid2 = mid * mid
    ratio = mid2 * np.polyval(_NDTRI_P0, mid2) / np.polyval(_NDTRI_Q0, mid2)
    out[centre] = (mid + mid * ratio) * _SQRT_2PI
    tail = ~centre
    root = np.sqrt(-2.0 * _libm(math.log, near[tail]))
    z = 1.0 / root
    ratio = np.empty_like(z)
    for region, p, q in ((root < 8.0, _NDTRI_P1, _NDTRI_Q1), (root >= 8.0, _NDTRI_P2, _NDTRI_Q2)):
        zr = z[region]
        ratio[region] = zr * np.polyval(p, zr) / np.polyval(q, zr)
    x = root - _libm(math.log, root) / root - ratio
    out[tail] = np.where(upper[tail], x, -x)
    return out


# Cephes spence (Moshier 1989): Li2(1 - x) = -w A(w)/B(w) with w = x - 1,
# for x in [0.5, 1.5]; each from the leading coefficient, for np.polyval
_SPENCE_A = (
    4.65128586073990045278e-5, 7.31589045238094711071e-3, 1.33847639578309018650e-1,
    8.79691311754530315341e-1, 2.71149851196553469920e0, 4.25697156008121755724e0,
    3.29771340985225106936e0, 1.00000000000000000126e0,
)
_SPENCE_B = (
    6.90990488912553276999e-4, 2.54043763932544379113e-2, 2.82974860602568089943e-1,
    1.41172597751831069617e0, 3.63800533345137075418e0, 5.03278880143316990390e0,
    3.54771340985225106936e0, 9.99999999999999998740e-1,
)


def _spence(x: np.ndarray) -> np.ndarray:
    """Cephes ``spence`` at each x in [0.5, 1.5], bit for bit: Li2(1 - x), +0.0 at x = 1.

    That interval is the one branch of ``spence`` without a log; Frank's
    tau reads it at 1 - e^-t, t in {1} and [1.5, 745].
    """
    w = x - 1.0
    return np.where(x == 1.0, 0.0, -w * np.polyval(_SPENCE_A, w) / np.polyval(_SPENCE_B, w))


def _fsc_step(x: np.ndarray, w: np.ndarray) -> tuple:
    """One Fritsch-Shafer-Crowley step towards w + log w = x: (new w, residual, w + 1)."""
    r = x - w - _libm(math.log, w)
    wp1 = w + 1.0
    q = 2.0 * wp1 * (wp1 + 2.0 / 3.0 * r)
    return w * (1.0 + r / wp1 * (q - r) / (q - 2.0 * r)), r, wp1


def _wrightomega(x: np.ndarray) -> np.ndarray:
    """Wright omega at each real x, bit for bit scipy's ``wrightomega``.

    The real algorithm of Lawrence, Corless & Jeffrey (2012, ACM TOMS Alg.
    917): e^x below -50 and x above 1e20; else an initial guess (e^x below
    -2, e^(2(x-1)/3) below 1, x - log x + log x / x from 1), one
    Fritsch-Shafer-Crowley step and a second where the condition estimate
    |(2w^2 - 8w - 1) r^4| >= 72 eps |w + 1|^6 asks for it.
    """
    out = x.copy()
    low = x < -50.0
    out[low] = _libm(math.exp, x[low])
    solve = ~low & (x <= 1e20)
    xs = x[solve]
    w = np.empty_like(xs)
    small = xs < 1.0
    w[small] = _libm(math.exp, np.where(xs < -2.0, xs, 2.0 * (xs - 1.0) / 3.0)[small])
    big = ~small
    log_x = _libm(math.log, xs[big])
    w[big] = xs[big] - log_x + log_x / xs[big]
    w, r, wp1 = _fsc_step(xs, w)
    lhs = np.abs((2.0 * w * w - 8.0 * w - 1.0) * _libm(math.pow, np.abs(r), 4.0))
    again = lhs >= np.finfo(float).eps * 72.0 * _libm(math.pow, np.abs(wp1), 6.0)
    w[again] = _fsc_step(xs[again], w[again])[0]
    out[solve] = w
    return out


# smallest admitted Clayton theta: at or above it -theta/(1+theta) log p is
# a normal float for every p <= 1 - 2^-53, where |log p| >= 2^-53; below
# about 4e-308 it underflows to 0 and the log-space inverse fails
_CLAYTON_THETA_MIN = 1e-290


def _check_theta(family: str, theta) -> None:
    """Raise unless every ``theta`` is an admitted parameter of ``family``."""
    t = np.asarray(theta, dtype=float)
    if family == "clayton" and not np.all(t >= _CLAYTON_THETA_MIN):
        raise ValueError(f"Clayton requires theta >= {_CLAYTON_THETA_MIN:g}")
    if family == "frank" and not np.all(t != 0):
        raise ValueError("Frank requires theta != 0")
    if family == "fgm" and not np.all((-1.0 <= t) & (t <= 1.0)):
        raise ValueError("FGM requires theta in [-1, 1]")
    if family == "gumbel" and not np.all(t >= 1.0):
        raise ValueError("Gumbel requires theta >= 1")


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
        _check_theta(fam, self.theta)


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
        # with a, b = -t log u, -t log v and hi, lo their max and min,
        # log(u^-t + v^-t - 1) = hi + log1p(e^(lo - hi) (1 - e^-lo))
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = -t * np.log(u), -t * np.log(v)
            hi, lo = np.maximum(a, b), np.minimum(a, b)
            log_total = hi + np.log1p(np.exp(lo - hi) * -np.expm1(-lo))
            out = np.where((u > 0) & (v > 0), np.exp(-log_total / t), 0.0)
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


def conditional_v_given_u(family: str, theta, u, p):
    """Invert v -> dC/du(u, v) at probability level p (conditional sampling).

    Element-wise over the broadcast (theta, u, p) of one family; scalars give
    a float. One closed form per family. Clayton and Frank are evaluated in
    log space, so both hold at any admitted theta, and the FGM root is
    rationalised, so it holds at b = theta (1 - 2u) = 0. For Gumbel, w =
    -log C(u, v) solves w + (theta - 1) log w = c, whose root is a scaled
    Wright omega value. Clayton's logs and exps come from libm, as Python's
    float arithmetic takes them.
    """
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown copula family {family!r}")
    _check_theta(family, theta)
    t, u, p = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (theta, u, p)))
    if not (np.all((0.0 < u) & (u < 1.0)) and np.all((0.0 < p) & (p < 1.0))):
        raise ValueError("u and p must lie strictly inside (0, 1)")
    # independence and Gumbel at theta = 1 keep v = p
    v = p.copy()
    if family == "clayton":
        # log v = -log1p(s)/t for s = (p^(-t/(1+t)) - 1) u^(-t), whose log
        # log(expm1(-t/(1+t) log p)) - t log u cannot overflow
        log_s = _libm(math.log, _libm(math.expm1, -t / (1.0 + t) * _libm(math.log, p)))
        log_s -= t * _libm(math.log, u)
        v = _libm(math.exp, -np.logaddexp(log_s, 0.0) / t)
    elif family == "frank":
        # v = -log(q)/t with q = [e^{-tu}(1 - p) + p e^{-t}] / [p + e^{-tu}(1 - p)]
        a = -t * u + np.log1p(-p)
        lp = np.log(p)
        v = -(np.logaddexp(a, lp - t) - np.logaddexp(lp, a)) / t
    elif family == "fgm":
        # the root in [0, 1] of b v^2 - (1 + b) v + p = 0, b = theta (1 - 2u),
        # rationalised so that it neither cancels near b = 0 nor divides by b
        b = t * (1.0 - 2.0 * u)
        v = 2.0 * p / ((1.0 + b) + np.sqrt((1.0 + b) * (1.0 + b) - 4.0 * b * p))
    elif family == "gumbel":
        # with lu = -log u, dC/du = p reads w + (t - 1) log w = c for
        # w = (lu^t + lv^t)^(1/t); rounding near p = 1 can leave w at lu
        on = t != 1.0
        t, lu, q = t[on], -np.log(u[on]), p[on]
        c = lu + (t - 1.0) * np.log(lu) - np.log(q)
        w = (t - 1.0) * _wrightomega(c / (t - 1.0) - np.log(t - 1.0))
        lv = w * np.maximum(-np.expm1(t * np.log(lu / w)), 0.0) ** (1.0 / t)
        v[on] = np.exp(-lv)
    return v if v.ndim else float(v)


# c_k = 4 B_2k / ((2k + 1) (2k)!), k = 1..12, with the Bernoulli numbers B_2k
_FRANK_SERIES = np.array([
    1 / 9, -1 / 900, 1 / 52920, -1 / 2721600, 1 / 131725440, -691 / 4249941696000,
    1 / 280215936000, -3617 / 45350147082240000, 43867 / 24268197531561984000,
    -174611 / 4215002729166028800000, 77683 / 81081325226502881280000,
    -236364091 / 10586400854573397934080000000,
])


def _frank_tau_and_slope(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frank tau at t = |theta| >= 0 and its derivative d tau / d t.

    tau = 1 - 4/t + 4 I/t^2 with the Debye integral I = int_0^t s/(e^s - 1)
    ds = pi^2/6 + t log(1 - e^{-t}) - Li2(e^{-t}) (Nelsen 2006, sec. 5.1),
    so d tau/d t = 4/t^2 - 8 I/t^3 + 4/(t (e^t - 1)). Those cancel about
    4/(t tau) to one near t = 0, so below t = 1.5 tau is its series sum_k c_k
    t^(2k-1) to twelve terms, which leave out less than 2e-16 of tau (the
    series converges for t < 2 pi), and the slope their derivative.
    """
    small = t < 1.5
    t2 = t * t
    tau = t * np.polyval(_FRANK_SERIES[::-1], t2)
    slope = np.polyval((np.arange(1, 2 * _FRANK_SERIES.size, 2) * _FRANK_SERIES)[::-1], t2)
    big = np.where(small, 1.0, t)
    with np.errstate(over="ignore"):
        debye = math.pi**2 / 6 + big * np.log1p(-np.exp(-big))
        debye -= _spence(-np.expm1(-big))
        tau_big = 1.0 - 4.0 / big + 4.0 * debye / (big * big)
        slope_big = (4.0 - 8.0 * debye / big) / (big * big) + 4.0 / (big * np.expm1(big))
    return np.where(small, tau, tau_big), np.where(small, slope, slope_big)


def frank_tau(theta):
    """Kendall tau of the Frank copula at parameter theta (odd in theta).

    Element-wise; a scalar gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    tau = np.copysign(_frank_tau_and_slope(np.abs(theta))[0], theta)
    return tau if tau.ndim else float(tau)


# upper end of the theta bracket of the Frank tau solver; a tau beyond
# frank_tau of it has no root there, so the range check rejects it
_FRANK_THETA_MAX = 745.0
_FRANK_TAU_MAX = frank_tau(_FRANK_THETA_MAX)


def _frank_theta(target: np.ndarray) -> np.ndarray:
    """theta in (0, 745] with frank_tau(theta) = target, for targets in (0, _FRANK_TAU_MAX).

    Newton from the small-theta value 9 tau, which lies below the root
    (tau < theta/9 for theta > 0), kept inside a bracket in [0, 745] that
    each residual tightens: a step that leaves the bracket bisects it. A
    tiny tau stays at 9 tau, as the series there says. Convergence is
    quadratic, so a relative step below 1e-12 leaves only the rounding of
    tau (a step of a few ulps would not settle).
    """
    lo = np.zeros_like(target)
    hi = np.full_like(target, _FRANK_THETA_MAX)
    theta = np.minimum(9.0 * target, hi)
    for _ in range(100):
        tau, slope = _frank_tau_and_slope(theta)
        resid = tau - target
        lo = np.where(resid < 0, theta, lo)
        hi = np.where(resid > 0, theta, hi)
        step = theta - resid / slope
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.abs(step - theta) <= 1e-12 * step
        theta = step
        if np.all(done):
            break
    return theta


_TAU_RANGES = {
    "independence": (-1.0, 1.0),
    # the tau of _CLAYTON_THETA_MIN, which maps back to it exactly
    "clayton": (_CLAYTON_THETA_MIN / 2.0, 1.0),
    "frank": (-_FRANK_TAU_MAX, _FRANK_TAU_MAX),
    "fgm": (-2.0 / 9.0, 2.0 / 9.0),
    "gumbel": (0.0, 1.0),
}


def _check_tau(family: str, tau) -> None:
    """Raise unless every ``tau`` lies in the Kendall-tau range of ``family``.

    The message names the first value outside the range.
    """
    tau = np.asarray(tau, dtype=float)
    lo, hi = _TAU_RANGES[family]
    if family == "independence":
        ok, rule = tau == 0.0, "independence family admits only tau = 0"
    elif family == "clayton":
        ok, rule = (lo <= tau) & (tau < hi), f"Clayton tau must lie in [{lo:g}, {hi:g})"
    elif family == "fgm":
        ok, rule = (lo <= tau) & (tau <= hi), f"FGM tau must lie in [{lo:.6g}, {hi:.6g}]"
    elif family == "gumbel":
        ok, rule = (lo <= tau) & (tau < hi), f"Gumbel tau must lie in [{lo}, {hi})"
    else:
        ok = (tau != 0.0) & (lo < tau) & (tau < hi)
        rule = f"Frank tau must lie in ({lo}, {hi}) excluding 0"
    if not np.all(ok):
        raise ValueError(f"{rule}, got {float(tau[~ok].flat[0])}")


def tau_to_theta(family: str, tau):
    """Map Kendall tau to the family parameter, element-wise.

    A scalar gives a float. Clayton, FGM and Gumbel use their closed-form
    relations; Frank is a safeguarded Newton solve on [0, 745], which holds
    down to the tiniest |tau|. Independence accepts only tau = 0 and
    returns 0.
    """
    family = family.lower()
    if family not in FAMILIES:
        raise ValueError(f"unknown copula family {family!r}")
    tau = np.asarray(tau, dtype=float)
    _check_tau(family, tau)
    if family == "independence":
        theta = np.zeros_like(tau)
    elif family == "clayton":
        theta = 2.0 * tau / (1.0 - tau)
    elif family == "fgm":
        theta = 4.5 * tau
    elif family == "gumbel":
        theta = 1.0 / (1.0 - tau)
    else:
        theta = np.copysign(_frank_theta(np.abs(tau)), tau)
    return theta if theta.ndim else float(theta)


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
class ConditionalModel:
    """Copula family + tau link + covariate law; Y1 | X=x ~ N(x, 1), Y2 | X=x ~ N(-x, 1)."""

    family: str
    link: TauLink
    covariate: str = "uniform"  # uniform on (0,1) or standard normal

    def __post_init__(self):
        fam = self.family.lower()
        if fam not in FAMILIES:
            raise ValueError(f"unknown copula family {self.family!r}")
        object.__setattr__(self, "family", fam)
        if self.covariate not in COVARIATE_LAWS:
            raise ValueError("covariate law must be 'uniform' or 'normal'")
        if self.covariate == "normal" and self.link.form == "linear" and self.link.b:
            raise ValueError(
                "a linear tau link with nonzero slope leaves every family's "
                "tau range on the real line; use the uniform covariate"
            )
        # the tau range must hold over the whole support; every link left
        # takes all its values on [0, 1] (sin(2 pi x) has period one)
        _check_tau(fam, self.link(np.linspace(0.0, 1.0, 201)))

    def copula_at(self, x: float) -> CopulaModel:
        theta = tau_to_theta(self.family, float(self.link(x)))
        return CopulaModel(family=self.family, theta=theta)


@dataclass(frozen=True, eq=False)
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

    Observation i reads the first three words of its own substream (i,
    seed): X from word 0, uniform or standard normal by the covariate law,
    and U and P uniform from words 1 and 2. Then, as one array pass over
    all observations: tau(X) is mapped to the family parameter, V inverts
    the conditional distribution of V given U at level P, and (U, V) go
    through the marginal quantiles: Y1 = X + ndtri(U), Y2 = -X + ndtri(V).
    The uniforms have the bits of numpy's ``random()`` on a ``Philox``
    generator per observation. The truth record keeps (U, V) = (eps1, eps2)
    for known-margins experiments.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    words = _substream_words(seed, np.arange(n, dtype=np.uint64), blocks=1)
    xs, u, p = _uniform(words[:3])
    if m.covariate == "normal":
        xs = _standard_normal(words[0])
    theta = tau_to_theta(m.family, m.link(xs))
    e1 = np.clip(u, 1e-12, 1.0 - 1e-12)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    v = conditional_v_given_u(m.family, theta, e1, p)
    e2 = np.clip(v, 1e-12, 1.0 - 1e-12)
    return (
        Sample(y1=xs + _ndtri(e1), y2=-xs + _ndtri(e2), x=xs),
        TruthRecord(eps1=e1, eps2=e2, theta=theta),
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


@dataclass(frozen=True, eq=False)
class SyntheticKLModel:
    """Mean surface plus prescribed eigenpairs with Gaussian scores.

    Component k has eigenvalue ``eigenvalues[k]``, cosine-tensor eigenfunction
    with frequencies ``frequencies[k]`` = (p, q), conditional score mean
    ``alphas[k]`` (an element-wise callable over an array of x; None means
    identically zero) and Gaussian noise of standard deviation
    ``noise_sd[k]`` (default sqrt(eigenvalue), so with a zero alpha the
    score variance equals the eigenvalue).
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
        """The K conditional score means at x: shape (K,) + np.shape(x)."""
        return np.array([np.zeros_like(x) if a is None else a(x) for a in self.alphas])


def synthetic_kl_sample(
    m: SyntheticKLModel, n: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generate n trajectories mean + sum_k xi_k phi_k directly.

    Observation i reads the first K + 1 words of its substream (i, seed):
    X uniform from word 0 and the K standard normal score noises from words
    1..K, so xi_k = alpha_k(X) + noise_sd[k] * noise_k. Returns the
    covariates xs, the (n, G, G) surfaces and the realized (n, K) scores xi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    K = m.K
    # K + 1 words, four to a block
    words = _substream_words(seed, np.arange(n, dtype=np.uint64), blocks=K // 4 + 1)
    xs = _uniform(words[0])
    noise = _standard_normal(words[1 : K + 1])
    xi = (m.alpha_at(xs) + np.asarray(m.noise_sd)[:, None] * noise).T
    phis = np.stack([m.phi(k).values for k in range(1, K + 1)])
    surfaces = m.mean.values[None, :, :] + np.einsum("ik,kab->iab", xi, phis)
    return xs, surfaces, xi
