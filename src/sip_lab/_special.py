"""The special functions sip_lab evaluates, in numpy and the standard library's math.

``ndtr`` is Cody's rational Chebyshev erf/erfc (Math. Comp. 23, 1969) with
the Gaussian factor exp(-x^2/2) split so that its large part is exact;
``ndtri`` is Wichura's AS 241 (Appl. Statist. 37, 1988), a numpy port of
``statistics.NormalDist.inv_cdf`` that equals it bit for bit; ``kolmogorov``
is the limiting Kolmogorov tail (Marsaglia, Tsang & Wang, J. Stat. Softw. 8,
2003); ``betainc`` is the regularized incomplete beta by Lentz's continued
fraction, its front factor in log space where its parts leave the normal
range, so that large shapes give no NaN, and where both shapes are large
from the Stirling terms of log B(a, b) (DiDonato & Morris, ACM TOMS 18,
1992).  Log-gamma is ``math.lgamma``.
``tests/test_special.py`` holds each to 1e-14 relative against reference
implementations (``ndtri`` to the bit), or names the range where that cannot hold.
"""

from __future__ import annotations

import math

import numpy as np

from ._kernels import POINT_BLOCK
from .errors import NonConvergenceError

_SQRT1_2 = math.sqrt(0.5)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)
# Cody's coefficients: erf on |y| <= 0.46875, erfc on (0.46875, 4] and beyond 4
_ERF_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
          3.20937758913846947e03, 1.85777706184603153e-1)
_ERF_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
          2.84423683343917062e03)
_ERFC_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
           2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
           2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_ERFC_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
           1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
           3.43936767414372164e03, 1.23033935480374942e03)
_ERFC_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
           1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_ERFC_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
           6.05183413124413191e-2, 2.33520497626869185e-3)


def _horner(coef, t):
    """((coef[0] t + coef[1]) t + ...) t + coef[-1], in that order of operations."""
    out = coef[0] * t + coef[1]
    for c in coef[2:]:
        out *= t
        out += c
    return out


def _cody(num, den, t):
    """Cody's Horner form: (num[-1] t^k + num[0] t^(k-1) + ... + num[-2]) over
    (t^k + den[0] t^(k-1) + ... + den[-1])."""
    return _horner((num[-1], *num[:-1]), t) / _horner((1.0, *den), t)


def ndtr(x):
    """Standard normal CDF, elementwise, to a few ulps in both tails."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    if flat.size > POINT_BLOCK:  # blocks keep the temporaries in cache
        out = np.empty_like(flat)
        for i in range(0, flat.size, POINT_BLOCK):
            out[i : i + POINT_BLOCK] = ndtr(flat[i : i + POINT_BLOCK])
        return out.reshape(x.shape)
    ax = np.abs(flat)
    ay = ax * _SQRT1_2
    # Phi(-|x|) = erfc(|y|) / 2 = exp(-x^2 / 2) R(|y|) / 2 with y = x / sqrt(2)
    # and R Cody's rational up to |y| = 4, his asymptotic form beyond.  Here
    # x^2 / 2 = s^2 / 2 + (|x| - s)(|x| + s) / 2 with s = |x| rounded down to
    # a multiple of 1/16, so the large part of the exponent is exact.  Index
    # arrays, not boolean masks, pick the subsets: they cost a tenth as much.
    ratio = _cody(_ERFC_C, _ERFC_D, np.minimum(ay, 4.0))
    far = np.flatnonzero(ay > 4.0)
    if far.size:
        yf = ay[far]
        inv = (1.0 / yf) ** 2
        ratio[far] = (_RSQRT_PI - inv * _cody(_ERFC_P, _ERFC_Q, inv)) / yf
    s = np.trunc(np.minimum(ax, 64.0) * 16.0) / 16.0
    half = 0.5 * np.exp(-0.5 * s * s) * np.exp(-0.5 * (ax - s) * (ax + s)) * ratio
    out = np.where(flat < 0.0, half, 1.0 - half)
    # near 0, Phi = 1/2 + erf(y) / 2
    core = np.flatnonzero(in_ndtr_core(flat))
    out[core] = 0.5 + ndtr_core(flat[core])
    return out.reshape(x.shape)[()]


def in_ndtr_core(x):
    """Where ndtr takes Cody's erf branch, |x| / sqrt(2) <= 0.46875."""
    return np.abs(x) * _SQRT1_2 <= 0.46875


def ndtr_core(x):
    """Phi(x) - 1/2 = erf(x / sqrt(2)) / 2, elementwise, by ndtr's erf branch:
    to a few ulps, relative, where ``in_ndtr_core(x)``."""
    y = np.asarray(x, dtype=float) * _SQRT1_2
    return 0.5 * y * _cody(_ERF_A, _ERF_B, y * y)


# AS 241's numerators and denominators, highest power first: |p - 1/2| <= 0.425, r <= 5, r > 5
_AS241 = (
    (2509.0809287301227, 33430.57558358813, 67265.7709270087, 45921.95393154987,
     13731.69376550946, 1971.5909503065513, 133.14166789178438, 3.3871328727963665),
    (5226.495278852854, 28729.085735721943, 39307.89580009271, 21213.794301586597,
     5394.196021424751, 687.1870074920579, 42.31333070160091, 1.0),
    (7.745450142783414e-4, 0.022723844989269184, 0.2417807251774506, 1.2704582524523684,
     3.6478483247632045, 5.769497221460691, 4.630337846156546, 1.4234371107496835),
    (1.0507500716444169e-9, 5.475938084995345e-4, 0.015198666563616457, 0.14810397642748008,
     0.6897673349851, 1.6763848301838038, 2.053191626637759, 1.0),
    (2.0103343992922881e-7, 2.7115555687434876e-5, 0.0012426609473880784, 0.026532189526576124,
     0.29656057182850487, 1.7848265399172913, 5.463784911164114, 6.657904643501103),
    (2.0442631033899397e-15, 1.421511758316446e-7, 1.8463183175100548e-5, 7.868691311456133e-4,
     0.014875361290850615, 0.1369298809227358, 0.599832206555888, 1.0))


def ndtri(p):
    """Inverse standard normal CDF, elementwise: -inf at 0, +inf at 1, NaN outside.
    AS 241 as ``statistics.NormalDist().inv_cdf`` computes it, equal to the bit."""
    flat = np.asarray(p, dtype=float).ravel()
    q = np.where((flat >= 0.0) & (flat <= 1.0), flat, math.nan) - 0.5  # NaN outside [0, 1]
    r = 0.180625 - q * q
    out = _horner(_AS241[0], r) * q / _horner(_AS241[1], r)
    tail = np.flatnonzero((np.abs(q) > 0.425) & (flat > 0.0) & (flat < 1.0))
    small = np.where(q[tail] <= 0.0, flat[tail], 1.0 - flat[tail])
    # math.log, the standard library's: np.log is an ulp off it on a few tail values
    r = np.sqrt(-np.array([math.log(v) for v in small.tolist()]))
    x = np.where(r <= 5.0, _horner(_AS241[2], r - 1.6) / _horner(_AS241[3], r - 1.6),
                 _horner(_AS241[4], r - 5.0) / _horner(_AS241[5], r - 5.0))
    out[tail] = np.where(q[tail] < 0.0, -x, x)
    out[flat == 0.0], out[flat == 1.0] = -math.inf, math.inf
    return out.reshape(np.shape(p))[()]


def kolmogorov(x: float) -> float:
    """Limiting tail P(sqrt(n) D_n > x) of the one-sample KS statistic."""
    if x <= 0.0:
        return 1.0
    if x <= 0.82:
        # theta form: the CDF is sqrt(2 pi) / x sum_k exp(-(2k - 1)^2 pi^2 / (8 x^2))
        log_u = -math.pi**2 / (8.0 * x * x)
        cdf = sum(math.exp(log_u * (2 * k - 1) ** 2) for k in range(1, 5))
        return 1.0 - math.sqrt(2.0 * math.pi) / x * cdf
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * k * k * x * x) for k in range(1, 8))


def _nonzero(v):
    return np.where(np.abs(v) < 1e-300, 1e-300, v)


STIRLING_MIN = 12.0  # log_beta's switch, min(a, b), where its Stirling form wins
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_rest(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log sqrt(2 pi)), Stirling's series
    to x^-9: within 3e-15 of it for x >= 12."""
    r = 1.0 / (x * x)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / x


def log_beta(a: float, b: float) -> float:
    """log B(a, b).  lgamma(a) + lgamma(b) - lgamma(a + b) cancels, so its
    rounding, about ulp(lgamma(a + b)), grows with the shapes (6e-10 at
    a = b = 1e5).  Where both shapes are at least STIRLING_MIN the Stirling
    difference, with p <= q and f = p / (p + q),
    log sqrt(2 pi) - log(q) / 2 + (p - 1/2) log f + q log1p(-f) + rests,
    stays within 2 ulps of log B (3e-11 at a = b = 1e5).  Below the switch
    the series is truncated too early (2e-13 off at (8, 12), 8e-9 at
    (100, 3)), so the lgamma form is kept."""
    p, q = min(a, b), max(a, b)
    if p < STIRLING_MIN:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    f = p / (p + q)
    rests = _stirling_rest(p) + _stirling_rest(q) - _stirling_rest(p + q)
    return (_LOG_SQRT_2PI - 0.5 * math.log(q) + (p - 0.5) * math.log(f)
            + q * math.log1p(-f) + rests)


def betainc(a: float, b: float, x):
    """Regularized incomplete beta I_x(a, b) for x in [0, 1], elementwise;
    raises ``NonConvergenceError`` where the fraction is unsettled at 300 terms."""
    x = np.asarray(x, dtype=float)
    # the continued fraction converges fast only below (a + 1) / (a + b + 2);
    # above it, I_x(a, b) = 1 - I_{1-x}(b, a)
    swap = x > (a + 1.0) / (a + b + 2.0)
    s, t, z = np.where(swap, b, a), np.where(swap, a, b), np.where(swap, 1.0 - x, x)
    if min(a, b) >= STIRLING_MIN:
        # DiDonato & Morris's form of z^s (1 - z)^t / B(s, t) with log_beta's
        # Stirling difference, f = s / (s + t): the large terms s log(z / f)
        # and t log((1 - z) / (1 - f)) are formed as one log1p each, so the
        # rounding of a large log B never enters (1.4e-14 at a = b = 1e4)
        f = s / (s + t)
        rests = _stirling_rest(a) + _stirling_rest(b) - _stirling_rest(a + b)
        with np.errstate(divide="ignore"):  # log1p(-1) at z = 0
            log_front = (s * np.log1p((z - f) / f) + t * np.log1p((f - z) / (1.0 - f))
                         + 0.5 * np.log(s * t / (s + t)) - _LOG_SQRT_2PI - rests)
        front = np.exp(log_front) / s
    else:
        log_rest = t * np.log1p(-z) - log_beta(a, b)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            head = z**s
            front = head * np.exp(log_rest)
            # where z^s is subnormal or the exp overflows, take the product
            # from one exponent, which elsewhere rounds worse
            front = np.where((head >= np.finfo(float).tiny) & (front < math.inf), front,
                             np.exp(s * np.log(z) + log_rest)) / s
    # modified Lentz evaluation of 1 / (1 + d_1 / (1 + d_2 / (1 + ...))), each
    # point until its own last factor is within 4e-16 of 1 (one test over all
    # points stalls: at a = b = 1e4 some factor sits 2 ulps off 1 at every term)
    c = np.ones_like(z)
    d = 1.0 / _nonzero(1.0 - (s + t) * z / (s + 1.0))
    frac, done = d, np.zeros(z.shape, dtype=bool)
    for m in range(1, 300):
        for num in (m * (t - m) * z / ((s + 2 * m - 1) * (s + 2 * m)),
                    -(s + m) * (s + t + m) * z / ((s + 2 * m) * (s + 2 * m + 1))):
            d = 1.0 / _nonzero(1.0 + num * d)
            c = _nonzero(1.0 + num / c)
            frac = np.where(done, frac, frac * c * d)
        done |= np.abs(c * d - 1.0) <= 4e-16
        if done.all():
            break
    else:
        raise NonConvergenceError(f"betainc({a}, {b}, x): unsettled after 300 terms")
    out = front * frac
    return np.where(swap, 1.0 - out, out)[()]
