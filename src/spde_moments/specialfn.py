"""Special functions on the real line.

Gamma, the standard normal CDF, the two-parameter Mittag-Leffler function
E_{a,b}(z), and the oscillatory integral int_0^inf sin^2(b xi^{a/2})
xi^{-a} dxi in closed form.
All take scalars except `ml_array`, which evaluates E_{a,b} on a 1-D array
with the same value as `ml` for every element, bit for bit: its float
series and the series' acceptance test run in numpy, and the test's
elements within a relative 1e-9 of its threshold, where numpy's pow and
log could round differently from libm's, are decided by the scalar test.

`ml` tries its branches in this order:

1. exp(z) for the heat kernel (a, b) = (1, 1), correctly rounded by libm;
2. for |z| below the switch radius (|z|^{1/a} of 25 to 30, and at least
   2|b|), the Kahan-summed float power series, accepted when its roundoff
   estimate is at most 1e-11 of the sum;
3. otherwise R. Garrappa's optimal parabolic-contour inversion of the
   Laplace transform (SIAM J. Numer. Anal. 53 (2015) 1350-1369) in double
   precision, accepted when 64 eps times its sum of |terms| is at most
   1e-11 of the value (relative error below 1e-11; measured at most
   1.3e-13 against a 60-digit series);
4. otherwise, where |E| lies below the contour's roundoff floor as near the
   zeros of E_{2,b}(-x), the power series in mpmath at a precision chosen
   from the float pass's cancellation, to 1e-13 relative (an unsettled sum
   only within the contour's bound of the contour value, else an error);
5. for |z| at or beyond the radius, the asymptotic expansion, whose
   absolute error is about exp(-|z|^{1/a}) times the exponential terms.

On the negative axis (with b > 0) the contour of step 3 is formed before
the series of step 2 where the series' largest term shows that its sum must
cancel, and the contour value is returned at once only when that term,
with the contour's error bound, shows the float series would have been
rejected (`_ml_series`).  That bound (64 eps sum|terms| of roundoff, after
a measured maximum of 53, plus the 1e-15 truncation target) is measured,
not derived, so the equality with the order above rests on it; it is
checked bit for bit on the oracle grids of tests/test_specialfn.py.

The Gamma factors of the three series, 1/Gamma(a k + b), 1/Gamma(b - a k)
and mpmath's Gamma(a k + b) at each working precision, depend on (a, b)
alone: the Theta quadrature calls `ml` a hundred times and more at one
(a, b).  Bounded `functools.lru_cache`s keep them as tuples: the float
series' row whole, the other two rows in chunks of 32 entries.

The functions are pure apart from those caches and safe to call from any
number of threads: two threads may fill one cache entry, with equal tuples,
and the mpmath series passes its precision to each operation and never
sets mpmath's process-wide one.
"""

from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np
from mpmath import libmp

from .errors import ConvergenceFailure, GammaPole, MittagLefflerAccuracyWarning, ResultOverflow
from .errors import ValidationError, finite_or_overflow

__all__ = [
    "gamma",
    "rgamma",
    "normal_cdf",
    "ml",
    "ml_array",
    "ml_log",
    "sin_power_integral",
]

_EPS = 2.220446049250313e-16
_RGAMMA_ZERO = 171.6  # rgamma(x) is 0.0 from here on: Gamma(x) overflows


def gamma(x: float) -> float:
    """Gamma function for real x, raising GammaPole at 0, -1, -2, ...

    Negative non-integer arguments go through the reflection formula
    (math.gamma handles them); overflow (x > 171.6) returns +inf.
    """
    if x <= 0 and x == math.floor(x):
        raise GammaPole(f"gamma pole at x={x}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _sinpi(x: float) -> float:
    """sin(pi x) with exact integer reduction (accurate near the zeros)."""
    n = round(x)
    r = x - n
    s = math.sin(math.pi * r)
    return -s if n % 2 else s


def rgamma(x: float) -> float:
    """Reciprocal gamma 1/Gamma(x); zero at the poles of Gamma.

    For very negative x, 1/Gamma(x) is huge; computed via reflection in
    log space to dodge intermediate overflow.
    """
    if x <= 0 and x == math.floor(x):
        return 0.0
    if x > 0.5:
        g = math.gamma(x) if x < _RGAMMA_ZERO else math.inf
        return 0.0 if math.isinf(g) else 1.0 / g
    sign, logmag = _rgamma_reflected(x)
    if logmag > 709.0:
        return math.copysign(math.inf, sign)
    return math.copysign(math.exp(logmag), sign)


def _rgamma_reflected(x: float) -> tuple[float, float]:
    """(sign, log |1/Gamma(x)|) for x <= 0.5 off the poles, by reflection:
    1/Gamma(x) = Gamma(1-x) sin(pi x) / pi."""
    s = _sinpi(x)
    return math.copysign(1.0, s), math.lgamma(1.0 - x) + math.log(abs(s) / math.pi)


def normal_cdf(x: float) -> float:
    """Standard normal CDF via erfc; absolute error well below 1e-12."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Mittag-Leffler E_{a,b}(z) on the real axis
# ---------------------------------------------------------------------------
#
# Series or contour for |z| below a switch radius, asymptotics beyond.  The
# asymptotic branch combines the algebraic series sum_k z^{-k}/Gamma(b - a k)
# with the exponential terms (1/a) zeta^{1-b} exp(zeta) over the saddle directions
# zeta = |z|^{1/a} exp(i (arg z + 2 pi n)/a), |(arg z + 2 pi n)/a| <= pi
# (`_saddle_points`), which are also the poles of the contour's integrand.
# Directions landing exactly on the anti-Stokes angle +-pi carry weight 1/2.
# The exponentially small directions matter at double precision even though
# they are asymptotically invisible; dropping them breaks e.g. the cosh
# identity at the switch radius by ~1e-5.


def _series_radius(a: float, b: float = 0.0) -> float:
    # Below radius the power series (or, where its float sum cancels, the
    # contour or the mpmath series) is used.  The asymptotic branch
    # only reaches ~exp(-|z|^{1/a}) absolute accuracy (smallest term of
    # the algebraic series), so the radius keeps |z|^{1/a} >= 25 for a < 1
    # and >= 29 for a > 1, where the series is still affordable.  The
    # algebraic terms grow while |a k - b| < |z|^{1/a}, and the branch cuts
    # them near k = |z|^{1/a}/a, so it also needs |z|^{1/a} >= 2|b|.
    try:
        if a < 1.0:
            return max(10.0 * a, 25.0**a, (2.0 * abs(b)) ** a)
        return max(30.0, 29.0**a, (2.0 * abs(b)) ** a)
    except OverflowError:  # a radius past the double range holds every real z
        return math.inf


_FLOAT_TERMS = 600  # term cap of the float series
_ASYM_TERMS = 4000  # term cap of the algebraic asymptotic series
_MP_TERMS = 8000  # term cap of the mpmath series
_RND = libmp.round_nearest  # the rounding of mpmath's arithmetic
_CHUNK = 32  # entries per cached chunk of the asymptotic and mpmath rows

# The Gamma factors of the three series: nearby z of one Theta quadrature
# cancel alike, so mpmath calls repeat a precision (on the `sweep` benchmark
# about 60 % of the mpmath Gamma values read are hits).  Every reader of the
# float row reads all of it; the other rows grow with their sums' reach.
# Sizes: a cold `sweep` op fills 1 row, at most 16 asymptotic and 45 mpmath
# chunks, and the keys hold beta, so a figure grid reuses nothing across its
# points; 64 rows, 512 and 256 chunks hold several ops' traffic.


@lru_cache(maxsize=64)
def _series_rgamma(a: float, b: float) -> tuple:
    """rgamma(a k + b) for k < _FLOAT_TERMS, up to the first argument at
    _RGAMMA_ZERO."""
    out = []
    for k in range(_FLOAT_TERMS):
        arg = a * k + b
        if arg >= _RGAMMA_ZERO:
            break
        out.append(rgamma(arg))
    return tuple(out)


@lru_cache(maxsize=512)
def _asym_rgamma(a: float, b: float, chunk: int) -> tuple:
    """rgamma(b - a k) for k in [_CHUNK chunk, _CHUNK (chunk + 1))."""
    return tuple(rgamma(b - a * k) for k in range(_CHUNK * chunk, _CHUNK * (chunk + 1)))


@lru_cache(maxsize=256)
def _mp_gamma(a: float, b: float, digits: int, chunk: int) -> tuple:
    """Gamma(a k + b) as raw mpmath numbers at `digits`, None at its poles,
    for k in [_CHUNK chunk, _CHUNK (chunk + 1)); the argument is formed
    exactly: in double it picks up ~k eps, which psi(arg) amplifies into
    O(1) term errors."""
    prec = libmp.dps_to_prec(digits)
    am = libmp.from_float(a)
    bm = libmp.from_float(b)
    out = []
    for k in range(_CHUNK * chunk, _CHUNK * (chunk + 1)):
        arg = libmp.mpf_add(libmp.mpf_mul_int(am, k, prec, _RND), bm, prec, _RND)
        pole = libmp.mpf_le(arg, libmp.fzero) and libmp.mpf_eq(
            arg, libmp.mpf_floor(arg, prec, _RND)
        )
        out.append(None if pole else libmp.mpf_gamma(arg, prec, _RND))
    return tuple(out)


_CACHES = (_series_rgamma, _asym_rgamma, _mp_gamma)


def _series_float(a: float, b: float, z: float):
    """Kahan-summed power series; returns (sum, max |term|, converged).

    A sum whose z^k passes 1e290, or whose next Gamma argument reaches
    _RGAMMA_ZERO (where rgamma returns 0), is returned as unconverged:
    inside the switch radius the series settles long before that unless b
    is large.
    """
    total = 0.0
    comp = 0.0
    max_abs = 0.0
    zpow = 1.0
    for k, rg in enumerate(_series_rgamma(a, b)):
        term = zpow * rg
        max_abs = max(max_abs, abs(term))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if k > 2 and abs(term) < 1e-17 * (abs(total) + 1e-300):
            return total, max_abs, True
        zpow *= z
        if abs(zpow) > 1e290:
            break
    return total, max_abs, False


def _series_float_array(a: float, b: float, z: np.ndarray):
    """_series_float on every element of a 1-D z > 0 at once: the same
    operations in the same order, each element frozen at its own stopping
    term; returns arrays (sum, max |term|, converged)."""
    total = np.zeros_like(z)
    comp = np.zeros_like(z)
    max_abs = np.zeros_like(z)
    zpow = np.ones_like(z)
    live = np.arange(z.size)  # element index of each working slot
    out = (np.zeros_like(z), np.zeros_like(z), np.zeros(z.size, dtype=bool))

    def freeze(stop, converged):
        nonlocal total, comp, max_abs, zpow, live
        out[0][live[stop]] = total[stop]
        out[1][live[stop]] = max_abs[stop]
        out[2][live[stop]] = converged
        keep = ~stop
        total, comp, max_abs, zpow, live = (v[keep] for v in (total, comp, max_abs, zpow, live))

    with np.errstate(over="ignore", invalid="ignore"):  # +-inf terms, silent as in _series_float
        for k, rg in enumerate(_series_rgamma(a, b)):
            term = zpow * rg
            max_abs = np.maximum(max_abs, np.abs(term))
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if k > 2:
                freeze(np.abs(term) < 1e-17 * (np.abs(total) + 1e-300), True)
            zpow = zpow * z[live]
            freeze(np.abs(zpow) > 1e290, False)
            if not live.size:
                break
    freeze(np.ones(live.size, dtype=bool), False)
    return out


def _peak_term(a: float, b: float, z: float) -> float:
    """A lower bound on the largest |term| of the float pass at z < 0 and
    b > 0 whenever that pass settles; inf where it cannot settle.

    Each a k + b is positive and log Gamma is convex there, so log|term_k|
    = k log|z| - log Gamma(a k + b) is concave in k: the terms grow to one
    peak and then fall.  A settled pass stops at a term below 1e-17 of its
    sum, which no term can be while the terms still grow, so the pass forms
    every term up to the peak.  This walk forms them with the pass's own
    operations (the same products, bit for bit) and stops at the first
    fall; a pass whose z^k passes 1e290 before the peak never settles.
    """
    peak = 0.0
    zpow = 1.0
    for rg in _series_rgamma(a, b):
        term = abs(zpow * rg)
        if term < peak:
            break
        peak = term
        zpow *= z
        if abs(zpow) > 1e290:
            return math.inf
    return peak


def _series_accepted(a: float, b: float, z: float, total: float, max_abs: float) -> bool:
    """Whether a settled float series pass is returned: its roundoff
    estimate, max |term| times eps times the Gamma-argument amplification
    (`_amplification`), is at most 1e-11 of the sum."""
    return max_abs * _EPS * _amplification(a, b, z) <= 1e-11 * max(abs(total), 1e-300)


def _amplification(a: float, b: float, z: float) -> float:
    # double rounding of the Gamma argument a k + b is amplified by
    # psi(arg) ~ log(arg)
    arg_top = abs(z) ** (1.0 / a) + abs(b) + 2.0
    return 4.0 * max(1.0, arg_top * math.log(max(arg_top, 3.0)))


_ACCEPT_BAND = 1e-9  # relative band around lhs = rhs left to the scalar test


def _series_accepted_array(a: float, b: float, z: np.ndarray, total: np.ndarray,
                           max_abs: np.ndarray) -> np.ndarray:
    """`_series_accepted` on 1-D arrays, element for element.

    numpy forms both sides of the test.  Its pow and log may differ from
    libm's by a few ulps, which moves lhs by far less than _ACCEPT_BAND
    relative, so numpy decides only the elements whose lhs lies outside
    that band around rhs; the scalar test decides the rest, so every
    decision is the scalar one.
    """
    arg_top = np.abs(z) ** (1.0 / a) + abs(b) + 2.0
    amp = 4.0 * np.maximum(1.0, arg_top * np.log(np.maximum(arg_top, 3.0)))
    lhs = max_abs * _EPS * amp
    rhs = 1e-11 * np.maximum(np.abs(total), 1e-300)
    accepted = lhs < rhs * (1.0 - _ACCEPT_BAND)
    # NaN compares false both ways and lands in the band
    band = np.flatnonzero(~accepted & ~(lhs > rhs * (1.0 + _ACCEPT_BAND)))
    for i, x, s, m in zip(band.tolist(), *(v[band].tolist() for v in (z, total, max_abs))):
        accepted[i] = _series_accepted(a, b, x, s, m)
    return accepted


def _series_mp(a: float, b: float, z: float, digits: int):
    """The power series summed in mpmath at `digits`; returns (sum as a
    float, settled).

    It works on mpmath's raw numbers with the precision passed to each
    operation: these are the operations mpf arithmetic performs inside
    mp.workdps(digits), bit for bit, but they leave mpmath's process-wide
    precision alone, so threads do not disturb each other.
    """
    prec = libmp.dps_to_prec(digits)
    ten = libmp.from_int(10)
    tiny = libmp.mpf_pow_int(ten, -300, prec, _RND)
    tol = libmp.mpf_pow_int(ten, -(digits - 4), prec, _RND)
    zm = libmp.from_float(z)
    zpow = libmp.fone
    total = libmp.fzero
    for k in range(_MP_TERMS):
        if k % _CHUNK == 0:
            gammas = _mp_gamma(a, b, digits, k // _CHUNK)
        gamma_k = gammas[k % _CHUNK]
        if gamma_k is not None:
            term = libmp.mpf_div(zpow, gamma_k, prec, _RND)
            total = libmp.mpf_add(total, term, prec, _RND)
            # |term| < tol (|total| + tiny)
            bound = libmp.mpf_add(libmp.mpf_abs(total, prec, _RND), tiny, prec, _RND)
            if k > 2 and libmp.mpf_lt(
                libmp.mpf_abs(term, prec, _RND), libmp.mpf_mul(tol, bound, prec, _RND)
            ):
                return libmp.to_float(total, rnd=_RND), True
        zpow = libmp.mpf_mul(zpow, zm, prec, _RND)
    return libmp.to_float(total, rnd=_RND), False


_LOG_EPS = math.log(_EPS)
_CONTOUR_TOL = 1e-15  # truncation target of the contour quadrature
_CONTOUR_LOG_TOL = math.log(_CONTOUR_TOL)
_CONTOUR_MAX_N = 200  # node cap; beyond it the target is not met


def _contour_rb(phi_j, phi_j1, p_j):
    """(mu, h, N) for a parabola between the singularities with parabola
    parameters phi_j < phi_j1 (Garrappa's bounded-region rule; the upper one
    is a simple pole); None when the region is not admissible."""
    fac = 1.01
    log_tol = _CONTOUR_LOG_TOL
    f_max = math.exp(log_tol - _LOG_EPS)
    sq_j = math.sqrt(phi_j)
    sq_j1 = min(math.sqrt(phi_j1), 2.0 * math.sqrt(log_tol - _LOG_EPS) - sq_j)
    if p_j < 1e-14:
        # only the origin (sq_j = 0) can be a zero-strength lower end
        f_bar = fac + fac / f_max * (f_max - fac)
        sqb_j = 0.0
        sqb_j1 = 2.0 * sq_j1 / (2.0 + 1.0 / f_bar)
    else:
        f_min = fac * (sq_j + sq_j1) / (sq_j1 - sq_j) ** max(p_j, 1.0)
        if f_min >= f_max:
            return None
        f_min = max(f_min, 1.5)
        f_bar = f_min + f_min / f_max * (f_max - f_min)
        fp = f_bar ** (-1.0 / p_j)
        fq = 1.0 / f_bar
        w = -phi_j1 / log_tol
        den = 2.0 + w - (1.0 + w) * fp + fq
        sqb_j = ((2.0 + w + fq) * sq_j + fp * sq_j1) / den
        sqb_j1 = (-(1.0 + w) * fq * sq_j + (2.0 + w - (1.0 + w) * fp) * sq_j1) / den
    log_tol -= math.log(f_bar)
    w = -sqb_j1 * sqb_j1 / log_tol
    mu = (((1.0 + w) * sqb_j + sqb_j1) / (2.0 + w)) ** 2
    h = -2.0 * math.pi / log_tol * (sqb_j1 - sqb_j) / ((1.0 + w) * sqb_j + sqb_j1)
    return mu, h, math.ceil(math.sqrt(1.0 - log_tol / mu) / h)


def _contour_ru(phi_j, p_j):
    """(mu, h, N) for a parabola right of every singularity, the rightmost
    with parabola parameter phi_j (Garrappa's unbounded-region rule); None
    when the region is not admissible."""
    log_tol = _CONTOUR_LOG_TOL
    sq_j = math.sqrt(phi_j)
    phib_j = 1.01 * phi_j if phi_j > 0 else 0.01
    sqb_j = math.sqrt(phib_j)
    # move the parabola until the singularity's weight f lies in (1, 10)
    for _ in range(100):
        lt = log_tol / phib_j
        n = math.ceil(phib_j / math.pi * (1.0 - 1.5 * lt + math.sqrt(1.0 - 2.0 * lt)))
        big_a = math.pi * n / phib_j
        sq_mu = sqb_j * abs(4.0 - big_a) / abs(7.0 - math.sqrt(1.0 + 12.0 * big_a))
        if p_j < 1e-14:
            break
        try:
            if 1.0 < ((sqb_j - sq_j) / sq_mu) ** (-p_j) < 10.0:
                break
        except OverflowError:
            pass  # an overflowing weight is not in (1, 10)
        sqb_j = 5.0 ** (-1.0 / p_j) * sq_mu + sq_j
        phib_j = sqb_j * sqb_j
    else:
        return None
    mu = sq_mu * sq_mu
    h = (-3.0 * big_a - 2.0 + 2.0 * math.sqrt(1.0 + 12.0 * big_a)) / (4.0 - big_a) / n
    threshold = log_tol - _LOG_EPS
    if mu > threshold:
        # e^mu would amplify roundoff past the target: pin mu at the bound
        q = 0.0 if p_j < 1e-14 else 5.0 ** (-1.0 / p_j) * sq_mu
        if (q + sq_j) ** 2 >= threshold:
            return None
        w = math.sqrt(_LOG_EPS / (_LOG_EPS - log_tol))
        u = math.sqrt(-((q + sq_j) ** 2) / _LOG_EPS)
        mu = threshold
        n = math.ceil(w * log_tol / (2.0 * math.pi) / (u * w - 1.0))
        h = w / n
    return mu, h, n


def _ml_contour(a: float, b: float, z: float):
    """E_{a,b}(z), z real and nonzero, by Garrappa's optimal parabolic
    contour for the inverse Laplace transform s^{a-b}/(s^a - z) at t = 1.

    Returns (value, sum of |terms|): the trapezoid terms times h/2pi plus
    the |residues| of the poles right of the contour.  The absolute error
    is a small multiple of eps times that sum, on top of the 1e-15
    truncation target.  None when no admissible region meets the target
    within _CONTOUR_MAX_N nodes per side, or when a region's rule or a
    residue leaves the double range.
    """
    # the poles s^a = z in the principal sheet are the saddle points of the
    # asymptotic branch, ordered by phi(s) = (Re s + |s|)/2, the mu of the
    # parabola through s; poles on the negative axis (phi = 0, also those
    # _saddle_points admits up to 1e-12 past it) are always enclosed
    poles = []
    for _, s in _saddle_points(a, 0.0 if z > 0 else math.pi, abs(z) ** (1.0 / a)):
        phi = 0.5 * (s.real + abs(s))
        if phi > 1e-15:
            poles.append((phi, s))
    poles.sort(key=lambda ps: ps[0])
    phis = [0.0] + [phi for phi, _ in poles] + [math.inf]
    # the origin's branch point has strength max(0, 2(b - a - 1)), a pole 1
    strength = [max(0.0, 2.0 * (b - a - 1.0))] + [1.0] * len(poles)
    best = None
    for j in range(len(poles) + 1):
        if not (phis[j] < _CONTOUR_LOG_TOL - _LOG_EPS and phis[j] < phis[j + 1]):
            continue
        try:
            if j < len(poles):
                par = _contour_rb(phis[j], phis[j + 1], strength[j])
            else:
                par = _contour_ru(phis[j], strength[j])
        except (OverflowError, ZeroDivisionError):
            # a branch point too strong for the rules (b far above a): the
            # regions left admissible would ignore it, so no contour at all
            return None
        if par is not None and (best is None or par[2] < best[1][2]):
            best = (j, par)
    if best is None or best[1][2] > _CONTOUR_MAX_N:
        return None
    j, (mu, h, n) = best
    # trapezoid rule on s(u) = mu (1 + iu)^2, u = h k, |k| <= n: the term
    # h/(2 pi i) e^s s^{a-b}/(s^a - z) s'(u) with s'(u) = 2 mu i (1 + iu);
    # for real z the k < 0 terms are the conjugates of the k > 0 ones
    iu = 1.0 + 1j * h * np.arange(n + 1)
    s = mu * iu * iu
    log_s = np.log(s)
    with np.errstate(over="ignore", invalid="ignore"):  # b far below 0: inf, nan
        terms = np.exp(s + (a - b) * log_s) / (np.exp(a * log_s) - z) * iu
        terms *= h * mu / math.pi
        mags = np.abs(terms)
        value = 2.0 * float(np.sum(terms.real)) - float(terms[0].real)
        abs_sum = 2.0 * float(np.sum(mags)) - float(mags[0])
    for _, pole in poles[j:]:
        try:
            residue = pole ** (1.0 - b) * cmath.exp(pole) / a
        except OverflowError:  # pole^(1 - b) past the double range, for |b| huge
            return None
        value += residue.real
        abs_sum += abs(residue)
    return value, abs_sum


def _contour_accepted(value: float, abs_sum: float) -> bool:
    """Whether a contour value is returned: 64 eps times its sum of |terms|
    is at most 1e-11 of it."""
    return 64.0 * _EPS * abs_sum <= 1e-11 * abs(value)


def _pass_rejected(peak: float, amplification: float, bound: float) -> bool:
    """Whether the float pass at z < 0, b > 0 is rejected whenever
    |E| <= bound, given its `_peak_term`:

        peak eps (amp - 1e-5) > 1e-11 max(bound, 1e-300) (1 + 1e-9).

    A settled pass forms its peak term, so its max |term| is at least peak.
    It has at most n = 600 terms, each at most max |term| and each adding
    a relative error below (n + 1000) eps: n products for z^k, the rounding
    of a k + b < 171.6 amplified by psi (below 900 eps), math.gamma and
    the Kahan sum; its tail past the stop is below 1e-15 max |term|.  So
    |sum| <= |E| + 9.6e5 eps max |term|, and as 1e-11 * 9.6e5 < 1e-5 the
    inequality gives max |term| eps amp > 1e-11 max(|sum|, 1e-300): the
    roundoff test rejects the pass.  The factor 1 + 1e-9 covers the
    rounding of both sides.
    """
    return peak * _EPS * (amplification - 1e-5) > 1e-11 * max(bound, 1e-300) * (1.0 + 1e-9)


def _contour_error_bound(value: float, abs_sum: float) -> float:
    """A bound on |E| from a contour value V with sum of |terms| S:
    |V| + 64 eps S of roundoff (`_contour_accepted`) + 1e-15 S, the
    quadrature's truncation target taken on the scale of its terms.  The
    roundoff factor is the measured maximum of 53 with a margin and the
    truncation target is Garrappa's design error, so the bound is measured,
    not derived."""
    return abs(value) + (64.0 * _EPS + _CONTOUR_TOL) * abs_sum


def _ml_series(a: float, b: float, z: float) -> float:
    """E_{a,b}(z) for |z| below the switch radius: float series, then the
    contour, then the mpmath series; for z < 0 and b > 0 the contour is
    tried first where the float pass is shown to be rejected.

    The Kahan-summed float series is returned when its roundoff estimate
    (max |term| times eps times the Gamma-argument amplification) is at
    most 1e-11 of the sum.  Otherwise (negative z near the radius, or Gamma
    arguments big enough that their double rounding pollutes the terms)
    the contour value is returned when 64 eps times its sum of |terms| is
    at most 1e-11 of the value; its measured error is at most 53 eps times
    that sum, so the relative error stays below 1e-11.  Where neither
    holds, in particular near the zeros of E, the series is summed in
    mpmath at a precision chosen from the observed cancellation, to 1e-13
    relative; a sum that does not settle is returned only within 64 eps
    sum|terms| of the contour value, else ConvergenceFailure.

    Contour first.  For z < 0 and b > 0 an accepted contour value V is
    returned at once when `_pass_rejected` holds with |E| bounded by
    `_contour_error_bound`: then, as far as that measured bound holds, the
    float pass is rejected and the contour answers in either order (checked
    bit for bit against the float-first order on the oracle grids).
    The contour is formed first only where the same test already holds
    with 1/Gamma(b) = E(0) in place of |E|, i.e. where the float pass can
    only cancel badly; elsewhere, and wherever the test fails, the float
    pass runs as before, and its (total, max_abs) choose the mpmath
    precision.  The contour is never formed twice.
    """
    amplification = _amplification(a, b, z)
    first = z < 0.0 and b > 0.0
    if first:
        peak = _peak_term(a, b, z)
        first = _pass_rejected(peak, amplification, rgamma(b))
    if first:
        contour = _ml_contour(a, b, z)
        if contour is not None and _contour_accepted(*contour):
            value, abs_sum = contour
            if _pass_rejected(peak, amplification, _contour_error_bound(value, abs_sum)):
                return value
    total, max_abs, converged = _series_float(a, b, z)
    if converged and _series_accepted(a, b, z, total, max_abs):
        return total
    if not converged:
        # the float pass did not settle.  Its largest term, at least the
        # first one 1/Gamma(b), is the scale of the mpmath roundoff, so
        # values near 1/Gamma(b) settle (E_{1,91}(-150) ~ 2.5e-139); with no
        # term formed (b past _RGAMMA_ZERO) the scale is 1
        total = 0.0
        max_abs = max_abs or 1.0
    if not first:
        # no contour where the float pass formed no term (b past
        # _RGAMMA_ZERO): its rules do not see how the origin's branch point
        # of strength 2(b - a - 1) shrinks E, and it gave 2.7e-55 for
        # E_{1.5,300}(-0.2) ~ 1e-612; the mpmath series answers or raises
        contour = _ml_contour(a, b, z) if b < _RGAMMA_ZERO else None
    if contour is not None and _contour_accepted(*contour):
        return contour[0]
    digits = 25
    for _ in range(4):
        # in ratios to max_abs, which may lie near the bottom of the range
        cancel = amplification / max(abs(total) / max_abs, 10.0 ** (-digits))
        digits = 25 + int(min(275.0, math.log10(max(cancel, 1.0))))  # cancel may be inf
        total, ok = _series_mp(a, b, z, digits)
        if ok and 10.0 ** (-digits) <= 1e-13 * abs(total) / max_abs:
            return total
    if contour is not None and abs(total - contour[0]) <= 64.0 * _EPS * contour[1]:
        return total
    raise ConvergenceFailure(f"E_{{{a!r},{b!r}}}({z!r}): the mpmath series did not settle")


def _saddle_points(a: float, arg: float, w: float):
    """(weight, zeta) over the saddle directions of E_{a,b}(z) with
    |z|^{1/a} = w and arg z = arg, in the order n = 0, 1, -1, 2, -2, ...;
    the anti-Stokes directions |theta| = pi carry weight 1/2."""
    n = 0
    while True:
        hit = False
        for nn in [n] if n == 0 else [n, -n]:
            theta = (arg + 2.0 * math.pi * nn) / a
            if abs(theta) > math.pi + 1e-12:
                continue
            hit = True
            weight = 0.5 if abs(abs(theta) - math.pi) < 1e-12 else 1.0
            yield weight, w * cmath.exp(1j * theta)
        if not hit:
            return
        n += 1


def _ml_asym(a: float, b: float, z: float):
    """Asymptotic branch for |z| at or beyond the switch radius.

    Raises OverflowError through math.exp when a dominant exponent exceeds
    the float range, which ml() turns into +inf, and ResultOverflow when an
    algebraic term does (b far below 0), whose sign may be either.
    """
    x = abs(z)
    try:
        w = x ** (1.0 / a)
    except OverflowError:
        # every direction then grows past the range or decays to nothing,
        # and the algebraic series runs to its cap
        w = math.inf
    arg = 0.0 if z > 0 else math.pi

    # exponential directions
    exp_total = 0.0 + 0.0j
    terms = []
    for weight, zeta in _saddle_points(a, arg, w):
        if zeta.real > 700.0:
            raise OverflowError("ml overflow in exponential term")
        if zeta.real < -745.0:
            continue
        terms.append(weight * zeta ** (1.0 - b) * cmath.exp(zeta))
    scale = 0.0
    for t in sorted(terms, key=abs):
        exp_total += t
        scale += abs(t)
    exp_part = exp_total.real / a
    # conjugate symmetry must kill the imaginary part (compare against the
    # term scale: the real sum itself legitimately vanishes at cosine zeros)
    if abs(exp_total.imag) > 1e-8 * (scale + 1e-290):
        raise ArithmeticError("asymptotic exponential sum not real")

    # algebraic series: truncate near the smallest-envelope term (for small
    # a the minimum sits at k ~ w/a which can run to hundreds of terms),
    # skipping terms whose Gamma argument is at a pole and stopping early
    # once terms stop mattering
    k_stop = min(_ASYM_TERMS, max(1, int(min(w / a, _ASYM_TERMS)) + 1))
    floor_scale = 1e-18 * abs(exp_part)
    alg = 0.0
    comp = 0.0
    tiny_run = 0
    for k in range(1, k_stop + 1):
        if k == 1 or k % _CHUNK == 0:
            rgs = _asym_rgamma(a, b, k // _CHUNK)
        rg = rgs[k % _CHUNK]
        if rg == 0.0:
            continue
        term = rg * z ** (-k)
        if not math.isfinite(term):
            # rg is +-inf (b far below 0), and times z^-k = 0.0 it was NaN:
            # meet the factors in logs
            sign, log_rg = _rgamma_reflected(b - a * k)
            log_term = log_rg - k * math.log(x)
            if log_term > 709.0:
                raise ResultOverflow(f"E_{{{a!r},{b!r}}}({z!r}) exceeds the double range")
            term = math.copysign(math.exp(log_term), -sign if z < 0 and k % 2 else sign)
        y = term - comp
        t = alg + y
        comp = (t - alg) - y
        alg = t
        if abs(term) < max(1e-18 * abs(alg), floor_scale):
            tiny_run += 1
            if tiny_run >= 3:
                break
        else:
            tiny_run = 0
    return exp_part - alg


def ml(a: float, b: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{a,b}(z), real argument.

    Branches, in order (see the module docstring): exp(z) for
    (a, b) = (1, 1); inside the switch radius the float series (roundoff
    at most 1e-11 relative), else the parabolic contour (accepted when
    64 eps sum|terms| <= 1e-11 |value|, so below 1e-11 relative), else the
    mpmath series (1e-13 relative; ConvergenceFailure if it does not
    settle away from the contour value); outside the radius the asymptotic
    expansion.  Relative accuracy ~1e-9 or better for a <= 2 over the
    tested grids.  For a > 2 with z below minus the switch radius no
    controlled expansion is available; the best-effort value is returned
    under MittagLefflerAccuracyWarning.  Overflow of the exponential
    terms, and z = +inf, return +inf; an algebraic term past the double
    range (b far below 0, E(0) = 1/Gamma(b) included) raises
    ResultOverflow.  z = NaN or -inf, a non-finite b, or a not in (0, inf)
    raises ValidationError.  Where
    b >= 171.6 the float series forms no term and the contour is not used:
    the mpmath series answers or ConvergenceFailure is raised.
    """
    if not (0 < a < math.inf and -math.inf < b < math.inf):
        raise ValidationError(f"ml requires finite a > 0 and finite b, got a={a}, b={b}")
    if not z > -math.inf:
        raise ValidationError(f"ml requires z in (-inf, +inf], got z={z}")
    if a == 1.0 and b == 1.0:
        try:
            return math.exp(z)
        except OverflowError:
            return math.inf
    if z == 0.0:
        value = rgamma(b)
        if math.isinf(value):  # E(0) = 1/Gamma(b), an algebraic term
            raise ResultOverflow(f"E_{{{a!r},{b!r}}}({z!r}) exceeds the double range")
        return value
    radius = _series_radius(a, b)
    if abs(z) < radius:
        return _ml_series(a, b, z)
    if a > 2.0 and z < 0:
        warnings.warn(
            f"E_{{{a},{b}}}({z}): reduced accuracy for a > 2 on the far "
            "negative axis",
            MittagLefflerAccuracyWarning,
            stacklevel=2,
        )
    try:
        return _ml_asym(a, b, z)
    except ResultOverflow:
        raise  # an algebraic term, of either sign
    except OverflowError:
        return math.inf


def ml_array(a: float, b: float, z) -> np.ndarray:
    """E_{a,b}(z) on a 1-D array z, equal to [ml(a, b, x) for x in z] bit
    for bit.

    Every 0 < z < switch radius goes through one vectorised pass of the
    float series (`_series_float_array`) and ml's acceptance rule, decided
    in numpy except within a relative 1e-9 band of its threshold, where
    the scalar `_series_accepted` decides (`_series_accepted_array`).  The
    other elements (z <= 0, z at or beyond the radius, (a, b) = (1, 1) or
    outside ml's domain, a float pass ml would not return) are handed to
    scalar `ml` in index order, so the first error `ml` raises is the one
    of the lowest such element.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValidationError(f"ml_array takes a 1-D array, got shape {z.shape}")
    out = np.empty_like(z)
    scalar = np.ones(z.size, dtype=bool)
    if 0 < a < math.inf and -math.inf < b < math.inf and not (a == 1.0 and b == 1.0):
        inside = np.flatnonzero((z > 0.0) & (z < _series_radius(a, b)))
        total, max_abs, converged = _series_float_array(a, b, z[inside])
        settled = np.flatnonzero(converged)
        accepted = settled[_series_accepted_array(
            a, b, z[inside[settled]], total[settled], max_abs[settled]
        )]
        out[inside[accepted]] = total[accepted]
        scalar[inside[accepted]] = False
    for i in np.flatnonzero(scalar).tolist():
        out[i] = ml(a, b, float(z[i]))
    return out


def ml_log(a: float, b: float, z: float) -> float:
    """log E_{a,b}(z) for z > 0, overflow-safe while z^{1/a} is a double;
    ResultOverflow beyond.

    Large arguments are handled from the asymptotic exponential terms with
    the dominant factor w^{1-b} e^w, w = z^{1/a}, taken out in logs; below
    the switch radius an E past the double range raises ResultOverflow.
    E <= 0 (or exponential terms summing to <= 0) raises ValidationError.
    """
    if not (0 < a < math.inf and -math.inf < b < math.inf):
        raise ValidationError(f"ml_log requires finite a > 0 and finite b, got a={a}, b={b}")
    if not z >= 0:
        raise ValidationError("ml_log is defined for z >= 0")
    if z < _series_radius(a, b):
        val = rgamma(b) if z == 0.0 else _ml_series(a, b, z)
        if val <= 0:
            raise ValidationError(f"E_{{{a!r},{b!r}}}({z!r}) <= 0; log undefined")
        if val == math.inf:
            raise ResultOverflow(f"E_{{{a!r},{b!r}}}({z!r}) exceeds the double range")
        return math.log(val)
    w = finite_or_overflow(
        lambda: z ** (1.0 / a), f"log E_{{{a!r},{b!r}}}({z!r}) exceeds the double range"
    )
    total = 0.0 + 0.0j
    for weight, u in _saddle_points(a, 0.0, 1.0):
        # zeta = w u: zeta^{1-b} e^zeta = w^{1-b} e^w u^{1-b} e^{w (u - 1)}
        total += weight * u ** (1.0 - b) * cmath.exp(w * (u - 1.0))
    scaled = total.real / a
    if scaled <= 0:
        raise ValidationError(f"E_{{{a!r},{b!r}}}({z!r}): asymptotic sum <= 0; log undefined")
    return w + (1.0 - b) * math.log(w) + math.log(scaled)


def sin_power_integral(alpha: float, b: float) -> float:
    """int_0^inf sin^2(b xi^{alpha/2}) / xi^alpha dxi, alpha > 1, b > 0.

    Closed form: 2^{2(1-1/alpha)} alpha^{-1} cos(pi/alpha)
    Gamma(2(1/alpha - 1)) b^{2-2/alpha}; the value b pi / 2 at alpha = 2.
    """
    if alpha <= 1:
        raise ValidationError("sin_power_integral requires alpha > 1")
    if b <= 0:
        raise ValidationError("sin_power_integral requires b > 0")
    if alpha == 2.0:
        return 0.5 * b * math.pi
    return (
        2.0 ** (2.0 * (1.0 - 1.0 / alpha))
        / alpha
        * math.cos(math.pi / alpha)
        * gamma(2.0 * (1.0 / alpha - 1.0))
        * b ** (2.0 - 2.0 / alpha)
    )
