"""SPDE parameter model, existence gate and derived constants.

A model instance is the tuple (alpha, beta, gamma, lambda, nu, dim, u0, u1)
of the fractional equation

    (d_t^beta + (nu/2) (-Laplace)^{alpha/2}) u = I_t^gamma [lambda u dW],

with constant initial position u0 and, for beta > 1 only, velocity u1.  This
module alone decides existence (`dalang_bound`, and the one DalangViolated
gate) and forms theta, Theta and lambda^2 Theta Gamma(theta + 1): moments,
diagrams and the CLI read them from the `derived_constants` record.  Theta
is one quadrature for every beta <= 2 with a closed-form tail (see
`_radial_j`), or the sine-integral closed form at beta = 2, gamma = 0,
d = 1; the quadrature is the package's port of QUADPACK's adaptive
21-point Gauss-Kronrod routine (`_quadpack.quad`).  Also: the kernel's
Fourier transform and the nonnegativity lookup.
"""

from __future__ import annotations

import cmath
import enum
import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from . import specialfn as sf
from ._quadpack import quad
from .errors import ConvergenceFailure, DalangViolated, InvalidParams, ResultOverflow
from .errors import finite_or_overflow

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "KernelSign",
    "theta",
    "dalang_bound",
    "dalang_satisfied",
    "theta_integral_finite",
    "big_theta",
    "derived_constants",
    "t_p",
    "kernel_ft",
    "j0",
    "kernel_nonneg_known",
    "params_to_dict",
    "params_from_kv",
]

_REL_TOL = 1e-8  # quadrature target for Theta


@dataclass(frozen=True)
class ModelParams:
    """One SPDE instance; immutable and hashable."""

    alpha: float
    beta: float
    gamma: float = 0.0
    lam: float = 1.0
    nu: float = 1.0
    dim: int = 1
    u0: float = 1.0
    u1: float = 0.0

    def __post_init__(self):
        for key, field in _KV_FIELDS.items():
            if not math.isfinite(getattr(self, field)):
                raise InvalidParams(f"{key} must be finite, got {getattr(self, field)}")
        if not self.alpha > 0:
            raise InvalidParams(f"alpha must be > 0, got {self.alpha}")
        if not 0 < self.beta <= 2:
            raise InvalidParams(f"beta must be in (0, 2], got {self.beta}")
        if self.gamma < 0:
            raise InvalidParams(f"gamma must be >= 0, got {self.gamma}")
        if self.lam == 0:
            raise InvalidParams("lambda must be nonzero")
        if not self.nu > 0:
            raise InvalidParams(f"nu must be > 0, got {self.nu}")
        _require_integer("dim", self.dim, 1)
        if self.beta <= 1 and self.u1 != 0:
            raise InvalidParams(f"u1 must be 0 for beta <= 1 (no initial velocity), got {self.u1}")


@dataclass(frozen=True)
class DerivedConstants:
    """theta, Theta and lambda^2 Theta Gamma(theta + 1) of one model;
    `derived_constants` builds it only when all three are finite."""

    theta: float
    big_theta: float
    lyapunov_base: float  # lambda^2 * Theta * Gamma(theta + 1)

    def t_hat(self, t: float) -> float:
        """Theta * Gamma(theta+1) * t^(theta+1), met in logs where a factor
        leaves the double range (Gamma(theta + 1) past theta = 170, or the
        power); ResultOverflow where the product does."""
        _require_positive("t", t)
        th = self.theta
        return finite_or_overflow(
            lambda: self.big_theta * sf.gamma(th + 1.0) * t ** (th + 1.0),
            f"t_hat at t={t!r} exceeds the double range",
            lambda: math.exp(
                math.log(self.big_theta) + math.lgamma(th + 1.0) + (th + 1.0) * math.log(t)
            ),
        )


class KernelSign(enum.Enum):
    NONNEGATIVE = "nonnegative"
    UNKNOWN = "unknown"


def theta(p: ModelParams) -> float:
    """Exponent of the squared-kernel power law |p(s,.)|_2^2 = Theta s^theta."""
    return 2.0 * (p.beta + p.gamma) - 2.0 - p.beta * p.dim / p.alpha


def dalang_bound(p: ModelParams) -> float:
    """Right-hand side of Dalang's condition d < bound: 2 alpha + (alpha/beta)
    min(2 gamma - 1, 0) for beta < 2, alpha min(2, 1 + gamma) at beta = 2."""
    if p.beta < 2.0:
        return 2.0 * p.alpha + (p.alpha / p.beta) * min(2.0 * p.gamma - 1.0, 0.0)
    return p.alpha * min(2.0, 1.0 + p.gamma)


def dalang_satisfied(p: ModelParams) -> bool:
    """Existence criterion for a random-field solution with finite moments."""
    return p.dim < dalang_bound(p)


def _require_order(pp: float):
    if not 2 <= pp < math.inf:
        raise InvalidParams(f"moment order must be >= 2 and finite, got {pp}")


def _require_positive(name: str, value, allow_zero: bool = False):
    """InvalidParams unless 0 < value < inf, or value == 0 with allow_zero."""
    if not (0 < value < math.inf or allow_zero and value == 0):
        sign = ">=" if allow_zero else ">"
        raise InvalidParams(f"{name} must be {sign} 0 and finite, got {value}")


def _require_integer(name: str, value, lo: int, hi: int | None = None):
    """InvalidParams unless value is an integer (a numbers.Integral, not a bool) in [lo, hi)."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and lo <= value and (hi is None or value < hi)):
        span = f">= {lo}" if hi is None else f"in [{lo}, {hi})"
        raise InvalidParams(f"{name} must be an integer {span}, got {value!r}")


def _require_dalang(p: ModelParams):
    if not dalang_satisfied(p):
        raise DalangViolated(
            f"Dalang's condition fails for alpha={p.alpha}, beta={p.beta}, "
            f"gamma={p.gamma}, d={p.dim}"
        )


def theta_integral_finite(p: ModelParams) -> bool:
    """Whether the spectral integral defining Theta converges.

    Strictly weaker than dalang_satisfied for beta < 2 (the latter also
    requires theta > -1); identical for beta = 2.  Theta is well defined
    on this larger set, which the figure sweeps use.
    """
    if p.beta == 2.0:
        return p.dim < dalang_bound(p)
    if p.gamma > 0:
        return p.dim < 2.0 * p.alpha
    # gamma = 0: E_{b,b}(-x) decays like x^{-2}
    return p.dim < 4.0 * p.alpha


def _sphere_area(d: int) -> float:
    # surface area of the unit sphere S^{d-1}
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


_N_ALG = 10  # algebraic terms in _radial_j's tail; c_0..c_{_N_ALG + 2} fit one 32-entry chunk
_CUT_TOL = 1e-14  # share of J allowed to the dropped algebraic terms
_IBP_MIN = 20.0  # |lam| u from which _tail_piece integrates by parts


def _tail_piece(p: float, lam: complex, u: float):
    """(value, error) of int_u^inf t^p e^{lam t} dt for Re lam <= 0, u > 0.

    lam = 0: -u^{p+1}/(p+1), DalangViolated unless p < -1.  |lam| u >=
    _IBP_MIN: repeated integration by parts, -(u^p e^{lam u}/lam) sum_n
    p(p-1)...(p-n+1) (-lam u)^{-n}, summed until a term is below 1e-17 of
    the sum or the terms stop decreasing; the error is the last term.
    Otherwise mpmath's incomplete gamma (-lam)^{-(p+1)} Gamma(p+1, -lam u).
    """
    if lam == 0:
        if p >= -1.0:
            raise DalangViolated("spectral integral diverges")
        return -(u ** (p + 1.0)) / (p + 1.0), 0.0
    if abs(lam) * u < _IBP_MIN:
        return complex(mp.gammainc(p + 1.0, -lam * u)) * (-lam) ** (-(p + 1.0)), 0.0
    total = term = -(u**p) * cmath.exp(lam * u) / lam
    n = 0
    while abs(term) > 1e-17 * abs(total) and n < abs(lam) * u + p:
        term *= (p - n) / (-lam * u)
        total += term
        n += 1
    return total, abs(term)


@lru_cache(maxsize=256)
def _radial_j(alpha: float, beta: float, gam: float, d: int, epsabs: float = 1e-13):
    """J = int_0^inf E^2_{beta,b}(-r^alpha) r^{d-1} dr, b = beta + gamma,
    for 0 < beta <= 2, within _REL_TOL relative or ConvergenceFailure.

    Substitution: u = r^{alpha/sigma} with sigma = max(beta, 1), so that
    x = r^alpha = u^sigma and J = int_0^{r_c} E^2 r^{d-1} dr + (sigma/alpha)
    int_{u_c}^inf E^2 u^q du, q = sigma d/alpha - 1, r_c = u_c^{sigma/alpha}.
    For beta >= 1, u = x^{1/beta} makes the saddle exponents linear; for
    beta < 1 there are no saddle terms and u = x keeps u_c finite.

    Expansion: E_{beta,b}(-x) = S + A + R with the saddle terms
    S = sum_j (w_j/beta) zeta_j^{1-b} e^{zeta_j}, zeta_j = u e^{i theta_j},
    over specialfn._saddle_points(beta, pi, 1) (none for beta < 1,
    theta = +-pi/beta for 1 < beta <= 2, +-pi with w = 1/2 at beta = 1), the
    algebraic series A = sum_{k <= _N_ALG} (-1)^{k+1} u^{-sigma k}
    /Gamma(b - beta k) and the remainder R.  Each term is a u^p e^{lam u}
    with lam = -c +- is (c = -cos(pi/beta), exactly 0 at beta = 2;
    s = sin(pi/beta)) or lam = 0, so (S + A)^2 u^q is a sum of pieces
    a u^p e^{lam u} with lam in {-2c +- 2is, -2c} (S^2), {-c +- is} (SA)
    and {0} (A^2), each integrated by _tail_piece; only the -2c piece as
    beta -> 2 has a small |lam| u_c and takes gammainc.

    Head: `_quadpack.quad` in r (QUADPACK's dqagse, relative target 3e-11,
    at most 200 subintervals each) on panels whose ends in u are the zeros
    k pi/s of the saddle oscillation (beta > 1), ml's switch radius u_s and
    u_c.

    Cut: |R| <= sum_j R_j, R_j = 2 |c_j| u^{-sigma j}, over j = _N_ALG + 1,
    _N_ALG + 2, where c_j = 1/Gamma(b - beta j) is read, as A's are, from
    the first chunk of ml's asymptotic row (specialfn._asym_rgamma(beta, b, 0)):
    one of the two may be zero (or, after rounding, nearly zero) at a Gamma
    pole, and both are zero only where the series terminates.  Each piece
    of 2(S + A) R_j and 2 R_j^2 (which bound 2(S + A)R + R^2) is bounded by
    k u_c^{-e}: a power law by its integral, an oscillating piece (|lam| = 1)
    by twice its envelope at u_c.  u_c is the least u >= u_s at which each bound is at
    most its share of _CUT_TOL times the head up to u_s, a lower bound on J.

    Error budget: the quad error estimates of all panels, the bounds at u_c
    and the by-parts truncation errors, in sum at most _REL_TOL J.  The head
    quad stops at an absolute error epsabs, which may be a relative error
    near 1 when J is tiny (large gamma: E(0) = 1/Gamma(b), J = 2.2e-7 at
    alpha = 1.5, beta = 0.5, gamma = 7); when the budget is missed and
    epsabs exceeds _REL_TOL J, J is computed again with epsabs scaled to it.
    """
    b = beta + gam
    sigma = max(beta, 1.0)
    q = sigma * d / alpha - 1.0
    c = sf._sinpi(1.0 / beta - 0.5)
    s = sf._sinpi(1.0 / beta)
    coeffs = sf._asym_rgamma(beta, b, 0)
    terms = [  # (a, p, lam) of E ~ sum a u^p e^{lam u}
        (w / beta * zeta ** (1.0 - b), 1.0 - b, complex(-c, math.copysign(s, zeta.imag)))
        for w, zeta in sf._saddle_points(beta, math.pi, 1.0)
    ] + [
        ((-1) ** (k + 1) * coeffs[k], -sigma * k, 0.0)
        for k in range(1, _N_ALG + 1)
        if coeffs[k]
    ]

    def f(r: float) -> float:
        return sf.ml(beta, b, -(r**alpha)) ** 2 * r ** (d - 1)

    step = math.pi / s if beta > 1.0 else math.inf

    def head(lo: float, hi: float):
        ks = range(math.floor(lo / step) + 1, math.ceil(hi / step))
        edges = [x ** (sigma / alpha) for x in (lo, *(k * step for k in ks), hi)]
        val = err = 0.0
        for r0, r1 in zip(edges, edges[1:]):
            v, e = quad(f, r0, r1, epsabs, 3e-11, 200)
            val += v
            err += e
        return val, err

    u_s = sf._series_radius(beta, b) ** (1.0 / sigma)
    head_s, err_s = head(0.0, u_s)
    if head_s < sys.float_info.min:
        # E(0)^2 = 1/Gamma(b)^2 leaves the double range near b = 98, and J
        # is of the size of its head
        raise ResultOverflow(
            f"the Theta integral lies below the double range (beta + gamma = {b!r})"
        )
    bounds = []  # (k, e): k u_c^{-e}
    for j in (_N_ALG + 1, _N_ALG + 2):
        r_j = 2.0 * abs(coeffs[j])
        for a, p, lam in terms + [(r_j, -sigma * j, 0.0)] if r_j else []:
            e = sigma * j - p - q - (0.0 if lam else 1.0)
            bounds.append(((4.0 if lam else 2.0 / e) * abs(a) * r_j, e))
    share = _CUT_TOL * head_s * alpha / sigma / max(len(bounds), 1)
    u_c = max([u_s] + [(k / share) ** (1.0 / e) for k, e in bounds])
    head_c, err_c = head(u_s, u_c)

    pieces = {}
    for a1, p1, lam1 in terms:
        for a2, p2, lam2 in terms:
            key = (p1 + p2 + q, lam1 + lam2)
            pieces[key] = pieces.get(key, 0.0) + a1 * a2
    tail = 0.0
    tail_err = sum(k * u_c ** (-e) for k, e in bounds)
    for (p, lam), a in pieces.items():
        v, e = _tail_piece(p, lam, u_c)
        tail += (a * v).real
        tail_err += abs(a) * e
    total = head_s + head_c + sigma / alpha * tail
    err = err_s + err_c + sigma / alpha * tail_err
    if err > _REL_TOL * abs(total):
        if epsabs > _REL_TOL * abs(total):
            return _radial_j(alpha, beta, gam, d, epsabs * abs(total))
        raise ConvergenceFailure(
            f"theta quadrature error {err:.2e} exceeds {_REL_TOL:.0e} relative"
        )
    return total


def big_theta(p: ModelParams) -> float:
    """Theta = (2 pi)^{-d} int_{R^d} E^2_{beta,beta+gamma}(-nu |xi|^alpha / 2) dxi.

    Radial reduction with nu scaled out; gated on convergence of the
    integral itself (the figure families evaluate Theta outside the full
    existence region, where theta <= -1 but the integral is finite).
    """
    if not theta_integral_finite(p):
        raise DalangViolated(
            "spectral integral diverges: "
            f"alpha={p.alpha}, beta={p.beta}, gamma={p.gamma}, d={p.dim}"
        )
    d = p.dim
    if p.beta == 2.0 and p.gamma == 0.0 and d == 1:
        j = sf.sin_power_integral(p.alpha, 1.0)
    else:
        j = _radial_j(p.alpha, p.beta, p.gamma, d)
    return (
        (2.0 * math.pi) ** (-d)
        * (p.nu / 2.0) ** (-d / p.alpha)
        * _sphere_area(d)
        * j
    )


def derived_constants(p: ModelParams) -> DerivedConstants:
    """The record of one model's constants; DalangViolated outside Dalang's
    condition.  lambda^2 Theta Gamma(theta + 1) is met in logs where a
    factor leaves the double range (lambda^2, or Gamma(theta + 1) past theta
    = 170 against a tiny Theta), and ResultOverflow is raised where the
    product does."""
    _require_dalang(p)
    th = theta(p)
    bt = big_theta(p)
    base = finite_or_overflow(
        lambda: p.lam**2 * bt * sf.gamma(th + 1.0),
        "lambda^2 Theta Gamma(theta + 1) exceeds the double range: "
        f"lambda={p.lam!r}, theta={th!r}",
        lambda: math.exp(2.0 * math.log(abs(p.lam)) + math.log(bt) + math.lgamma(th + 1.0)),
    )
    return DerivedConstants(th, bt, base)


def t_p(p: ModelParams, t: float, pp: float) -> float:
    """Rescaled time p^(1 + 1/(1+theta)) t entering the p-th moment rates;
    ResultOverflow past the double range."""
    _require_positive("t", t)
    _require_dalang(p)
    _require_order(pp)
    return finite_or_overflow(
        lambda: pp ** (1.0 + 1.0 / (1.0 + theta(p))) * t,
        f"t_p at t={t!r}, p={pp!r} exceeds the double range",
    )


def kernel_ft(p: ModelParams, t: float, r: float) -> float:
    """Radial Fourier transform of the fundamental kernel:
    t^{beta+gamma-1} E_{beta,beta+gamma}(-nu t^beta r^alpha / 2).

    Where a power leaves the double range, the factors meet in logs.
    ResultOverflow where the kernel, or the Mittag-Leffler argument itself,
    lies past the double range (at t = 1, r = 1e200 on the heat model, where
    the kernel is near 0).
    """
    _require_positive("t", t)
    _require_positive("r", r, allow_zero=True)
    b = p.beta + p.gamma

    def value():
        try:
            x = 0.5 * p.nu * t**p.beta * r**p.alpha
            scale = t ** (b - 1.0)
        except OverflowError:
            x = scale = math.inf
        if math.isfinite(x) and math.isfinite(scale):
            return scale * sf.ml(p.beta, b, -x)
        log_t = math.log(t)
        log_x = (math.log(0.5) + math.log(p.nu) + p.beta * log_t + p.alpha * math.log(r)
                 if r else -math.inf)
        e = sf.ml(p.beta, b, -math.exp(log_x))  # OverflowError past the range
        return math.copysign(math.exp((b - 1.0) * log_t + math.log(abs(e))), e) if e else 0.0

    return finite_or_overflow(
        value, f"the kernel at t={t!r}, r={r!r} or its argument exceeds the double range"
    )


def j0(p: ModelParams, t: float) -> float:
    """Homogeneous solution u0 + u1 t (u1 = 0 for beta <= 1)."""
    _require_positive("t", t, allow_zero=True)
    return p.u0 + p.u1 * t


def kernel_nonneg_known(p: ModelParams) -> KernelSign:
    """Parameter regions where the fundamental solution is known nonnegative."""
    if p.alpha <= 2 and p.beta <= 1:
        return KernelSign.NONNEGATIVE
    if 1 < p.beta < p.alpha <= 2 and p.gamma > 0 and 1 <= p.dim <= 3:
        return KernelSign.NONNEGATIVE
    if (
        1 < p.beta < 2
        and p.beta == p.alpha
        and p.gamma > (p.dim + 3.0) / 2.0 - p.beta
        and 1 <= p.dim <= 3
    ):
        return KernelSign.NONNEGATIVE
    if p.alpha == 2 and p.beta == 2 and p.gamma == 0:
        return KernelSign.NONNEGATIVE
    return KernelSign.UNKNOWN


# key -> ModelParams field, in the order of config files and JSON "params"
_KV_KEYS = ("alpha", "beta", "gamma", "lambda", "nu", "dim", "u0", "u1")
_KV_FIELDS = {key: "lam" if key == "lambda" else key for key in _KV_KEYS}


def params_to_dict(p: ModelParams) -> dict:
    """The parameters keyed by _KV_KEYS, in that order."""
    return {key: getattr(p, field) for key, field in _KV_FIELDS.items()}


def params_from_kv(text: str) -> ModelParams:
    """ModelParams from a flat key=value text block (one key per line, #
    comments); alpha and beta are required, the other keys default to the
    ModelParams defaults."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParams(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KV_FIELDS:
            raise InvalidParams(f"line {lineno}: unknown key {key!r}")
        try:
            values[_KV_FIELDS[key]] = float(val)
        except ValueError:
            raise InvalidParams(f"line {lineno}: {key} is not a number: {val.strip()!r}") from None
    missing = [k for k in ("alpha", "beta") if k not in values]
    if missing:
        raise InvalidParams(f"missing required keys: {missing}")
    if "dim" in values and values["dim"].is_integer():
        values["dim"] = int(values["dim"])
    return ModelParams(**values)
