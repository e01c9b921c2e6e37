"""SPDE parameter model and derived constants.

A model instance is the tuple (alpha, beta, gamma, lambda, nu, dim, u0, u1)
of the fractional equation

    (d_t^beta + (nu/2) (-Laplace)^{alpha/2}) u = I_t^gamma [lambda u dW],

with constant initial position u0 (and velocity u1 when beta > 1).  This
module provides the existence check, the exponent theta, the spectral
constant Theta (by quadrature with analytic tails), the Fourier transform
of the fundamental kernel, and the nonnegativity lookup.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

from scipy import integrate

from . import specialfn as sf
from .errors import ConvergenceFailure, DalangViolated, InvalidParams

__all__ = [
    "ModelParams",
    "DerivedConstants",
    "KernelSign",
    "theta",
    "dalang_satisfied",
    "theta_integral_finite",
    "big_theta",
    "derived_constants",
    "t_hat",
    "t_p",
    "kernel_ft",
    "l2_norm_kernel",
    "j0",
    "kernel_nonneg_known",
    "params_to_dict",
    "params_to_kv",
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
        if int(self.dim) != self.dim or self.dim < 1:
            raise InvalidParams(f"dim must be a positive integer, got {self.dim}")


@dataclass(frozen=True)
class DerivedConstants:
    theta: float
    big_theta: float
    lyapunov_base: float  # lambda^2 * Theta * Gamma(theta + 1)


class KernelSign(enum.Enum):
    NONNEGATIVE = "nonnegative"
    UNKNOWN = "unknown"


def theta(p: ModelParams) -> float:
    """Exponent of the squared-kernel power law |p(s,.)|_2^2 = Theta s^theta."""
    return 2.0 * (p.beta + p.gamma) - 2.0 - p.beta * p.dim / p.alpha


def dalang_satisfied(p: ModelParams) -> bool:
    """Existence criterion for a random-field solution with finite moments."""
    if p.beta < 2.0:
        return p.dim < 2.0 * p.alpha + (p.alpha / p.beta) * min(
            2.0 * p.gamma - 1.0, 0.0
        )
    return p.dim < p.alpha * min(2.0, 1.0 + p.gamma)


def theta_integral_finite(p: ModelParams) -> bool:
    """Whether the spectral integral defining Theta converges.

    Strictly weaker than dalang_satisfied for beta < 2 (the latter also
    requires theta > -1); identical for beta = 2.  Theta is well defined
    on this larger set, which the figure sweeps use.
    """
    if p.beta == 2.0:
        return p.dim < p.alpha * min(2.0, 1.0 + p.gamma)
    if p.gamma > 0:
        return p.dim < 2.0 * p.alpha
    # gamma = 0: E_{b,b}(-x) decays like x^{-2}
    return p.dim < 4.0 * p.alpha


def _sphere_area(d: int) -> float:
    # surface area of the unit sphere S^{d-1}
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def _asym_coeffs(beta: float, b: float, n: int = 3):
    # E_{beta,b}(-x) ~ sum_k (-1)^{k+1} c_k x^{-k}, c_k = 1/Gamma(b - beta k)
    return [sf.rgamma(b - beta * k) for k in range(1, n + 1)]


def _tail_beta_lt2(beta: float, b: float, alpha: float, d: int, r: float):
    """Analytic tail of int_R^inf E^2_{beta,b}(-x^alpha) x^{d-1} dx plus a
    next-order error estimate."""
    c1, c2, c3 = _asym_coeffs(beta, b)
    c2 = -c2
    pieces = [
        (c1 * c1, 2 * alpha),
        (2 * c1 * c2, 3 * alpha),
        (c2 * c2 + 2 * c1 * c3, 4 * alpha),
    ]
    tail = 0.0
    for coeff, power in pieces:
        if coeff == 0.0:
            continue
        if power <= d:
            raise DalangViolated("spectral integral diverges")
        tail += coeff * r ** (d - power) / (power - d)
    c4 = abs(sf.rgamma(b - 4 * beta))
    err_coeff = 2 * abs(c1) * c4 + 2 * abs(c2) * abs(c3) + c3 * c3 + c4 * c4
    err = err_coeff * r ** (d - 5 * alpha) / max(5 * alpha - d, 1.0)
    return tail, abs(err)


@lru_cache(maxsize=256)
def _radial_j(alpha: float, beta: float, gam: float, d: int):
    """J = int_0^inf E^2_{beta, beta+gamma}(-r^alpha) r^{d-1} dr."""
    if beta == 2.0:
        if gam == 0.0 and d == 1:
            return sf.sin_power_integral(alpha, 1.0)
        return _radial_j_wave(alpha, gam, d)

    b = beta + gam

    def f(r: float) -> float:
        return sf.ml(beta, b, -(r**alpha)) ** 2 * r ** (d - 1)

    # integrate to R where the squared 3-term algebraic expansion of the
    # integrand makes the neglected order < 1e-11 of the running estimate
    r_switch = sf._series_radius(beta) ** (1.0 / alpha)
    r_end = max(2.0, 2.0 ** (1.0 / alpha) * r_switch)
    est, _ = integrate.quad(f, 0.0, r_end, limit=200)
    tail, err = _tail_beta_lt2(beta, b, alpha, d, r_end)
    guard = 0
    while err > 1e-11 * max(est + tail, 1e-12) and guard < 60:
        more, _ = integrate.quad(f, r_end, 1.6 * r_end, limit=200)
        est += more
        r_end *= 1.6
        tail, err = _tail_beta_lt2(beta, b, alpha, d, r_end)
        guard += 1
    # final pass split at the series/asymptotic switch point so the kink
    # does not stall the adaptive subdivision; roundoff chatter from
    # QUADPACK is fine since the reported error is checked below
    val = 0.0
    quad_err = 0.0
    for lo, hi in ((0.0, min(r_switch, r_end)), (min(r_switch, r_end), r_end)):
        if hi <= lo:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            v, e = integrate.quad(f, lo, hi, limit=400, epsabs=1e-13, epsrel=3e-11)
        val += v
        quad_err += e
    total = val + tail
    if quad_err + err > _REL_TOL * abs(total):
        raise ConvergenceFailure(
            f"theta quadrature error {quad_err + err:.2e} exceeds "
            f"{_REL_TOL:.0e} relative"
        )
    return total


def _radial_j_wave(alpha: float, gam: float, d: int):
    """beta = 2 without the d=1, gamma=0 closed form: period-wise panels in
    u = r^{alpha/2} plus the analytic oscillatory tail.

    In u-space E_{2,2+gam}(-u^2) = u^{1-b} cos(u + phi) + A1 u^{-2}
    + A2 u^{-4} + O(u^{-6}) with b = 2+gam, phi = (1-b) pi/2, A1 = 1/Gamma(gam),
    A2 = -1/Gamma(gam-2); the tail integrals of the squared expansion are
    power laws and oscillatory power laws done by integration by parts.
    """
    if d >= alpha * min(2.0, 1.0 + gam):
        raise DalangViolated("spectral integral diverges")
    b = 2.0 + gam
    q = 2.0 * d / alpha - 1.0

    def g(u: float) -> float:
        return sf.ml(2.0, b, -(u * u)) ** 2 * u**q

    phi = (1.0 - b) * math.pi / 2.0
    u_cut = math.ceil(110.0 / math.pi) * math.pi

    total = 0.0
    err_total = 0.0
    nodes = [0.0, 4.0]
    u = 4.0 + math.pi
    while u < u_cut - 1e-9:
        nodes.append(u)
        u += math.pi
    nodes.append(u_cut)
    for lo, hi in zip(nodes[:-1], nodes[1:]):
        v, e = integrate.quad(g, lo, hi, limit=100)
        total += v
        err_total += e

    a1 = sf.rgamma(gam)
    a2 = -sf.rgamma(gam - 2.0)
    p1 = 2.0 * (1.0 - b) + q          # cos^2 envelope
    p2 = (1.0 - b) + q - 2.0          # 2 A1 cos cross term
    p3 = (1.0 - b) + q - 4.0          # 2 A2 cos cross term
    p4 = q - 4.0                      # A1^2
    p5 = q - 6.0                      # 2 A1 A2
    tail = 0.5 * u_cut ** (p1 + 1.0) / (-(p1 + 1.0))
    tail += a1 * a1 * u_cut ** (p4 + 1.0) / (-(p4 + 1.0))
    tail += 2.0 * a1 * a2 * u_cut ** (p5 + 1.0) / (-(p5 + 1.0))
    tail += 0.5 * _osc_power_tail(u_cut, p1, 2.0, 2.0 * phi)
    tail += 2.0 * a1 * _osc_power_tail(u_cut, p2, 1.0, phi)
    tail += 2.0 * a2 * _osc_power_tail(u_cut, p3, 1.0, phi)
    # residual: next algebraic order u^{q-8}, A2^2 u^{q-8}, and the 4th IBP term
    err_tail = (
        (1.0 + a1 * a1 + a2 * a2) * u_cut ** (q - 7.0) / 7.0
        + abs(p1 * (p1 - 1.0) * (p1 - 2.0) * (p1 - 3.0)) * u_cut ** (p1 - 3.0) / 16.0
        + abs(a1) * abs(p2 * (p2 - 1.0) * (p2 - 2.0) * (p2 - 3.0)) * u_cut ** (p2 - 3.0)
    )
    total += tail
    if err_total + abs(err_tail) > _REL_TOL * abs(total):
        raise ConvergenceFailure("oscillatory theta quadrature did not converge")
    return total * 2.0 / alpha


def _osc_power_tail(u0: float, p: float, omega: float, phase: float) -> float:
    """int_{u0}^inf u^p cos(omega u + phase) du by three integrations by
    parts (valid p < -1; error O(u0^{p-3}))."""
    s = math.sin(omega * u0 + phase)
    cs = math.cos(omega * u0 + phase)
    return (
        -(u0**p) * s / omega
        - p * u0 ** (p - 1.0) * cs / omega**2
        + p * (p - 1.0) * u0 ** (p - 2.0) * s / omega**3
    )


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
    j = _radial_j(p.alpha, p.beta, p.gamma, p.dim)
    d = p.dim
    return (
        (2.0 * math.pi) ** (-d)
        * (p.nu / 2.0) ** (-d / p.alpha)
        * _sphere_area(d)
        * j
    )


def derived_constants(p: ModelParams) -> DerivedConstants:
    if not dalang_satisfied(p):
        raise DalangViolated(
            f"Dalang's condition fails: alpha={p.alpha}, beta={p.beta}, "
            f"gamma={p.gamma}, d={p.dim}"
        )
    th = theta(p)
    bt = big_theta(p)
    return DerivedConstants(
        theta=th,
        big_theta=bt,
        lyapunov_base=p.lam**2 * bt * sf.gamma(th + 1.0),
    )


def t_hat(p: ModelParams, t: float) -> float:
    """Theta * Gamma(theta+1) * t^(theta+1)."""
    if t <= 0:
        raise InvalidParams("t must be > 0")
    dc = derived_constants(p)
    return dc.big_theta * sf.gamma(dc.theta + 1.0) * t ** (dc.theta + 1.0)


def t_p(p: ModelParams, t: float, pp: float) -> float:
    """Rescaled time p^(1 + 1/(1+theta)) t entering the p-th moment rates."""
    if t <= 0:
        raise InvalidParams("t must be > 0")
    if not dalang_satisfied(p):
        raise DalangViolated("t_p requires Dalang's condition")
    return pp ** (1.0 + 1.0 / (1.0 + theta(p))) * t


def kernel_ft(p: ModelParams, t: float, r: float) -> float:
    """Radial Fourier transform of the fundamental kernel:
    t^{beta+gamma-1} E_{beta,beta+gamma}(-nu t^beta r^alpha / 2)."""
    if t <= 0:
        raise InvalidParams("t must be > 0")
    if r < 0:
        raise InvalidParams("r must be >= 0")
    return t ** (p.beta + p.gamma - 1.0) * sf.ml(
        p.beta, p.beta + p.gamma, -0.5 * p.nu * t**p.beta * r**p.alpha
    )


def l2_norm_kernel(p: ModelParams, s: float) -> float:
    """Squared L2 norm of the kernel at time s: Theta * s^theta."""
    if s <= 0:
        raise InvalidParams("s must be > 0")
    if not dalang_satisfied(p):
        raise DalangViolated("l2_norm_kernel requires Dalang's condition")
    return big_theta(p) * s ** theta(p)


def _l2_norm_kernel_quad(p: ModelParams, s: float) -> float:
    """Cross-check path: direct quadrature of kernel_ft^2 over frequency.

    Only valid for beta < 2 (algebraic kernel decay); the beta = 2 slice is
    cross-checked against the closed form elsewhere.
    """
    if p.beta >= 2.0:
        raise InvalidParams("quadrature cross-check path requires beta < 2")
    d = p.dim
    c = 0.5 * p.nu * s**p.beta  # x = c r^alpha
    r_big = max(4.0, (300.0 * sf._series_radius(p.beta) / c) ** (1.0 / p.alpha))

    def f(r: float) -> float:
        return kernel_ft(p, s, r) ** 2 * r ** (d - 1)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(f, 0.0, r_big, limit=400, epsrel=1e-11, epsabs=1e-14)
    # tail from E(-x) ~ c1/x + c2/x^2, squared
    b = p.beta + p.gamma
    c1, c2, _ = _asym_coeffs(p.beta, b)
    c2 = -c2
    pref = s ** (2.0 * (b - 1.0))
    tail = 0.0
    for coeff, k in ((c1 * c1, 2), (2 * c1 * c2, 3), (c2 * c2, 4)):
        power = k * p.alpha
        if coeff and power > d:
            tail += coeff * c ** (-k) * r_big ** (d - power) / (power - d)
    return (2.0 * math.pi) ** (-d) * _sphere_area(d) * (val + pref * tail)


def j0(p: ModelParams, t: float) -> float:
    """Homogeneous solution: u0 for beta <= 1, u0 + u1 t for beta in (1,2]."""
    if t < 0:
        raise InvalidParams("t must be >= 0")
    if p.beta <= 1.0:
        return p.u0
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


def params_to_kv(p: ModelParams) -> str:
    """Flat key=value text block (one key per line)."""
    return "".join(f"{k}={v!r}\n" for k, v in params_to_dict(p).items())


def params_from_kv(text: str) -> ModelParams:
    """Inverse of params_to_kv; alpha and beta are required, the other keys
    default to the ModelParams defaults."""
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
    if "dim" in values:
        if not values["dim"].is_integer():
            raise InvalidParams(f"dim must be a positive integer, got {values['dim']!r}")
        values["dim"] = int(values["dim"])
    return ModelParams(**values)
