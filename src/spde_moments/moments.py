"""Second moments, Lyapunov exponents, p-th moment bounds, and the
independent Volterra-equation oracle.

theta, Theta and lambda^2 Theta Gamma(theta + 1), and the Dalang gate,
come from `model.derived_constants`.  The closed routes go through
Mittag-Leffler evaluations; the Volterra solver discretizes the renewal
equation

    eta(t) = J0(t)^2 + lambda^2 Theta int_0^t (t-s)^theta eta(s) ds

by product integration against a piecewise-linear eta, which handles the
weakly singular theta in (-1, 0) range exactly at the panel level.  The
discrete equations, a lower-triangular Toeplitz system, are solved by
recursive halving: each first half's effect on its second half comes in
by one FFT convolution, and ranges of 256 steps are solved with the
inverse's first column.  Every weight, g and eta is positive for theta >
-1, so the sums do not cancel and the FFT's rounding error stays
relative; the values agree with a per-step loop within 1e-12 relative,
and their bits do not depend on the number of BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import specialfn as sf
from .errors import InvalidParams, ResultOverflow, SpdeMomentsError, StepTooCoarse
from .errors import finite_or_overflow
from .model import DerivedConstants, ModelParams, derived_constants, j0
from .model import _require_order, _require_positive

__all__ = [
    "MomentCurve",
    "second_moment",
    "second_moment_log",
    "she_second_moment",
    "swe_second_moment",
    "second_lyapunov",
    "pth_moment_upper",
    "pth_lyapunov_upper",
    "she_exact_pth_lyapunov",
    "volterra_second_moment",
]


@dataclass(frozen=True)
class MomentCurve:
    """Sampled moment value series with provenance; stderr, when given, is
    finite, >= 0 and of t_grid's shape, and is stored as a float array."""

    t_grid: np.ndarray
    values: np.ndarray
    method: str  # "closed-form" | "volterra" | "monte-carlo" | "scheme-exact"
    params: ModelParams
    stderr: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.t_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise InvalidParams("t_grid and values must be 1-D of equal length")
        if not np.all((t > 0) & (t < math.inf)) or np.any(np.diff(t) <= 0):
            raise InvalidParams("t_grid must be positive, finite and increasing")
        if not np.all(np.isfinite(v)):
            raise InvalidParams("moment values must be finite")
        object.__setattr__(self, "t_grid", t)
        object.__setattr__(self, "values", v)
        if self.stderr is not None:
            try:
                err = np.asarray(self.stderr, dtype=float)
            except (TypeError, ValueError):
                err = None
            if err is None or err.shape != t.shape or not np.all((err >= 0) & (err < math.inf)):
                raise InvalidParams("stderr must be finite, >= 0 and of the shape of t_grid")
            object.__setattr__(self, "stderr", err)

    def to_csv(self) -> str:
        row = "%.17g,%.17g," + self.method.replace("%", "%%") + "\n"
        pairs = zip(self.t_grid.tolist(), self.values.tolist())
        return "t,value,method\n" + "".join(map(row.__mod__, pairs))


def second_moment(p: ModelParams, t) -> float | np.ndarray:
    """E[u(t,x)^2], independent of x: u0^2 E_{theta+1}(z) + 2 u0 u1 t
    E_{theta+1,2}(z) + 2 u1^2 t^2 E_{theta+1,3}(z) at z = lambda^2 that, the
    initial-velocity terms for u1 != 0 (beta in (1, 2]) only; InvalidParams
    for t <= 0 (from that), ResultOverflow outside the double range.

    A 1-D array t gives the array of values, each equal to the scalar call
    bit for bit: that is Theta Gamma(theta + 1), formed once per grid, times
    the float power t ** (theta + 1) of `DerivedConstants.t_hat` (numpy's
    pow may round differently), or `t_hat` itself where Gamma(theta + 1)
    overflows or a point is not in (0, inf); the E values come from one
    `specialfn.ml_array` pass per term.  When a point fails, the per-point
    loop runs to raise the error it would have raised first.
    """
    dc = derived_constants(p)
    th = dc.theta
    lam_sq = p.lam**2
    if np.ndim(t) == 0:

        def value():
            z = lam_sq * dc.t_hat(t)
            total = p.u0**2 * sf.ml(th + 1.0, 1.0, z)
            if p.u1 != 0.0:
                total += 2.0 * p.u0 * p.u1 * t * sf.ml(th + 1.0, 2.0, z)
                total += 2.0 * p.u1**2 * t**2 * sf.ml(th + 1.0, 3.0, z)
            return total

        return finite_or_overflow(
            value,
            f"E[u^2] at t={t!r} exceeds the double range; second_moment_log gives its logarithm",
        )

    ts = np.asarray(t, dtype=float)
    if ts.ndim != 1:
        raise InvalidParams(f"t must be a scalar or a 1-D array, got shape {ts.shape}")
    points = ts.tolist()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gamma_th = sf.gamma(th + 1.0)
            if math.isinf(gamma_th) or not np.all((ts > 0.0) & (ts < math.inf)):
                z = np.array([lam_sq * dc.t_hat(v) for v in points])
            else:
                c, power = dc.big_theta * gamma_th, th + 1.0
                z = np.array([lam_sq * (c * v**power) for v in points])
            total = p.u0**2 * sf.ml_array(th + 1.0, 1.0, z)
            if p.u1 != 0.0:
                total += 2.0 * p.u0 * p.u1 * ts * sf.ml_array(th + 1.0, 2.0, z)
                t_sq = np.array([v**2 for v in points])
                total += 2.0 * p.u1**2 * t_sq * sf.ml_array(th + 1.0, 3.0, z)
        if np.all(np.isfinite(total)):
            return total
    except (SpdeMomentsError, ArithmeticError):
        pass
    return np.array([second_moment(p, v) for v in points])


def second_moment_log(p: ModelParams, t: float) -> float:
    """log E[u(t,x)^2] (u0 > 0, u1 >= 0), overflow-safe while lambda^2 that
    is a double; ResultOverflow beyond."""
    dc = derived_constants(p)
    if p.u0 <= 0 or p.u1 < 0:
        raise InvalidParams("log form requires u0 > 0 and u1 >= 0")
    th = dc.theta
    z = p.lam**2 * dc.t_hat(t)
    terms = [2.0 * math.log(p.u0) + sf.ml_log(th + 1.0, 1.0, z)]
    if p.u1 > 0:
        # log(2 u1 t), as a sum: the products may leave the double range
        log_2u1t = math.log(2.0) + math.log(p.u1) + math.log(t)
        terms.append(log_2u1t + math.log(p.u0) + sf.ml_log(th + 1.0, 2.0, z))
        terms.append(log_2u1t + math.log(p.u1) + math.log(t) + sf.ml_log(th + 1.0, 3.0, z))
    top = max(terms)
    return top + math.log(sum(math.exp(v - top) for v in terms))


def she_second_moment(nu: float, lam: float, u0: float, t: float) -> float:
    """Heat-case closed form 2 u0^2 exp(lam^4 t / 4 nu) Phi(lam^2 sqrt(t/2nu));
    ResultOverflow past the double range."""
    ModelParams(2, 1, lam=lam, nu=nu, u0=u0)  # the heat model's checks
    _require_positive("t", t, allow_zero=True)

    def value():
        if t == 0.0:
            return u0 * u0
        x = lam * lam * math.sqrt(t / (2.0 * nu))
        return 2.0 * u0 * u0 * math.exp(lam**4 * t / (4.0 * nu)) * sf.normal_cdf(x)

    return finite_or_overflow(value, f"the heat second moment at t={t!r} exceeds the double range")


def swe_second_moment(nu: float, lam: float, u0: float, u1: float, t: float) -> float:
    """Wave-case closed form in hyperbolic functions, x = |lam| t/(2 nu)^{1/4}:

    u0^2 cosh(x) + 2^{5/2} nu^{1/2} (u1 sinh(x/2)/lam)^2
    + 2^{5/4} nu^{1/4} u0 u1 sinh(x)/|lam|,

    with 2^{3/2} nu^{1/2} u1^2 (cosh(x) - 1)/lam^2 written through sinh(x/2),
    which does not cancel at small lam; ResultOverflow past the double range.
    """
    ModelParams(2, 2, lam=lam, nu=nu, u0=u0, u1=u1)  # the wave model's checks
    _require_positive("t", t, allow_zero=True)
    x = abs(lam) * t / (2.0 * nu) ** 0.25
    return finite_or_overflow(
        lambda: u0 * u0 * math.cosh(x)
        + 2.0**2.5 * math.sqrt(nu) * (u1 * math.sinh(0.5 * x) / lam) ** 2
        + 2.0**1.25 * nu**0.25 * u0 * u1 * math.sinh(x) / abs(lam),
        f"the wave second moment at t={t!r} exceeds the double range",
    )


def second_lyapunov(p: ModelParams) -> float:
    """lim t^{-1} log E[u^2] = (lambda^2 Theta Gamma(theta+1))^{1/(theta+1)}."""
    dc = derived_constants(p)
    th = dc.theta
    return finite_or_overflow(
        lambda: dc.lyapunov_base ** (1.0 / (th + 1.0)),
        f"second Lyapunov exponent exceeds the double range: alpha={p.alpha}, "
        f"beta={p.beta}, gamma={p.gamma}, d={p.dim}, theta + 1 = {th + 1.0:.3g}",
    )


def _hypercontractive(p: ModelParams, pp: float) -> ModelParams:
    """p with lambda sqrt(pp - 1) for lambda, after the checks of p and pp.
    The n-th chaos term of u is lambda^n times a term free of lambda, and
    hypercontractivity (Nelson; Nualart 2006, sec. 1.4) bounds its pp-norm by
    (pp - 1)^{n/2} times its 2-norm: ||u(t,x)||_pp^2 <= E[u(t,x)^2] of the
    returned model at every t, for either kernel sign and every u0, u1."""
    derived_constants(p)
    _require_order(pp)
    message = "lambda sqrt(p - 1) exceeds the double range"
    return replace(p, lam=finite_or_overflow(lambda: p.lam * math.sqrt(pp - 1.0), message))


def pth_moment_upper(p: ModelParams, t: float, pp: float) -> float:
    """Upper bound E[u(t,x)^2] at lambda sqrt(p - 1) on ||u(t,x)||_p^2
    (`_hypercontractive`), for any real order p >= 2; at p = 2 it is
    `second_moment` bit for bit."""
    return finite_or_overflow(
        lambda: second_moment(_hypercontractive(p, pp), t),
        f"the p-th moment bound at t={t!r} exceeds the double range",
    )


def pth_lyapunov_upper(p: ModelParams, pp: float) -> float:
    """Large-time rate bound (p/2) `second_lyapunov` at lambda sqrt(p - 1),
    proportional to p (p - 1)^{1/(theta+1)}; for the heat equation (lambda
    = nu = 1) it is p (p - 1)^2 / 8."""
    return finite_or_overflow(
        lambda: 0.5 * pp * second_lyapunov(_hypercontractive(p, pp)),
        f"the p-th Lyapunov bound for p={pp!r} exceeds the double range",
    )


def she_exact_pth_lyapunov(lam: float, pp: float) -> float:
    """Exact heat-equation reference rate p(p^2-1) lambda^4 / 24 (nu = 1)."""
    ModelParams(2, 1, lam=lam)  # the heat model's checks on lambda
    _require_order(pp)
    return finite_or_overflow(
        lambda: pp * (pp * pp - 1.0) * lam**4 / 24.0,
        f"the heat p-th Lyapunov exponent for p={pp!r} exceeds the double range",
    )


def _volterra_weights(th: float, h: float, n: int):
    """Product-integration weights for the kernel (t-s)^theta against a
    piecewise-linear interpolant on a uniform grid.

    Returns (wl, wr): the weights of panel m (tau in [(m-1)h, mh], at
    index m-1) on its left and right node values, m = 1..n.
    """
    m = np.arange(0, n + 1, dtype=float)
    p1 = m ** (th + 1.0)
    p2 = m ** (th + 2.0)
    a = h ** (th + 1.0) * (p1[1:] - p1[:-1]) / (th + 1.0)  # panel integral of tau^th
    b = h ** (th + 2.0) * (p2[1:] - p2[:-1]) / (th + 2.0)  # ... of tau^{th+1}
    # panel m spans tau in [(m-1)h, mh]; left node weight and right node weight
    wl = (b - (m[:-1]) * h * a) / h
    wr = ((m[1:]) * h * a - b) / h
    return wl, wr


def volterra_second_moment(
    p: ModelParams,
    t_grid,
    rtol: Optional[float] = None,
) -> MomentCurve:
    """Numerical solution of the second-moment renewal equation.

    The grid must be uniform, t_grid[i] = (i+1) h.  Without rtol the
    solution eta_h at step h is returned, unchecked.  With rtol set (> 0),
    the equation is solved again at step h/2 and that solution eta_{h/2},
    at the grid points, is returned when the Richardson estimate
    max |eta_h - eta_{h/2}| / |eta_{h/2}| is at most rtol, else
    StepTooCoarse.  At the observed order q of about 1.5 the estimate is
    about 2^q - 1 times the error of eta_{h/2}, so it covers the returned
    curve; near theta = -1 the order falls and the estimate may not.
    """
    dc = derived_constants(p)
    if rtol is not None:
        _require_positive("rtol", rtol)
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidParams("t_grid must hold at least two points")
    h = t[0]
    if not (h > 0 and np.all(np.isfinite(t))) or (
        np.max(np.abs(t - h * np.arange(1, t.size + 1))) > 1e-9 * h
    ):
        raise InvalidParams("t_grid must be finite and uniform with t[i] = (i+1) h")
    n = t.size
    eta = _volterra_solve(p, dc, h, n)
    if rtol is not None:
        eta_half = _volterra_solve(p, dc, h / 2.0, 2 * n)[1::2]
        err = np.max(np.abs(eta - eta_half) / np.maximum(np.abs(eta_half), 1e-300))
        if err > rtol:
            raise StepTooCoarse(
                f"Richardson estimate {err:.2e} exceeds rtol={rtol:.1e}; "
                "halve the step"
            )
        eta = eta_half
    return MomentCurve(t, eta, "volterra", p)


_VOLTERRA_LEAF = 256  # steps solved directly with the inverse's first column


def _volterra_solve(p: ModelParams, dc: DerivedConstants, h: float, n: int) -> np.ndarray:
    """eta at t = h, 2h, ..., nh, by recursive halving.

    Step s (1-based) of the product-integration scheme reads

        denom eta_s - kappa sum_{d=1}^{s-1} c_d eta_{s-d} = g_s + kappa wl_s eta_0,

    with c_d the interior lag-d weight and denom = 1 - kappa wr_1: a
    lower-triangular Toeplitz system T eta = r, `denom` on the diagonal and
    -kappa c_d on the d-th subdiagonal.  It is solved as in the fast
    convolution quadrature of Hairer, Lubich & Schlichte (SIAM J. Sci. Stat.
    Comput. 6 (1985) 532-541): a range of steps is split in halves, the
    first half is solved, its effect on the second half's right-hand side
    is added by one FFT convolution (`_volterra_history`), and the second
    half is solved; n steps cost O(n log^2 n).  Every range of one size
    reads the same lags, so the spectrum of those lags is formed once per
    size and kept, for this solve only, in a dict that `_volterra_range`
    is passed (a 16 384-step solve has 32 ranges of 512 steps); the same
    transform of the same lags gives the same bits.  Ranges of at most
    _VOLTERRA_LEAF steps are solved with the leaf block's inverse, which is
    lower-triangular Toeplitz like T; its first column y, y_0 = 1/denom and
    y_k = sum_{j=1}^{k} kappa c_j y_{k-j} / denom, is formed once per solve
    and applied by a direct convolution.  Not by an FFT: y grows
    exponentially along the leaf, and an FFT's error, relative to the
    largest product, would swamp the leaf's first values.

    Why the errors are relative: T is an M-matrix for theta > -1 (denom >
    0, every c_d > 0), so y, every g and every eta are positive and no sum
    cancels.  An FFT convolution errs by a few eps log N in units of the
    products it sums, which is then a small relative error of each history
    value, since each is at least its largest product; the history is
    divided by its largest value before the transform, so the FFT cannot
    overflow where the direct sums would not.  Against the per-step dot
    loop (kept as a test oracle) the values agree within 1e-12 relative.
    No step goes through BLAS with more than _VOLTERRA_LEAF terms, and the
    FFT runs on one thread, so the bits do not depend on the number of
    BLAS threads, unlike a per-step dot, which OpenBLAS splits across
    threads above 10 000 elements.
    """
    th = dc.theta
    kappa = p.lam**2 * dc.big_theta
    eta = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN past the range
        wl, wr = _volterra_weights(th, h, n)  # panel m at index m-1
        c0 = float(wr[0])  # implicit weight on eta_step (panel 1, right node)
        denom = 1.0 - kappa * c0
        # c0 = h^{theta+1} / ((theta+1)(theta+2)), so denom > 0 exactly below
        # h_max; a c0 past the double range is judged by h_max alone
        try:
            h_max = ((th + 1.0) * (th + 2.0) / kappa) ** (1.0 / (th + 1.0))
        except (OverflowError, ZeroDivisionError):
            h_max = math.inf
        if not (denom > 0 if math.isfinite(c0) else h < h_max):
            raise StepTooCoarse(
                f"step h={h:.6g} is above h_max={h_max:.6g}, the largest step at which "
                f"the implicit first panel can be solved (theta={th:.6g}); "
                "use more grid points"
            )
        eta0 = j0(p, 0.0) ** 2
        g = (p.u0 + p.u1 * (np.arange(1, n + 1) * h)) ** 2  # j0(t)^2 on the grid
        # interior lag-d coefficient (d = step - i): wl of panel d + wr of panel d+1
        lagc = kappa * (wl[:-1] + wr[1:])  # index d-1 holds lag d, d = 1..n-1
        rhs = g + kappa * wl * eta0
        inv = np.empty(min(_VOLTERRA_LEAF, n))
        inv[0] = 1.0 / denom
        for k in range(1, inv.size):
            inv[k] = float(np.dot(lagc[:k], inv[k - 1 :: -1])) / denom
        _volterra_range(0, n, eta, rhs, lagc, inv, {})
    if not np.all(np.isfinite(eta)):
        raise ResultOverflow(f"E[u^2] on the grid of step h={h:.6g} exceeds the double range")
    return eta


def _volterra_range(lo: int, hi: int, eta: np.ndarray, rhs: np.ndarray, lagc: np.ndarray,
                    inv: np.ndarray, spectra: dict):
    """Solve steps lo..hi-1 into eta, adding the history of each first
    half to rhs; spectra maps a range size to the spectrum of its lags.

    A module-level function with its state in arguments: a nested one that
    calls itself is a reference cycle, which would keep rhs and lagc alive
    until the next full garbage collection.
    """
    size = hi - lo
    if size <= inv.size:
        eta[lo:hi] = np.convolve(rhs[lo:hi], inv[:size])[:size]
        return
    mid = lo + size // 2
    _volterra_range(lo, mid, eta, rhs, lagc, inv, spectra)
    spectrum = spectra.get(size)
    if spectrum is None:
        # the size - 1 lags at a power-of-two length >= size - 1
        spectrum = spectra[size] = np.fft.rfft(lagc[: size - 1], 1 << (size - 2).bit_length())
    rhs[mid:hi] += _volterra_history(eta[lo:mid], size - 1, spectrum)
    _volterra_range(mid, hi, eta, rhs, lagc, inv, spectra)


def _volterra_history(eta: np.ndarray, m: int, spectrum: np.ndarray) -> np.ndarray:
    """sum_{j=1}^{k} coefd[s - j - 1] eta[j - 1] for s = k+1, ..., m+1,
    k = len(eta), with coefd the m lags whose `np.fft.rfft` at an even
    length N >= m is spectrum: the part of each step's sum that reaches
    back to the steps of eta, as entries k-1, ..., m-1 of the convolution
    eta * coefd.

    A circular convolution of length N >= m wraps only entries at or past
    N, which land below k-1, so N need not cover the full convolution.
    eta is divided by its largest value first so that the transform stays
    in range wherever the sums do.
    """
    k = eta.size
    top = float(eta.max())
    if top == 0.0:
        return np.zeros(m - k + 1)
    size = 2 * (spectrum.size - 1)  # N
    conv = np.fft.irfft(np.fft.rfft(eta / top, size) * spectrum, size)
    return conv[k - 1 : m] * top
