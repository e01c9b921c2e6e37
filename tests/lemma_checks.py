"""Checks of the three facts the moment lower bound of Hu & Wang (2021)
rests on: the exponential-series tail bound, the Stirling sandwich and the
1-D wave-kernel overlap on a ball.  The bound uses their conclusions, not
these functions, so they live with the tests that check them."""

import math

import numpy as np

from spde_moments.errors import InvalidParams
from spde_moments.model import _require_integer, _require_positive


def exp_tail_facts(n: int, a: float) -> dict:
    """Log-space facts about the exponential series around its mode.

    half_ratio = exp(-n) sum_{m<n} n^m/m!  (tends to 1/2); tail_lb_ok
    checks sum_{m>=n} (n^m/m!)^a >= exp(a n / 4) with witness constants
    c1 = 1, c2 = a/4.
    """
    _require_integer("n", n, 10)
    _require_positive("a", a)
    m = np.arange(0, n)
    logterms = m * math.log(n) - np.array([math.lgamma(v + 1.0) for v in m]) - n
    top = float(np.max(logterms))
    half_ratio = math.exp(top) * float(np.sum(np.exp(logterms - top)))
    # tail sum in log space, m from n onward until terms stop contributing
    m_hi = int(n + 20 * math.sqrt(n) + 60)
    mm = np.arange(n, m_hi)
    logt = a * (mm * math.log(n) - np.array([math.lgamma(v + 1.0) for v in mm]))
    top_t = float(np.max(logt))
    log_tail = top_t + math.log(float(np.sum(np.exp(logt - top_t))))
    tail_lb_ok = log_tail >= a * n / 4.0  # log c1 = 0
    return {"half_ratio": half_ratio, "tail_lb_ok": bool(tail_lb_ok)}


def stirling_sandwich_holds(n: int) -> bool:
    """sqrt(2 pi n)(n/e)^n < n! < 2 sqrt(2 pi n)(n/e)^n, in log space."""
    _require_integer("n", n, 1)
    log_fact = math.lgamma(n + 1.0)
    log_lower = 0.5 * math.log(2.0 * math.pi * n) + n * (math.log(n) - 1.0)
    return log_lower < log_fact < log_lower + math.log(2.0)


_WINDOW_SLACK = 4.0 * 2.0**-52  # a few ulps: 12 * 0.3 rounds below 3.6


def wave_overlap(eps: float, t: float, s: float, a: float, b: float, x: float) -> float:
    """Overlap integral int_{B_eps(x)} p(t, a-y) p(s, b-y) dy of the 1-D wave
    kernel normalized at nu = 2, for t, s in [2 eps, 12 eps] up to a few ulps
    and a, b in the open ball.

    The kernel is (1/2) 1_{|.|<t}; both indicators are identically one on
    the ball, so the value is exactly eps/2.
    """
    _require_positive("eps", eps)
    lo, hi = 2.0 * eps * (1.0 - _WINDOW_SLACK), 12.0 * eps * (1.0 + _WINDOW_SLACK)
    if not (lo <= t <= hi and lo <= s <= hi):
        raise InvalidParams("need t, s in [2 eps, 12 eps]")
    if not (abs(a - x) < eps and abs(b - x) < eps):
        raise InvalidParams("a, b must lie in the open ball B_eps(x)")
    return 0.5 * eps
