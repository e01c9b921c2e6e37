"""Seeded extreme-input audit of the public numeric functions.

Each call of `model`, `moments`, `diagrams` and `specialfn` on a few fixed
valid models, with arguments drawn log-uniform over [1e-300, 1e300] (signed
where the domain allows), must return a finite value or raise a package
error (`SpdeMomentsError`); `ml`, `ml_array`, `gamma` and `rgamma` may also
return the +-inf their docstrings promise.  The Mittag-Leffler parameters
(a, b) are the models' own, not drawn.

Every test here runs with numpy's RuntimeWarning raised as an error, so
a call whose arithmetic leaves the double range must settle it inside the
package: such a warning counts as a raw error.
"""

import math
import random
import time

import mpmath as mp
import numpy as np
import pytest

from spde_moments import diagrams as dg
from spde_moments import model as md
from spde_moments import moments as mm
from spde_moments import specialfn as sf
from spde_moments.errors import ResultOverflow, SpdeMomentsError
from spde_moments.model import ModelParams

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

MODELS = (
    ModelParams(2, 1),
    ModelParams(2, 2, u1=1),
    ModelParams(1.5, 0.8, gamma=0.3, lam=-2, u0=0.5),
)
INF_ALLOWED = {"specialfn.ml", "specialfn.ml_array", "specialfn.gamma", "specialfn.rgamma"}
DRAWS = 200  # per entry of _calls()


def _draw(rng: random.Random, sign: str):
    """10^U[-300, 300], negated half the time when sign is '-'; an
    integer in [0, 8) when sign is 'k'."""
    if sign == "k":
        return rng.randrange(8)
    v = 10.0 ** rng.uniform(-300.0, 300.0)
    return -v if sign == "-" and rng.random() < 0.5 else v


def _ml_pair(a, b, z, w):
    return sf.ml_array(a, b, [z, w])


def _volterra(p, h, rtol):
    return mm.volterra_second_moment(p, h * np.arange(1, 9), rtol).values


def _chaos_mc(p, t, k):
    return dg.chaos_term_mc(p, t, k, 16, 0)


def _calls():
    """(name, function, fixed leading arguments, signs), one drawn argument
    per sign (see `_draw`).  ml's (a, b) are those the models use: (beta,
    beta + gamma) and (theta + 1, 1, 2 or 3)."""
    calls = [
        ("specialfn.gamma", sf.gamma, (), "-"),
        ("specialfn.rgamma", sf.rgamma, (), "-"),
        ("specialfn.normal_cdf", sf.normal_cdf, (), "-"),
        ("moments.she_second_moment", mm.she_second_moment, (), "+--+"),
        ("moments.swe_second_moment", mm.swe_second_moment, (), "+---+"),
        ("moments.she_exact_pth_lyapunov", mm.she_exact_pth_lyapunov, (), "-+"),
        ("diagrams.exp_tail_facts", lambda a: dg.exp_tail_facts(20, a)["half_ratio"], (), "+"),
    ]
    for p in MODELS:
        dc = md.derived_constants(p)
        for ab in ((p.beta, p.beta + p.gamma), *((dc.theta + 1.0, k) for k in (1.0, 2.0, 3.0))):
            calls += [
                ("specialfn.ml", sf.ml, ab, "-"),
                ("specialfn.ml_array", _ml_pair, ab, "--"),
                ("specialfn.ml_log", sf.ml_log, ab, "+"),
            ]
        calls += [
            ("specialfn.sin_power_integral", sf.sin_power_integral, (p.alpha,), "+"),
            ("model.kernel_ft", md.kernel_ft, (p,), "++"),
            ("DerivedConstants.t_hat", md.DerivedConstants.t_hat, (dc,), "+"),
            ("model.t_p", md.t_p, (p,), "++"),
            ("model.j0", md.j0, (p,), "+"),
            ("moments.second_moment", mm.second_moment, (p,), "+"),
            ("moments.second_moment_log", mm.second_moment_log, (p,), "+"),
            ("moments.pth_moment_upper", mm.pth_moment_upper, (p,), "++"),
            ("moments.pth_lyapunov_upper", mm.pth_lyapunov_upper, (p,), "+"),
            ("moments.volterra_second_moment", _volterra, (p,), "++"),
            ("diagrams.chaos_term", dg.chaos_term, (p,), "+k"),
            ("diagrams.chaos_term_mc", _chaos_mc, (p,), "+k"),
        ]
    return calls


def _model_calls():
    """The functions of a model alone, once per model."""
    for p in MODELS:
        yield "model.theta", md.theta, p
        yield "model.dalang_bound", md.dalang_bound, p
        yield "model.big_theta", md.big_theta, p
        yield "model.derived_constants", lambda p: md.derived_constants(p).lyapunov_base, p
        yield "moments.second_lyapunov", mm.second_lyapunov, p


def _bad(name: str, value) -> bool:
    """Whether a returned value breaks the rule (finite, +-inf where allowed)."""
    values = np.asarray(value, dtype=float)
    return not np.all(~np.isnan(values) if name in INF_ALLOWED else np.isfinite(values))


def test_extreme_inputs_return_finite_or_raise_package_errors():
    rng = random.Random(20260)
    start = time.perf_counter()
    failures = []

    def check(name, f, args):
        try:
            value = f(*args)
        except SpdeMomentsError:
            return
        except Exception as exc:  # a raw error: the audit reports each one
            failures.append(f"{name}{args!r}: {type(exc).__name__}: {exc}")
            return
        if _bad(name, value):
            failures.append(f"{name}{args!r} returned {value!r}")

    for name, f, p in _model_calls():
        check(name, f, (p,))
    for name, f, fixed, signs in _calls():
        for _ in range(DRAWS):
            check(name, f, fixed + tuple(_draw(rng, s) for s in signs))
    elapsed = time.perf_counter() - start
    assert not failures, f"{len(failures)} calls broke the rule:\n" + "\n".join(failures)
    assert elapsed < 5.0, f"the audit took {elapsed:.1f} s"


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: mm.she_second_moment(1, 1, 1, 1e50), id="she_second_moment"),
        pytest.param(lambda: mm.swe_second_moment(2, 1, 1, 1, 1e50), id="swe_second_moment"),
        pytest.param(lambda: mm.she_exact_pth_lyapunov(1e200, 1e50), id="she_exact_pth_lyapunov"),
        pytest.param(lambda: md.t_p(MODELS[0], 1e-300, 1e300), id="t_p"),
        pytest.param(lambda: md.derived_constants(MODELS[1]).t_hat(1e200), id="t_hat"),
        pytest.param(lambda: sf.ml_log(0.5, 1, 1e200), id="ml_log"),
        pytest.param(lambda: dg.chaos_term_mc(MODELS[0], 1e300, 2, 16, 0), id="chaos_term_mc"),
        pytest.param(lambda: dg.chaos_term_mc(ModelParams(2, 1, lam=1e100), 1.0, 4, 16, 0),
                     id="chaos_term_mc_scale"),
    ],
)
def test_overflow_is_result_overflow(call):
    # finite input whose result leaves the double range
    with pytest.raises(ResultOverflow, match="exceeds the double range"):
        call()


@pytest.mark.parametrize(
    "a, b, z", [(250.0, 1.0, 1.0), (1.5, 1e5, 3.0), (0.5, 1e200, -1e-20), (1.5, 1e3, 0.1)]
)
def test_ml_extreme_parameters(a, b, z):
    # a or b so large that the switch radius, the contour's parabola or the
    # mpmath precision leaves the double range: a value that agrees with the
    # series summed in mpmath, or a package error
    try:
        value = sf.ml(a, b, z)
    except SpdeMomentsError:
        return
    with mp.workdps(30):
        ref = float(sum(mp.mpf(z) ** k * mp.rgamma(mp.mpf(a) * k + mp.mpf(b)) for k in range(60)))
    assert math.isfinite(value) and abs(value - ref) <= 1e-13 * abs(ref)
