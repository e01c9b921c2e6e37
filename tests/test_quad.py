"""The adaptive Gauss-Kronrod integrator behind Theta: a port of QUADPACK's
dqagse, checked against closed forms and, bit for bit, against scipy."""

from __future__ import annotations

import math
import random
import warnings

import pytest
from scipy import integrate

from spde_moments import _quadpack as qp
from spde_moments import model as md
from spde_moments.errors import ConvergenceFailure

CLOSED_FORMS = [
    (lambda x: math.sqrt(x), 0.0, 1.0, 2.0 / 3.0),  # endpoint singularity in f'
    (lambda x: x**-0.3, 0.0, 1.0, 1.0 / 0.7),  # integrable singularity
    (lambda x: math.exp(-x * x), 0.0, 6.0, 0.5 * math.sqrt(math.pi) * math.erf(6.0)),
    (lambda x: math.sin(7.0 * x) ** 2, 0.0, 3.0, 1.5 - math.sin(42.0) / 28.0),  # oscillating
]


def _stress_cases(count: int, seed: int):
    """Seeded integrands that take every path of dqagse: one rule, plain
    bisection, extrapolation at singular endpoints, roundoff stops and an
    exhausted limit."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        c, e = rng.uniform(0.1, 3.0), rng.uniform(-0.9, 3.0)
        f = rng.choice([
            lambda x, e=e: abs(x) ** e,
            lambda x, c=c: math.sin(30.0 * c * x) ** 2,
            lambda x, c=c: c * math.log(abs(x) + 1e-300),
            lambda x, c=c: 1.0 / (1e-4 * c + (x - 0.3) ** 2),
            lambda x, c=c, e=e: math.exp(-c * abs(x) ** (e + 1.0)),
            lambda x, c=c: math.cos(100.0 * c * x) * math.exp(-x),
            lambda x, c=c: abs(x - c / 3.0) ** -0.5 if x != c / 3.0 else 0.0,
        ])
        a = rng.uniform(-0.5, 0.5) if rng.random() < 0.3 else 0.0
        b = a + rng.uniform(0.1, 5.0)
        epsabs = rng.choice([0.0, 1e-14, 1e-13, 1e-10])
        epsrel = rng.choice([1e-13, 1e-11, 3e-11, 1e-8])
        cases.append((f, a, b, epsabs, epsrel, rng.choice([3, 10, 50, 200, 400])))
    return cases


class TestQuad:
    def test_rule_exact_to_degree_31(self):
        for deg in range(32):
            val = qp.qk21(lambda x: x**deg, -1.0, 1.0)[0]
            assert abs(val - (2.0 / (deg + 1) if deg % 2 == 0 else 0.0)) < 1e-14

    @pytest.mark.parametrize("f,a,b,exact", CLOSED_FORMS)
    def test_closed_forms_within_returned_error(self, f, a, b, exact):
        val, err = qp.quad(f, a, b, 1e-13, 3e-11, 200)
        assert abs(val - exact) <= err
        assert err <= max(1e-13, 3e-11 * abs(val))

    def test_scipy_quad_bit_for_bit(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for f, a, b, epsabs, epsrel, limit in _stress_cases(120, seed=1):
                ref = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)[:2]
                assert qp.quad(f, a, b, epsabs, epsrel, limit) == ref

    def test_theta_panels_match_scipy_bit_for_bit(self, monkeypatch):
        panels = []

        def recorded(*args):
            panels.append(args)
            return qp.quad(*args)

        monkeypatch.setattr(md, "quad", recorded)
        md._radial_j.cache_clear()
        try:
            for alpha, beta, gam in ((1.05, 1.0, 0.0), (1.5, 0.8, 0.2), (2.0, 1.3, 0.0), (3.0, 1.9, 0.0)):
                md._radial_j(alpha, beta, gam, 1)
        finally:
            md._radial_j.cache_clear()
        assert len(panels) > 10
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
            for f, a, b, epsabs, epsrel, limit in panels:
                ref = integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)[:2]
                assert qp.quad(f, a, b, epsabs, epsrel, limit) == ref

    def test_limit_exhausted_returns_estimate(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.sin(40.0 * x) ** 2

        val, err = qp.quad(f, 0.0, 3.0, 1e-13, 3e-11, 3)
        assert len(calls) == 21 * 5  # one rule, then two bisections of two rules each
        assert abs(val - (1.5 - math.sin(240.0) / 160.0)) <= err
        assert err > 3e-11 * val

    def test_empty_interval_calls_nothing(self):
        assert qp.quad(lambda x: 1.0 / 0.0, 2.0, 2.0, 1e-13, 3e-11, 200) == (0.0, 0.0)

    def test_radial_j_raises_when_panels_run_out(self, monkeypatch):
        # one rule per panel misses the budget at this non-integer alpha
        monkeypatch.setattr(
            md, "quad", lambda f, a, b, epsabs, epsrel, limit: qp.quad(f, a, b, epsabs, epsrel, 1)
        )
        md._radial_j.cache_clear()
        try:
            with pytest.raises(ConvergenceFailure, match="theta quadrature error"):
                md._radial_j(1.5, 0.8, 0.2, 1)
        finally:
            md._radial_j.cache_clear()
