import cmath
import importlib.util
import math
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate

from spde_moments import specialfn as sf
from spde_moments.errors import (
    ConvergenceFailure,
    GammaPole,
    MittagLefflerAccuracyWarning,
    ResultOverflow,
    ValidationError,
)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class TestGamma:
    def test_unit(self):
        assert sf.gamma(1.0) == 1.0

    def test_half(self):
        assert rel(sf.gamma(0.5), math.sqrt(math.pi)) < 1e-15

    def test_reflection_example(self):
        z = 0.3
        assert rel(sf.gamma(z) * sf.gamma(1 - z) * math.sin(math.pi * z) / math.pi, 1.0) < 1e-14

    @given(st.floats(min_value=-49.9, max_value=49.9).filter(
        lambda x: abs(x - round(x)) > 1e-3))
    def test_reflection_property(self, z):
        lhs = sf.gamma(z) * sf.gamma(1.0 - z)
        rhs = math.pi / math.sin(math.pi * z)
        assert rel(lhs, rhs) < 1e-10

    def test_poles(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(GammaPole):
                sf.gamma(x)

    def test_rgamma_zero_at_poles(self):
        assert sf.rgamma(0.0) == 0.0
        assert sf.rgamma(-3.0) == 0.0

    @given(st.floats(min_value=-60.0, max_value=60.0).filter(
        lambda x: abs(x - round(x)) > 1e-3))
    def test_rgamma_matches_gamma(self, x):
        assert rel(sf.rgamma(x), 1.0 / sf.gamma(x)) < 1e-12


class TestNormalCdf:
    def test_symmetry(self):
        assert sf.normal_cdf(0.0) == 0.5

    def test_limit(self):
        assert abs(sf.normal_cdf(40.0) - 1.0) < 1e-15

    def test_erf_oracle_value(self):
        # 0.5 erfc(-1.414214/sqrt 2), frozen from a 30-digit evaluation
        assert abs(sf.normal_cdf(1.414214) - 0.92135046070212761) < 1e-12

    @given(st.floats(min_value=-8, max_value=8))
    def test_complement(self, x):
        assert abs(sf.normal_cdf(x) + sf.normal_cdf(-x) - 1.0) < 1e-14


CLOSED_FORMS = {
    "exp": (1.0, 1.0, lambda z: math.exp(z)),
    "cosh": (
        2.0,
        1.0,
        lambda z: math.cosh(math.sqrt(z)) if z >= 0 else math.cos(math.sqrt(-z)),
    ),
    "sinh": (
        2.0,
        2.0,
        lambda z: 1.0
        if z == 0
        else (
            math.sinh(math.sqrt(z)) / math.sqrt(z)
            if z > 0
            else math.sin(math.sqrt(-z)) / math.sqrt(-z)
        ),
    ),
    "gauss": (0.5, 1.0, lambda z: 2.0 * math.exp(z * z) * sf.normal_cdf(math.sqrt(2.0) * z)),
}


class TestMittagLeffler:
    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    def test_closed_forms(self, name):
        a, b, ref = CLOSED_FORMS[name]
        for z in np.linspace(-20.0, 20.0, 100):
            assert rel(sf.ml(a, b, float(z)), ref(float(z))) < 1e-8, (name, z)

    def test_spot_values(self):
        assert rel(sf.ml(1, 1, 2.0), math.exp(2)) < 1e-12
        assert rel(sf.ml(2, 1, 4.0), math.cosh(2)) < 1e-12
        assert rel(sf.ml(2, 2, 4.0), math.sinh(2) / 2) < 1e-12
        # 2 e Phi(sqrt 2), frozen from the erf oracle
        assert rel(sf.ml(0.5, 1, 1.0), 5.0089800807622835) < 1e-10
        assert rel(sf.ml(1.3, 0.7, 0.0), 1.0 / math.gamma(0.7)) < 1e-14

    @given(
        st.floats(min_value=0.3, max_value=2.5),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    def test_recurrence(self, a, b, x):
        # E_{a,b}(x) - 1/Gamma(b) = x E_{a,a+b}(x); keep E within float range
        assume(x == 0.0 or x ** (1.0 / a) < 600.0)
        lhs = sf.ml(a, b, x) - sf.rgamma(b)
        rhs = x * sf.ml(a, a + b, x)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    @pytest.mark.parametrize("a", [0.5, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0, 3.0])
    def test_branch_consistency_at_radius(self, a, b):
        r = sf._series_radius(a)
        for z in (r, -r):
            series = sf._ml_series(a, b, z)
            asym = sf._ml_asym(a, b, z)
            assert rel(series, asym) < 1e-7, (a, b, z)

    @pytest.mark.parametrize("a", [0.05, 0.1, 0.2, 0.3, 0.9])
    def test_branch_consistency_small_binary_inexact_orders(self, a):
        # small orders with binary-inexact a stress the Gamma-argument
        # rounding; the escalated series must still meet the asymptotic
        r = sf._series_radius(a)
        for b in (a, 1.0):
            for z in (r, -r):
                series = sf._ml_series(a, b, z)
                asym = sf._ml_asym(a, b, z)
                assert rel(series, asym) < 1e-7, (a, b, z)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=30.0),
    )
    def test_density_positivity(self, a, x):
        # t^{a-1} E_{a,a}(-t^a) is a probability density for a < 1, so
        # E_{a,a} must stay nonnegative on the negative axis
        assert sf.ml(a, a, -x) >= 0.0

    @pytest.mark.parametrize("a,b", [(0.5, 1.0), (0.8, 1.0), (1.2, 2.5), (1.5, 1.0)])
    def test_negative_axis_decay(self, a, b):
        z = -1e4
        target = -1.0 / sf.gamma(b - a)
        assert rel(z * sf.ml(a, b, z), target) < 1e-2

    def test_a_above_two_negative_warns(self):
        z = -1.5 * sf._series_radius(2.5)
        with pytest.warns(MittagLefflerAccuracyWarning):
            sf.ml(2.5, 1.0, z)

    @pytest.mark.parametrize("a, b, z", [
        (2.05, 0.5, -1979.0), (2.05, 1.0, -2500.0), (2.2, 1.0, -5000.0),
        (2.5, 0.5, -8000.0), (2.5, 2.0, -12000.0), (3.0, 1.0, -26124.0),
    ])
    def test_a_above_two_negative_best_effort_value(self, a, b, z):
        # the warned value has no derived bound, so it is pinned where it
        # was measured: within 5e-14 of the series.  The reference carries
        # 60 + |z|^{1/a} / 2 digits, more than the 40 + |z|^{1/a} / ln 10
        # that the cancellation of its peak term, about e^{|z|^{1/a}}, needs
        assert abs(z) >= sf._series_radius(a, b)
        with pytest.warns(MittagLefflerAccuracyWarning):
            value = sf.ml(a, b, z)
        assert rel(value, _ml_series_60(a, b, z)) < 1e-12

    @pytest.mark.parametrize("k", [20, 100, 317])
    def test_oscillation_zeros_far_out(self, k):
        # E_{2,1}(-x) = cos(sqrt x); near its zeros the asymptotic real part
        # cancels legitimately and must not be mistaken for a failure
        x = ((k + 0.5) * math.pi) ** 2
        assert abs(sf.ml(2.0, 1.0, -x)) < 1e-10

    def test_invalid_order(self):
        with pytest.raises(ValidationError):
            sf.ml(0.0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            sf.ml(-1.0, 1.0, 1.0)
        # non-finite a or b, which the order test alone let through to a raw
        # ValueError or OverflowError
        for a, b in ((math.nan, 1.0), (math.inf, 1.0), (1.5, math.nan), (1.5, math.inf),
                     (1.5, -math.inf)):
            for z in (-1.0, 0.5):
                with pytest.raises(ValidationError):
                    sf.ml(a, b, z)
            with pytest.raises(ValidationError):
                sf.ml_array(a, b, [-1.0, 0.5])

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_non_finite_argument(self, a):
        # E_{a,b}(-x) -> 0, so -inf has no overflow to report: it is bad input,
        # as is NaN; +inf stays the overflow value the callers report
        for z in (-math.inf, math.nan):
            with pytest.raises(ValidationError):
                sf.ml(a, 1.0, z)
        assert sf.ml(a, 1.0, math.inf) == math.inf

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.0, max_value=0.0, exclude_max=True),
    )
    def test_recurrence_negative_axis(self, a, b, frac):
        # E_{a,b}(z) - 1/Gamma(b) = z E_{a,a+b}(z) where the negative-axis
        # series cancels and the contour or the mpmath series answers
        z = frac * sf._series_radius(a)
        lhs = sf.ml(a, b, z) - sf.rgamma(b)
        rhs = z * sf.ml(a, a + b, z)
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)

    def test_heat_kernel_is_exp(self):
        for z in (-1e4, -900.0, -30.0, -0.7, 0.0, 1e-3, 2.5, 40.0, 700.0):
            assert sf.ml(1, 1, z) == math.exp(z)
            assert sf.ml(1.0, 1.0, z) == math.exp(z)


def _contour_grid(n=240, seed=20150601):
    """Seeded (a, b, z) inside the series radius, both signs of z."""
    rng = np.random.default_rng(seed)
    grid = []
    for _ in range(n):
        a = float(rng.uniform(0.05, 2.0))
        b = [a, 1.0, 2.0, a + float(rng.uniform(0.0, 1.0)), float(math.ceil(a))][
            int(rng.integers(5))
        ]
        sign = 1.0 if rng.integers(2) else -1.0
        grid.append((a, b, sign * float(rng.uniform(0.02, 1.0)) * sf._series_radius(a)))
    return grid


class TestContour:
    """The contour route of `ml` against the 60-digit series."""

    @pytest.fixture
    def routes(self, monkeypatch):
        # record which routes each ml call took
        seen = []
        contour, series_mp = sf._ml_contour, sf._series_mp

        def spy_contour(*args):
            seen.append("contour")
            return contour(*args)

        def spy_mp(*args):
            seen.append("mp")
            return series_mp(*args)

        monkeypatch.setattr(sf, "_ml_contour", spy_contour)
        monkeypatch.setattr(sf, "_series_mp", spy_mp)
        return seen, series_mp

    def test_accepted_values_match_series(self, routes):
        seen, series_mp = routes
        accepted = 0
        for a, b, z in _contour_grid():
            seen.clear()
            got = sf.ml(a, b, z)
            if seen != ["contour"]:
                continue
            accepted += 1
            want, ok = series_mp(a, b, z, 60)
            assert ok
            assert rel(got, want) < 1e-11, (a, b, z)
        assert accepted >= 60

    def test_rejected_near_zero_of_cosine(self, routes):
        # E_{2,1}(-x) = cos(sqrt x) vanishes at x = (3.5 pi)^2: the contour's
        # roundoff floor exceeds |E| and the mpmath series must answer
        seen, _ = routes
        x = (3.5 * math.pi) ** 2
        assert x < sf._series_radius(2.0)
        got = sf.ml(2.0, 1.0, -x)
        assert seen[:2] == ["contour", "mp"]
        assert abs(got) < 1e-12
        with mp.workdps(40):
            want = float(mp.cos(mp.sqrt(mp.mpf(x))))
        assert rel(got, want) < 1e-9

    def test_unsettled_series_raises(self):
        # E_{0.005,0.005}(-1.0152) = 0.00123119771617 (60-digit series of
        # 60000 terms); the contour is rejected and the mpmath series does
        # not settle, so its partial sum (-6.2e5) must not be returned
        with pytest.raises(ConvergenceFailure, match="-1.0152"):
            sf.ml(0.005, 0.005, -1.0152)

    def test_poles_are_the_saddle_points(self, monkeypatch):
        # the contour's poles come from _saddle_points; the reference is the
        # enumeration it replaced, k = k_lo..k_hi in ascending order, put in
        # its place: value and sum of |terms| agree bit for bit
        def loop_poles(a, arg, w):
            k_lo = math.ceil(-a / 2.0 - arg / (2.0 * math.pi))
            k_hi = math.floor(a / 2.0 - arg / (2.0 * math.pi))
            for k in range(k_lo, k_hi + 1):
                yield 1.0, w * cmath.exp(1j * (arg + 2.0 * math.pi * k) / a)

        rng = np.random.default_rng(31)
        a = [1.0, 2.0, 3.0, 4.0, *rng.uniform(0.05, 6.0, 2996).tolist()]
        b = rng.uniform(-2.0, 8.0, 3000)
        z = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-3.0, math.log10(3e3), 3000)
        draws = list(zip(a, b.tolist(), z.tolist()))

        def contours():
            # repr tells every two floats apart that differ in their bits, but NaNs
            out = []
            for draw in draws:
                try:
                    out.append(repr(sf._ml_contour(*draw)))
                except OverflowError:  # a residue's exp beyond the double range
                    out.append("overflow")
            return out

        got = contours()
        monkeypatch.setattr(sf, "_saddle_points", loop_poles)
        assert got == contours()
        assert sum(v.startswith("(") for v in got) > 1500


def _same_bits(values, ref):
    return np.array_equal(np.asarray(values).view(np.int64), np.asarray(ref, dtype=float).view(np.int64))


def _ml_series_60(a, b, z):
    """E_{a,b}(z) by its power series at 60 digits plus the cancellation."""
    with mp.workdps(60 + int(abs(z) ** (1.0 / a) / 2.0)):
        total, term, k = mp.mpf(0), mp.mpf(1), 0
        while k < 20 or abs(term) > mp.mpf(10) ** -70 * abs(total):
            term = mp.mpf(z) ** k * mp.rgamma(mp.mpf(a) * k + b)
            total += term
            k += 1
        return float(total)


class TestMlArray:
    """ml_array against [ml(a, b, x) for x in z], bit for bit."""

    @staticmethod
    def check(a, b, z):
        z = np.asarray(z, dtype=float)
        assert _same_bits(sf.ml_array(a, b, z), [sf.ml(a, b, float(x)) for x in z]), (a, b)

    def test_contour_grid(self):
        # every (a, b) of the TestContour grid on the grid's own z/radius
        grid = _contour_grid()
        fracs = np.array([z / sf._series_radius(a) for a, _, z in grid])
        for a, b, _ in grid[:60]:
            self.check(a, b, fracs * sf._series_radius(a, b))

    @pytest.mark.parametrize(
        "a, b", [(1.25, 1.0), (1.25, 2.0), (1.25, 3.0), (0.3, 1.0), (0.5, 0.5), (2.0, 1.0),
                 (2.0, 3.0), (3.0, 2.0), (1.1, 1.1)],
    )
    def test_positive_grid_across_radius(self, a, b):
        # the second-moment arguments: orders theta + 1 and b in {1, 2, 3}
        self.check(a, b, np.linspace(0.0, 1.5 * sf._series_radius(a, b), 4097)[1:])

    def test_special_elements(self):
        r = sf._series_radius(1.5)
        special = [0.0, -0.0, -3.0, -0.5 * r, -2.0 * r, r, math.nextafter(r, 0.0), 1e-300, 1e6, 2.0]
        for a, b in [(1.5, 1.0), (1.5, 2.0), (1.0, 1.0), (0.7, 0.7)]:
            self.check(a, b, special)
        assert sf.ml_array(1.5, 1.0, [1e6])[0] == math.inf
        assert sf.ml_array(1.0, 1.0, [700.0, 800.0]).tolist() == [math.exp(700.0), math.inf]

    def test_empty_and_shape(self):
        assert sf.ml_array(1.5, 1.0, []).shape == (0,)
        with pytest.raises(ValidationError):
            sf.ml_array(1.5, 1.0, np.ones((2, 2)))
        with pytest.raises(ValidationError):
            sf.ml_array(-1.0, 1.0, [1.0])

    def test_large_b_float_pass_stops_at_rgamma_zero(self):
        # rgamma(x) is 0 from x = 171.6 on; a pass that reaches it has not
        # converged, so the elements go to the scalar branches
        a, b, z = 1.0, 61.0, np.array([100.0, 120.0])
        total, _, converged = sf._series_float_array(a, b, z)
        assert not converged.any()
        self.check(a, b, z)


class TestSeriesAcceptedArray:
    """The numpy acceptance test of ml_array against `_series_accepted`,
    element by element."""

    POINTS = [(1.25, 1.0, 3.0), (1.25, 3.0, 40.0), (0.3, 1.0, 0.7), (2.0, 2.0, 250.0),
              (3.0, 1.0, 2.0e4), (1.1, 1.1, 29.0), (181.25, 2.0, 1e138)]
    OFFSETS = [-1e-8, -1e-10, -1e-12, 0.0, 1e-12, 1e-10, 1e-8]

    @staticmethod
    def check(a, b, z, total, max_abs):
        got = sf._series_accepted_array(a, b, *(np.asarray(v, dtype=float) for v in (z, total, max_abs)))
        want = [sf._series_accepted(a, b, x, s, m) for x, s, m in zip(z, total, max_abs)]
        assert got.tolist() == want, (a, b)
        return want

    @pytest.mark.parametrize("a, b, z", POINTS)
    def test_at_the_threshold(self, a, b, z, monkeypatch):
        # lhs = max_abs eps amp(z) against rhs = 1e-11 |total|, placed at a
        # relative offset of the threshold through max_abs and through total
        amp = sf._amplification(a, b, z)
        n = len(self.OFFSETS)
        for total in (1.0, -3.7e-200, 2.5e250):
            edge = 1e-11 * abs(total) / (sf._EPS * amp)
            max_abs = [edge * (1.0 + r) for r in self.OFFSETS]
            want = self.check(a, b, [z] * n, [total] * n, max_abs)
            assert want[0] and not want[-1]
            totals = [total / (1.0 + r) for r in self.OFFSETS]
            want = self.check(a, b, [z] * n, totals, [edge] * n)
            assert want[0] and not want[-1]
        # numpy decides the elements 1e-8 off the threshold on its own
        calls = []
        monkeypatch.setattr(sf, "_series_accepted", lambda *args: calls.append(args))
        sf._series_accepted_array(a, b, np.array([z, z]), np.array([1.0, 1.0]),
                                  np.array([1e-11 / (sf._EPS * amp) * (1.0 + r) for r in (-1e-8, 1e-8)]))
        assert calls == []

    def test_where_numpy_rounds_differently(self):
        # at z where numpy's pow or log rounds the amplification differently
        # from libm's, a max |term| between the two thresholds is decided
        # differently by the two; the answer must be the scalar one
        a, b = 1.3, 2.0
        z = np.random.default_rng(29).uniform(0.0, 40.0, 4000)
        arg_top = z ** (1.0 / a) + b + 2.0
        amp_np = 4.0 * np.maximum(1.0, arg_top * np.log(np.maximum(arg_top, 3.0)))
        amp = np.array([sf._amplification(a, b, x) for x in z.tolist()])
        differ = np.flatnonzero(amp_np != amp)
        edge = 1e-11 / (sf._EPS * np.sqrt(amp[differ] * amp_np[differ]))
        for max_abs in (edge, edge * (1.0 + 1e-15), edge * (1.0 - 1e-15)):
            self.check(a, b, z[differ], np.ones(differ.size), max_abs)

    def test_seeded_grid(self):
        rng = np.random.default_rng(2028)
        for _ in range(40):
            a = float(rng.uniform(0.3, 3.0))
            b = float(rng.choice([0.5, 1.0, 2.0, 3.0, 7.5]))
            z = rng.uniform(0.0, sf._series_radius(a, b), 300)
            total, max_abs, converged = sf._series_float_array(a, b, z)
            self.check(a, b, z[converged], total[converged], max_abs[converged])
        # totals near the 1e-300 floor and tiny max |term|
        z = np.full(5, 2.0)
        self.check(1.5, 1.0, z, [0.0, 1e-310, -1e-300, 1e-290, 5e-324],
                   [1e-300, 5e-324, 1e-289, 1e-290, 5e-324])


class TestLargeB:
    """E_{a,b} for b far above the default switch radius: the radius keeps
    |z|^{1/a} >= 2|b|, where the algebraic terms have stopped growing."""

    @pytest.mark.parametrize("a, b", [(1.0, 41.0), (1.5, 41.5), (1.0, 61.0), (2.0, 41.0)])
    @pytest.mark.parametrize("frac", [-2.5, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01])
    def test_matches_series(self, a, b, frac):
        z = frac * sf._series_radius(a, b)
        assert rel(sf.ml(a, b, z), _ml_series_60(a, b, z)) < 1e-12

    @pytest.mark.parametrize(
        "b, z, want",
        # 1F1(1; b; z) / Gamma(b); the float pass stops at Gamma(171.6)
        [(91.0, -150.0, 2.5306326521943321634e-139), (170.0, 0.5, 2.3493413535660198368e-305)],
    )
    def test_tiny_value_after_unsettled_float_pass(self, b, z, want):
        assert rel(sf.ml(1.0, b, z), want) < 1e-12

    def test_contour_weight_overflow(self):
        # the parabola's singularity weight ((sqb - sq)/sq_mu)^(-2(b - a - 1))
        # overflows a double at b = 130; such a weight is not in (1, 10)
        with mp.workdps(40):
            want = mp.hyp1f1(1, 130, -104) / mp.gamma(130)
        try:
            got = sf.ml(1.0, 130.0, -104.0)
        except ConvergenceFailure:
            return
        assert rel(got, float(want)) < 1e-12

    @pytest.mark.parametrize("b, want", [(300.0, "9.8017e-613"), (200.0, "2.5358e-373")])
    def test_no_contour_once_the_float_pass_forms_no_term(self, b, want):
        # 1/Gamma(b) is 0.0 in double from b = 171.6; the contour returned
        # 2.7e-55 and 2.4e-37 here, the mpmath series cannot settle
        with mp.workdps(30):
            series = sum(mp.mpf(-0.2) ** k * mp.rgamma(1.5 * k + b) for k in range(40))
            assert mp.nstr(series, 5) == want
        with pytest.raises(ConvergenceFailure):
            sf.ml(1.5, b, -0.2)

    def test_radius_grows_with_b_only_past_the_default(self):
        for a in (0.5, 1.0, 1.5):
            assert sf._series_radius(a, 3.0) == sf._series_radius(a)
        assert sf._series_radius(1.0, 41.0) == 82.0


# --- the per-term loops and the float-first order of ml before its Gamma
# tables and contour-first order, kept as oracles ---------------------------


def _oracle_series_float(a, b, z, max_terms=600):
    total = 0.0
    comp = 0.0
    max_abs = 0.0
    zpow = 1.0
    for k in range(max_terms):
        arg = a * k + b
        if arg >= sf._RGAMMA_ZERO:
            break
        term = zpow * sf.rgamma(arg)
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


def _oracle_series_mp(a, b, z, digits, max_terms=8000):
    with mp.workdps(digits):
        total = mp.mpf(0)
        zm = mp.mpf(z)
        am = mp.mpf(a)
        bm = mp.mpf(b)
        zpow = mp.mpf(1)
        tiny = mp.mpf(10) ** -300
        tol = mp.mpf(10) ** (-(digits - 4))
        for k in range(max_terms):
            arg = am * k + bm
            if not (arg <= 0 and arg == mp.floor(arg)):
                term = zpow / mp.gamma(arg)
                total += term
                if k > 2 and abs(term) < tol * (abs(total) + tiny):
                    return float(total), True
            zpow *= zm
        return float(total), False


def _oracle_ml_asym(a, b, z):
    x = abs(z)
    w = x ** (1.0 / a)
    arg = 0.0 if z > 0 else math.pi
    exp_total = 0.0 + 0.0j
    terms = []
    for weight, zeta in sf._saddle_points(a, arg, w):
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
    if abs(exp_total.imag) > 1e-8 * (scale + 1e-290):
        raise ArithmeticError("asymptotic exponential sum not real")
    k_stop = min(4000, max(1, int(w / a) + 1))
    floor_scale = 1e-18 * abs(exp_part)
    alg = 0.0
    comp = 0.0
    tiny_run = 0
    for k in range(1, k_stop + 1):
        rg = sf.rgamma(b - a * k)
        if rg == 0.0:
            continue
        term = rg * z ** (-k)
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


def _oracle_float_accepted(a, b, z):
    total, max_abs, converged = _oracle_series_float(a, b, z)
    return converged and sf._series_accepted(a, b, z, total, max_abs)


def _oracle_ml_series(a, b, z):
    total, max_abs, converged = _oracle_series_float(a, b, z)
    if converged and sf._series_accepted(a, b, z, total, max_abs):
        return total
    if not converged:
        total = 0.0
        max_abs = max_abs or 1.0
    amplification = sf._amplification(a, b, z)
    contour = sf._ml_contour(a, b, z)
    if contour is not None:
        value, abs_sum = contour
        if 64.0 * sf._EPS * abs_sum <= 1e-11 * abs(value):
            return value
    digits = 25
    for _ in range(4):
        cancel = amplification / max(abs(total) / max_abs, 10.0 ** (-digits))
        digits = min(300, 25 + int(math.log10(max(cancel, 1.0))))
        total, ok = _oracle_series_mp(a, b, z, digits)
        if ok and 10.0 ** (-digits) <= 1e-13 * abs(total) / max_abs:
            return total
    if contour is not None and abs(total - contour[0]) <= 64.0 * sf._EPS * contour[1]:
        return total
    raise ConvergenceFailure(f"E_{{{a!r},{b!r}}}({z!r}): the mpmath series did not settle")


def _clear_tables():
    for cache in sf._CACHES:
        cache.cache_clear()


# (a, b) on both sides of a = 1 and 2 b - a - 1 = 0 (the contour's branch
# strength), z on both axes inside and beyond the switch radius, plus a zero
# of cos(sqrt x) (the mpmath series) and a tiny large-b value
_ORACLE_AB = [(a, b) for a in (0.3, 0.65, 0.95, 1.0, 1.35, 1.7, 2.0)
              for b in (a, a + 0.25, a + 1.0, 2.0)]
_ORACLE_FRACS = (0.02, 0.1, 0.3, 0.5, 0.7, 0.85, 0.99, 1.3)
_ORACLE_GRID = [
    (a, b, s * f * sf._series_radius(a, b))
    for a, b in _ORACLE_AB for f in _ORACLE_FRACS for s in (-1.0, 1.0)
] + [(2.0, 1.0, -((3.5 * math.pi) ** 2)), (1.0, 91.0, -150.0), (1.0, 41.0, -70.0)]


@pytest.fixture(scope="module")
def oracle_values():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sf, "_ml_series", _oracle_ml_series)
        patch.setattr(sf, "_ml_asym", _oracle_ml_asym)
        return [sf.ml(a, b, z) for a, b, z in _ORACLE_GRID]


class TestAsymptoticRange:
    """The asymptotic branch where |z|^{1/a} or a Gamma factor leaves the
    double range."""

    def test_algebraic_term_past_the_range(self):
        # rgamma(b - a) = -inf met z^-1 and z^-2 = 0.0: the sum was NaN
        a, b, z = 0.9837049825871164, -32546727476793.12, -1.0771224746206302e293
        with pytest.raises(ResultOverflow, match="exceeds the double range"):
            sf.ml(a, b, z)

    def test_algebraic_terms_in_logs(self):
        # rgamma(b - a k) = +-inf for k = 1, 2, 3 and the sum was NaN; the
        # terms -z^{-k}/Gamma(b - a k), formed in logs, are 2.1e78, -8.3e-219
        # and -1.8e-515
        a, b, z = 1.5, -200.3, -1e300
        with mp.workdps(40):
            want = -sum(mp.mpf(z) ** -k * mp.rgamma(b - a * k) for k in range(1, 6))
        assert [sf.rgamma(b - a * k) for k in (1, 2, 3)] == [math.inf, math.inf, -math.inf]
        assert rel(sf.ml(a, b, z), float(want)) < 1e-12

    @pytest.mark.parametrize("a, b, z", [(0.6, 1.0, -1e200), (0.8, 1.1, -1e300), (1.5, 1.1, -1e300)])
    def test_power_past_the_range(self, a, b, z):
        # |z|^{1/a} overflows; ml returned +inf, E is -sum_k z^{-k}/Gamma(b - a k)
        with mp.workdps(40):
            want = -sum(mp.mpf(z) ** -k * mp.rgamma(b - a * k) for k in range(1, 6))
        assert rel(sf.ml(a, b, z), float(want)) < 1e-12


class TestGammaTables:
    """ml with its per-(a, b) Gamma tables and contour-first order against
    the per-term loops and float-first order above, bit for bit."""

    def test_ml_cold_and_warm(self, oracle_values):
        cold = []
        for a, b, z in _ORACLE_GRID:
            _clear_tables()
            cold.append(sf.ml(a, b, z))
        warm = [sf.ml(a, b, z) for a, b, z in _ORACLE_GRID]
        assert _same_bits(cold, oracle_values)
        assert _same_bits(warm, oracle_values)

    def test_ml_array_cold_and_warm(self, oracle_values):
        by_ab = {}
        for (a, b, z), want in zip(_ORACLE_GRID, oracle_values):
            by_ab.setdefault((a, b), ([], []))
            by_ab[(a, b)][0].append(z)
            by_ab[(a, b)][1].append(want)
        _clear_tables()
        for (a, b), (zs, want) in by_ab.items():
            assert _same_bits(sf.ml_array(a, b, zs), want), (a, b)
            assert _same_bits(sf.ml_array(a, b, zs), want), (a, b)

    def test_contour_first_only_where_float_pass_fails(self, monkeypatch):
        calls = []
        series_float, contour = sf._series_float, sf._ml_contour
        monkeypatch.setattr(sf, "_series_float", lambda *a: calls.append("float") or series_float(*a))
        monkeypatch.setattr(sf, "_ml_contour", lambda *a: calls.append("contour") or contour(*a))
        first = 0
        for a, b, z in _ORACLE_GRID:
            if z >= 0.0:
                continue
            calls.clear()
            sf.ml(a, b, z)
            if calls == ["contour"]:
                first += 1
                assert not _oracle_float_accepted(a, b, z), (a, b, z)
        assert first >= 40

    def test_threads_on_cold_tables(self):
        # E_{2,1}(z) from the float series, the contour, the asymptotic
        # expansion and, at the zeros of cos(sqrt x), the mpmath series
        a, b = 2.0, 1.0
        zs = [s * f * sf._series_radius(a, b) for f in _ORACLE_FRACS for s in (-1.0, 1.0)]
        zs += [-(((k + 0.5) * math.pi) ** 2) for k in range(2, 9)]
        _clear_tables()
        serial = [sf.ml(a, b, z) for z in zs]
        _clear_tables()
        start = threading.Barrier(8)
        results = [None] * 8

        def work(i):
            start.wait(timeout=30)
            order = zs if i % 2 else zs[::-1]
            got = {z: sf.ml(a, b, z) for z in order}
            results[i] = [got[z] for z in zs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None and _same_bits(got, serial)

    def test_repeat_mp_series_makes_no_gamma_call(self, monkeypatch):
        calls = []
        gamma = sf.libmp.mpf_gamma
        monkeypatch.setattr(sf.libmp, "mpf_gamma", lambda *x: calls.append(x) or gamma(*x))
        _clear_tables()
        first = sf._series_mp(2.0, 1.0, -120.0, 40)
        assert first == _oracle_series_mp(2.0, 1.0, -120.0, 40)
        made = len(calls)
        assert made > 0
        assert sf._series_mp(2.0, 1.0, -120.0, 40) == first
        assert len(calls) == made

    def test_tables_stay_within_bound(self):
        _clear_tables()
        series, asym, mp = (cache.cache_info().maxsize for cache in sf._CACHES)
        for i in range(series + 8):
            a = 0.5 + i / 128.0
            sf.ml(a, 1.5, -0.5 * sf._series_radius(a, 1.5))
            sf.ml(a, 1.5, -1.5 * sf._series_radius(a, 1.5))
        # those ml calls fill fewer asymptotic chunks than the bound
        for chunk in range(asym + 8):
            sf._asym_rgamma(0.5, 1.5, chunk)
        for digits in range(25, 25 + mp + 8):
            sf._series_mp(1.5, 1.0, -0.5, digits)
        for cache in sf._CACHES:
            info = cache.cache_info()
            assert info.currsize == info.maxsize

    def test_ml_layers_script_clears_every_cache(self):
        # its cold timings are cold only if clear_tables empties every cache
        path = Path(__file__).resolve().parents[1] / "scripts" / "ml_layers.py"
        spec = importlib.util.spec_from_file_location("ml_layers", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        for _, a, b, z in script.BRANCH_POINTS:
            sf.ml(a, b, z)
        assert all(cache.cache_info().currsize for cache in sf._CACHES)
        script.clear_tables()
        assert [cache.cache_info().currsize for cache in sf._CACHES] == [0, 0, 0]


class TestMlLogGrowth:
    """t^{-1} log E_{a,b}(c t^a) from `ml_log` tends to c^{1/a}."""

    def test_exp_case(self):
        t = 50.0
        assert abs(sf.ml_log(1, 1, 2.0 * t) / t - 2.0) < 1e-3

    def test_gauss_case(self):
        # oracle: log(2 exp(z^2) Phi(sqrt2 z))/t = (z^2 + log(2 Phi))/t
        t = 200.0
        z = math.sqrt(1.0) * t ** 0.5
        oracle = (z * z + math.log(2.0 * sf.normal_cdf(math.sqrt(2) * z))) / t
        got = sf.ml_log(0.5, 1, 1.0 * t**0.5) / t
        assert abs(got - oracle) < 1e-10
        assert abs(got - 1.0) < 1e-2

    def test_cosh_case(self):
        t = 200.0
        got = sf.ml_log(2, 1, 0.5 * t**2) / t
        oracle = (math.sqrt(0.5) * t - math.log(2.0)) / t  # log cosh for large arg
        assert abs(got - oracle) < 1e-8
        assert abs(got - math.sqrt(0.5)) < 1e-2

    def test_large_argument_in_logs(self):
        # w^{1-b} e^w, w = z^{1/a}, comes out in logs: w^{-2} = 0 gave nan at b = 3
        w = 6.3e136**2
        want = w - 2.0 * math.log(w) + math.log(2.0)  # one direction at a = 1/2
        assert sf.ml_log(0.5, 3.0, 6.3e136) == pytest.approx(want, rel=1e-15)

    def test_rejects_bad_order(self):
        for a, b in ((0.0, 1.0), (math.nan, 1.0), (math.inf, 1.0), (1.5, math.nan), (1.5, math.inf)):
            with pytest.raises(ValidationError):
                sf.ml_log(a, b, 10.0)
        with pytest.raises(ValidationError):
            sf.ml_log(1.5, 1, math.nan)


def _sin_power_oracle(alpha, b):
    """Independent route: quadrature on [0, u0] after u = xi^{alpha/2} plus
    the mean tail and a 2-term oscillatory remainder."""
    p = 2.0 / alpha - 3.0  # integrand (2/alpha) sin^2(b u) u^p du
    u0 = 4000.0
    val = 0.0
    lo = 0.0
    while lo < u0 - 1e-9:
        hi = min(lo + 40.0, u0)
        v, _ = integrate.quad(
            lambda u: math.sin(b * u) ** 2 * u**p, lo, hi, limit=300
        )
        val += v
        lo = hi
    # sin^2 = 1/2 - cos(2bu)/2; mean part explicit, oscillatory by parts
    tail = -0.5 * u0 ** (p + 1.0) / (p + 1.0)
    w = 2.0 * b
    tail -= 0.5 * (
        -(u0**p) * math.sin(w * u0) / w - p * u0 ** (p - 1.0) * math.cos(w * u0) / w**2
    )
    return (2.0 / alpha) * (val + tail)


class TestSinPowerIntegral:
    def test_alpha_two(self):
        assert rel(sf.sin_power_integral(2.0, 1.0), math.pi / 2.0) < 1e-15

    def test_alpha_four(self):
        # closed form with Gamma(-3/2) = 4 sqrt(pi)/3
        expected = (
            2.0 ** 1.5 / 4.0 * math.cos(math.pi / 4.0) * (4.0 * math.sqrt(math.pi) / 3.0)
        )
        got = sf.sin_power_integral(4.0, 1.0)
        assert rel(got, expected) < 1e-12
        assert abs(got - 1.1816359006036774) < 1e-10

    @given(st.floats(min_value=1.1, max_value=6.0))
    def test_scaling_in_b(self, alpha):
        r = sf.sin_power_integral(alpha, 2.0) / sf.sin_power_integral(alpha, 1.0)
        assert rel(r, 2.0 ** (2.0 - 2.0 / alpha)) < 1e-10

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 4.0])
    def test_against_quadrature(self, alpha):
        got = sf.sin_power_integral(alpha, 1.3)
        assert rel(got, _sin_power_oracle(alpha, 1.3)) < 1e-5

    def test_domain(self):
        with pytest.raises(ValidationError):
            sf.sin_power_integral(1.0, 1.0)
        with pytest.raises(ValidationError):
            sf.sin_power_integral(3.0, -1.0)
