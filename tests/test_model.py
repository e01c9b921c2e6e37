import math
import time

import mpmath as mp
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import integrate, special

from spde_moments import diagrams as dg
from spde_moments import model as md
from spde_moments import moments as mm
from spde_moments import simulate as sim
from spde_moments import specialfn as sf
from spde_moments.errors import ConvergenceFailure, DalangViolated, InvalidParams, ResultOverflow
from spde_moments.model import KernelSign, ModelParams

import lemma_checks as lc


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


SHE = ModelParams(alpha=2, beta=1, gamma=0, lam=1, nu=1, dim=1)
SWE = ModelParams(alpha=2, beta=2, gamma=0, lam=1, nu=1, dim=1)


def sfhe_theta_closed(alpha, nu):
    return sf.gamma(1.0 + 1.0 / alpha) / (nu ** (1.0 / alpha) * math.pi)


def sfwe_theta_closed(alpha, nu):
    return (
        2.0 ** (2.0 - 1.0 / alpha)
        * math.cos(math.pi / alpha)
        * sf.gamma(2.0 * (1.0 / alpha - 1.0))
        / (nu ** (1.0 / alpha) * math.pi * alpha)
    )


class TestParams:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            ModelParams(alpha=0, beta=1)
        with pytest.raises(InvalidParams):
            ModelParams(alpha=2, beta=2.5)
        with pytest.raises(InvalidParams):
            ModelParams(alpha=2, beta=1, lam=0)
        with pytest.raises(InvalidParams):
            ModelParams(alpha=2, beta=1, dim=0)
        with pytest.raises(InvalidParams):
            ModelParams(alpha=2, beta=1, gamma=-0.1)

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_u1_needs_beta_above_one(self, beta):
        with pytest.raises(InvalidParams, match="u1 must be 0 for beta <= 1"):
            ModelParams(alpha=2, beta=beta, u1=0.5)
        assert ModelParams(alpha=2, beta=beta, u1=0.0).u1 == 0.0
        assert ModelParams(alpha=2, beta=1.01, u1=0.5).u1 == 0.5

    def test_kv_roundtrip(self):
        p = ModelParams(alpha=2.5, beta=1.3, gamma=0.2, lam=-1.5, nu=3.0, dim=2, u0=0.5, u1=2.0)
        text = "".join(f"{k}={v!r}\n" for k, v in md.params_to_dict(p).items())
        assert md.params_from_kv(text) == p

    def test_kv_defaults_and_errors(self):
        p = md.params_from_kv("alpha=2\nbeta=1\n# comment\n\n")
        assert p == ModelParams(alpha=2, beta=1)
        with pytest.raises(InvalidParams):
            md.params_from_kv("alpha=2")
        with pytest.raises(InvalidParams):
            md.params_from_kv("alpha=2\nbeta=1\nbogus=3")
        with pytest.raises(InvalidParams):
            md.params_from_kv("alpha 2\nbeta=1")
        with pytest.raises(InvalidParams):
            md.params_from_kv("alpha=2\nbeta=1\ndim=1.5")

    @pytest.mark.parametrize("dim", [2.0, True, 1.5, 0])
    def test_dim_is_an_integer(self, dim):
        # one integer rule: a float or a bool dim no longer reaches params_to_dict
        with pytest.raises(InvalidParams, match=f"^dim must be an integer >= 1, got {dim!r}$"):
            ModelParams(alpha=3, beta=1, dim=dim)

    def test_kv_dim_is_read_as_an_integer(self):
        p = md.params_from_kv("alpha=3\nbeta=1\ndim=2.0")
        assert type(p.dim) is int and p.dim == 2
        with pytest.raises(InvalidParams, match="^dim must be an integer >= 1, got 1.5$"):
            md.params_from_kv("alpha=2\nbeta=1\ndim=1.5")


_CFG = dict(dx=0.1, dt=0.01, domain_half_width=1.0, t_end=1.0, n_paths=4, seed=0)

# (site, name, zero allowed, call of the argument): every scalar check of a
# time, length, tolerance or scale, with the message of model._require_positive
_POSITIVE_ARGS = [
    ("t_hat", "t", False, lambda v: md.derived_constants(SHE).t_hat(v)),
    ("t_p", "t", False, lambda v: md.t_p(SHE, v, 2.0)),
    ("kernel_ft-t", "t", False, lambda v: md.kernel_ft(SHE, v, 1.0)),
    ("kernel_ft-r", "r", True, lambda v: md.kernel_ft(SHE, 1.0, v)),
    ("j0", "t", True, lambda v: md.j0(SHE, v)),
    ("chaos_term", "t", False, lambda v: dg.chaos_term(SHE, v, 1)),
    ("chaos_term_mc", "t", False, lambda v: dg.chaos_term_mc(SHE, v, 1, 4, 0)),
    ("exp_tail_facts", "a", False, lambda v: lc.exp_tail_facts(10, v)),
    ("she_second_moment", "t", True, lambda v: mm.she_second_moment(1.0, 1.0, 1.0, v)),
    ("swe_second_moment", "t", True, lambda v: mm.swe_second_moment(1.0, 1.0, 1.0, 0.0, v)),
    ("volterra", "rtol", False, lambda v: mm.volterra_second_moment(SHE, [0.1, 0.2], rtol=v)),
    ("wave_overlap", "eps", False, lambda v: lc.wave_overlap(v, 0.2, 0.2, 0.0, 0.0, 0.0)),
] + [
    (f"SimConfig-{name}", name, False, lambda v, name=name: sim.SimConfig(**{**_CFG, name: v}))
    for name in ("dx", "dt", "domain_half_width", "t_end")
]


class TestArgumentRules:
    @pytest.mark.parametrize(
        "site,name,zero_ok,call", _POSITIVE_ARGS, ids=[a[0] for a in _POSITIVE_ARGS]
    )
    def test_positive_and_finite(self, site, name, zero_ok, call):
        for v in (-1.0, math.inf, math.nan) + (() if zero_ok else (0.0,)):
            sign = ">=" if zero_ok else ">"
            with pytest.raises(InvalidParams) as info:
                call(v)
            assert str(info.value) == f"{name} must be {sign} 0 and finite, got {v}"

    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda: dg.chaos_term(SHE, 1.0, True), id="chaos_term-k"),
            pytest.param(lambda: lc.stirling_sandwich_holds(True), id="stirling-n"),
            pytest.param(lambda: dg.Partition((True, 1)), id="partition-entry"),
            pytest.param(lambda: sim.SimConfig(**{**_CFG, "seed": True}), id="SimConfig-seed"),
        ],
    )
    def test_bool_is_not_an_integer(self, call):
        with pytest.raises(InvalidParams, match="must be an integer .*, got True$"):
            call()


class TestDalang:
    def test_examples(self):
        assert md.dalang_satisfied(SHE)
        assert not md.dalang_satisfied(ModelParams(2, 1, 0, 1, 1, 2))
        assert md.dalang_satisfied(SWE)
        assert not md.dalang_satisfied(ModelParams(2, 2, 0, 1, 1, 2))
        assert not md.dalang_satisfied(ModelParams(2, 0.6, 0, 1, 1, 1))
        assert md.dalang_satisfied(ModelParams(2, 0.7, 0, 1, 1, 1))

    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.05, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=1, max_value=5),
        st.floats(min_value=0.05, max_value=2.0),
    )
    def test_monotone(self, alpha, beta, gamma, dim, bump):
        p = ModelParams(alpha=alpha, beta=beta, gamma=gamma, dim=dim)
        if md.dalang_satisfied(p):
            assert md.dalang_satisfied(ModelParams(alpha=alpha + bump, beta=beta, gamma=gamma, dim=dim))
            assert md.dalang_satisfied(ModelParams(alpha=alpha, beta=beta, gamma=gamma + bump, dim=dim))
        else:
            assert not md.dalang_satisfied(ModelParams(alpha=alpha, beta=beta, gamma=gamma, dim=dim + 1))

    @pytest.mark.parametrize(
        "p,bound",
        [
            (ModelParams(2, 1), 2.0),
            (ModelParams(2, 0.5, 0.25), 2.0),
            (ModelParams(3, 1.5, 0.7), 6.0),
            (ModelParams(2, 2), 2.0),
            (ModelParams(1.5, 2, 0.5), 2.25),
        ],
    )
    def test_bound(self, p, bound):
        # beta < 2: 2 alpha + (alpha/beta) min(2 gamma - 1, 0);
        # beta = 2: alpha min(2, 1 + gamma)
        assert md.dalang_bound(p) == bound
        for d in range(1, 8):
            q = ModelParams(p.alpha, p.beta, p.gamma, dim=d)
            assert md.dalang_satisfied(q) == (d < bound)
            if p.beta == 2:
                assert md.theta_integral_finite(q) == (d < bound)

    @given(
        st.floats(min_value=0.3, max_value=4.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.5),
        st.integers(min_value=1, max_value=4),
    )
    def test_dalang_implies_theta_finite(self, alpha, beta, gamma, dim):
        p = ModelParams(alpha=alpha, beta=beta, gamma=gamma, dim=dim)
        assume(md.dalang_satisfied(p))
        assert md.theta(p) > -1.0
        assert md.theta_integral_finite(p)


class TestTheta:
    def test_examples(self):
        assert md.theta(SHE) == -0.5
        assert md.theta(SWE) == 1.0
        assert rel(md.theta(ModelParams(3, 2, 0, 1, 1, 1)), 4.0 / 3.0) < 1e-15


class TestKernelFt:
    def test_zero_frequency(self):
        assert md.kernel_ft(SHE, 1.0, 0.0) == 1.0

    @given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=0.0, max_value=4.0))
    def test_she_gaussian(self, t, r):
        assert rel(md.kernel_ft(SHE, t, r), math.exp(-t * r * r / 2.0)) < 1e-9

    @given(st.floats(min_value=0.1, max_value=2.0), st.floats(min_value=0.01, max_value=6.0))
    def test_swe_sinc(self, t, r):
        p = ModelParams(2, 2, 0, 1, 2, 1)
        assert abs(md.kernel_ft(p, t, r) - math.sin(t * r) / r) < 1e-9

    @given(
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.2, max_value=2.0),
    )
    def test_zero_frequency_formula(self, alpha, beta, gamma, t):
        p = ModelParams(alpha=alpha, beta=beta, gamma=gamma)
        want = t ** (beta + gamma - 1.0) * sf.rgamma(beta + gamma)
        assert rel(md.kernel_ft(p, t, 0.0), want) < 1e-12

    def test_powers_past_the_range_meet_in_logs(self):
        # t^{1.5} = 1e375 overflows, the kernel is 2.26e145: E_{1,b}(z) = 1F1(1; b; z)/Gamma(b)
        p = ModelParams(2, 1, gamma=1.5)
        x = mp.mpf(0.5) * mp.mpf(1e250) * mp.mpf(1e-10) ** 2
        want = mp.mpf(1e250) ** 1.5 * mp.hyp1f1(1, 2.5, -x) / mp.gamma(2.5)
        assert rel(md.kernel_ft(p, 1e250, 1e-10), float(want)) < 1e-12

    def test_argument_past_the_range(self):
        # r^alpha = 1e400: a package error, not a raw OverflowError
        with pytest.raises(ResultOverflow, match="exceeds the double range"):
            md.kernel_ft(SHE, 1.0, 1e200)


class TestBigTheta:
    def test_she_closed(self):
        for nu in (1.0, 2.5):
            p = ModelParams(2, 1, 0, 1, nu, 1)
            assert rel(md.big_theta(p), 1.0 / math.sqrt(4 * math.pi * nu)) < 1e-6

    def test_swe_closed(self):
        for nu in (1.0, 2.5):
            p = ModelParams(2, 2, 0, 1, nu, 1)
            assert rel(md.big_theta(p), 1.0 / math.sqrt(2 * nu)) < 1e-6

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0, 5.0])
    def test_sfhe_closed(self, alpha):
        for nu in (1.0, 2.5):
            p = ModelParams(alpha, 1, 0, 1, nu, 1)
            assert rel(md.big_theta(p), sfhe_theta_closed(alpha, nu)) < 1e-6

    @pytest.mark.parametrize("alpha", [1.5, 3.0])
    def test_sfwe_closed(self, alpha):
        # the alpha = 2 slice is the wave case tested above
        p = ModelParams(alpha, 2, 0, 1, 1, 1)
        assert rel(md.big_theta(p), sfwe_theta_closed(alpha, 1.0)) < 1e-6

    def test_figure_datum(self):
        p = ModelParams(2, 0.5, 0, 1, 1, 1)
        assert abs(md.big_theta(p) - 0.0715941) < 1e-3

    @pytest.mark.parametrize(
        "beta,want",
        [
            (0.3, 0.02415095662966464),
            (0.7, 0.14338982583729987),
            (1.2, 0.38124926527388403),
        ],
    )
    def test_reference_sweep_curve(self, beta, want):
        # frozen reference values for the alpha=2, gamma=0, nu=1 sweep
        got = md.big_theta(ModelParams(2.0, beta, 0.0, 1, 1, 1))
        assert rel(got, want) < 1e-7

    @pytest.mark.parametrize(
        "beta,want",
        [
            (0.301, 0.22940119844876455),
            (1.301, 0.3374966151223352),
        ],
    )
    def test_reference_sweep_curve_smoothed(self, beta, want):
        # alpha=2, gamma = ceil(beta)-beta, nu=2 family
        gam = math.ceil(beta) - beta
        got = md.big_theta(ModelParams(2.0, beta, gam, 1, 2.0, 1))
        assert rel(got, want) < 1e-7

    @pytest.mark.parametrize(
        "family,beta,want",
        [
            ("sheswe", 0.3, 0.024150956629891095),
            ("sheswe", 0.8, 0.18660202991830174),
            ("sheswe", 1.2, 0.38124926527102937),
            ("tfspde", 0.3, 0.22946522999981558),
            ("tfspde", 1.2, 0.32804053077345713),
            ("tfspde", 1.5, 0.35965399114810365),
            ("sheswe", 0.6000000000000001, 0.10474282151815516),
            ("sheswe", 1.9, math.sqrt(2.0) / math.pi * 1.454746545951),
            ("sheswe", 1.95, math.sqrt(2.0) / math.pi * 1.497028335733),
            ("sheswe", 1.99, math.sqrt(2.0) / math.pi * 1.546397822282),
            ("sheswe", 1.999, math.sqrt(2.0) / math.pi * 1.566687467276),
        ],
    )
    def test_frozen_off_anchor_values(self, family, beta, want):
        # sheswe is alpha = 2, gamma = 0, nu = 1; tfspde is alpha = 2,
        # gamma = ceil(beta) - beta, nu = 2.  The first six were computed
        # when the mpmath series was the only fallback of ml and frozen to
        # 17 digits.  At the figure-grid beta = 0.6000000000000001, b - 11 beta
        # sits next to the Gamma pole at -6: the 11th algebraic coefficient
        # is -1.3e-12 and the 12th -689, so the cut must bound both (value
        # within 1e-15 of the old quadrature run at 1e-14 tolerances).  From
        # beta = 1.9: sqrt(2)/pi times the reference J of quad on panels of
        # width pi/sin(pi/beta) in u = r^{alpha/beta}, carried on until the
        # saddle damping e^{-2cu} < 1e-16, plus the algebraic tail (12 digits).
        gam, nu = (0.0, 1.0) if family == "sheswe" else (math.ceil(beta) - beta, 2.0)
        got = md.big_theta(ModelParams(2.0, beta, gam, 1, nu, 1))
        assert rel(got, want) < 1e-10

    def test_oscillatory_route_matches_closed_form(self):
        # the general quadrature at beta = 2, which big_theta sends to the
        # sine-integral closed form; alpha = 1.05 has the slowest decay,
        # u^{2/alpha - 3}, and needs the undamped tail piece to be a power law
        for alpha in (1.05, 1.5, 2.0, 3.0):
            jw = md._radial_j(alpha, 2.0, 0.0, 1)
            jc = sf.sin_power_integral(alpha, 1.0)
            assert rel(jw, jc) < 1e-12

    @pytest.mark.parametrize(
        "alpha,gam,d,want",
        [
            # int_0^inf sin^2(u) u^{-3/2} du / 2 = sqrt(pi)/2
            (4.0, 0.0, 3, math.sqrt(math.pi) / 2.0),
            (2.0, 0.5, 1, 1.0),
            (2.0, 1.5, 1, 2.0 / 9.0),
        ],
    )
    def test_wave_exact_j(self, alpha, gam, d, want):
        assert rel(md._radial_j(alpha, 2.0, gam, d), want) < 1e-12

    @pytest.mark.parametrize("family", ["sheswe", "tfspde"])
    def test_continuous_at_wave(self, family):
        # the saddle terms' damping e^{-cu}, c = -cos(pi/beta), vanishes as
        # beta -> 2-; tfspde has gamma = 2 - beta there
        nu = 1.0 if family == "sheswe" else 2.0

        def theta_at(beta):
            gam = 0.0 if family == "sheswe" else 2.0 - beta
            return md.big_theta(ModelParams(2.0, beta, gam, 1, nu, 1))

        assert rel(theta_at(2.0 - 1e-6), theta_at(2.0)) < 1e-5

    def test_wave_gamma_positive(self):
        # beta = 2 with smoothing; value cross-checked by brute period sums
        p = ModelParams(2, 2, 0.5, 1, 2, 1)
        assert rel(md.big_theta(p), 1.0 / math.pi) < 1e-7

    def test_divergent_raises(self):
        with pytest.raises(DalangViolated):
            md.big_theta(ModelParams(alpha=0.2, beta=1, gamma=1.0, dim=1))

    def test_outside_dalang_but_integrable(self):
        # theta <= -1 here, yet the spectral integral converges
        p = ModelParams(2, 0.5, 0, 1, 1, 1)
        assert not md.dalang_satisfied(p)
        assert md.theta_integral_finite(p)
        assert md.big_theta(p) > 0

    def test_small_beta_raises_promptly(self):
        # at beta = 0.005 the Mittag-Leffler values inside the head
        # quadrature are beyond both the contour and the mpmath series
        start = time.perf_counter()
        with pytest.raises(ConvergenceFailure):
            md.big_theta(ModelParams(2, 0.005))
        assert time.perf_counter() - start < 30.0

    def test_smallest_default_figure_beta(self):
        # the first row of the `figures` default beta grid
        assert rel(md.big_theta(ModelParams(2, 0.01)), 2.228750186627787e-05) < 1e-13

    @pytest.mark.parametrize(
        "beta, gam, want",
        [
            # beta = 1: J = int_0^inf (1F1(1; b; -r^2)/Gamma(b))^2 dr, b = 1 +
            # gamma, by mpmath at 50 digits on [0, R] plus the exact algebraic
            # tail beyond R (R = 40 and 60 agree to 1e-16)
            (1.0, 20.0, 6.008391485605343850869e-37),
            (1.0, 40.0, 7.50823118414928972555e-96),
            (1.0, 60.0, 8.823126704929773446209e-164),
            # beta = 1.5: the power series in mpmath on [0, 30] plus the
            # algebraic tail (R = 26 and 30 agree to 1e-14)
            (1.5, 40.0, 4.6911525307158377086e-97),
        ],
    )
    def test_large_gamma(self, beta, gam, want):
        # J ~ 1/Gamma(beta + gamma)^2, far below the head quadrature's
        # absolute tolerance, and E_{beta,b} beyond the default switch radius
        assert rel(md._radial_j(2.0, beta, gam, 1), want) < 1e-10
        assert rel(md.big_theta(ModelParams(2, beta, gam)), math.sqrt(2.0) / math.pi * want) < 1e-10

    def test_memoized_deterministic(self):
        p = ModelParams(2, 1.3, 0, 1, 1, 1)
        assert md.big_theta(p) == md.big_theta(p)


_C19, _S19 = -math.cos(math.pi / 1.9), math.sin(math.pi / 1.9)


class TestTailPiece:
    # int_u^inf t^p e^{lam t} dt against 30-digit mpmath quadrature, for the
    # lam of the tail of _radial_j at beta = 1.9 (c = _C19, s = _S19) and at
    # beta = 2 (c = 0); each lam on both sides of the switch from gammainc
    # to integration by parts at |lam| u = _IBP_MIN = 20
    @pytest.mark.parametrize(
        "p,lam,u",
        [
            (-2.3, 0j, 29.0),
            (-2.3, complex(-2 * _C19, 0.0), 29.0),
            (-2.3, complex(-2 * _C19, 0.0), 200.0),
            (-4.1, complex(-_C19, _S19), 10.0),
            (-4.1, complex(-_C19, -_S19), 29.0),
            (-3.0, complex(-2 * _C19, 2 * _S19), 5.0),
            (-3.0, complex(-2 * _C19, -2 * _S19), 29.0),
            (-2.0, 1j, 10.0),
            (-2.0, -1j, 29.0),
            (-3.0, 2j, 5.0),
            (-3.0, -2j, 29.0),
        ],
    )
    def test_matches_mpmath(self, p, lam, u):
        got, err = md._tail_piece(p, lam, u)
        with mp.workdps(30):
            if lam == 0:
                want = mp.quad(lambda t: t**p, [u, mp.inf])
            else:
                omega = max(abs(lam.imag), 0.5)
                want = mp.quadosc(lambda t: t**p * mp.exp(lam * t), [u, mp.inf], omega=omega)
        want = complex(want)
        assert err <= 1e-6 * abs(want)
        assert abs(got - want) <= err + 1e-13 * abs(want)

    @pytest.mark.parametrize("p", [-1.0, -0.5])
    def test_divergent_power_law_raises(self, p):
        with pytest.raises(DalangViolated):
            md._tail_piece(p, 0j, 29.0)


class TestDerived:
    def test_constants_she(self):
        dc = md.derived_constants(SHE)
        assert dc.theta == -0.5
        assert rel(dc.lyapunov_base, math.sqrt(math.pi) / math.sqrt(4 * math.pi)) < 1e-9

    def test_dalang_gate(self):
        p = ModelParams(2, 0.5, 0, 1, 1, 1)
        want = "Dalang's condition fails for alpha=2, beta=0.5, gamma=0, d=1"
        for call in (
            lambda: md.derived_constants(p),
            lambda: md.t_p(p, 1.0, 2.0),
        ):
            with pytest.raises(DalangViolated) as info:
                call()
            assert str(info.value) == want

    def test_t_hat_method(self):
        dc = md.derived_constants(SWE)
        with pytest.raises(InvalidParams):
            dc.t_hat(0.0)

    def test_lambda_overflow_reported(self):
        # at (1.05, 1) lambda^2 = 1.69e308 fits and the base does not: the
        # record never holds an infinity
        for p in (ModelParams(2, 1, lam=1e200), ModelParams(1.05, 1, lam=1.3e154)):
            with pytest.raises(ResultOverflow, match="^lambda\\^2 Theta Gamma"):
                md.derived_constants(p)

    def test_bits_of_the_log_route(self):
        # theta = 179.5: Gamma(180.5) overflows, so the base and t_hat are met
        # in logs; a tiny Theta brings them back into the double range
        dc = md.derived_constants(ModelParams(2, 1, gamma=90))
        assert dc.lyapunov_base.hex() == "0x1.e7859800eb98bp+173"
        pins = {0.25: "0x1.e7859800eb9d9p-188", 1.0: "0x1.e7859800eb98bp+173",
                3.0: "0x1.02af7206f7475p+460"}
        assert {t: dc.t_hat(t).hex() for t in pins} == pins

    @given(st.floats(min_value=0.05, max_value=10.0), st.floats(min_value=0.3, max_value=4.0))
    def test_t_hat_she(self, t, nu):
        p = ModelParams(2, 1, 0, 1, nu, 1)
        assert rel(md.derived_constants(p).t_hat(t), math.sqrt(t) / math.sqrt(4 * nu)) < 1e-8

    @given(st.floats(min_value=0.05, max_value=10.0), st.floats(min_value=2.0, max_value=20.0))
    def test_t_p_powers(self, t, pp):
        assert rel(md.t_p(SHE, t, pp), pp**3 * t) < 1e-12
        assert rel(md.t_p(SWE, t, pp), pp**1.5 * t) < 1e-12

    def test_t_p_order_checked(self):
        # as in pth_moment_upper and pth_lyapunov_upper: 2 <= p < inf
        for pp in (-1.0, 0.5, 1.0, math.inf, math.nan):
            with pytest.raises(InvalidParams, match="moment order"):
                md.t_p(SHE, 0.7, pp)
        assert md.t_p(SHE, 0.7, 2.0) == 8.0 * 0.7


def l2_norm_kernel_quad(p: ModelParams, s: float) -> float:
    """|p(s, .)|_2^2 by quadrature of kernel_ft^2 over frequency, an
    independent check of Theta s^theta (beta < 2: algebraic kernel decay)."""
    d, b = p.dim, p.beta + p.gamma
    c = 0.5 * p.nu * s**p.beta  # x = c r^alpha
    # quadrature up to x = 300 times ml's switch radius; past it the tail of
    # E(-x) ~ c1/x + c2/x^2, c1 = 1/Gamma(b - beta), c2 = -1/Gamma(b - 2 beta)
    r_big = max(4.0, (300.0 * sf._series_radius(p.beta, b) / c) ** (1.0 / p.alpha))
    val, _ = integrate.quad(
        lambda r: md.kernel_ft(p, s, r) ** 2 * r ** (d - 1),
        0.0, r_big, epsabs=1e-14, epsrel=1e-11, limit=400,
    )
    c1, c2 = special.rgamma(b - p.beta), -special.rgamma(b - 2.0 * p.beta)
    pref = s ** (2.0 * (b - 1.0))
    tail = 0.0
    for coeff, k in ((c1 * c1, 2), (2 * c1 * c2, 3), (c2 * c2, 4)):
        power = k * p.alpha
        if coeff and power > d:
            tail += coeff * c ** (-k) * r_big ** (d - power) / (power - d)
    sphere = 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
    return (2.0 * math.pi) ** (-d) * sphere * (val + pref * tail)


def theta_s(p: ModelParams, s: float) -> float:
    return md.big_theta(p) * s ** md.theta(p)


class TestL2NormKernel:
    def test_she_value(self):
        assert rel(theta_s(SHE, 1.0), 1.0 / math.sqrt(4 * math.pi)) < 1e-8
        assert rel(l2_norm_kernel_quad(SHE, 1.0), 1.0 / math.sqrt(4 * math.pi)) < 1e-8

    @given(st.floats(min_value=0.05, max_value=5.0))
    def test_power_scaling(self, s):
        th = md.theta(SHE)
        assert rel(l2_norm_kernel_quad(SHE, 2 * s) / l2_norm_kernel_quad(SHE, s), 2.0**th) < 1e-10

    def test_swe_linear(self):
        p = ModelParams(2, 2, 0, 1, 2, 1)
        for s in (0.3, 1.0, 2.5):
            assert rel(theta_s(p, s), s / 2.0) < 1e-8

    @pytest.mark.parametrize(
        "p,s",
        [
            (SHE, 1.0),
            (ModelParams(2, 1.3, 0, 1, 1, 1), 0.7),
            (ModelParams(1.5, 0.8, 0.2, 1, 1, 1), 1.4),
        ],
    )
    def test_quadrature_cross_check(self, p, s):
        assert rel(theta_s(p, s), l2_norm_kernel_quad(p, s)) < 1e-7

    def test_constant_ratio_over_decades(self):
        p = ModelParams(3, 1.3, 0, 1, 1, 1)
        th = md.theta(p)
        base = l2_norm_kernel_quad(p, 1.0)
        for s in (0.01, 0.1, 10.0):
            assert rel(l2_norm_kernel_quad(p, s) / s**th, base) < 1e-9


class TestJ0:
    def test_examples(self):
        assert md.j0(ModelParams(2, 1, 0, 1, 1, 1, u0=5.0), 7.0) == 5.0
        assert md.j0(ModelParams(2, 2, 0, 1, 1, 1, u0=1.0, u1=2.0), 3.0) == 7.0
        assert md.j0(ModelParams(2, 1, 0, 1, 1, 1, u0=4.0), 0.0) == 4.0
        assert md.j0(ModelParams(2, 2, 0, 1, 1, 1, u0=4.0, u1=9.0), 0.0) == 4.0


class TestNonnegLookup:
    def test_examples(self):
        assert md.kernel_nonneg_known(ModelParams(2, 1, 0, 1, 1, 3)) is KernelSign.NONNEGATIVE
        assert md.kernel_nonneg_known(ModelParams(2, 2, 0, 1, 1, 1)) is KernelSign.NONNEGATIVE
        assert md.kernel_nonneg_known(ModelParams(3, 2, 0, 1, 1, 1)) is KernelSign.UNKNOWN

    def test_smoothing_cases(self):
        # 1 < beta < alpha <= 2 with gamma > 0, low dimension
        assert md.kernel_nonneg_known(ModelParams(2, 1.5, 0.3, 1, 1, 2)) is KernelSign.NONNEGATIVE
        # beta = alpha in (1,2) needs enough smoothing
        assert md.kernel_nonneg_known(ModelParams(1.5, 1.5, 1.1, 1, 1, 1)) is KernelSign.NONNEGATIVE
        assert md.kernel_nonneg_known(ModelParams(1.5, 1.5, 0.2, 1, 1, 1)) is KernelSign.UNKNOWN
