import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spde_moments import cli
from spde_moments import moments as mm
from spde_moments.errors import DalangViolated, InvalidParams, ResultOverflow, StepTooCoarse
from spde_moments.model import ModelParams, dalang_satisfied, derived_constants, j0, theta


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def pth_upper_or_inf(p, t, pp):
    """The p-th moment bound, an overflowing one ordered as +inf."""
    try:
        return mm.pth_moment_upper(p, t, pp)
    except ResultOverflow:
        return math.inf


SHE = ModelParams(alpha=2, beta=1, gamma=0, lam=1, nu=1, dim=1, u0=1)
SWE_NU2 = ModelParams(alpha=2, beta=2, gamma=0, lam=1, nu=2, dim=1, u0=1, u1=1)

# the six-case sweep: beta in {0.8, 1, 1.3, 2}, alpha in {1.5, 2, 3},
# gamma in {0, 1 - beta clipped at 0}
SWEEP = [
    ModelParams(2.0, 1.0, 0.0, 1, 1, 1, u0=1.0),
    ModelParams(3.0, 1.0, 0.0, 1, 1, 1, u0=0.8),
    ModelParams(1.5, 0.8, 0.2, 1, 1, 1, u0=1.2),
    ModelParams(2.0, 1.3, 0.0, 1, 1, 1, u0=1.0, u1=0.5),
    ModelParams(2.0, 2.0, 0.0, 1, 1, 1, u0=1.0, u1=1.0),
    ModelParams(3.0, 1.3, 0.0, 1, 1, 1, u0=1.0, u1=1.0),
]


class TestClosedForms:
    def test_she_value(self):
        # 2 u0^2 e^{t/4} Phi(sqrt(t/2)) at t = 0.3, frozen from the erf oracle
        assert rel(mm.she_second_moment(1, 1, 1, 0.3), 1.402828110221577) < 1e-12

    def test_she_at_zero(self):
        assert mm.she_second_moment(1, 1, 1.5, 0.0) == 1.5**2

    def test_swe_cosh_value(self):
        assert rel(mm.swe_second_moment(2, 1, 1, 0, 0.5), math.cosh(0.5 / math.sqrt(2))) < 1e-12

    def test_swe_u1_value(self):
        # frozen from a 30-digit evaluation of the hyperbolic closed form
        assert rel(mm.swe_second_moment(2, 1, 1, 1, 1.0), 4.4738424651519946) < 1e-12

    def test_swe_small_lambda_audit(self):
        # (cosh(x) - 1)/lambda^2 through sinh(x/2): the form -c + (u0^2 + c)
        # cosh(x), c ~ u1^2/lambda^2, cancelled to 2.0 where (u0 + u1 t)^2 = 4
        assert rel(mm.swe_second_moment(2, 1e-8, 1, 1, 1), 4.0) < 1e-13
        assert mm.swe_second_moment(2, 1e-200, 1, 1, 1e-300) == 1.0
        rng = random.Random(0)
        bad = []
        for _ in range(3000):
            nu = 10.0 ** rng.uniform(-1.0, 1.0)
            lam = math.copysign(10.0 ** rng.uniform(-8.0, 1.0), rng.random() - 0.5)
            u0, u1 = rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0)
            t = 10.0 ** rng.uniform(-3.0, 1.0)
            want = mm.second_moment(ModelParams(2, 2, lam=lam, nu=nu, u0=u0, u1=u1), t)
            if rel(mm.swe_second_moment(nu, lam, u0, u1, t), want) > 1e-13:
                bad.append((nu, lam, u0, u1, t))
        assert not bad, f"{len(bad)} of 3000 (nu, lam, u0, u1, t) miss 1e-13: {bad[:5]}"

    def test_swe_without_velocity_is_u0_squared_cosh(self):
        # bit for bit at u1 = 0, the Monte Carlo checks' oracle
        for nu, lam, u0 in ((2.0, 1.0, 1.0), (1.0, -0.3, 1.7), (0.5, 4.0, 0.2)):
            for k in range(200):
                x = abs(lam) * (0.05 * k) / (2.0 * nu) ** 0.25
                assert mm.swe_second_moment(nu, lam, u0, 0.0, 0.05 * k) == u0 * u0 * math.cosh(x)

    @pytest.mark.parametrize(
        "call, args",
        [
            (mm.she_second_moment, (math.nan, 1, 1, 1)),
            (mm.she_second_moment, (1, math.nan, 1, 1)),
            (mm.she_second_moment, (1, 1, math.inf, 1)),
            (mm.swe_second_moment, (1, math.nan, 1, 0, 1)),
            (mm.swe_second_moment, (1, 1, 1, -math.inf, 1)),
            (mm.she_exact_pth_lyapunov, (math.nan, 3)),
        ],
    )
    def test_non_finite_parameters_rejected(self, call, args):
        # the raw-float closed forms apply ModelParams' checks
        with pytest.raises(InvalidParams):
            call(*args)

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_generic_matches_she(self, t):
        assert rel(mm.second_moment(SHE, t), mm.she_second_moment(1, 1, 1, t)) < 1e-9

    @given(st.floats(min_value=0.01, max_value=5.0))
    def test_generic_matches_swe(self, t):
        got = mm.second_moment(SWE_NU2, t)
        want = mm.swe_second_moment(2, 1, 1, 1, t)
        assert rel(got, want) < 1e-9

    @given(st.floats(min_value=0.01, max_value=5.0), st.floats(min_value=0.3, max_value=3.0))
    def test_generic_matches_swe_other_nu(self, t, nu):
        p = ModelParams(2, 2, 0, 1.3, nu, 1, u0=0.7, u1=0.4)
        assert rel(mm.second_moment(p, t), mm.swe_second_moment(nu, 1.3, 0.7, 0.4, t)) < 1e-9

    def test_t_to_zero_limit(self):
        for p in (SHE, SWE_NU2):
            assert rel(mm.second_moment(p, 1e-12), p.u0**2) < 1e-5

    def test_dominates_squared_mean(self):
        from spde_moments.model import j0

        for p in SWEEP:
            for t in (0.2, 1.0, 2.0):
                assert mm.second_moment(p, t) >= j0(p, t) ** 2 - 1e-12

    @given(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.1, max_value=2.4))
    def test_monotone_in_time(self, t, dt):
        for p in (SHE, SWE_NU2):
            assert mm.second_moment(p, t + dt) >= mm.second_moment(p, t) - 1e-12


class TestLyapunov:
    def test_she_tick(self):
        assert rel(mm.second_lyapunov(ModelParams(2, 1, 0, 1, 2, 1)), 0.125) < 1e-9

    @given(st.floats(min_value=0.3, max_value=3.0), st.floats(min_value=0.2, max_value=2.0))
    def test_she_general(self, nu, lam):
        p = ModelParams(2, 1, 0, lam, nu, 1)
        assert rel(mm.second_lyapunov(p), lam**4 / (4 * nu)) < 1e-8

    def test_swe_tick(self):
        assert rel(mm.second_lyapunov(ModelParams(2, 2, 0, 1, 1, 1)), 2.0**-0.25) < 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.5, 4.0])
    def test_sfwe_formula(self, alpha):
        p = ModelParams(alpha, 2, 0, 1.2, 1.7, 1)
        lam, nu = 1.2, 1.7
        want = (
            2.0 ** (1.0 - 1.0 / alpha)
            * lam**2
            / (nu ** (1.0 / alpha) * math.sin(math.pi / alpha) * alpha)
        ) ** (alpha / (3.0 * alpha - 2.0))
        assert rel(mm.second_lyapunov(p), want) < 1e-8

    @pytest.mark.parametrize("p", [SHE, SWEEP[2], SWEEP[3], SWE_NU2])
    def test_log_matches_small_time(self, p):
        # small t keeps z inside ml's switch radius: ml_log's series branch
        for t in (0.05, 0.5):
            assert abs(mm.second_moment_log(p, t) - math.log(mm.second_moment(p, t))) < 1e-12

    def test_log_at_extreme_times(self):
        # the u1 terms' logarithms are sums of logs: t^2 = 0 at t = 1e-300
        p = ModelParams(2, 2, u1=1)
        assert abs(mm.second_moment_log(p, 1e-300) - math.log(mm.second_moment(p, 1e-300))) < 1e-12
        with pytest.raises(ResultOverflow, match="^t_hat at t=1e[+]200 exceeds the double range$"):
            mm.second_moment_log(p, 1e200)

    @pytest.mark.parametrize(
        "p,budget",
        [
            (SHE, 0.02),
            (ModelParams(2, 2, 0, 1, 2, 1, u0=1, u1=1), 0.02),
            (ModelParams(3, 1, 0, 1, 1, 1), 0.02),
        ],
    )
    def test_log_ratio_converges(self, p, budget):
        rate = mm.second_lyapunov(p)
        t = 200.0 / rate
        got = mm.second_moment_log(p, t) / t
        assert abs(got - rate) / rate < budget


class TestPthBounds:
    def test_small_time_limit(self):
        # approach is O(sqrt t) for the heat slice
        assert rel(mm.pth_moment_upper(SHE, 1e-12, 3.0), 2.0 * SHE.u0**2) < 1e-4

    @given(st.floats(min_value=0.05, max_value=3.0), st.floats(min_value=2.0, max_value=12.0))
    def test_dominates_second_moment(self, t, pp):
        for p in (SHE, SWE_NU2):
            assert pth_upper_or_inf(p, t, 2.0) >= mm.second_moment(p, t)
            assert pth_upper_or_inf(p, t, pp) >= pth_upper_or_inf(p, t, 2.0)

    def test_monotone_in_t_and_p(self):
        for p in (SHE, SWE_NU2):
            b1 = [pth_upper_or_inf(p, t, 2.5) for t in (0.5, 1.0, 2.0)]
            assert b1 == sorted(b1)
            b2 = [pth_upper_or_inf(p, 1.0, pp) for pp in (2.0, 4.0, 8.0)]
            assert b2 == sorted(b2)

    def test_she_p2_value(self):
        # 2 E_{1/2}(8) = 4 e^{64} Phi(8 sqrt 2), frozen from the log-space oracle
        assert rel(mm.pth_moment_upper(SHE, 1.0, 2.0), 2.4940596323246468e28) < 1e-9

    def test_rate_exponents(self):
        assert rel(mm.pth_lyapunov_upper(SHE, 4.0) / mm.pth_lyapunov_upper(SHE, 2.0), 2.0**3) < 1e-10
        swe = ModelParams(2, 2, 0, 1, 1, 1)
        assert rel(mm.pth_lyapunov_upper(swe, 4.0) / mm.pth_lyapunov_upper(swe, 2.0), 2.0**1.5) < 1e-10
        sfhe = ModelParams(2, 1, 0, 1, 1, 1)
        want = 2.0 ** ((2 * 2.0 - 1) / (2.0 - 1))
        assert rel(mm.pth_lyapunov_upper(sfhe, 4.0) / mm.pth_lyapunov_upper(sfhe, 2.0), want) < 1e-10

    def test_she_exact_reference(self):
        assert mm.she_exact_pth_lyapunov(1.0, 2.0) == 0.25
        assert mm.she_exact_pth_lyapunov(1.0, 3.0) == 1.0
        assert mm.she_exact_pth_lyapunov(1e-6, 2.0) < 1e-22

    def test_exact_below_upper_rate(self):
        # the exact heat rate sits below the generic upper rate (nu = 1)
        for pp in np.linspace(2.0, 50.0, 25):
            assert mm.she_exact_pth_lyapunov(1.0, pp) <= mm.pth_lyapunov_upper(SHE, pp)

    def test_lyapunov_bound_overflow(self):
        # theta + 1 = 0.002: the rate's power exceeds the double range
        with pytest.raises(ResultOverflow):
            mm.pth_lyapunov_upper(ModelParams(2, 0.668), 2)

    def test_order_validation(self):
        with pytest.raises(InvalidParams):
            mm.pth_moment_upper(SHE, 1.0, 1.5)
        with pytest.raises(InvalidParams):
            mm.she_exact_pth_lyapunov(1.0, 1.0)


def _same_bits(values, ref):
    return np.array_equal(np.asarray(values).view(np.int64), np.asarray(ref, dtype=float).view(np.int64))


class TestSecondMomentGrid:
    """second_moment on a 1-D array against the scalar calls, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([(2.0, 1.0, 0.0), (3.0, 1.0, 0.0), (1.5, 0.8, 0.2), (2.0, 1.3, 0.0),
                         (2.0, 2.0, 0.0), (3.0, 1.3, 0.0), (2.0, 1.5, 0.0), (2.0, 0.9, 0.4)]),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.lists(st.floats(min_value=1e-3, max_value=80.0), min_size=1, max_size=40),
    )
    def test_matches_scalar_calls(self, shape, lam, u0, u1, ts):
        alpha, beta, gamma = shape
        p = ModelParams(alpha, beta, gamma, lam, 1.0, 1, u0=u0, u1=u1 if beta > 1 else 0.0)
        kept, want = [], []
        for t in ts:  # points whose value overflows are left out
            try:
                want.append(mm.second_moment(p, t))
            except ResultOverflow:
                continue
            kept.append(t)
        assert _same_bits(mm.second_moment(p, np.array(kept)), want)

    @pytest.mark.parametrize("p", SWEEP)
    def test_dense_grid_across_radius(self, p):
        # the closed form's argument runs past ml's switch radius
        grid = np.linspace(0.01, 40.0, 1500)
        try:
            want = [mm.second_moment(p, float(t)) for t in grid]
        except ResultOverflow:
            grid = grid[:400]
            want = [mm.second_moment(p, float(t)) for t in grid]
        assert _same_bits(mm.second_moment(p, grid), want)

    def test_overflow_names_first_point(self):
        grid = np.arange(1, 9) * 625.0
        with pytest.raises(ResultOverflow, match=r"at t=3125\.0 exceeds"):
            mm.second_moment(SHE, grid)

    def test_first_error_wins(self):
        # the per-point loop overflows at t = 3125 before it reaches t = -1
        with pytest.raises(ResultOverflow, match=r"t=3125\.0"):
            mm.second_moment(SHE, np.array([1.0, 3125.0, -1.0]))
        with pytest.raises(InvalidParams, match="t must be > 0"):
            mm.second_moment(SHE, np.array([1.0, 0.0, 3125.0]))

    @pytest.mark.parametrize("p", [ModelParams(2.0, 1.0, 90.0), ModelParams(2.0, 1.5, 90.0, u1=0.5)])
    def test_gamma_overflow(self, p):
        # theta + 1 = 180.5 and 181.25: Gamma(theta + 1) overflows, so the
        # grid's t_hat values come from t_hat's lgamma form point by point
        assert math.isinf(mm.sf.gamma(derived_constants(p).theta + 1.0))
        grid = np.linspace(0.01, 3.0, 300)
        assert _same_bits(mm.second_moment(p, grid), [mm.second_moment(p, float(t)) for t in grid])

    @pytest.mark.parametrize("p, t_max", [(p, 20.0) for p in SWEEP] + [(ModelParams(2.0, 1.0, 90.0), 3.0)])
    def test_t_hat_bits_match_scalar(self, p, t_max, monkeypatch):
        # the arguments handed to ml_array are lambda^2 t_hat(t) bit for bit
        seen = []
        ml_array = mm.sf.ml_array

        def spy(a, b, z):
            seen.append(np.array(z))
            return ml_array(a, b, z)

        monkeypatch.setattr(mm.sf, "ml_array", spy)
        dc = derived_constants(p)
        grid = np.concatenate([[5e-324, 1e-300], np.linspace(1e-3, t_max, 1200)])
        mm.second_moment(p, grid)
        want = [p.lam**2 * dc.t_hat(t) for t in grid.tolist()]
        assert seen and all(_same_bits(z, want) for z in seen)

    def test_shape(self):
        assert mm.second_moment(SHE, np.array([])).shape == (0,)
        with pytest.raises(InvalidParams):
            mm.second_moment(SHE, np.ones((2, 2)))


def _volterra_solve_negative_stride(p, h, n):
    """The Volterra loop with the history as a negative-stride view of eta,
    kept as the oracle of the contiguous one."""
    dc = derived_constants(p)
    kappa = p.lam**2 * dc.big_theta
    wl, wr = mm._volterra_weights(dc.theta, h, n)
    g = np.array([j0(p, (i + 1) * h) ** 2 for i in range(n)])
    eta = np.empty(n + 1)
    eta[0] = j0(p, 0.0) ** 2
    denom = 1.0 - kappa * wr[0]
    coefd = wl[:-1] + wr[1:]
    for step in range(1, n + 1):
        acc = wl[step - 1] * eta[0]
        if step >= 2:
            acc += float(np.dot(coefd[: step - 1], eta[step - 1 : 0 : -1]))
        eta[step] = (g[step - 1] + kappa * acc) / denom
    return eta[1:]


# lambda = 3 on [0, 8]: the values reach 4.6e70
_VOLTERRA_ORACLE_CASES = [(p, 2.0) for p in SWEEP] + [(ModelParams(2, 1, 0, 3, 1, 1), 8.0)]


def _max_rel(values, ref):
    return float(np.max(np.abs(values - ref) / np.abs(ref)))


class TestVolterraHistory:
    @pytest.mark.parametrize(
        "p,t_max", _VOLTERRA_ORACLE_CASES, ids=[f"p{i}" for i in range(len(_VOLTERRA_ORACLE_CASES))]
    )
    @pytest.mark.parametrize("n", [1999, 2048, 16384])
    def test_matches_negative_stride_loop(self, p, t_max, n):
        h = t_max / n
        got = mm._volterra_solve(p, derived_constants(p), h, n)
        assert _max_rel(got, _volterra_solve_negative_stride(p, h, n)) <= 1e-12

    @pytest.mark.parametrize("name", ["volterra_csv", "volterra_json_rtol", "volterra_u1_rtol"])
    def test_golden_values_match_loop(self, name):
        """Each value in the recorded CLI output agrees with the per-step
        loop within 1e-12 relative."""
        record = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
        ns = cli._build_parser().parse_args(record["argv"])
        p, grid = cli._resolve_params(ns), cli._moment_grid(ns)
        if ns.format == "json":
            values = np.array(json.loads(record["stdout"])["value"])
        else:
            values = np.array([float(row.split(",")[1]) for row in record["stdout"].splitlines()[2:]])
        assert values.size == grid.size
        # with rtol the CLI prints the half-step solve at the grid points
        halves = 1 if ns.rtol is None else 2
        ref = _volterra_solve_negative_stride(p, float(grid[0]) / halves, halves * grid.size)
        ref = ref[halves - 1 :: halves]
        assert _max_rel(values, ref) <= 1e-12

    def test_bits_independent_of_blas_threads(self):
        """The 16 384-step solve gives the same bytes on one and two BLAS
        threads (a per-step dot over the history does not: OpenBLAS threads
        long dots)."""
        script = (
            "import hashlib\n"
            "from spde_moments import moments as mm\n"
            "from spde_moments.model import ModelParams, derived_constants\n"
            "p = ModelParams(2, 1.3, 0, 1, 1, 1, u0=1, u1=0.5)\n"
            "eta = mm._volterra_solve(p, derived_constants(p), 2.0 / 16384, 16384)\n"
            "print(hashlib.sha256(eta.tobytes()).hexdigest())\n"
        )
        src = str(Path(mm.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
            )
            digests.append(run.stdout.strip())
        assert digests[0] == digests[1]


class TestVolterra:
    @pytest.mark.parametrize("p", SWEEP[:2] + SWEEP[4:5])
    def test_matches_closed_form(self, p):
        n = 1024
        grid = np.arange(1, n + 1) * (2.0 / n)
        curve = mm.volterra_second_moment(p, grid)
        for i in range(63, n, 64):
            cf = mm.second_moment(p, float(grid[i]))
            assert rel(curve.values[i], cf) < 1e-4

    def test_zero_noise_exact(self):
        p = ModelParams(2, 2, 0, 1e-13, 2, 1, u0=1, u1=2)
        grid = np.arange(1, 257) * (2.0 / 256)
        curve = mm.volterra_second_moment(p, grid)
        assert np.max(np.abs(curve.values - (1 + 2 * grid) ** 2)) < 1e-10

    def test_step_too_coarse(self):
        with pytest.raises(StepTooCoarse):
            mm.volterra_second_moment(SHE, np.arange(1, 17) * (2.0 / 16), rtol=1e-6)

    def test_first_panel_names_largest_step(self):
        p = ModelParams(2, 0.7, 0, 1, 1, 1)  # theta = -0.95
        with pytest.raises(StepTooCoarse, match=r"h=0\.01 is above h_max=1\.87421e-09"):
            mm.volterra_second_moment(p, np.arange(1, 201) * 0.01)

    @pytest.mark.parametrize("p", [ModelParams(2, 0.7, 0, 1, 1, 1), ModelParams(2, 1, 0, 30, 1, 1)])
    def test_first_panel_gate_at_largest_step(self, p):
        dc = derived_constants(p)
        th, kappa = dc.theta, p.lam**2 * dc.big_theta
        h_max = ((th + 1.0) * (th + 2.0) / kappa) ** (1.0 / (th + 1.0))
        for h, solvable in ((0.99 * h_max, True), (1.01 * h_max, False)):
            assert bool(1.0 - kappa * mm._volterra_weights(th, h, 2)[1][0] > 0) is solvable
            if solvable:
                assert np.all(np.isfinite(mm._volterra_solve(p, dc, h, 2)))
            else:
                with pytest.raises(StepTooCoarse, match="h_max"):
                    mm._volterra_solve(p, dc, h, 2)

    def test_richardson_pass(self):
        grid = np.arange(1, 513) * (1.0 / 512)
        curve = mm.volterra_second_moment(SHE, grid, rtol=1e-3)
        assert curve.method == "volterra"

    def test_rtol_covers_the_returned_curve(self, capsys):
        # the estimate reads 7.3e-4; the step-h curve is 1.093e-3 off the
        # closed form, the returned step-h/2 one 3.63e-4
        argv = ["volterra", "--alpha", "2", "--beta", "1", "--t-max", "12", "--n-points", "400",
                "--rtol", "1e-3"]
        assert cli.main(argv) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[2:]]
        t, values = (np.array([float(row[i]) for row in rows]) for i in (0, 1))
        assert t.size == 400
        assert _max_rel(values, mm.second_moment(SHE, t)) <= 1e-3

    def test_rtol_audit(self):
        """On 40 seeded accepted curves, each is within rtol of the closed
        form (returning the step-h curve instead misses on one of them)."""
        rng = random.Random(0)
        checked, failures = 0, []
        for _ in range(400):
            alpha, beta = rng.uniform(1.0, 4.0), rng.uniform(0.05, 2.0)
            gamma = rng.choice([0.0, rng.uniform(0.0, 1.0)])
            u1 = rng.choice([0.0, 0.5]) if beta > 1.0 else 0.0
            p = ModelParams(alpha, beta, gamma, u1=u1)
            if not dalang_satisfied(p) or theta(p) + 1.0 < 0.05:
                continue
            t_max = rng.uniform(1.0, 10.0) / mm.second_lyapunov(p)
            n, rtol = rng.choice([200, 400, 800]), rng.choice([1e-3, 1e-4])
            grid = np.arange(1, n + 1) * (t_max / n)
            try:
                curve = mm.volterra_second_moment(p, grid, rtol)
            except StepTooCoarse:
                continue
            err = _max_rel(curve.values, mm.second_moment(p, grid))
            if not err <= rtol:
                failures.append((p, t_max, n, rtol, err))
            checked += 1
            if checked == 40:
                break
        assert checked == 40
        assert not failures, failures

    def test_grid_validation(self):
        with pytest.raises(InvalidParams):
            mm.volterra_second_moment(SHE, np.array([0.1, 0.3, 0.35]))
        with pytest.raises(DalangViolated):
            mm.volterra_second_moment(ModelParams(2, 0.5, 0, 1, 1, 1), np.arange(1, 9) / 8.0)


def _csv_per_row(curve) -> str:
    """The per-row formatter to_csv replaced, kept as its oracle."""
    buf = io.StringIO()
    buf.write("t,value,method\n")
    for t, v in zip(curve.t_grid, curve.values):
        buf.write(f"{t:.17g},{v:.17g},{curve.method}\n")
    return buf.getvalue()


_CSV_EDGE_VALUES = [5e-324, 2.2250738585072014e-308, 1e308, 0.1, 3.0, 1.0 / 3.0, 1.0 + 2.0**-52]


class TestMomentCurve:
    @pytest.mark.parametrize("method", ["closed-form", "volterra", "monte-carlo", "odd %s 100%"])
    def test_csv_matches_per_row_formatter(self, method):
        t = np.array(sorted(_CSV_EDGE_VALUES))
        for values in (_CSV_EDGE_VALUES, [-v for v in _CSV_EDGE_VALUES], [0.0] * 7):
            curve = mm.MomentCurve(t, np.array(values), method, SHE)
            assert curve.to_csv() == _csv_per_row(curve)
        rng = np.random.default_rng(28)
        t = np.cumsum(rng.uniform(1e-3, 1.0, 500))
        curve = mm.MomentCurve(t, rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500),
                               method, SHE)
        assert curve.to_csv() == _csv_per_row(curve)

    def test_stderr_checked(self):
        t, v = np.array([0.5, 1.0]), np.array([1.0, 2.0])
        bad = ([math.nan, -1.0, 3.0], [math.nan, 1.0], [-1.0, 1.0], [math.inf, 0.0], [0.1],
               [[0.1, 0.2]], ["a", "b"], [1j, 0.0])
        for err in bad:
            with pytest.raises(InvalidParams, match="stderr"):
                mm.MomentCurve(t, v, "monte-carlo", SHE, stderr=err)
        curve = mm.MomentCurve(t, v, "monte-carlo", SHE, stderr=[0.0, 0.25])
        assert isinstance(curve.stderr, np.ndarray) and curve.stderr.dtype == np.float64
        assert curve.stderr.tolist() == [0.0, 0.25]
        assert mm.MomentCurve(t, v, "monte-carlo", SHE).stderr is None

    def test_csv_format(self):
        curve = mm.MomentCurve(np.array([0.5, 1.0]), np.array([1.25, 2.5]), "closed-form", SHE)
        lines = curve.to_csv().splitlines()
        assert lines[0] == "t,value,method"
        assert lines[1] == "0.5,1.25,closed-form"
        assert len(lines) == 3

    def test_full_precision(self):
        v = 1.0 + 1e-15
        curve = mm.MomentCurve(np.array([1.0]), np.array([v]), "volterra", SHE)
        assert repr(v)[:17] in curve.to_csv() or f"{v:.17g}" in curve.to_csv()

    def test_validation(self):
        with pytest.raises(InvalidParams):
            mm.MomentCurve(np.array([1.0, 0.5]), np.array([1.0, 1.0]), "volterra", SHE)
        with pytest.raises(InvalidParams):
            mm.MomentCurve(np.array([0.5, 1.0]), np.array([1.0, math.nan]), "volterra", SHE)
        for t in ([1.0, math.nan, 2.0], [1.0, math.inf], [math.nan]):
            with pytest.raises(InvalidParams, match="t_grid"):
                mm.MomentCurve(np.array(t), np.ones(len(t)), "volterra", SHE)
