import math
import threading

import numpy as np
import pytest

from spde_moments import moments as mm
from spde_moments import simulate as sim
from spde_moments.errors import DomainTooSmall, InvalidParams, StabilityViolated
from spde_moments.model import ModelParams, j0
from spde_moments.simulate import SimConfig

import lemma_checks as lc

SHE = ModelParams(alpha=2, beta=1, gamma=0, lam=1, nu=1, dim=1, u0=1)
SWE = ModelParams(alpha=2, beta=2, gamma=0, lam=1, nu=2, dim=1, u0=1, u1=0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidParams):
            SimConfig(dx=-0.1, dt=0.01, domain_half_width=1, t_end=1, n_paths=10, seed=1)
        with pytest.raises(InvalidParams):
            SimConfig(dx=0.02, dt=0.01, domain_half_width=1, t_end=1, n_paths=1, seed=1)
        with pytest.raises(InvalidParams):
            SimConfig(dx=0.03, dt=0.01, domain_half_width=1.0, t_end=1, n_paths=10, seed=1)

    @pytest.mark.parametrize(
        "n_paths,seed", [(10, 1.5), (100.5, 1), (math.nan, 1), (10, math.nan), (10, 2**64)]
    )
    def test_paths_and_seed_are_integers(self, n_paths, seed):
        with pytest.raises(InvalidParams):
            SimConfig(dx=0.1, dt=0.002, domain_half_width=0.6, t_end=0.02, n_paths=n_paths,
                      seed=seed)

    def test_cfl_guard(self):
        cfg = SimConfig(dx=0.1, dt=0.01, domain_half_width=1.0, t_end=0.1, n_paths=10, seed=1)
        with pytest.raises(StabilityViolated):
            sim.simulate_she(SHE, cfg, [0.1])

    def test_light_cone_guard(self):
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.4, t_end=0.5, n_paths=10, seed=1)
        with pytest.raises(DomainTooSmall):
            sim.simulate_swe(SWE, cfg, [0.5])

    def test_parameter_slice_guard(self):
        cfg = SimConfig(dx=0.02, dt=1e-4, domain_half_width=1.0, t_end=0.1, n_paths=10, seed=1)
        with pytest.raises(InvalidParams):
            sim.simulate_she(ModelParams(2, 1.5, 0, 1, 1, 1), cfg, [0.1])
        with pytest.raises(InvalidParams):
            sim.simulate_swe(SHE, cfg, [0.1])

    def test_probe_alignment(self):
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.7, t_end=0.5, n_paths=10, seed=1)
        with pytest.raises(InvalidParams):
            sim.simulate_swe(SWE, cfg, [0.25])


class TestDeterministicLimits:
    def test_she_zero_noise(self):
        p = ModelParams(2, 1, 0, 1e-300, 1, 1, u0=2.5)
        cfg = SimConfig(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05, n_paths=4, seed=0)
        out = sim.simulate_she(p, cfg, [0.05])
        assert out.curve.values[0] == pytest.approx(2.5**2, abs=1e-20)
        assert out.curve.stderr[0] == 0.0

    def test_swe_zero_noise(self):
        p = ModelParams(2, 2, 0, 1e-300, 2, 1, u0=1.0, u1=2.0)
        cfg = SimConfig(dx=0.05, dt=0.05, domain_half_width=0.8, t_end=0.5, n_paths=4, seed=0)
        out = sim.simulate_swe(p, cfg, [0.5])
        assert out.curve.values[0] == pytest.approx((1.0 + 2.0 * 0.5) ** 2, rel=1e-12)


class TestReproducibility:
    def test_she_bit_identical(self):
        cfg = SimConfig(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05, n_paths=64, seed=123)
        a = sim.simulate_she(SHE, cfg, [0.05])
        b = sim.simulate_she(SHE, cfg, [0.05])
        assert a.curve.values[0] == b.curve.values[0]

    def test_seed_changes_stream(self):
        cfg1 = SimConfig(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05, n_paths=64, seed=123)
        cfg2 = SimConfig(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05, n_paths=64, seed=124)
        a = sim.simulate_she(SHE, cfg1, [0.05])
        b = sim.simulate_she(SHE, cfg2, [0.05])
        assert a.curve.values[0] != b.curve.values[0]

    def test_simulators_leave_no_thread(self):
        before = threading.active_count()
        sim.simulate_she(SHE, SimConfig(**SHE_CASE, n_paths=3, seed=1), SHE_PROBES)
        assert threading.active_count() == before
        sim.simulate_swe(SWE, SimConfig(**SWE_CASE, n_paths=3, seed=1), SWE_PROBES)
        assert threading.active_count() == before

    def test_swe_finite_speed_domain_invariance(self):
        cfgA = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.62, t_end=0.5, n_paths=40, seed=5)
        cfgB = SimConfig(dx=0.02, dt=0.02, domain_half_width=1.24, t_end=0.5, n_paths=40, seed=5)
        a = sim.simulate_swe(SWE, cfgA, [0.5])
        b = sim.simulate_swe(SWE, cfgB, [0.5])
        assert a.curve.values[0] == b.curve.values[0]


def _dense_scheme_moment(p, cfg, t):
    """E[u_n^2] at x = 0 from the dense recursion on the interior plus one
    constant component for the pinned boundary: w = (u_interior, 1),
    w' = A w + s diag(xi, 0) w, so E[w w^T] <- A E[w w^T] A^T + s^2 diag."""
    m = int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1
    k = m - 2
    c = p.nu * cfg.dt / (2.0 * cfg.dx**2)
    a = np.zeros((k + 1, k + 1))
    a[:k, :k] = (1 - 2 * c) * np.eye(k) + c * (np.eye(k, k=1) + np.eye(k, k=-1))
    a[0, k] = a[k - 1, k] = c * p.u0
    a[k, k] = 1.0
    w0 = np.append(np.full(k, p.u0), 1.0)
    mom = np.outer(w0, w0)
    for _ in range(round(t / cfg.dt)):
        noise = np.diag(np.append(np.diag(mom)[:k], 0.0)) * p.lam**2 * cfg.dt / cfg.dx
        mom = a @ mom @ a.T + noise
    return mom[k // 2, k // 2]


class TestSchemeSecondMoment:
    def test_matches_dense_recursion(self):
        p = ModelParams(2, 1, 0, 1.3, 0.8, 1, u0=0.7)
        cfg = SimConfig(dx=0.1, dt=0.005, domain_half_width=0.8, t_end=0.3, n_paths=2, seed=0)
        exact = sim.she_scheme_second_moment(p, cfg, [0.1, 0.3])
        assert exact.method == "scheme-exact"
        for t, v in zip((0.1, 0.3), exact.values):
            assert v == pytest.approx(_dense_scheme_moment(p, cfg, t), rel=1e-13)

    def test_acceptance_grid_value(self):
        # the acceptance 05 grid: a dense prototype gave 1.4048802588577
        cfg = SimConfig(dx=0.02, dt=1e-4, domain_half_width=1.2, t_end=0.3, n_paths=2, seed=0)
        value = sim.she_scheme_second_moment(SHE, cfg, [0.3]).values[0]
        assert value == pytest.approx(1.4048802588577, rel=1e-12)
        # scheme bias 0.146 % against the closed form
        assert abs(value / mm.she_second_moment(1, 1, 1, 0.3) - 1.0) < 0.0015

    def test_bias_falls_with_the_step(self):
        # first order in dx (dt proportional to dx^2): each halving of dx cuts
        # the gap to the closed form by a factor 0.55 to 0.65
        t = 0.2
        exact = mm.she_second_moment(1, 1, 1, t)
        bias = []
        for dx, dt in ((0.16, t / 32), (0.08, t / 128), (0.04, t / 512)):
            cfg = SimConfig(dx=dx, dt=dt, domain_half_width=1.28, t_end=t, n_paths=2, seed=0)
            bias.append(sim.she_scheme_second_moment(SHE, cfg, [t]).values[0] / exact - 1.0)
        assert 0.0 < bias[2] < bias[1] < bias[0] < 0.01
        assert 0.4 < bias[1] / bias[0] < 0.8 and 0.4 < bias[2] / bias[1] < 0.8

    def test_zero_noise(self):
        p = ModelParams(2, 1, 0, 1e-300, 1, 1, u0=2.5)
        cfg = SimConfig(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05, n_paths=2, seed=0)
        value = sim.she_scheme_second_moment(p, cfg, [0.05]).values[0]
        assert value == pytest.approx(6.25, rel=1e-14)

    def test_guards(self):
        cfg = SimConfig(dx=0.1, dt=0.01, domain_half_width=1.0, t_end=0.1, n_paths=2, seed=0)
        with pytest.raises(StabilityViolated):
            sim.she_scheme_second_moment(SHE, cfg, [0.1])
        with pytest.raises(InvalidParams):
            sim.she_scheme_second_moment(SWE, cfg, [0.1])

    def test_domain_truncation_in_standard_errors(self):
        # the truncation's effect on the probe is exact: the scheme's E[u^2]
        # on the domain against a 1.5x wider one, in standard errors of a
        # seeded run on the narrow domain
        def gap_in_se(half_width, wide, t, n_paths, seed):
            grid = dict(dx=0.04, dt=4e-4, t_end=t, n_paths=n_paths, seed=seed)
            narrow = SimConfig(**grid, domain_half_width=half_width)
            a, b = (
                sim.she_scheme_second_moment(SHE, cfg, [t]).values[0]
                for cfg in (narrow, SimConfig(**grid, domain_half_width=wide))
            )
            return abs(b - a) / sim.simulate_she(SHE, narrow, [t]).curve.stderr[0]

        # a domain barely wider than the diffusive scale: 0.0779 against 0.0135
        assert gap_in_se(0.2, 0.32, 0.4, 4000, 18) > 4.0
        # the acceptance half-width: 3.0e-5 against 0.038
        assert gap_in_se(1.2, 1.8, 0.2, 2000, 17) < 0.01

    def test_monte_carlo_within_4_se(self):
        cfg = SimConfig(dx=0.04, dt=4e-4, domain_half_width=1.2, t_end=0.2, n_paths=3000, seed=404)
        out = sim.simulate_she(SHE, cfg, [0.1, 0.2])
        exact = sim.she_scheme_second_moment(SHE, cfg, [0.1, 0.2])
        for v, e, x in zip(out.curve.values, out.curve.stderr, exact.values):
            assert abs(v - x) <= 4.0 * e


class TestMildForm:
    def test_swe_matches_direct_mild_sum(self):
        # u_{n+1}(j) = j0(t_{n+1}) + (lam / 2 kappa) sum_{i<=n} sum_k w_{n+1-i}(k - j) v_i(k),
        # v_i = u_i dW_i, with the cell-averaged kernel on kappa dt = dx:
        # w_h(r) = 1 for |r| < h, 1/2 for |r| = h, and v = 0 off the domain
        p = ModelParams(2, 2, 0, 1.5, 2, 1, u0=1.0, u1=0.7)  # kappa = 1
        cfg = SimConfig(dx=0.05, dt=0.05, domain_half_width=0.65, t_end=0.4, n_paths=3, seed=11)
        m, jp, n_steps = 27, 13, 8
        r = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        u = np.full((3, m), j0(p, 0.0))
        history, probe = [], {}
        for n in range(n_steps):
            dw = np.empty((m, 3))
            sim._swe_noise(11, -jp, n, dw)
            dw = dw.T
            history.append(u * dw * math.sqrt(cfg.dt * cfg.dx))
            acc = np.zeros((3, m))
            for i, v in enumerate(history):
                h = n + 1 - i
                acc += v @ np.where(r < h, 1.0, np.where(r == h, 0.5, 0.0))
            u = j0(p, (n + 1) * cfg.dt) + (p.lam / 2.0) * acc
            probe[n + 1] = u[:, jp]
        out = sim.simulate_swe(p, cfg, [0.2, 0.4])
        for k, step in enumerate((4, 8)):
            x = probe[step]
            assert out.curve.values[k] == pytest.approx(np.mean(x * x), rel=1e-12)
            assert out.mean[k] == pytest.approx(np.mean(x), rel=1e-12)
            assert out.curve.stderr[k] == pytest.approx(
                np.std(x * x, ddof=1) / math.sqrt(3), rel=1e-12
            )


class TestAgainstClosedForms:
    def test_swe_second_moment(self):
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.6, t_end=0.5, n_paths=4000, seed=77)
        out = sim.simulate_swe(SWE, cfg, [0.5])
        exact = mm.swe_second_moment(2, 1, 1, 0, 0.5)
        assert abs(out.curve.values[0] - exact) / exact < 0.05

    def test_swe_strong_noise(self):
        p = ModelParams(2, 2, 0, 2, 2, 1, u0=1, u1=0)
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.6, t_end=0.5, n_paths=4000, seed=78)
        out = sim.simulate_swe(p, cfg, [0.5])
        exact = mm.swe_second_moment(2, 2, 1, 0, 0.5)
        # lam=2 gives a 26% noise contribution; the deterministic value
        # would miss by > 5 standard errors
        assert abs(out.curve.values[0] - exact) / exact < 0.05
        assert abs(1.0 - exact) > 5 * out.curve.stderr[0]

    def test_swe_mean_and_variance(self):
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.6, t_end=0.5, n_paths=4000, seed=79)
        out = sim.simulate_swe(SWE, cfg, [0.5])
        assert abs(out.mean[0] - 1.0) <= 3.0 * out.mean_stderr[0]
        assert out.curve.values[0] - out.mean[0] ** 2 > 0.0  # variance positivity

    def test_she_small_grid(self):
        cfg = SimConfig(dx=0.04, dt=4e-4, domain_half_width=1.2, t_end=0.2, n_paths=3000, seed=81)
        out = sim.simulate_she(SHE, cfg, [0.1, 0.2])
        for t, v in zip(out.curve.t_grid, out.curve.values):
            exact = mm.she_second_moment(1, 1, 1, t)
            assert abs(v - exact) / exact < 0.06
        assert abs(out.mean[-1] - 1.0) <= 3.0 * out.mean_stderr[-1]

    def test_she_refinement_trend(self):
        # halving dx (dt/4) moves the estimate toward the closed form,
        # within combined noise
        t = 0.2
        exact = mm.she_second_moment(1, 1, 1, t)
        errs, ses = [], []
        for dx, dt in ((0.16, t / 32), (0.08, t / 128), (0.04, t / 512)):
            cfg = SimConfig(dx=dx, dt=dt, domain_half_width=1.28, t_end=t, n_paths=3000, seed=90)
            out = sim.simulate_she(SHE, cfg, [t])
            errs.append(abs(out.curve.values[0] - exact))
            ses.append(out.curve.stderr[0])
        assert errs[2] <= errs[0] + 3.0 * math.hypot(ses[0], ses[2])
        assert errs[1] <= errs[0] + 3.0 * math.hypot(ses[0], ses[1])


def _serial_she(p, cfg, probes):
    """simulate_she's scheme as one loop over the whole field, with each
    sign read at its documented Philox address: the bit-identity oracle."""
    m = int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1
    jp = m // 2
    steps = sim._probe_steps(cfg, probes)
    half = int(round(cfg.domain_half_width / cfg.dx))
    u = np.full((cfg.n_paths, m), p.u0, dtype=np.float32)
    coef = np.float32(p.nu * cfg.dt / (2.0 * cfg.dx**2))
    noise_std = np.float32(p.lam * math.sqrt(cfg.dt / cfg.dx))
    samples = []
    for n in range(steps[-1]):
        xi = np.empty((cfg.n_paths, m - 2), dtype=np.float32)
        for j in range(1, m - 1):
            for start in range(0, cfg.n_paths, 256):
                i = np.arange(start, min(start + 256, cfg.n_paths))
                w = np.random.Philox(
                    key=cfg.seed, counter=[j - half + 2**32, start // 256, n, 1]
                ).random_raw(4)
                bit = (w[(i // 64) % 4] >> (i % 64).astype(np.uint64)) & np.uint64(1)
                xi[i, j - 1] = np.where(bit == 1, -1.0, 1.0)
        interior = u[:, 1:-1]
        lap = u[:, 2:] - 2.0 * interior + u[:, :-2]
        u[:, 1:-1] = interior + coef * lap + interior * xi * noise_std
        if (n + 1) in steps:
            samples.append(u[:, jp].astype(np.float64))
    return sim._probe_output(p, cfg, probes, "she-explicit-fd-rademacher", samples)


def _serial_swe(p, cfg, probes):
    """simulate_swe's step loop as it was before the noise was drawn ahead,
    one strided column per cell: the bit-identity oracle."""
    kappa = math.sqrt(p.nu / 2.0)
    m = int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1
    jp = m // 2
    steps = sim._probe_steps(cfg, probes)
    cell_abs0 = -int(round(cfg.domain_half_width / cfg.dx))
    noise_scale = math.sqrt(cfg.dt * cfg.dx)
    u = np.full((cfg.n_paths, m), j0(p, 0.0))
    v, a_last, a_before = (np.zeros((cfg.n_paths, m + 2)) for _ in range(3))
    samples = []
    for n in range(steps[-1]):
        dw = np.empty((cfg.n_paths, m))
        for k in range(m):
            gen = np.random.Generator(
                np.random.Philox(key=cfg.seed, counter=[0, 0, n, cell_abs0 + k + 2**32])
            )
            dw[:, k] = gen.standard_normal(cfg.n_paths)
        dw *= noise_scale
        v[:, 1:-1] = u * dw
        a_before[:, 1:-1] = (
            a_last[:, :-2] + a_last[:, 2:] - a_before[:, 1:-1]
            + v[:, 1:-1] + 0.5 * (v[:, :-2] + v[:, 2:])
        )
        a_last, a_before = a_before, a_last
        u = j0(p, (n + 1) * cfg.dt) + (p.lam / (2.0 * kappa)) * a_last[:, 1:-1]
        if (n + 1) in steps:
            samples.append(u[:, jp].astype(np.float64))
    return sim._probe_output(p, cfg, probes, "swe-mild-convolution", samples)


def _assert_same_bits(out, ref):
    for name in ("values", "stderr"):
        assert np.array_equal(getattr(out.curve, name), getattr(ref.curve, name)), name
    assert np.array_equal(out.mean, ref.mean)
    assert np.array_equal(out.mean_stderr, ref.mean_stderr)


SEEDS = (1, 2**63 + 5, 2024)
PATHS = (3, 500, 1001)
# 50 heat and 20 wave steps; 1001 heat paths fill two chunks of 512 paths,
# the second with a partial 256-path block; the first probe is the first step
SHE_CASE = dict(dx=0.05, dt=1e-3, domain_half_width=0.5, t_end=0.05)
SHE_PROBES = [0.001, 0.02, 0.05]
SWE_CASE = dict(dx=0.05, dt=0.05, domain_half_width=1.3, t_end=1.0)
SWE_PROBES = [0.05, 0.5, 1.0]


class TestMatchesSerialLoops:
    @pytest.mark.parametrize("n_paths", PATHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_she(self, seed, n_paths):
        cfg = SimConfig(**SHE_CASE, n_paths=n_paths, seed=seed)
        _assert_same_bits(sim.simulate_she(SHE, cfg, SHE_PROBES), _serial_she(SHE, cfg, SHE_PROBES))

    @pytest.mark.parametrize("n_paths", PATHS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_swe(self, seed, n_paths):
        cfg = SimConfig(**SWE_CASE, n_paths=n_paths, seed=seed)
        _assert_same_bits(sim.simulate_swe(SWE, cfg, SWE_PROBES), _serial_swe(SWE, cfg, SWE_PROBES))


@pytest.fixture
def she_paths(monkeypatch):
    """simulate_she as a function of (cfg, probes) that returns the per-path
    probe values (probe times, paths) it reduces."""
    seen = []
    reduce = sim._probe_output

    def spy(p, cfg, probes, scheme, samples):
        seen.append(np.array(samples))
        return reduce(p, cfg, probes, scheme, samples)

    monkeypatch.setattr(sim, "_probe_output", spy)

    def run(cfg, probes):
        sim.simulate_she(SHE, cfg, probes)
        return seen.pop()

    return run


class TestSheNoiseAddress:
    def test_first_paths_of_a_larger_run(self, she_paths):
        big = she_paths(SimConfig(**SHE_CASE, n_paths=1001, seed=7), SHE_PROBES)
        for n_paths in (3, 256, 500, 700):
            small = she_paths(SimConfig(**SHE_CASE, n_paths=n_paths, seed=7), SHE_PROBES)
            assert np.array_equal(small, big[:, :n_paths])

    def test_wider_domain_shares_signs(self):
        # after one step u = u0 (1 +- noise_std) in every interior cell, so
        # a cell's values show its signs; cell j is at x = j dx on both domains
        one_step = dict(SHE_CASE, t_end=SHE_CASE["dt"], n_paths=300, seed=3)
        narrow = SimConfig(**one_step)
        wide = SimConfig(**dict(one_step, domain_half_width=1.5 * SHE_CASE["domain_half_width"]))

        def cell(cfg, j):
            m = int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1
            return sim._she_paths(SHE, cfg, m, m // 2 + j, [1], 0, 2)

        for j in range(-9, 10):
            a = cell(narrow, j)
            assert np.array_equal(a, cell(wide, j))
            assert len(np.unique(a)) == 2


class TestWaveOverlap:
    def test_d1_exact_value(self):
        assert lc.wave_overlap(0.1, 0.2, 0.25, 0.05, -0.02, 0.0) == pytest.approx(0.05)

    def test_d1_lower_bound(self):
        # eps/2 >= eps^{-1} t s / (2 c^2) with c = 12 across the window; the
        # window's ends are eps times 2 and 12, rounded (12 * 0.3 < 3.6)
        eps = 0.3
        for t in (2 * eps, 6 * eps, 12 * eps, 3.6):
            for s in (2 * eps, 12 * eps, 3.6):
                val = lc.wave_overlap(eps, t, s, 0.0, 0.0, 0.0)
                assert val >= t * s / (2.0 * 144.0 * eps) - 1e-15

    def test_geometry_guards(self):
        with pytest.raises(InvalidParams):
            lc.wave_overlap(0.1, 0.1, 0.2, 0.0, 0.0, 0.0)  # t < 2 eps
        with pytest.raises(InvalidParams):
            lc.wave_overlap(0.3, 3.6 * (1 + 1e-12), 0.6, 0.0, 0.0, 0.0)  # t > 12 eps
        with pytest.raises(InvalidParams):
            lc.wave_overlap(0.1, 0.2, 0.2, 0.2, 0.0, 0.0)  # a outside ball
