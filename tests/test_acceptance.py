"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Tolerances and budgets are fixed here, not configurable.

Criterion 9 records what is intentionally out of reach at desk scale
(exact p-th moment asymptotics beyond the reference formula, the
non-explicit lower-bound constants, infinite-time limits) and checks the
finite-time substitute property instead.
"""

import math
import time

import numpy as np

from spde_moments import diagrams as dg
from spde_moments import model as md
from spde_moments import moments as mm
from spde_moments import simulate as sim
from spde_moments import specialfn as sf
from spde_moments.cli import locate_crossing, main
from spde_moments.diagrams import FeynmanDiagram, Partition
from spde_moments.model import ModelParams
from spde_moments.simulate import SimConfig

import lemma_checks as lc


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class _Clock:
    def __init__(self, budget):
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


PASS_LINES = []


def report(num, name, clock):
    line = f"ACCEPTANCE {num:02d} PASS ({clock.elapsed:6.2f}s / {clock.budget:.0f}s): {name}"
    PASS_LINES.append(line)
    print(line)
    assert clock.elapsed < clock.budget, f"criterion {num} exceeded its runtime budget"


def test_c01_mittag_leffler_identities():
    with _Clock(1.0) as clock:
        closed = {
            (1.0, 1.0): math.exp,
            (2.0, 1.0): lambda z: math.cosh(math.sqrt(z)) if z >= 0 else math.cos(math.sqrt(-z)),
            (2.0, 2.0): lambda z: 1.0 if z == 0 else (
                math.sinh(math.sqrt(z)) / math.sqrt(z) if z > 0
                else math.sin(math.sqrt(-z)) / math.sqrt(-z)
            ),
            (0.5, 1.0): lambda z: 2.0 * math.exp(z * z) * sf.normal_cdf(math.sqrt(2.0) * z),
        }
        for (a, b), ref in closed.items():
            for z in np.linspace(-20.0, 20.0, 100):
                assert rel(sf.ml(a, b, float(z)), ref(float(z))) < 1e-8
        for a in (0.6, 1.0, 1.7):
            for b in (0.5, 1.0, 2.0):
                for x in (0.0, 0.7, 3.0, 11.0, 25.0):
                    lhs = sf.ml(a, b, x) - sf.rgamma(b)
                    rhs = x * sf.ml(a, a + b, x)
                    assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), abs(rhs), 1.0)
    report(1, "Mittag-Leffler closed forms (1e-8) and recurrence (1e-9)", clock)


def test_c02_theta_closed_forms():
    with _Clock(5.0) as clock:
        for nu in (1.0, 2.5):
            she = ModelParams(2, 1, 0, 1, nu, 1)
            assert rel(md.big_theta(she), 1 / math.sqrt(4 * math.pi * nu)) < 1e-6
            swe = ModelParams(2, 2, 0, 1, nu, 1)
            assert rel(md.big_theta(swe), 1 / math.sqrt(2 * nu)) < 1e-6
        for alpha in (1.5, 2.0, 3.0, 5.0):
            p = ModelParams(alpha, 1, 0, 1, 1, 1)
            want = sf.gamma(1 + 1 / alpha) / math.pi
            assert rel(md.big_theta(p), want) < 1e-6
        for alpha in (1.5, 3.0):
            p = ModelParams(alpha, 2, 0, 1, 1, 1)
            want = (
                2 ** (2 - 1 / alpha)
                * math.cos(math.pi / alpha)
                * sf.gamma(2 * (1 / alpha - 1))
                / (math.pi * alpha)
            )
            assert rel(md.big_theta(p), want) < 1e-6
    report(2, "Theta quadrature vs closed forms (1e-6 relative)", clock)


def test_c03_figure_data(tmp_path, capsys):
    with _Clock(10.0) as clock:
        code = main([
            "figures", "--family", "sheswe", "--nu", "1", "--lambda", "1",
            "--beta-grid", "0.5:2.0:0.5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = {}
        for line in out.splitlines()[2:]:
            x, y, s = line.split(",")
            rows[(float(x), s)] = float(y)
        reference = {0.5: 0.0715941, 1.0: 0.2820948, 1.5: 0.5168553, 2.0: 0.706991}
        for beta, val in reference.items():
            assert abs(rows[(beta, "theta_big")] - val) < 1e-3
        code = main([
            "figures", "--family", "tfspde", "--nu", "2", "--lambda", "1",
            "--beta-grid", "1.0:2.0:1.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        ly = {}
        for line in out.splitlines()[2:]:
            x, y, s = line.split(",")
            if s == "lyapunov":
                ly[float(x)] = float(y)
        assert abs(ly[1.0] - 0.125) < 1e-6
        assert abs(ly[2.0] - 1 / math.sqrt(2)) < 1e-6
    report(3, "reference sweep data (1e-3 abs) and rate endpoints (1e-6)", clock)


def test_c04_volterra_oracle():
    sweep = [
        ModelParams(2.0, 1.0, 0.0, 1, 1, 1, u0=1.0),
        ModelParams(3.0, 1.0, 0.0, 1, 1, 1, u0=0.8),
        ModelParams(1.5, 0.8, 0.2, 1, 1, 1, u0=1.2),
        ModelParams(2.0, 1.3, 0.0, 1, 1, 1, u0=1.0, u1=0.5),
        ModelParams(2.0, 2.0, 0.0, 1, 1, 1, u0=1.0, u1=1.0),
        ModelParams(3.0, 1.3, 0.0, 1, 1, 1, u0=1.0, u1=1.0),
    ]
    with _Clock(30.0) as clock:
        n = 1024
        grid = np.arange(1, n + 1) * (2.0 / n)
        for p in sweep:
            curve = mm.volterra_second_moment(p, grid)
            for i in range(15, n, 16):
                closed = mm.second_moment(p, float(grid[i]))
                assert rel(curve.values[i], closed) < 1e-4, (p, grid[i])
    report(4, "closed form vs Volterra oracle (1e-4 relative, 6 cases)", clock)


def test_c05_monte_carlo_validation():
    with _Clock(180.0) as clock:
        she = ModelParams(2, 1, 0, 1, 1, 1, u0=1)
        cfg = SimConfig(dx=0.02, dt=1e-4, domain_half_width=1.2, t_end=0.3,
                        n_paths=10_000, seed=2024)
        out = sim.simulate_she(she, cfg, [0.3])
        exact = mm.she_second_moment(1, 1, 1, 0.3)
        assert abs(exact - 1.40283) < 1e-5
        assert abs(out.curve.values[0] - exact) / exact < 0.05

        swe = ModelParams(2, 2, 0, 1, 2, 1, u0=1, u1=0)
        cfg = SimConfig(dx=0.02, dt=0.02, domain_half_width=0.6, t_end=0.5,
                        n_paths=10_000, seed=2025)
        out = sim.simulate_swe(swe, cfg, [0.5])
        exact = mm.swe_second_moment(2, 1, 1, 0, 0.5)
        assert abs(out.curve.values[0] - exact) / exact < 0.05
    report(5, "Monte Carlo SHE/SWE within 5% of the closed forms", clock)


def test_c06_diagram_combinatorics():
    with _Clock(10.0) as clock:
        # independent brute-force matcher over raw vertex pairings
        def brute(partition):
            verts = partition.vertices()

            def pairings(items):
                if not items:
                    yield ()
                    return
                first = items[0]
                for i in range(1, len(items)):
                    rest = items[1:i] + items[i + 1 :]
                    for sub in pairings(rest):
                        yield ((first, items[i]),) + sub

            out = set()
            for cand in pairings(tuple(verts)):
                if any(a[0] == b[0] for a, b in cand):
                    continue
                out.add(frozenset((a, b) if a[0] < b[0] else (b, a) for a, b in cand))
            return out

        for n in (1, 2, 3, 4):
            part = Partition((n, n))
            mine = {d.edges for d in dg.enumerate_admissible(part)}
            assert len(mine) == math.factorial(n)
            assert mine == brute(part)
        assert dg.count_lower_bound(6, 7) == 36
        for p_even in (2, 4, 6):
            for m in range(p_even // 2, 9):
                if (2 * m) % p_even % 2:
                    continue
                assert dg.count_balanced(p_even, m) >= dg.count_lower_bound(p_even, m)
        part = Partition((1, 2, 2, 3))
        d1 = FeynmanDiagram(part, frozenset(
            [((1, 1), (2, 1)), ((3, 1), (4, 2)), ((3, 2), (4, 1)), ((2, 2), (4, 3))]))
        d2 = FeynmanDiagram(part, frozenset(
            [((1, 1), (3, 1)), ((2, 1), (4, 1)), ((2, 2), (4, 2)), ((3, 2), (4, 3))]))
        assert dg.crossing_vanishes(d1) is True
        assert dg.crossing_vanishes(d2) is False
    report(6, "diagram counts, balanced bound, crossing predicate", clock)


def test_c07_chaos_consistency():
    with _Clock(60.0) as clock:
        cases = [
            (ModelParams(2, 1, 0, 1, 1, 1, u0=1.0), 1.0),
            (ModelParams(2, 1, 0, 1, 1, 1, u0=1.0), 4.0),
            (ModelParams(2, 2, 0, 1, 2, 1, u0=1.3), 1.2),
            (ModelParams(3, 1, 0, 1, 1, 1, u0=0.7), 2.0),
        ]
        for p, t in cases:
            assert p.lam**2 * md.derived_constants(p).t_hat(t) <= 5.0
            total = sum(dg.chaos_term(p, t, k) for k in range(31))
            assert rel(total, mm.second_moment(p, t)) < 1e-10
        she = cases[0][0]
        for k in (1, 2, 3):
            est, se = dg.chaos_term_mc(she, 1.0, k, 100_000, seed=100 + k)
            exact = dg.chaos_term(she, 1.0, k)
            assert abs(est - exact) <= 3.0 * se
    report(7, "chaos partial sums (1e-10) and MC terms within 3 SE", clock)


def test_c08_exponential_tail_facts():
    with _Clock(1.0) as clock:
        facts = lc.exp_tail_facts(1000, 1.0)
        assert 0.48 <= facts["half_ratio"] <= 0.52
        assert all(lc.stirling_sandwich_holds(n) for n in range(1, 171))
    report(8, "exponential-series facts and Stirling sandwich", clock)


def test_c09_excluded_items_and_substitute():
    # Out of scope at desk scale, by construction rather than by failure:
    #   - exact p-th moment asymptotics beyond the p(p^2-1) lambda^4/24
    #     heat reference (only bounds are provided);
    #   - the non-explicit constants in the moment lower bounds (only their
    #     combinatorial/analytic ingredients are verified, criterion 6);
    #   - infinite-time limits, replaced by the finite-time ratio below.
    with _Clock(30.0) as clock:
        for p in (
            ModelParams(2, 1, 0, 1, 1, 1, u0=1),
            ModelParams(2, 2, 0, 1, 2, 1, u0=1, u1=1),
            ModelParams(3, 1, 0, 1, 1, 1, u0=1),
        ):
            rate = mm.second_lyapunov(p)
            t = 200.0 / rate
            assert abs(mm.second_moment_log(p, t) / t - rate) / rate < 0.02
    report(9, "finite-time Lyapunov ratio within 2% (declared exclusions hold)", clock)


def test_c10_lyapunov_curve_crossing(capsys):
    with _Clock(10.0) as clock:
        code = main([
            "figures", "--family", "sfhe", "--nu", "1", "--lambda", "1",
            "--alpha-grid", "1.30:1.40:0.01",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = []
        for line in out.splitlines()[2:]:
            x, y, s = line.split(",")
            rows.append((float(x), float(y), s))
        xc, yc = locate_crossing(rows, "sfhe_lyapunov", "sfwe_lyapunov")
        assert 1.33 <= xc <= 1.36
        assert 1.13 <= yc <= 1.17
    report(10, "fractional heat/wave rate curves cross near (1.3426, 1.1513)", clock)
