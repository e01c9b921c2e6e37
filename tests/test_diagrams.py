import contextlib
import copy
import gc
import io
import itertools
import json
import math
import pickle
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spde_moments import diagrams as dg
from spde_moments import moments as mm
from spde_moments.cli import main
from spde_moments.diagrams import FeynmanDiagram, Partition
from spde_moments.errors import InvalidParams, NotBalanced, ResultOverflow, TooLarge
from spde_moments.model import ModelParams, big_theta, theta

import lemma_checks as lc


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


SHE = ModelParams(alpha=2, beta=1, gamma=0, lam=1, nu=1, dim=1, u0=1)
BLOCK_EDGE_MODELS = {"she": SHE, "frac": ModelParams(1.5, 0.8, 0.2)}
BLOCK_EDGE_PINS = json.loads((Path(__file__).parent / "chaos_mc_block_edges.json").read_text())


def brute_force_matchings(partition: Partition):
    """Independent oracle: all pairings of the vertex list via fixed-point
    recursion over raw pairs, filtered to cross-column edges."""
    verts = partition.vertices()
    if len(verts) % 2:
        return set()

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
        edges = frozenset((a, b) if a[0] < b[0] else (b, a) for a, b in cand)
        out.add(edges)
    return out


# Example 5.1 fixtures over the partition (1, 2, 2, 3)
PART_1223 = Partition((1, 2, 2, 3))
D1 = FeynmanDiagram(
    PART_1223,
    frozenset([((1, 1), (2, 1)), ((3, 1), (4, 2)), ((3, 2), (4, 1)), ((2, 2), (4, 3))]),
)
D2 = FeynmanDiagram(
    PART_1223,
    frozenset([((1, 1), (3, 1)), ((2, 1), (4, 1)), ((2, 2), (4, 2)), ((3, 2), (4, 3))]),
)


class TestAdmissible:
    def test_pair_column_forced(self):
        assert len(dg.enumerate_admissible(Partition((1, 1)))) == 1

    def test_two_by_two(self):
        assert len(dg.enumerate_admissible(Partition((2, 2)))) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_square_counts_factorial(self, n):
        got = dg.enumerate_admissible(Partition((n, n)))
        assert len(got) == math.factorial(n)
        assert len(brute_force_matchings(Partition((n, n)))) == math.factorial(n)

    def test_against_brute_force(self):
        part = PART_1223
        mine = {d.edges for d in dg.enumerate_admissible(part)}
        assert mine == brute_force_matchings(part)

    def test_every_diagram_admissible(self):
        for d in dg.enumerate_admissible(Partition((1, 2, 2, 1))):
            assert d.is_admissible()
            for (k1, _), (k2, _) in d.edges:
                assert k1 < k2

    def test_odd_total_rejected(self):
        with pytest.raises(InvalidParams):
            dg.enumerate_admissible(Partition((1, 2)))

    def test_cap(self):
        with pytest.raises(TooLarge):
            dg.enumerate_admissible(Partition((7, 7)))

    def test_dropped_listing_is_freed(self):
        # with the collector off, reference counts alone must free a
        # listing: a recursion that held itself in a closure would keep
        # its memo, and every diagram, alive until a full collection
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            listing = dg.enumerate_admissible(Partition((2, 2, 2, 2)))
            first, last = weakref.ref(listing[0]), weakref.ref(listing[-1])
            del listing
            assert first() is None and last() is None
        finally:
            if was_enabled:
                gc.enable()

    def test_edges_built_on_first_access(self):
        d, e = dg.enumerate_admissible(Partition((1, 2, 1)))
        assert "edges" not in vars(d)
        assert d.edges == frozenset(d.sorted_edges()) and "edges" in vars(d)
        assert not hasattr(d, "no_such_attribute")
        # copies of a diagram whose edges were never built
        for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone == e and hash(clone) == hash(e)
            assert clone.sorted_edges() == e.sorted_edges()


def _oracle_validated_edges(edges):
    """The validation FeynmanDiagram ran on every enumerated diagram before
    enumeration skipped it: integer labels, upward edges, disjoint edges."""
    edges = frozenset(((int(a), int(b)), (int(c), int(d))) for (a, b), (c, d) in edges)
    for (k1, _), (k2, _) in edges:
        assert k1 < k2
    seen = set()
    for e in edges:
        for v in e:
            assert v not in seen
            seen.add(v)
    return edges


def _oracle_listing(partition: Partition) -> list[str]:
    """The `diagrams --partition` lines as enumeration, validation, sorting
    and formatting produced them before the listing skipped re-validation."""
    out = []

    def extend(remaining, acc):
        if not remaining:
            out.append(_oracle_validated_edges(frozenset(acc)))
            return
        v = remaining[0]
        rest = remaining[1:]
        for j, w in enumerate(rest):
            if w[0] == v[0]:
                continue
            a, b = (v, w) if v[0] < w[0] else (w, v)
            extend(rest[:j] + rest[j + 1 :], acc + [(a, b)])

    extend(tuple(partition.vertices()), [])
    head = f"{partition.p} {partition.total // 2} | {','.join(map(str, partition.n))} | "
    lines = [f"# admissible diagrams for n={partition.n}: {len(out)}"]
    for edges in out:
        lines.append(head + "; ".join(
            f"({k1},{l1})-({k2},{l2})" for (k1, l1), (k2, l2) in sorted(edges)
        ))
    return lines


def _compositions(total: int):
    """Every tuple of positive integers summing to total."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


# the partitions of 10 to 12 vertices that the benchmark lists
_LISTED_PARTITIONS = [(2, 2, 2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 3, 2, 2, 2), (3, 3, 2, 2, 2), (4, 4, 2, 2)]


class TestListingOracle:
    @pytest.mark.parametrize("total", [2, 4, 6, 8, 10])
    def test_cli_matches_oracle_up_to_ten_vertices(self, total):
        for n in _compositions(total):
            want = "\n".join(_oracle_listing(Partition(n))) + "\n"
            assert _cli_listing(n) == want, n

    @pytest.mark.parametrize("n", _LISTED_PARTITIONS)
    def test_cli_matches_oracle_listed(self, n):
        assert _cli_listing(n) == "\n".join(_oracle_listing(Partition(n))) + "\n"

    @pytest.mark.parametrize("n", [(1, 1), (2, 2), (1, 2, 2, 3), (1, 2, 1, 2, 1, 3), *_LISTED_PARTITIONS])
    def test_enumerated_equal_validated(self, n):
        part = Partition(n)
        for d in dg.enumerate_admissible(part):
            checked = FeynmanDiagram(part, d.edges)
            assert d == checked and hash(d) == hash(checked)
            assert d.sorted_edges() == checked.sorted_edges() == sorted(d.edges)
            assert dg.diagram_to_line(d) == dg.diagram_to_line(checked)

    def test_line_of_vertex_outside_partition(self):
        d = FeynmanDiagram(Partition((1, 1)), frozenset([((1, 5), (3, 2))]))
        assert dg.diagram_to_line(d) == "2 1 | 1,1 | (1,5)-(3,2)"


def _cli_listing(n) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["diagrams", "--partition", ",".join(map(str, n))]) == 0
    return out.getvalue()


class TestBalanced:
    def test_examples_p4_m3(self):
        assert dg.is_balanced_partition(Partition((1, 2, 2, 1)), 4, 3)
        assert dg.is_balanced_partition(Partition((2, 1, 2, 1)), 4, 3)
        assert dg.is_balanced_partition(Partition((1, 2, 1, 2)), 4, 3)
        assert not dg.is_balanced_partition(Partition((1, 1, 2, 2)), 4, 3)

    def test_example_p6_m7(self):
        assert dg.is_balanced_partition(Partition((3, 2, 2, 2, 3, 2)), 6, 7)

    def test_unique_balanced_p4_m4(self):
        assert dg.is_balanced_partition(Partition((2, 2, 2, 2)), 4, 4)
        assert [q.n for q in dg.balanced_partitions(4, 4)] == [(2, 2, 2, 2)]

    def test_square_column_count(self):
        for n in range(1, 6):
            diags = dg.enumerate_balanced(Partition((n, n)), 2, n)
            assert len(diags) == 1  # horizontal edges forced level by level

    def test_p6_m7_count(self):
        diags = dg.enumerate_balanced(Partition((3, 2, 2, 2, 3, 2)), 6, 7)
        assert len(diags) >= 36
        assert all(d.is_admissible() for d in diags)

    def test_balanced_subset_of_admissible(self):
        part = Partition((2, 1, 2, 1))
        admissible = {d.edges for d in dg.enumerate_admissible(part)}
        for d in dg.enumerate_balanced(part, 4, 3):
            assert d.edges in admissible

    def test_not_balanced_raises(self):
        with pytest.raises(NotBalanced):
            dg.enumerate_balanced(Partition((1, 1, 2, 2)), 4, 3)

    def test_count_lower_bound_values(self):
        assert dg.count_lower_bound(6, 7) == 36
        assert dg.count_lower_bound(4, 2) == 2
        for n in range(1, 6):
            assert dg.count_lower_bound(2, n) == 1 <= math.factorial(n)

    def test_aggregate_inequality(self):
        for p in (2, 4, 6):
            for m in range(p // 2, 9):
                if (2 * m) % p % 2:
                    continue
                assert dg.count_balanced(p, m) >= dg.count_lower_bound(p, m), (p, m)


def simplex_weight_count(diagram: FeynmanDiagram, grid: int = 4) -> int:
    """Brute-force check of `crossing_vanishes`, a discrete surrogate for the
    time integral: count assignments of grid times to vertices respecting
    strict per-column order, with edge-matched times.  Zero iff the simplex
    indicators are contradictory on the grid."""
    verts = sorted(diagram.partition.vertices())
    # union-find over edge-identified vertices
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in diagram.edges:
        parent[find(a)] = find(b)
    classes = sorted({find(v) for v in verts})
    idx = {c: i for i, c in enumerate(classes)}
    count = 0
    for assign in itertools.product(range(grid), repeat=len(classes)):
        ok = True
        for k, nk in enumerate(diagram.partition.n, start=1):
            col = [assign[idx[find((k, l))]] for l in range(1, nk + 1)]
            if any(col[i] >= col[i + 1] for i in range(len(col) - 1)):
                ok = False
                break
        count += ok
    return count


class TestCrossing:
    def test_example_pair(self):
        assert dg.crossing_vanishes(D1) is True
        assert dg.crossing_vanishes(D2) is False

    def test_balanced_never_crosses(self):
        for part in dg.balanced_partitions(4, 3):
            for d in dg.enumerate_balanced(part, 4, 3):
                assert not dg.crossing_vanishes(d)

    def test_crossing_zeroes_discrete_weight(self):
        for d in dg.enumerate_admissible(PART_1223):
            if dg.crossing_vanishes(d):
                assert simplex_weight_count(d, grid=4) == 0

    def test_example_weights(self):
        assert simplex_weight_count(D1) == 0
        assert simplex_weight_count(D2) > 0


class TestSerialization:
    def test_roundtrip_fixture(self):
        line = dg.diagram_to_line(D1)
        assert line == "4 4 | 1,2,2,3 | (1,1)-(2,1); (2,2)-(4,3); (3,1)-(4,2); (3,2)-(4,1)"

    @given(st.integers(min_value=1, max_value=3))
    def test_roundtrip_squares(self, n):
        # a listing loses no diagram: distinct diagrams get distinct lines
        diagrams = dg.enumerate_admissible(Partition((n, n)))
        assert len({dg.diagram_to_line(d) for d in diagrams}) == len(diagrams)


class TestChaos:
    def test_level_zero(self):
        assert dg.chaos_term(SHE, 1.0, 0) == 1.0

    @pytest.mark.parametrize("k", [2.0, -1, math.inf, math.nan])
    def test_level_is_a_nonnegative_integer(self, k):
        # both chaos functions share one check: a float level, inf and nan
        # included, is InvalidParams and not a raw TypeError or ValueError
        with pytest.raises(InvalidParams):
            dg.chaos_term(SHE, 1.0, k)
        with pytest.raises(InvalidParams):
            dg.chaos_term_mc(SHE, 1.0, k, 10, 0)

    def test_overflow(self):
        with pytest.raises(ResultOverflow):
            dg.chaos_term(ModelParams(2, 1, lam=1e100), 1.0, 4)

    def test_finite_term_with_overflowing_power(self):
        # (lambda^2 Theta Gamma(1/2))^20 = 1e397 meets t^10 = 1e-100 in logs;
        # 30-digit mpmath value of the same formula
        got = dg.chaos_term(ModelParams(2, 1, lam=1e10), 1e-10, 20)
        assert rel(got, 2.62807075729233933378667521045e287) < 1e-12
        assert got.hex() == "0x1.b9d607e90fc36p+954"  # the bits of the log form

    def test_she_level_one(self):
        # Theta Gamma(1/2) / Gamma(3/2) with Theta = 1/sqrt(4 pi) equals 1/sqrt(pi)
        assert rel(dg.chaos_term(SHE, 1.0, 1), 1.0 / math.sqrt(math.pi)) < 1e-9

    @pytest.mark.parametrize(
        "p,t",
        [
            (SHE, 0.5),
            (SHE, 1.0),
            (ModelParams(2, 2, 0, 1, 2, 1, u0=1.3), 1.0),
            (ModelParams(3, 1, 0, 1, 1, 1, u0=0.7), 2.0),
        ],
    )
    def test_partial_sums_match_second_moment(self, p, t):
        from spde_moments.model import derived_constants

        assert p.lam**2 * derived_constants(p).t_hat(t) <= 5.0
        total = sum(dg.chaos_term(p, t, k) for k in range(31))
        assert rel(total, mm.second_moment(p, t)) < 1e-10

    def test_single_edge_diagram_weight_is_level_one(self):
        # lam^2 Theta int_0^t (t-s)^theta J0(s)^2 ds collapses to the k=1 term
        from scipy import integrate

        p = ModelParams(2, 1, 0, 1.4, 1.3, 1, u0=0.8)
        th = theta(p)
        t = 1.7
        val, _ = integrate.quad(
            lambda u: 2.0 * u * (u * u) ** th * p.u0**2, 0.0, math.sqrt(t)
        )  # s = t - u^2 substitution for the endpoint singularity
        weight = p.lam**2 * big_theta(p) * val
        assert rel(weight, dg.chaos_term(p, t, 1)) < 1e-9

    def test_mc_levels_within_three_se(self):
        for k in (1, 2, 3):
            est, se = dg.chaos_term_mc(SHE, 1.0, k, 100_000, seed=11 + k)
            exact = dg.chaos_term(SHE, 1.0, k)
            assert abs(est - exact) <= 3.0 * se, (k, est, exact, se)

    def test_mc_wave_slice(self):
        p = ModelParams(2, 2, 0, 1, 2, 1, u0=1.0)
        est, se = dg.chaos_term_mc(p, 0.8, 2, 60_000, seed=5)
        exact = dg.chaos_term(p, 0.8, 2)
        assert abs(est - exact) <= 3.0 * se

    def test_mc_scale_past_the_range_meets_the_mean_in_logs(self):
        # kappa^4 = (lambda^2 Theta)^4 ~ 6e317 against a weight mean ~ 5e-80
        p = ModelParams(2, 1, lam=1e40)
        est, se = dg.chaos_term_mc(p, 1e-40, 4, 20_000, seed=3)
        exact = dg.chaos_term(p, 1e-40, 4)
        assert rel(exact, 3.125e238) < 1e-12
        assert 0.0 < se and abs(est - exact) <= 4.0 * se, (est, exact, se)

    def test_mc_se_of_tiny_weights(self):
        # at t = 1e-100 every weight is its t = 1 value times t^(k (theta +
        # 1)) = 1e-200, so their squared deviations underflow
        est, se = dg.chaos_term_mc(SHE, 1e-100, 4, 20_000, seed=0)
        est_1, se_1 = dg.chaos_term_mc(SHE, 1.0, 4, 20_000, seed=0)
        assert rel(est, est_1 * 1e-200) < 1e-6
        assert se > 0.0 and rel(se, se_1 * 1e-200) < 1e-6

    def test_mc_vanishing_lambda(self):
        p = ModelParams(2, 1, 0, 1e-8, 1, 1, u0=1.0)
        est, _ = dg.chaos_term_mc(p, 1.0, 2, 1000, seed=1)
        assert abs(est) < 1e-30

    def test_mc_reproducible(self):
        a = dg.chaos_term_mc(SHE, 1.0, 2, 5000, seed=9)
        b = dg.chaos_term_mc(SHE, 1.0, 2, 5000, seed=9)
        assert a == b

    def test_mc_bits_of_the_tiled_draw(self):
        # recorded when the gamma shapes were tiled to (samples, k + 1):
        # broadcasting them over size=(samples, k + 1) takes the same bits
        assert dg.chaos_term_mc(SHE, 1.0, 1, 100_000, seed=7) == (
            0.5631577675593464, 0.0009724410922022124
        )
        assert dg.chaos_term_mc(SHE, 1.0, 4, 100_000, seed=7) == (
            0.031087451823472965, 0.0001130190087761339
        )

    @pytest.mark.parametrize(
        "t, k, expected",
        [
            (0.37, 2, (0.12947110729880817, 0.0006830585628268259)),
            (0.37, 3, (0.037130842351538344, 0.0002977066955887097)),
            (2.5, 2, (0.7701853638291623, 0.004063313573994945)),
            (2.5, 3, (0.5387265758570828, 0.004319387834129968)),
        ],
    )
    def test_mc_bits_off_t_one(self, t, k, expected):
        # recorded from the out-of-place expressions gam / sum(gam) * t and
        # log(g / t): at t != 1 the scaling by t rounds, so a reordered
        # operation changes the bits; theta = -8/15 tilts the draw otherwise
        # than the heat model's theta = -1/2 above
        p = ModelParams(1.5, 0.8, 0.2)
        assert dg.chaos_term_mc(p, t, k, 20_000, seed=7) == expected

    @pytest.mark.parametrize(
        "pin", BLOCK_EDGE_PINS["pins"],
        ids=lambda pin: f"{pin['model']}-t{pin['t']}-k{pin['k']}",
    )
    def test_mc_bits_at_block_edges(self, pin):
        # recorded when all samples were drawn and weighted at once: the
        # counts straddle the first two block edges, and the bits must not
        # depend on where the blocks split the draw
        b = BLOCK_EDGE_PINS["recorded_with_block"]
        assert [n for n, *_ in pin["values"]] == [2, b - 1, b, b + 1, 2 * b + 3]
        assert dg._MC_BLOCK == b
        p = BLOCK_EDGE_MODELS[pin["model"]]
        for n, est, se in pin["values"]:
            assert dg.chaos_term_mc(p, pin["t"], pin["k"], n, pin["seed"]) == (est, se), n

    @pytest.mark.parametrize("k", [1, 4])
    def test_mc_working_memory(self, k):
        # the weights (8 B a sample, 16 while np.std holds its deviations)
        # are all that grows with samples; one block fits in the 1 MiB
        samples = 400_000
        dg.chaos_term_mc(SHE, 1.0, k, 10, 0)
        tracemalloc.start()
        try:
            dg.chaos_term_mc(SHE, 1.0, k, samples, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * samples + 2**20, peak / samples

    @pytest.mark.parametrize("samples", [2**62, 10**30])
    def test_mc_samples_beyond_the_array_limit(self, samples):
        with pytest.raises(TooLarge, match=str(samples)):
            dg.chaos_term_mc(SHE, 1.0, 1, samples, 0)

    @pytest.mark.parametrize(
        "samples, seed", [(1, 0), (10.0, 0), (10, -1), (10, 2**64), (10, 1.0)]
    )
    def test_mc_samples_and_seed_checked(self, samples, seed):
        with pytest.raises(InvalidParams):
            dg.chaos_term_mc(SHE, 1.0, 2, samples, seed)

    def test_mc_cap(self):
        with pytest.raises(TooLarge):
            dg.chaos_term_mc(SHE, 1.0, 5, 100, seed=0)


class TestExpTailFacts:
    def test_half_ratio_large_n(self):
        out = lc.exp_tail_facts(1000, 1.0)
        assert 0.48 <= out["half_ratio"] <= 0.52

    def test_tail_bound_small_case(self):
        assert lc.exp_tail_facts(20, 1.0)["tail_lb_ok"]

    @given(
        st.integers(min_value=50, max_value=500),
        st.floats(min_value=0.2, max_value=3.0),
    )
    def test_tail_bound_witnesses(self, n, a):
        assert lc.exp_tail_facts(n, a)["tail_lb_ok"]

    def test_stirling_sandwich(self):
        assert all(lc.stirling_sandwich_holds(n) for n in range(1, 171))

    def test_validation(self):
        with pytest.raises(InvalidParams):
            lc.exp_tail_facts(5, 1.0)
        with pytest.raises(InvalidParams):
            lc.exp_tail_facts(100, 0.0)

    @pytest.mark.parametrize("n", [math.inf, math.nan, 10.0])
    def test_n_is_an_integer(self, n):
        # inf and nan raised a raw OverflowError or ValueError; 10.0 passed
        with pytest.raises(InvalidParams, match="^n must be an integer"):
            lc.exp_tail_facts(n, 1.0)
        with pytest.raises(InvalidParams, match="^n must be an integer"):
            lc.stirling_sandwich_holds(n)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_a_is_finite(self, a):
        with pytest.raises(InvalidParams, match="^a must be"):
            lc.exp_tail_facts(10, a)


class TestIntegerArguments:
    """Partition entries, p and m go through model._require_integer: a
    float, inf or nan is InvalidParams naming the argument, never a raw
    error or a silent empty answer."""

    @pytest.mark.parametrize("entry", [2.0, math.inf, math.nan])
    def test_partition_entry(self, entry):
        with pytest.raises(InvalidParams, match="^partition entry must be an integer"):
            Partition((entry, 2))

    @pytest.mark.parametrize("call", [dg.balanced_partitions, dg.count_balanced, dg.count_lower_bound,
                                      lambda p, m: dg.is_balanced_partition(Partition((1, 1)), p, m)])
    @pytest.mark.parametrize("p, m, name", [(4, 2.5, "m"), (4, math.nan, "m"), (4.0, 2, "p"),
                                            (math.inf, 2, "p")])
    def test_balance_arguments(self, call, p, m, name):
        with pytest.raises(InvalidParams, match=f"^{name} must be an integer"):
            call(p, m)
