"""Feynman-diagram combinatorics and Wiener-chaos arithmetic.

Vertices live on a column grid: column k (1-based) holds n_k vertices
(k, 1), ..., (k, n_k).  An admissible diagram is a perfect matching whose
every edge points from a lower column to a strictly higher one.  Balanced
partitions/diagrams are the restricted family used by the moment
lower-bound counting; the chaos helpers give the per-level second-moment
contributions and a seeded Monte Carlo cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import specialfn as sf
from .errors import InvalidParams, NotBalanced, ResultOverflow, TooLarge, finite_or_overflow
from .model import ModelParams, _require_integer, _require_positive, derived_constants

__all__ = [
    "Partition",
    "FeynmanDiagram",
    "enumerate_admissible",
    "is_balanced_partition",
    "enumerate_balanced",
    "count_balanced",
    "count_lower_bound",
    "crossing_vanishes",
    "chaos_term",
    "chaos_term_mc",
    "exp_tail_facts",
    "stirling_sandwich_holds",
    "diagram_to_line",
]

_ENUM_CAP = 12  # exhaustive-enumeration vertex budget

Vertex = tuple[int, int]
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class Partition:
    """Column sizes (n_1, ..., n_p); total must be even to admit a matching."""

    n: tuple[int, ...]

    def __post_init__(self):
        if not self.n:
            raise InvalidParams("a partition needs at least one entry")
        for v in self.n:
            _require_integer("partition entry", v, 1)
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))

    @property
    def total(self) -> int:
        return sum(self.n)

    @property
    def p(self) -> int:
        return len(self.n)

    def vertices(self) -> list[Vertex]:
        return [(k, l) for k, nk in enumerate(self.n, start=1) for l in range(1, nk + 1)]

    @functools.cached_property
    def _line_labels(self) -> tuple[str, "_VertexLabels"]:
        """The `diagram_to_line` header `p m | n1,...,np | ` and vertex
        labels, kept on the partition so that they go with it."""
        header = f"{self.p} {self.total // 2} | {','.join(map(str, self.n))} | "
        return header, _VertexLabels()


class _VertexLabels(dict):
    """`(k,l)` labels of vertices, each formatted on its first lookup."""

    def __missing__(self, v: Vertex) -> str:
        label = self[v] = f"({v[0]},{v[1]})"
        return label


@dataclass(frozen=True)
class FeynmanDiagram:
    partition: Partition
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        edges = frozenset(
            ((int(a), int(b)), (int(c), int(d))) for (a, b), (c, d) in self.edges
        )
        object.__setattr__(self, "edges", edges)
        for (k1, _), (k2, _) in edges:
            if not k1 < k2:
                raise InvalidParams("edges must point to a strictly higher column")
        seen: set[Vertex] = set()
        for e in edges:
            for v in e:
                if v in seen:
                    raise InvalidParams(f"vertex {v} appears in two edges")
                seen.add(v)

    def is_admissible(self) -> bool:
        """Every vertex of the partition in exactly one edge."""
        covered = {v for e in self.edges for v in e}
        return covered == set(self.partition.vertices())

    @classmethod
    def _from_sorted(cls, partition: Partition, edges: tuple[Edge, ...]) -> "FeynmanDiagram":
        """A diagram from edges that are already integer pairs, sorted,
        upward-pointing and vertex-disjoint, as `enumerate_admissible` builds
        them.  Skips the checks of `__post_init__` and keeps the order for
        `sorted_edges`; any other caller must use the validating constructor.
        """
        diagram = object.__new__(cls)
        # frozen: fill the instance dict directly, as __setattr__ refuses
        diagram.__dict__.update(partition=partition, edges=frozenset(edges), _sorted=edges)
        return diagram

    def sorted_edges(self) -> list[Edge]:
        known = self.__dict__.get("_sorted")
        return list(known) if known is not None else sorted(self.edges)


def enumerate_admissible(partition: Partition) -> list[FeynmanDiagram]:
    """All perfect matchings with cross-column, upward-pointing edges.

    The recursion always pairs the lowest remaining vertex with a later one
    in a higher column, so each matching's edges come out sorted, pointing
    upward and disjoint; they are wrapped without re-validation.
    """
    total = partition.total
    if total % 2:
        raise InvalidParams("partition total must be even")
    if total > _ENUM_CAP:
        raise TooLarge(f"enumeration capped at {_ENUM_CAP} vertices, got {total}")
    out: list[FeynmanDiagram] = []
    _extend_matchings(partition, tuple(partition.vertices()), [], out)
    return out


def _extend_matchings(
    partition: Partition, remaining: tuple[Vertex, ...], acc: list[Edge], out: list
):
    """Append to out each matching of the remaining vertices after acc.

    A module-level function: a nested one that calls itself is a reference
    cycle, which would keep `out` and every diagram in it alive until the
    next full garbage collection.
    """
    if not remaining:
        out.append(FeynmanDiagram._from_sorted(partition, tuple(acc)))
        return
    v = remaining[0]
    rest = remaining[1:]
    for j, w in enumerate(rest):
        if w[0] == v[0]:
            continue  # same column never pairs
        # remaining is in column order, so w lies in a higher column than v
        _extend_matchings(partition, rest[:j] + rest[j + 1 :], acc + [(v, w)], out)


def _balance_data(p: int, m: int) -> tuple[int, int]:
    _require_integer("p", p, 2)
    if p % 2:
        raise InvalidParams(f"p must be even, got {p!r}")
    _require_integer("m", m, 1)
    return (2 * m) // p, (2 * m) % p


def is_balanced_partition(partition: Partition, p: int, m: int) -> bool:
    """Entries in {floor(2m/p), floor(2m/p)+1}, total 2m, first half sums to m."""
    m_p, _ = _balance_data(p, m)
    if partition.p != p or partition.total != 2 * m:
        return False
    if any(v not in (m_p, m_p + 1) for v in partition.n):
        return False
    return sum(partition.n[: p // 2]) == m


def balanced_partitions(p: int, m: int) -> list[Partition]:
    """All balanced partitions of 2m into p parts."""
    m_p, r_p = _balance_data(p, m)
    if m < p // 2:
        return []
    if r_p % 2:
        return []  # cannot split the overflow evenly across the halves
    half = p // 2
    out = []
    extra = r_p // 2
    for left in itertools.combinations(range(half), extra):
        for right in itertools.combinations(range(half, p), extra):
            n = [m_p] * p
            for i in left + right:
                n[i] += 1
            out.append(Partition(tuple(n)))
    return out


def enumerate_balanced(partition: Partition, p: int, m: int) -> list[FeynmanDiagram]:
    """All balanced diagrams over a balanced partition: horizontal edges
    (same level) from the left half to the right half, one bijection of
    columns per level."""
    if not is_balanced_partition(partition, p, m):
        raise NotBalanced(f"{partition.n} is not a balanced partition of {2*m}")
    half = p // 2
    levels = max(partition.n)
    per_level: list[tuple[list[int], list[int]]] = []
    for lvl in range(1, levels + 1):
        left = [k for k in range(1, half + 1) if partition.n[k - 1] >= lvl]
        right = [k for k in range(half + 1, p + 1) if partition.n[k - 1] >= lvl]
        if len(left) != len(right):
            raise NotBalanced("level occupancies differ between halves")
        per_level.append((left, right))
    out = []
    choices = [
        [list(zip(left, perm)) for perm in itertools.permutations(right)]
        for left, right in per_level
    ]
    for combo in itertools.product(*choices):
        edges = []
        for lvl, pairs in enumerate(combo, start=1):
            for k1, k2 in pairs:
                edges.append(((k1, lvl), (k2, lvl)))
        diagram = FeynmanDiagram(partition, frozenset(edges))
        assert diagram.is_admissible()
        out.append(diagram)
    return out


def count_balanced(p: int, m: int) -> int:
    """Total number of balanced diagrams over all balanced partitions."""
    parts = balanced_partitions(p, m)
    return len(parts) * count_lower_bound(p, m) if parts else 0


def count_lower_bound(p: int, m: int) -> int:
    """((p/2)!)^{m_p} (r_p/2)! with m_p = floor(2m/p), r_p = 2m mod p."""
    m_p, r_p = _balance_data(p, m)
    if m < p // 2:
        raise InvalidParams("need m >= p/2")
    if r_p % 2:
        raise InvalidParams("2m mod p must be even")
    return math.factorial(p // 2) ** m_p * math.factorial(r_p // 2)


def crossing_vanishes(diagram: FeynmanDiagram) -> bool:
    """True when two edges rooted in one column cross into a common target
    column in reversed level order, which zeroes the time-simplex factor."""
    if not diagram.is_admissible():
        raise InvalidParams("diagram must be admissible")
    edges = diagram.sorted_edges()
    for (s1, t1), (s2, t2) in itertools.combinations(edges, 2):
        if s1[0] == s2[0] and t1[0] == t2[0]:
            if (s1[1] - s2[1]) * (t1[1] - t2[1]) < 0:
                return True
    return False


def _chaos_constants(p: ModelParams, t: float, k: int):
    """The derived constants of p, after the checks the chaos terms share."""
    dc = derived_constants(p)
    if p.u1 != 0.0:
        raise InvalidParams("chaos terms implemented for u1 = 0")
    _require_positive("t", t)
    _require_integer("k", k, 0)
    return dc


def chaos_term(p: ModelParams, t: float, k: int) -> float:
    """k-th Wiener-chaos contribution to E[u^2] for constant initial data
    (u1 = 0): u0^2 (lambda^2 Theta Gamma(theta+1))^k t^{k(theta+1)}
    / Gamma(k(theta+1) + 1)."""
    dc = _chaos_constants(p, t, k)
    if k == 0:
        return p.u0**2
    n = k * (dc.theta + 1.0)

    def value():
        try:
            term = p.u0**2 * dc.lyapunov_base**k * t**n * sf.rgamma(n + 1.0)
        except OverflowError:
            term = math.inf
        if math.isfinite(term):
            return term
        # a power left the double range before the factors met: meet them
        # in logs (lambda = 1e10, t = 1e-10, k = 20 gives 2.6e287)
        log_term = k * math.log(dc.lyapunov_base) + n * math.log(t) - math.lgamma(n + 1.0)
        return p.u0**2 * math.exp(log_term)

    return finite_or_overflow(value, f"chaos term k={k} at t={t!r} exceeds the double range")


def chaos_term_mc(
    p: ModelParams,
    t: float,
    k: int,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the k-th chaos contribution with standard
    error, sampling the ordered time simplex.

    Space is integrated analytically (the squared-kernel integral is
    Theta dt^theta), leaving lambda^{2k} Theta^k u0^2 times the Dirichlet
    integral of prod (s_{r+1}-s_r)^theta over the simplex.  Gaps are drawn
    from a Dirichlet law tilted by (3 theta + 1)/2, which keeps the weight
    square integrable for every theta > -1 (plain uniform sampling has
    infinite variance once theta <= -1/2).
    """
    dc = _chaos_constants(p, t, k)
    if k > 4:
        raise TooLarge("Monte Carlo chaos check capped at k = 4")
    _require_integer("samples", samples, 2)
    _require_integer("seed", seed, 0, 2**64)
    if k == 0:
        return p.u0**2, 0.0
    th = dc.theta
    kap = p.lam**2 * dc.big_theta
    rng = np.random.Generator(np.random.Philox(key=seed))
    # gaps g_0..g_k with sum t; weighted factors attach to g_1..g_k
    tilt = (3.0 * th + 1.0) / 2.0
    conc = np.array([1.0] + [1.0 + tilt] * k)
    gam = rng.gamma(shape=conc, scale=1.0, size=(samples, k + 1))
    gaps = gam / gam.sum(axis=1, keepdims=True) * t
    # integrand prod g_r^theta over the simplex, importance weight =
    # dirichlet density on the scaled simplex
    logf = th * np.log(gaps[:, 1:]).sum(axis=1)
    log_norm = math.lgamma(1.0 + k * (1.0 + tilt)) - k * math.lgamma(1.0 + tilt)
    logq = (
        tilt * np.log(gaps[:, 1:] / t).sum(axis=1)
        + log_norm
        - k * math.log(t)
    )
    overflow = f"chaos term k={k} at t={t!r} exceeds the double range"
    scale = finite_or_overflow(lambda: p.u0**2 * kap**k, overflow)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        w = np.exp(logf - logq)
        est = scale * float(np.mean(w))
        se = scale * float(np.std(w, ddof=1) / math.sqrt(samples))
    if not (math.isfinite(est) and math.isfinite(se)):
        raise ResultOverflow(overflow)
    return est, se


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


def diagram_to_line(diagram: FeynmanDiagram) -> str:
    """`p m | n1,...,np | (k1,l1)-(k2,l2); ...` fixture format."""
    header, label = diagram.partition._line_labels
    return header + "; ".join(f"{label[a]}-{label[b]}" for a, b in diagram.sorted_edges())
