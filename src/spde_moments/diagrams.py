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
from .errors import InvalidParams, NotBalanced, TooLarge, finite_or_overflow
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
    "diagram_to_line",
]

_ENUM_CAP = 12  # exhaustive-enumeration vertex budget
_MC_BLOCK = 4096  # chaos_term_mc's rows per block: 160 KiB of gaps at k = 4

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
    def _line_labels(self) -> tuple[str, "_EdgeLabels"]:
        """The `diagram_to_line` header `p m | n1,...,np | ` and edge
        labels, kept on the partition so that they go with it."""
        header = f"{self.p} {self.total // 2} | {','.join(map(str, self.n))} | "
        return header, _EdgeLabels()


class _EdgeLabels(dict):
    """`(k1,l1)-(k2,l2)` labels of edges, each formatted on its first
    lookup, so an edge leaving the partition's vertices gets one too."""

    def __missing__(self, e: Edge) -> str:
        (k1, l1), (k2, l2) = e
        label = self[e] = f"({k1},{l1})-({k2},{l2})"
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
        `sorted_edges`; the frozenset `edges` is built on first access
        (`__getattr__`).  Any other caller must use the validating
        constructor.
        """
        diagram = object.__new__(cls)
        # frozen: fill the instance dict directly, as __setattr__ refuses
        diagram.__dict__.update(partition=partition, _sorted=edges)
        return diagram

    def __getattr__(self, name: str):
        # reached only for attributes missing from the instance dict: the
        # `edges` of a diagram from `_from_sorted`, formed once
        known = self.__dict__.get("_sorted") if name == "edges" else None
        if known is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        edges = self.__dict__["edges"] = frozenset(known)
        return edges

    def sorted_edges(self) -> list[Edge]:
        known = self.__dict__.get("_sorted")
        return list(known) if known is not None else sorted(self.edges)


def enumerate_admissible(partition: Partition) -> list[FeynmanDiagram]:
    """All perfect matchings with cross-column, upward-pointing edges.

    Each matching pairs the lowest remaining vertex v with a vertex w of a
    higher column and matches the rest (`_matchings`), so its edges come
    out sorted, pointing upward and disjoint; they are wrapped without
    re-validation.  The matchings are listed in the order of that
    recursion, w ascending and then the rest's matchings in their order,
    which is the lexicographic order of the sorted edge tuples.

    The matchings of each remaining vertex set are formed once per call:
    a memo local to the call maps the set, as a bitmask over
    `partition.vertices()`, to its matchings, each the tuple of edge (v, w)
    and one of the shared suffix tuples of the set without v and w.  Every
    edge tuple comes from one table built per call.
    """
    total = partition.total
    if total % 2:
        raise InvalidParams("partition total must be even")
    if total > _ENUM_CAP:
        raise TooLarge(f"enumeration capped at {_ENUM_CAP} vertices, got {total}")
    verts = partition.vertices()
    # partners[i]: (bit of w, the 1-tuple of edge (v, w)) for v = verts[i]
    # and every w of a higher column, w ascending; vertices are in column order
    partners = [
        [(1 << j, ((v, w),)) for j, w in enumerate(verts) if w[0] > v[0]] for v in verts
    ]
    matchings = _matchings((1 << total) - 1, partners, {0: [()]})
    from_sorted = FeynmanDiagram._from_sorted
    return [from_sorted(partition, edges) for edges in matchings]


def _matchings(remaining: int, partners: list, memo: dict) -> list[tuple[Edge, ...]]:
    """The matchings of the vertex set `remaining` (a bitmask), in
    recursion order, through memo.

    A module-level function with its state in arguments: a nested one that
    calls itself is a reference cycle, which would keep the memo and every
    matching alive until the next full garbage collection.
    """
    known = memo.get(remaining)
    if known is not None:
        return known
    low = remaining & -remaining
    rest = remaining ^ low
    out = []
    for bit, head in partners[low.bit_length() - 1]:
        if rest & bit:
            out.extend([head + suffix for suffix in _matchings(rest ^ bit, partners, memo)])
    memo[remaining] = out
    return out


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
    # lambda = 1e10, t = 1e-10, k = 20: 2.6e287, but a power leaves the range
    return finite_or_overflow(
        lambda: p.u0**2 * dc.lyapunov_base**k * t**n * sf.rgamma(n + 1.0),
        f"chaos term k={k} at t={t!r} exceeds the double range",
        lambda: p.u0**2
        * math.exp(k * math.log(dc.lyapunov_base) + n * math.log(t) - math.lgamma(n + 1.0)),
    )


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

    The samples are drawn and weighted in blocks of _MC_BLOCK rows, with
    the same bits as one draw of all of them: successive standard_gamma
    calls read the one Philox stream in the order a single call does, each
    weight depends on its own row alone and is computed by the same
    operations in the same order, and the mean and standard deviation run
    over the whole weight array.  Working memory is 8 bytes per sample for
    the weights (16 while np.std holds its deviations) plus one block; a
    weight array that cannot be allocated raises TooLarge.

    The scale u0^2 (lambda^2 Theta)^k meets the weights' mean and standard
    error in logs where it alone leaves the double range, and where their
    squared deviations underflow, the deviation is taken relative to the
    largest weight.
    """
    dc = _chaos_constants(p, t, k)
    if k > 4:
        raise TooLarge("Monte Carlo chaos check capped at k = 4")
    _require_integer("samples", samples, 2)
    _require_integer("seed", seed, 0, 2**64)
    if k == 0:
        return p.u0**2, 0.0
    th = dc.theta
    try:
        w = np.empty(samples)
    except (MemoryError, ValueError):  # ValueError: beyond numpy's size limit
        raise TooLarge(f"{samples} Monte Carlo samples do not fit in memory") from None
    rng = np.random.Generator(np.random.Philox(key=seed))
    # gaps g_0..g_k with sum t; weighted factors attach to g_1..g_k
    tilt = (3.0 * th + 1.0) / 2.0
    conc = np.array([1.0] + [1.0 + tilt] * k)
    log_norm = math.lgamma(1.0 + k * (1.0 + tilt)) - k * math.lgamma(1.0 + tilt)
    for start in range(0, samples, _MC_BLOCK):
        rows = min(_MC_BLOCK, samples - start)
        # in place, each operation in the order of the expressions
        # gaps = gam / sum(gam) * t, logf = theta sum log g_r and
        # logq = tilt sum log(g_r / t) + log_norm - k log t
        gaps = rng.standard_gamma(conc, size=(rows, k + 1))
        gaps /= gaps.sum(axis=1, keepdims=True)
        gaps *= t
        # integrand prod g_r^theta over the simplex, importance weight =
        # dirichlet density on the scaled simplex
        weighted = gaps[:, 1:]
        logs = np.log(weighted)
        logf = logs.sum(axis=1)
        logf *= th
        np.divide(weighted, t, out=logs)
        np.log(logs, out=logs)
        logq = logs.sum(axis=1)
        logq *= tilt
        logq += log_norm
        logq -= k * math.log(t)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            np.exp(np.subtract(logf, logq, out=logf), out=w[start : start + rows])
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(w))
        sd = float(np.std(w, ddof=1) / math.sqrt(samples))
        if sd == 0.0 and w.min() < w.max():  # the squared deviations underflowed
            top = float(w.max())
            sd = float(np.std(np.divide(w, top, out=w), ddof=1) / math.sqrt(samples)) * top

    def scaled(x):  # u0^2 kappa^k x with kappa = lambda^2 Theta
        log_kappa = 2.0 * math.log(abs(p.lam)) + math.log(dc.big_theta)
        # x = 0 under a scale past the range is an underflow: NaN, so ResultOverflow
        return finite_or_overflow(
            lambda: p.u0**2 * (p.lam**2 * dc.big_theta) ** k * x,
            f"chaos term k={k} at t={t!r} exceeds the double range",
            lambda: p.u0**2 * math.exp(k * log_kappa + math.log(x)) if x else math.nan,
        )

    return scaled(mean), scaled(sd)


def diagram_to_line(diagram: FeynmanDiagram) -> str:
    """`p m | n1,...,np | (k1,l1)-(k2,l2); ...` fixture format."""
    header, labels = diagram.partition._line_labels
    edges = diagram.__dict__.get("_sorted") or diagram.sorted_edges()
    return header + "; ".join(map(labels.__getitem__, edges))
