"""Seeded workload plans and the output checks that count into fail_ratio.

A plan is a list of rounds; a round is a list of ops (plain dicts, so the
plan crosses to the worker process as JSON).  Every round runs in a fresh
interpreter.  The seed only chooses inputs: two seeds give different inputs
and the same op count.  Nothing here imports the library.

Workloads (why each was chosen):

- sweep: `cli.figure_rows`, one grid point per op, for the sheswe, tfspde and
  sfhe families.  Stratified jittered grids span each family's full range
  (with a stratum in beta in [1.9, 2); sheswe skips the band next to its
  Dalang boundary where the rate overflows), so every point is a new tuple and
  Theta's cache is cold, as in a figure run: the time is cold Theta, i.e.
  negative-axis `ml` inside the quadrature.
- curves: in-process `cli.main` commands on the six tuples of the Volterra
  acceptance sweep (beta < 1, = 1, in (1, 2), = 2 with u1 > 0, gamma > 0),
  with seeded lambda/u0/u1/t jitter, plus `diagrams` enumerations of 10 to
  12 vertices.  Theta is computed once per tuple and then hit many times;
  the time is positive-axis `ml`, the O(n^2) Volterra loop and CLI
  formatting.
- montecarlo: `simulate_she` and `simulate_swe` on the Monte Carlo acceptance
  grids and `chaos_term_mc`, with Philox keys from the seed: the time is in
  `simulate`.

Checks do not cover Theta for beta in (1, 2) away from the anchors, so the
known beta -> 2- quadrature error is not caught.
"""

from __future__ import annotations

import itertools
import json
import math
import random

# --- sweep ---------------------------------------------------------------

# family -> (nu, lambda, grid strata); each stratum gets one jittered point.
# sheswe has theta = 1.5 beta - 2, so its rate (Theta Gamma(theta+1))^(1/(theta+1))
# exceeds the double range as beta -> 2/3+ (Dalang's boundary); the grid
# leaves out 2/3 < beta < 0.67 (theta + 1 < 0.005), where figure_rows raises
# OverflowError for a value no float can hold.
_BETA_STRATA = [(0.05 + 0.37 * i, 0.05 + 0.37 * (i + 1)) for i in range(5)] + [(1.9, 2.0)]
SWEEP_FAMILIES = {
    "sheswe": (1.0, 1.0, [(0.05, 0.42), (0.42, 2.0 / 3.0), (0.67, 0.79)] + _BETA_STRATA[2:]),
    "tfspde": (2.0, 1.0, _BETA_STRATA),
    "sfhe": (1.0, 1.0, [(1.05 + 0.65 * i, 1.05 + 0.65 * (i + 1)) for i in range(6)]),
}

# Acceptance 03 anchors: (family, nu, x) -> {series: (reference, tol, kind)}.
# beta = 1 and 2 have exact closed forms (1/(2 sqrt(pi)), 1/sqrt(2), and the
# tfspde rates 1/8 and 1/sqrt(2)); 0.5 and 1.5 only the 1e-3 references.
_THETA_TOL = 1e-8  # Theta's relative quadrature target
_RATE_TOL = 1e-7   # a rate is Theta^(1/(theta+1)): at most 2x Theta's error
SWEEP_ANCHORS = [
    ("sheswe", 1.0, 0.5, {"theta_big": (0.0715941, 1e-3, "abs")}),
    ("sheswe", 1.0, 1.0, {"theta_big": (0.5 / math.sqrt(math.pi), _THETA_TOL, "rel")}),
    ("sheswe", 1.0, 1.5, {"theta_big": (0.5168553, 1e-3, "abs")}),
    ("sheswe", 1.0, 2.0, {"theta_big": (1.0 / math.sqrt(2.0), _THETA_TOL, "rel")}),
    ("tfspde", 2.0, 1.0, {"lyapunov": (0.125, _RATE_TOL, "rel")}),
    ("tfspde", 2.0, 2.0, {"lyapunov": (1.0 / math.sqrt(2.0), _RATE_TOL, "rel")}),
]


def _plan_sweep(rng: random.Random, rounds: int) -> list[list[dict]]:
    # Latin hypercube over the run: each stratum is cut into one sub-stratum
    # per round and the rounds take the sub-strata in a seeded order, so every
    # round covers every stratum and the run covers the range finely
    plans = [[] for _ in range(rounds)]
    for family, (nu, lam, strata) in SWEEP_FAMILIES.items():
        for lo, hi in strata:
            width = (hi - lo) / rounds
            order = list(range(rounds))
            rng.shuffle(order)
            for ops, k in zip(plans, order):
                x = lo + width * (k + rng.random())
                ops.append({"op": "figure", "family": family, "nu": nu, "lam": lam, "x": x})
    for ops in plans:
        for family, nu, x, expect in SWEEP_ANCHORS:
            ops.append({"op": "figure", "family": family, "nu": nu, "lam": 1.0, "x": x, "expect": expect})
        rng.shuffle(ops)
    return plans


def _within(value: float, ref: float, tol: float, kind: str) -> bool:
    err = abs(value - ref)
    return err <= tol * abs(ref) if kind == "rel" else err <= tol


def check_figure(op: dict, rows: list) -> str | None:
    """Rows of one figure_rows grid point; None when they pass."""
    if not rows or any(x != op["x"] for x, _, _ in rows):
        return "no rows, or rows for another grid point"
    series = {s: y for _, y, s in rows}
    if not all(math.isfinite(y) and y > 0 for y in series.values()):
        return f"non-finite or non-positive value in {series}"
    if op["family"] == "sfhe":
        # beta = 1 closed form Gamma(1 + 1/alpha) / (pi nu^(1/alpha))
        a = op["x"]
        ref = math.gamma(1.0 + 1.0 / a) / (math.pi * op["nu"] ** (1.0 / a))
        if "sfhe_theta_big" not in series or not _within(series["sfhe_theta_big"], ref, _THETA_TOL, "rel"):
            return f"sfhe_theta_big {series.get('sfhe_theta_big')!r} != {ref!r}"
    elif "theta_big" not in series:
        return "theta_big row missing"
    for name, (ref, tol, kind) in op.get("expect", {}).items():
        if name not in series or not _within(series[name], ref, tol, kind):
            return f"{name} {series.get(name)!r} != {ref!r} ({kind} tol {tol})"
    return None


# --- curves --------------------------------------------------------------

# Volterra acceptance tuples: (alpha, beta, gamma, u0, u1); lambda = nu = 1
CURVE_POOL = [
    (2.0, 1.0, 0.0, 1.0, 0.0),
    (3.0, 1.0, 0.0, 0.8, 0.0),
    (1.5, 0.8, 0.2, 1.2, 0.0),
    (2.0, 1.3, 0.0, 1.0, 0.5),
    (2.0, 2.0, 0.0, 1.0, 1.0),
    (3.0, 1.3, 0.0, 1.0, 1.0),
]
MOMENT_POINTS = 4096
VOLTERRA_POINTS = 8192  # = 2 * MOMENT_POINTS: closed-form point j is Volterra point 2j+1
VOLTERRA_RTOL = 1e-4
VOLTERRA_TOL = 1e-4
# partitions of 10 to 12 vertices (enumeration cap 12); the seed permutes
# the columns, which changes the input but not the diagram count
DIAGRAM_POOL = [(2, 2, 2, 2, 2, 2), (3, 3, 3, 3), (1, 2, 3, 2, 2, 2), (3, 3, 2, 2, 2), (4, 4, 2, 2)]


def _plan_curves(rng: random.Random, rounds: int) -> list[list[dict]]:
    return [_curves_round(rng) for _ in range(rounds)]


def _curves_round(rng: random.Random) -> list[dict]:
    ops = []
    tuples = list(enumerate(CURVE_POOL))
    rng.shuffle(tuples)
    for tid, (alpha, beta, gamma, u0, u1) in tuples:
        lam = rng.uniform(0.9, 1.1)
        params = [
            "--alpha", repr(alpha), "--beta", repr(beta), "--gamma", repr(gamma),
            "--lambda", repr(lam), "--u0", repr(u0 * rng.uniform(0.9, 1.1)),
            "--u1", repr(u1 * rng.uniform(0.9, 1.1)),
        ]
        t = repr(rng.uniform(1.8, 2.2))
        key = f"tuple{tid}"
        ops.append({"op": "cli", "key": key, "check": "second-moment",
                    "argv": ["second-moment", *params, "--t-max", t, "--n-points", str(MOMENT_POINTS)]})
        ops.append({"op": "cli", "key": key, "check": "volterra",
                    "argv": ["volterra", *params, "--t-max", t, "--n-points", str(VOLTERRA_POINTS),
                             "--rtol", repr(VOLTERRA_RTOL)]})
        ops.append({"op": "cli", "key": key, "check": "pth-bound",
                    "argv": ["pth-bound", *params, "--p", "2", "--t", t]})
        ops.append({"op": "cli", "key": key, "check": "lyapunov", "argv": ["lyapunov", *params],
                    "rate": _closed_form_rate(alpha, beta, gamma, lam)})
        if u1 == 0.0 or beta <= 1.0:  # chaos terms are defined there only
            ops.append({"op": "cli", "key": key, "check": "chaos",
                        "argv": ["chaos", *params, "--t", t, "--k", "8"]})
    parts = []
    for part in DIAGRAM_POOL:
        part = list(part)
        rng.shuffle(part)
        parts.append({"op": "cli", "check": "diagrams", "partition": part,
                      "argv": ["diagrams", "--partition", ",".join(map(str, part))]})
    return ops + parts


def _closed_form_rate(alpha, beta, gamma, lam):
    """Second Lyapunov exponent where a closed form exists (nu = 1, d = 1)."""
    if (alpha, beta, gamma) == (2.0, 1.0, 0.0):
        return lam**4 / 4.0                 # heat: exp(lam^4 t / 4 nu)
    if (alpha, beta, gamma) == (2.0, 2.0, 0.0):
        return abs(lam) / 2.0**0.25         # wave: cosh(|lam| t / (2 nu)^(1/4))
    return None


def _csv_values(text: str) -> list[float]:
    lines = text.splitlines()
    if len(lines) < 3 or lines[1] != "t,value,method":
        raise ValueError("not a moment CSV")
    return [float(line.split(",")[1]) for line in lines[2:]]


def perfect_matchings(parts) -> int:
    """Perfect matchings of the complete multipartite graph with the given
    part sizes, by inclusion-exclusion over same-part edges."""
    def dfact(n):  # (n)!!, with (-1)!! = 1
        return math.prod(range(n, 0, -2)) if n > 0 else 1

    n_total = sum(parts)
    total = 0
    for js in itertools.product(*(range(n // 2 + 1) for n in parts)):
        j = sum(js)
        ways = math.prod(math.comb(n, 2 * k) * dfact(2 * k - 1) for n, k in zip(parts, js))
        total += (-1) ** j * ways * dfact(n_total - 2 * j - 1)
    return total


def check_cli(op: dict, code: int, out: str, ctx: dict) -> str | None:
    """Output of one CLI command; `ctx` holds each tuple's closed-form curve
    (written by the second-moment op, which runs first)."""
    if code != 0:
        return f"exit code {code}"
    kind = op["check"]
    if kind == "diagrams":
        lines = out.splitlines()
        want = perfect_matchings(op["partition"])
        head = lines[0] if lines else ""
        if not head.endswith(f": {want}") or len(lines) != want + 1 or len(set(lines[1:])) != want:
            return f"diagram listing does not hold the {want} matchings: {head!r}"
        return None
    if kind == "second-moment":
        values = _csv_values(out)
        if len(values) != MOMENT_POINTS or not all(math.isfinite(v) and v > 0 for v in values):
            return "closed-form curve malformed"
        ctx[op["key"]] = values
        return None
    closed = ctx.get(op["key"])
    if closed is None:
        return "closed-form curve missing"
    if kind == "volterra":
        values = _csv_values(out)
        if len(values) != VOLTERRA_POINTS:
            return "volterra curve malformed"
        for j in range(15, MOMENT_POINTS, 16):
            if not abs(values[2 * j + 1] - closed[j]) <= VOLTERRA_TOL * abs(closed[j]):
                return f"volterra point {2 * j + 1}: {values[2 * j + 1]!r} vs closed form {closed[j]!r}"
        return None
    payload = json.loads(out)
    if kind == "pth-bound":
        if not payload["pth_moment_upper_sq"] >= closed[-1]:
            return f"p=2 bound {payload['pth_moment_upper_sq']!r} below E[u^2] {closed[-1]!r}"
    elif kind == "chaos":
        if not payload["partial_sum"] <= payload["second_moment"] * (1.0 + 1e-12):
            return f"chaos partial sum {payload['partial_sum']!r} above E[u^2] {payload['second_moment']!r}"
    elif kind == "lyapunov":
        rate = payload["second_lyapunov"]
        if not (math.isfinite(rate) and rate > 0):
            return f"bad rate {rate!r}"
        if op["rate"] is not None and not _within(rate, op["rate"], _RATE_TOL, "rel"):
            return f"rate {rate!r} != closed form {op['rate']!r}"
    return None


# --- montecarlo ----------------------------------------------------------

# Monte Carlo acceptance grids; path counts and the SHE horizon are sized so
# a round takes a few seconds.  One probe per simulator call keeps the
# number of 4-SE checks (each a ~1e-4 false-alarm chance) small.  A round
# holds 3 SHE, 2 SWE (one a repeat) and 3 chaos ops, so over a run the SHE
# calls outnumber the 10 ops beyond the tail percentile: op_tail_ms is then a
# mid-rank SHE latency, not an extreme of a few.
SHE_RUN = {"dx": 0.02, "dt": 1e-4, "domain_half_width": 1.2, "t_end": 0.05, "n_paths": 500}
SWE_RUN = {"dx": 0.02, "dt": 0.02, "domain_half_width": 0.6, "t_end": 0.5, "n_paths": 1000}
MC_SE = 4.0
CHAOS_SAMPLES = 100_000


def _plan_montecarlo(rng: random.Random, rounds: int) -> list[list[dict]]:
    return [_montecarlo_round(rng) for _ in range(rounds)]


def _montecarlo_round(rng: random.Random) -> list[dict]:
    def key():
        return rng.randrange(2**63)

    ops = [{"op": "she", "seed": key(), **SHE_RUN} for _ in range(3)]
    ops.append({"op": "swe", "seed": key(), **SWE_RUN})
    for k in sorted(rng.sample([1, 2, 3, 4], 3)):
        ops.append({"op": "chaos_mc", "k": k, "samples": CHAOS_SAMPLES, "seed": key()})
    rng.shuffle(ops)
    # the repeat reruns the SWE call with the same Philox key: bit-identical
    swe = next(op for op in ops if op["op"] == "swe")
    return ops + [{**swe, "repeat": True}]


def check_repeat(first: tuple, again: tuple) -> str | None:
    return None if first == again else f"repeated seed is not bit-identical: {first} vs {again}"


def check_probe(value: float, stderr: float, exact: float) -> str | None:
    if not (math.isfinite(value) and stderr > 0 and abs(value - exact) <= MC_SE * stderr):
        return f"probe {value!r} +- {stderr!r} not within {MC_SE} SE of {exact!r}"
    return None


# --- plans ---------------------------------------------------------------

_PLANNERS = {"sweep": _plan_sweep, "curves": _plan_curves, "montecarlo": _plan_montecarlo}
WORKLOADS = tuple(_PLANNERS)


def plan(workload: str, seed: int, rounds: int) -> list[list[dict]]:
    return _PLANNERS[workload](random.Random(f"{workload}/{seed}"), rounds)
