"""One benchmark round in a fresh interpreter.

Imports the library first and notes the monotonic time (the end of set-up),
then reads a job from stdin: {"workload", "ops", "trace", "spans_path"}.
Runs the ops in order, timing each library call alone and checking its
output after the clock stops.  Prints one JSON line: per-op latencies and
failures, the round's wall time (first op start to last check end), peak
RSS, and with tracing the span summary.
"""

from __future__ import annotations

import time

from spde_moments import cli, simulate  # set-up ends here: setup_s

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

from spde_moments import diagrams, moments  # noqa: E402
from spde_moments.model import ModelParams  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

SHE_PARAMS = ModelParams(2.0, 1.0, 0.0, 1.0, 1.0, 1, u0=1.0)
SWE_PARAMS = ModelParams(2.0, 2.0, 0.0, 1.0, 2.0, 1, u0=1.0, u1=0.0)


def _sim(api, op):
    cfg = api["simulate"].SimConfig(
        dx=op["dx"], dt=op["dt"], domain_half_width=op["domain_half_width"],
        t_end=op["t_end"], n_paths=op["n_paths"], seed=op["seed"],
    )
    if op["op"] == "she":
        return api["simulate"].simulate_she(SHE_PARAMS, cfg, [op["t_end"]])
    return api["simulate"].simulate_swe(SWE_PARAMS, cfg, [op["t_end"]])


def _run_op(api, op, ctx, counters):
    """Returns (latency seconds, failure message or None)."""
    kind = op["op"]
    if kind == "figure":
        t0 = time.perf_counter()
        rows = api["cli"].figure_rows(op["family"], op["nu"], op["lam"], [op["x"]])
        dt = time.perf_counter() - t0
        return dt, wl.check_figure(op, rows)
    if kind == "cli":
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = api["cli"].main(op["argv"])
        dt = time.perf_counter() - t0
        out = buf.getvalue()
        counters["cli.bytes_out"] += len(out.encode())
        return dt, wl.check_cli(op, code, out, ctx)
    if kind in ("she", "swe"):
        t0 = time.perf_counter()
        out = _sim(api, op)
        dt = time.perf_counter() - t0
        value, stderr = float(out.curve.values[-1]), float(out.curve.stderr[-1])
        if op.get("repeat"):
            first = ctx[("sim", op["op"], op["seed"])]
            return dt, wl.check_repeat(first, (value, stderr))
        ctx[("sim", kind, op["seed"])] = (value, stderr)
        mm = api["moments"]
        t = op["t_end"]
        if kind == "she":
            exact = mm.she_second_moment(SHE_PARAMS.nu, SHE_PARAMS.lam, SHE_PARAMS.u0, t)
        else:
            exact = mm.swe_second_moment(SWE_PARAMS.nu, SWE_PARAMS.lam, SWE_PARAMS.u0, SWE_PARAMS.u1, t)
        return dt, wl.check_probe(value, stderr, exact)
    if kind == "chaos_mc":
        t0 = time.perf_counter()
        est, se = api["diagrams"].chaos_term_mc(SHE_PARAMS, 1.0, op["k"], op["samples"], op["seed"])
        dt = time.perf_counter() - t0
        ok = math.isfinite(est) and est > 0 and se > 0
        return dt, None if ok else f"chaos MC estimate {est!r} +- {se!r}"
    raise ValueError(f"unknown op {kind!r}")


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = None
    api = {"cli": cli, "diagrams": diagrams, "moments": moments, "simulate": simulate}
    if job["trace"]:
        tracer = tracing.Tracer()
        api = tracing.install(tracer)
    ctx: dict = {}
    counters = tracer.counters if tracer else Counter()
    latencies, failures = [], []
    t0 = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        try:
            dt, failure = _run_op(api, op, ctx, counters)
        except Exception as exc:  # an op that raises is a failed op
            dt, failure = math.nan, f"{type(exc).__name__}: {exc}"
        latencies.append(dt)
        if failure:
            failures.append({"op": i, "kind": op["op"], "error": failure})
    wall = time.perf_counter() - t0
    result = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "latencies_s": latencies,
        "kinds": [op.get("check", op["op"]) for op in job["ops"]],
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary()
        tracer.write(job["spans_path"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
