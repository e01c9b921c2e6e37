#!/usr/bin/env python3
"""Benchmark harness for spde-moments.

Run from the repository root:

    python3 perfbench/run.py --workload sweep|curves|montecarlo|all \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The harness drives the library from outside through its public functions
(see workloads.py for the three workloads and why each was chosen).  It is a
closed loop: one client in one process, numpy/BLAS threads capped at nproc.

Fixed work, not a time box: `--seconds` picks the number of rounds from a
nominal round cost measured at the seed commit (about S seconds of work on
a 2-core Xeon), so wall_s and every count compare across commits.
Each round runs in a fresh interpreter, so the imports and the Theta cache
start cold as for a CLI call; there is no other warm-up, except one untimed
import per run so that byte-compiling the sources is not counted in setup_s.
Single short timings on a shared 2-core box drift by +-25% over tens of
seconds, so times are medians over many ops and rounds.

--trace 0 prints the end-to-end metrics:
  setup_s      fresh interpreter start until spde_moments, cli and simulate
               are imported; median over the rounds' worker processes
  wall_s       wall time of the rounds after set-up (ops + checks), as
               rounds x median round wall
  op_p50_ms    median latency of one op (the library call alone)
  op_tail_ms   latency at the highest percentile with at least 10 ops beyond
               it; the percentile and sample count are printed beside it
  peak_rss_mb  largest resident set of a round's process
and, by name but outside the metrics object because it is 0 when all is
well, fail_ratio = failed / attempted.
--trace 1 runs the first half of the rounds, each untraced and then traced
(tracer.py), and prints the per-layer metrics, the traced wall time
trace.wall_s (the base of the self-time shares) and trace.overhead, the
traced over the untraced wall time.
The last stdout line is the JSON result; details and the machine info go to
.perfbench/results/, spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / ".perfbench"

# seconds of work per round at the seed commit on the reference machine
NOMINAL_ROUND_S = {"sweep": 6.5, "curves": 6.0, "montecarlo": 3.5}
MIN_OPS = 20          # enough for a tail percentile with 10 ops beyond it
TAIL_BEYOND = 10
RUN_BUDGET_S = 170.0  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("specialfn.ml.neg.calls", "count", "lower"),
    ("specialfn.ml.neg.self_s", "s", "lower"),
    ("specialfn.ml.pos.calls", "count", "lower"),
    ("specialfn.ml.pos.self_s", "s", "lower"),
    ("model.big_theta.calls", "count", "lower"),
    ("model.big_theta.distinct", "count", "lower"),
    ("model.big_theta.hit_ratio", "ratio", "higher"),
    ("model.big_theta.self_s", "s", "lower"),
    ("moments.second_moment.calls", "count", "lower"),
    ("moments.second_moment.self_s", "s", "lower"),
    ("moments.volterra_second_moment.self_s", "s", "lower"),
    ("moments.volterra.steps", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.bytes_out", "B", "lower"),
    ("diagrams.enumerate_admissible.self_s", "s", "lower"),
    ("diagrams.diagram_count", "count", "lower"),
    ("diagrams.chaos_term_mc.self_s", "s", "lower"),
    ("simulate.she.self_s", "s", "lower"),
    ("simulate.she.cell_steps", "count", "lower"),
    ("simulate.she.cell_steps_per_s", "1/s", "higher"),
    ("simulate.she.bytes_computed", "B", "lower"),
    ("simulate.swe.self_s", "s", "lower"),
    ("simulate.swe.window_sums", "count", "lower"),
    ("simulate.swe.history_bytes_computed", "B", "lower"),
    ("specialfn.self_s", "s", "lower"),
    ("model.self_s", "s", "lower"),
    ("moments.self_s", "s", "lower"),
    ("diagrams.self_s", "s", "lower"),
    ("simulate.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# spans each workload must exercise: a zero here means a missed binding
REQUIRED_SPANS = {
    "sweep": ["cli.figure_rows", "model.big_theta", "specialfn.ml.neg", "moments.second_lyapunov"],
    "curves": [
        "cli.main", "model.big_theta", "specialfn.ml.pos", "moments.second_moment",
        "moments.volterra_second_moment", "moments.pth_moment_upper", "diagrams.chaos_term",
        "diagrams.enumerate_admissible",
    ],
    "montecarlo": [
        "simulate.she", "simulate.swe", "diagrams.chaos_term_mc", "model.big_theta",
        "specialfn.ml.neg", "moments.she_second_moment", "moments.swe_second_moment",
    ],
}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        try:
            env[var] = str(max(1, min(int(env[var]), nproc)))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), **versions}


class Runner:
    def __init__(self, deadline: float):
        self.env = child_env()
        self.deadline = deadline

    def _child(self, argv, stdin_text=None) -> str:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE)
        try:
            out, _ = proc.communicate(stdin_text, timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{argv[1]} overran the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{argv[1]} exited with {proc.returncode}")
        return out

    def warm_up(self):
        """Untimed import, so byte-compiling the sources is not set-up time."""
        self._child([sys.executable, "-c", "import spde_moments.cli, spde_moments.simulate"])

    def round(self, workload: str, ops: list, trace: bool, spans_path: Path | None) -> dict:
        job = {"workload": workload, "ops": ops, "trace": trace, "spans_path": str(spans_path)}
        spawned_at = time.monotonic()
        out = self._child([sys.executable, str(HERE / "worker.py")], json.dumps(job))
        result = json.loads(out.splitlines()[-1])
        result["setup_s"] = result["imported_at"] - spawned_at  # CLOCK_MONOTONIC is system-wide
        return result


def rounds_for(workload: str, seconds: int, ops_per_round: int) -> int:
    rounds = max(1, round(seconds / NOMINAL_ROUND_S[workload]))
    return max(rounds, math.ceil(MIN_OPS / ops_per_round))


def latency_stats(results: list[dict]) -> dict:
    lat = sorted(x for r in results for x in r["latencies_s"] if math.isfinite(x))
    n = len(lat)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} timed ops; the tail needs more than {TAIL_BEYOND}")
    return {
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[n - TAIL_BEYOND - 1],
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "ops_timed": n,
    }


def layer_metrics(workload: str, traced: list[dict], untraced_wall: float) -> dict:
    spans = Counter()
    layers = Counter()
    counters = Counter()
    distinct = 0
    for r in traced:
        t = r["trace"]
        for name, rec in t["spans"].items():
            spans[name + ".calls"] += rec["calls"]
            spans[name + ".self_s"] += rec["self_s"]
        layers.update(t["layers"])
        counters.update(t["counters"])
        # each round is a fresh process: its distinct tuples are all cold
        distinct += len(t["distinct"].get("model.big_theta", []))
    missing = [name for name in REQUIRED_SPANS[workload] if spans[name + ".calls"] == 0]
    if missing:
        raise BenchError(f"traced run recorded zero calls for {missing}")
    values = {**spans, **counters, **{f"{k}.self_s": v for k, v in layers.items()}}
    values["model.big_theta.distinct"] = distinct
    calls = spans["model.big_theta.calls"]
    values["model.big_theta.hit_ratio"] = 1.0 - distinct / calls if calls else 0.0
    she_s = spans["simulate.she.self_s"]
    values["simulate.she.cell_steps_per_s"] = counters["simulate.she.cell_steps"] / she_s if she_s else 0.0
    values["trace.wall_s"] = sum(r["wall_s"] for r in traced)
    values["trace.overhead"] = values["trace.wall_s"] / untraced_wall
    return {name: values.get(name, 0) for name, _, _ in PER_LAYER}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    OUT.mkdir(exist_ok=True)
    (OUT / "spans").mkdir(exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    ops_per_round = len(workloads.plan(workload, seed, 1)[0])
    plan = workloads.plan(workload, seed, rounds_for(workload, seconds, ops_per_round))
    runner.warm_up()
    if trace:
        plan = plan[: max(1, len(plan) // 2)]
    results, traced = [], []
    for i, ops in enumerate(plan):
        results.append(runner.round(workload, ops, False, None))
        if trace:  # right after its untraced twin, so both see the same machine speed
            spans_path = OUT / "spans" / f"{workload}-seed{seed}-round{i}.npz"
            traced.append(runner.round(workload, ops, True, spans_path))
    everything = results + traced
    attempted = sum(len(r["latencies_s"]) for r in everything)
    failures = [f for r in everything for f in r["failures"]]
    # medians over rounds (fresh processes) damp this box's slow speed drift
    wall = len(results) * statistics.median(r["wall_s"] for r in results)
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(plan), "attempted": attempted, "failed": len(failures),
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "machine": machine_info(),
    }
    if trace:
        metrics = layer_metrics(workload, traced, sum(r["wall_s"] for r in results))
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        stats = latency_stats(results)
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "wall_s": wall,
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
        }
        units = dict(END_TO_END)
        report.update(tail_percentile=stats["tail_percentile"], ops_timed=stats["ops_timed"],
                      round_walls_s=[r["wall_s"] for r in results])
        report["latencies_by_kind_ms"] = _by_kind(results)
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    name = f"{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT / "results" / name).write_text(json.dumps(report, indent=1) + "\n")
    return report


def _by_kind(results: list[dict]) -> dict:
    groups: dict[str, list] = {}
    for r in results:
        for kind, x in zip(r["kinds"], r["latencies_s"]):
            groups.setdefault(kind, []).append(x)
    return {k: {"n": len(v), "median_ms": 1e3 * statistics.median(v)} for k, v in groups.items()
            if all(math.isfinite(x) for x in v)}


def print_report(report: dict):
    m = report["machine"]
    print(f"# {report['workload']} seed={report['seed']} rounds={report['rounds']} "
          f"trace={int(report['trace'])} | {m['cpu']}, nproc={m['nproc']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, mpmath {m['mpmath']}")
    for name, rec in report["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{report['tail_percentile']:.1f} of {report['ops_timed']} ops)"
        print(f"{name} = {rec['value']:.6g} {rec['unit']}{note}")
    print(f"fail_ratio = {report['fail_ratio']:.6g} ratio ({report['failed']}/{report['attempted']} ops)")
    for f in report["failures"]:
        print(f"  failed op {f['op']} ({f['kind']}): {f['error']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spde-moments benchmark")
    ap.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spde_moments" / "__init__.py").is_file():
        print("error: run from a spde-moments checkout (src/spde_moments not found)", file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([sys.executable, str(HERE / "selftest.py")], cwd=ROOT, env=child_env()).returncode
    if not args.workload:
        ap.error("--workload is required")
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for report in reports:
        print_report(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in reports)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
