#!/usr/bin/env python3
"""Time scalar Mittag-Leffler calls per branch and cold Theta.

Prints, for one (a, b, z) per branch of `specialfn.ml`, the branches the
call went through and its median time in microseconds, once with the Gamma
caches warm and once with every cache cleared before each call.  Then
prints the median time of a cold Theta integral (`model._radial_j`, its
cache and the Gamma caches cleared before each run) at the ROADMAP points
(alpha, beta) = (2, 0.5), (2, 1.3), (2, 1.7), (2, 1.95) and (4, 2) in d = 3,
with the number of `ml` calls each makes.  Last, the median time of one
Volterra solve (`moments._volterra_solve` by recursive halving, 8192 and
16 384 steps on [0, 2]), of one `diagrams --partition 2,2,2,2,2,2` call
(6040 diagrams, stdout discarded) with its two layers, the enumeration
(`diagrams.enumerate_admissible`) and the formatting of every line
(`diagrams.diagram_to_line`, each run on a new `Partition`, so its label
table starts empty as in a CLI call), and of a cold `import spde_moments.cli`
in a fresh interpreter (9 subprocesses, after one untimed import that
byte-compiles the sources; the import alone, not the interpreter start).
Then the layers of the curve commands: for one 4096-point `second-moment`
grid on [0, 2], the median time of the t_hat pass (from the call until the
first `ml_array`), of the `ml_array` calls, with the number of elements
they hand to scalar `ml`, and of `MomentCurve.to_csv`; and for
`volterra --n-points 8192 --rtol 1e-4`, the two solves against the CSV.
Last, the simulator layers on the `montecarlo` benchmark's grids
(`perfbench/workloads.py`: `SHE_RUN`, `SWE_RUN`, and `chaos_term_mc` at
k = 4 with `CHAOS_SAMPLES` draws at t = 1): the median time of one call,
of its noise draw (`simulate._swe_noise`; the heat scheme's Philox
`random_raw` calls, without the stream rewinds; the chaos term's
`standard_gamma`) with its share of the call, and of the reduction to
the probe statistics (`simulate._probe_output`), the rest being the
stencil or the weights; for the wave, the cell rows of noise drawn; and
the tracemalloc peak of one more, untimed call (numpy reports its array
allocations to tracemalloc).

    PYTHONPATH=src python scripts/ml_layers.py [--repeat N]
"""

import argparse
import contextlib
import io
import math
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np

from spde_moments import cli, model
from spde_moments import diagrams as dg
from spde_moments import moments as mm
from spde_moments import simulate as sim
from spde_moments import specialfn as sf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads as wl  # noqa: E402  (the benchmark's grids; imports no library code)

# (label, a, b, z): the branch ml takes at each point is printed, not assumed
BRANCH_POINTS = [
    ("exp", 1.0, 1.0, -3.0),
    ("float series", 1.3, 1.6, -2.0),
    ("contour", 1.3, 1.6, -20.0),
    ("mpmath series", 2.0, 1.0, -((3.5 * math.pi) ** 2)),
    ("asymptotic", 1.3, 1.6, -80.0),
    ("float series, z > 0", 1.3, 1.6, 20.0),
]
THETA_POINTS = [(2.0, 0.5, 1), (2.0, 1.3, 1), (2.0, 1.7, 1), (2.0, 1.95, 1), (4.0, 2.0, 3)]
VOLTERRA_PARAMS = model.ModelParams(2.0, 1.3, 0.0, 1.0, 1.0, 1, u0=1.0, u1=0.5)
VOLTERRA_STEPS = [8192, 16384]
CURVE_T_MAX = 2.0
MOMENT_POINTS = 4096
CURVE_VOLTERRA_POINTS = 8192
CURVE_VOLTERRA_RTOL = 1e-4
DIAGRAM_PARTITION = (2, 2, 2, 2, 2, 2)
DIAGRAM_ARGV = ["diagrams", "--partition", ",".join(map(str, DIAGRAM_PARTITION))]
IMPORT_RUNS = 9
_IMPORT_SCRIPT = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import spde_moments.cli\n"
    "print(time.perf_counter() - t0)\n"
)
# the models of the montecarlo benchmark's simulator and chaos ops
SIM_SHE = model.ModelParams(2.0, 1.0, 0.0, 1.0, 1.0, 1, u0=1.0)
SIM_SWE = model.ModelParams(2.0, 2.0, 0.0, 1.0, 2.0, 1, u0=1.0, u1=0.0)
CHAOS_K = 4
_ROUTES = {
    "_series_float": "float",
    "_ml_contour": "contour",
    "_series_mp": "mp",
    "_ml_asym": "asym",
}


def clear_tables():
    for cache in sf._CACHES:
        cache.cache_clear()


def route(a, b, z) -> str:
    """The branches one ml(a, b, z) call goes through, in order."""
    seen = []
    saved = {name: getattr(sf, name) for name in _ROUTES}

    def spy(name):
        def call(*args):
            seen.append(_ROUTES[name])
            return saved[name](*args)

        return call

    try:
        for name in _ROUTES:
            setattr(sf, name, spy(name))
        sf.ml(a, b, z)
    finally:
        for name, fn in saved.items():
            setattr(sf, name, fn)
    return ">".join(seen) or "closed form"


def median_us(fn, repeat: int, before=None) -> float:
    times = []
    for _ in range(repeat):
        if before is not None:
            before()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def theta_calls(alpha, beta, d) -> int:
    count = 0
    ml = sf.ml

    def counted(*args):
        nonlocal count
        count += 1
        return ml(*args)

    clear_tables()
    model._radial_j.cache_clear()
    sf.ml = counted
    try:
        model._radial_j(alpha, beta, 0.0, d)
    finally:
        sf.ml = ml
    return count


def moment_layers(p, grid):
    """(t_hat pass s, ml_array s, elements handed to scalar ml) of one
    second_moment call on grid, by timing spies on ml_array and ml."""
    ml_array, ml = sf.ml_array, sf.ml
    marks = {"array_s": 0.0, "first": None, "scalar": 0}

    def timed_array(*args):
        t0 = time.perf_counter()
        if marks["first"] is None:
            marks["first"] = t0
        try:
            return ml_array(*args)
        finally:
            marks["array_s"] += time.perf_counter() - t0

    def counted_ml(*args):
        marks["scalar"] += 1
        return ml(*args)

    sf.ml_array, sf.ml = timed_array, counted_ml
    try:
        t0 = time.perf_counter()
        mm.second_moment(p, grid)
    finally:
        sf.ml_array, sf.ml = ml_array, ml
    return marks["first"] - t0, marks["array_s"], marks["scalar"]


def listing_layers(n: tuple, repeat: int) -> tuple[float, float]:
    """Median ms of enumerate_admissible and of diagram_to_line over the
    listing, on a new Partition(n) each run."""
    enum_s, format_s = [], []
    for _ in range(repeat):
        part = dg.Partition(n)
        t0 = time.perf_counter()
        diagrams = dg.enumerate_admissible(part)
        t1 = time.perf_counter()
        for d in diagrams:
            dg.diagram_to_line(d)
        format_s.append(time.perf_counter() - t1)
        enum_s.append(t1 - t0)
    return 1e3 * statistics.median(enum_s), 1e3 * statistics.median(format_s)


def cold_import_ms() -> float:
    """Median time of `import spde_moments.cli` in a fresh interpreter."""
    subprocess.run([sys.executable, "-c", "import spde_moments.cli"], check=True)
    times = [
        float(subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT], check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(IMPORT_RUNS)
    ]
    return 1e3 * statistics.median(times)


@contextlib.contextmanager
def patched(owner, name, value):
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def timed(fn, marks: Counter, key: str):
    """fn, adding its time to marks[key]."""
    def call(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            marks[key] += time.perf_counter() - t0

    return call


def timed_method(cls, method: str, marks: Counter, key: str):
    """A subclass of cls whose method adds its time to marks[key]."""
    return type(cls.__name__, (cls,), {method: timed(getattr(cls, method), marks, key)})


def swe_noise_spy(marks: Counter):
    """_swe_noise timed into marks["draw"], its cell rows counted into
    marks["rows"]."""
    draw = sim._swe_noise

    def counted(seed, cell_abs0, step, out):
        marks["rows"] += len(out)
        draw(seed, cell_abs0, step, out)

    return patched(sim, "_swe_noise", timed(counted, marks, "draw"))


def traced_peak_mb(fn) -> float:
    """The tracemalloc peak of one fn() call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def simulator_layers(repeat: int) -> list[tuple]:
    """(label, call ms, draw ms, reduction ms, rows drawn, peak MB), the
    times medians over repeat calls, on the montecarlo benchmark's grids."""
    she = sim.SimConfig(**wl.SHE_RUN, seed=1)
    swe = sim.SimConfig(**wl.SWE_RUN, seed=1)
    calls = [
        (f"simulate_she, {she.n_paths} paths", lambda: sim.simulate_she(SIM_SHE, she, [she.t_end]),
         lambda marks: patched(np.random, "Philox",
                               timed_method(np.random.Philox, "random_raw", marks, "draw"))),
        (f"simulate_swe, {swe.n_paths} paths", lambda: sim.simulate_swe(SIM_SWE, swe, [swe.t_end]),
         swe_noise_spy),
        (f"chaos_term_mc, k = {CHAOS_K}",
         lambda: dg.chaos_term_mc(SIM_SHE, 1.0, CHAOS_K, wl.CHAOS_SAMPLES, 1),
         lambda marks: patched(np.random, "Generator",
                               timed_method(np.random.Generator, "standard_gamma", marks, "draw"))),
    ]
    rows = []
    for label, call, spy in calls:
        runs = []
        for _ in range(repeat):
            marks = Counter()
            with spy(marks), patched(sim, "_probe_output",
                                     timed(sim._probe_output, marks, "reduction")):
                t0 = time.perf_counter()
                call()
                marks["call"] = time.perf_counter() - t0
            runs.append(marks)
        rows.append((label, *(1e3 * statistics.median(m[key] for m in runs)
                              for key in ("call", "draw", "reduction")), runs[0]["rows"],
                     traced_peak_mb(call)))
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeat", type=int, default=21, help="timed runs per entry (median)")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")

    print("scalar ml per branch (median us)")
    print(f"{'branch':<20} {'a':>5} {'b':>5} {'z':>9}  {'route':<16} {'warm':>8} {'cold':>8}")
    for label, a, b, z in BRANCH_POINTS:
        sf.ml(a, b, z)  # fill the caches for the warm runs
        warm = median_us(lambda: sf.ml(a, b, z), args.repeat)
        cold = median_us(lambda: sf.ml(a, b, z), args.repeat, before=clear_tables)
        print(f"{label:<20} {a:>5g} {b:>5g} {z:>9.4g}  {route(a, b, z):<16} {warm:>8.1f} {cold:>8.1f}")

    def cold_theta():
        clear_tables()
        model._radial_j.cache_clear()

    print("\ncold Theta, gamma = 0 (median ms)")
    print(f"{'alpha':>5} {'beta':>5} {'d':>2} {'ml calls':>9} {'ms':>8}")
    for alpha, beta, d in THETA_POINTS:
        ms = median_us(lambda: model._radial_j(alpha, beta, 0.0, d), max(1, args.repeat // 4), before=cold_theta)
        print(f"{alpha:>5g} {beta:>5g} {d:>2} {theta_calls(alpha, beta, d):>9} {ms / 1e3:>8.2f}")

    print("\none Volterra solve on [0, 2] (median ms)")
    print(f"{'steps':>6} {'ms':>8}")
    dc = model.derived_constants(VOLTERRA_PARAMS)
    for n in VOLTERRA_STEPS:
        ms = median_us(lambda: mm._volterra_solve(VOLTERRA_PARAMS, dc, 2.0 / n, n), args.repeat) / 1e3
        print(f"{n:>6} {ms:>8.2f}")

    def listing():
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(DIAGRAM_ARGV)

    print("\ncurve commands (median ms)")
    grid = np.arange(1, MOMENT_POINTS + 1) * (CURVE_T_MAX / MOMENT_POINTS)
    mm.second_moment(VOLTERRA_PARAMS, grid)  # Theta and the Gamma tables warm
    layers = [moment_layers(VOLTERRA_PARAMS, grid) for _ in range(args.repeat)]
    curve = mm.MomentCurve(grid, mm.second_moment(VOLTERRA_PARAMS, grid), "closed-form",
                           VOLTERRA_PARAMS)
    csv_ms = median_us(curve.to_csv, args.repeat) / 1e3
    that_ms, array_ms = (1e3 * statistics.median(layer[i] for layer in layers) for i in (0, 1))
    print(f"second-moment, {MOMENT_POINTS} points: t_hat {that_ms:.2f}  ml_array {array_ms:.2f}"
          f" ({layers[0][2]} elements to scalar ml)  to_csv {csv_ms:.2f}")
    grid = np.arange(1, CURVE_VOLTERRA_POINTS + 1) * (CURVE_T_MAX / CURVE_VOLTERRA_POINTS)
    solves_ms = median_us(lambda: mm.volterra_second_moment(
        VOLTERRA_PARAMS, grid, rtol=CURVE_VOLTERRA_RTOL), args.repeat) / 1e3
    curve = mm.volterra_second_moment(VOLTERRA_PARAMS, grid, rtol=CURVE_VOLTERRA_RTOL)
    csv_ms = median_us(curve.to_csv, args.repeat) / 1e3
    print(f"volterra, {CURVE_VOLTERRA_POINTS} points, rtol {CURVE_VOLTERRA_RTOL:g}: "
          f"solves {solves_ms:.2f}  to_csv {csv_ms:.2f}")

    ms = median_us(listing, max(1, args.repeat // 4)) / 1e3
    enum_ms, format_ms = listing_layers(DIAGRAM_PARTITION, max(1, args.repeat // 4))
    print(f"\n{' '.join(DIAGRAM_ARGV)} (median ms): {ms:.1f}"
          f"  (enumerate_admissible {enum_ms:.1f}, diagram_to_line {format_ms:.1f})")
    print(f"cold import spde_moments.cli (median of {IMPORT_RUNS}, ms): {cold_import_ms():.0f}")

    print("\nsimulator layers on the montecarlo benchmark's grids (median ms)")
    print(f"{'call':<28} {'call':>7} {'draw':>7} {'share':>6} {'reduce':>7} {'rest':>7} {'rows drawn':>10}"
          f" {'peak MB':>8}")
    for label, call_ms, draw_ms, reduce_ms, drawn, peak_mb in simulator_layers(args.repeat):
        reduce = f"{reduce_ms:.2f}" if reduce_ms else "-"  # chaos_term_mc reduces inline
        print(f"{label:<28} {call_ms:>7.2f} {draw_ms:>7.2f} {draw_ms / call_ms:>6.0%}"
              f" {reduce:>7} {call_ms - draw_ms - reduce_ms:>7.2f} {drawn or '-':>10} {peak_mb:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
