"""Self-test of the harness: `python3 perfbench/run.py --self-test`.

- Two seeds give different inputs and the same op count; one seed gives the
  same plan twice.
- Perturbed results count as failures: a Theta scaled by 1 + 1e-6, a rate
  scaled likewise, a Monte Carlo probe shifted by 5 standard errors, a
  Volterra curve off by 2e-4, a wrong diagram count, a non-repeating seed.
- The independent matching count agrees with the library's enumeration.
- The tracer records spans through the module-alias and imported-name
  bindings.
- BENCHMARK.json, when present, lists the metrics run.py reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from spde_moments import cli, diagrams, moments, simulate

import run
import tracer as tracing
import worker
import workloads as wl


def _plans():
    for w in wl.WORKLOADS:
        a, b = wl.plan(w, 1, 2), wl.plan(w, 2, 2)
        assert [len(r) for r in a] == [len(r) for r in b], w
        assert json.dumps(a) != json.dumps(b), w
        assert json.dumps(a) == json.dumps(wl.plan(w, 1, 2)), w
        assert json.dumps(a[0]) != json.dumps(a[1]), w  # rounds differ too


def _scaled(rows, series, factor):
    return [(x, y * factor if s == series else y, s) for x, y, s in rows]


def _sweep_checks():
    for family, nu, x, expect in wl.SWEEP_ANCHORS:
        op = {"family": family, "nu": nu, "lam": 1.0, "x": x, "expect": expect}
        rows = cli.figure_rows(family, nu, 1.0, [x])
        assert wl.check_figure(op, rows) is None, (family, x)
        (series,) = expect
        if expect[series][2] == "rel":
            assert wl.check_figure(op, _scaled(rows, series, 1 + 1e-6)) is not None, (family, x)
    op = {"family": "sfhe", "nu": 1.0, "lam": 1.0, "x": 2.3}
    rows = cli.figure_rows("sfhe", 1.0, 1.0, [2.3])
    assert wl.check_figure(op, rows) is None
    assert wl.check_figure(op, _scaled(rows, "sfhe_theta_big", 1 + 1e-6)) is not None


def _curve_checks():
    # tuple0 is the heat case: it has a closed-form rate and chaos terms
    op_sm, op_v, op_pth, op_ly, op_ch = (op for op in wl.plan("curves", 5, 1)[0] if op.get("key") == "tuple0")
    ctx, outs = {}, {}
    for op in (op_sm, op_v, op_pth, op_ly, op_ch):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(op["argv"])
        outs[op["check"]] = buf.getvalue()
        assert wl.check_cli(op, code, outs[op["check"]], ctx) is None, op["check"]
    lines = outs["volterra"].splitlines()
    bent = lines[:2] + [
        f"{t},{float(v) * (1 + 2e-4)!r},{m}" for t, v, m in (line.split(",") for line in lines[2:])
    ]
    assert wl.check_cli(op_v, 0, "\n".join(bent) + "\n", ctx) is not None
    assert wl.check_cli(op_v, 3, "", ctx) is not None  # Richardson check failed
    bound = json.loads(outs["pth-bound"])["pth_moment_upper_sq"]
    above = {op_pth["key"]: ctx[op_pth["key"]][:-1] + [bound * (1 + 1e-9)]}
    assert wl.check_cli(op_pth, 0, outs["pth-bound"], above) is not None
    payload = json.loads(outs["lyapunov"])
    payload["second_lyapunov"] *= 1 + 1e-6
    assert wl.check_cli(op_ly, 0, json.dumps(payload), ctx) is not None
    payload = json.loads(outs["chaos"])
    payload["partial_sum"] = payload["second_moment"] * (1 + 1e-9)
    assert wl.check_cli(op_ch, 0, json.dumps(payload), ctx) is not None
    for parts in ((1, 1), (2, 2), (3, 3), (1, 2, 3), (2, 2, 2), (1, 3, 2, 2), (3, 2, 1, 2, 2)):
        count = len(diagrams.enumerate_admissible(diagrams.Partition(parts)))
        assert wl.perfect_matchings(parts) == count, parts
    op = {"check": "diagrams", "partition": [2, 2, 2]}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["diagrams", "--partition", "2,2,2"])
    assert wl.check_cli(op, 0, buf.getvalue(), {}) is None
    assert wl.check_cli({**op, "partition": [2, 2, 1, 1]}, 0, buf.getvalue(), {}) is not None


def _mc_checks():
    swe = wl.SWE_RUN
    cfg = simulate.SimConfig(dx=swe["dx"], dt=swe["dt"], domain_half_width=swe["domain_half_width"],
                             t_end=swe["t_end"], n_paths=200, seed=12345)
    out = simulate.simulate_swe(worker.SWE_PARAMS, cfg, [swe["t_end"]])
    again = simulate.simulate_swe(worker.SWE_PARAMS, cfg, [swe["t_end"]])
    value, se = float(out.curve.values[-1]), float(out.curve.stderr[-1])
    assert wl.check_repeat((value, se), (float(again.curve.values[-1]), float(again.curve.stderr[-1]))) is None
    assert wl.check_repeat((value, se), (value * (1 + 1e-15), se)) is not None
    exact = moments.swe_second_moment(2.0, 1.0, 1.0, 0.0, swe["t_end"])
    assert wl.check_probe(value, se, exact) is None
    assert wl.check_probe(exact + 5 * se, se, exact) is not None
    assert wl.check_probe(exact - 5 * se, se, exact) is not None


def _tracer():
    tr = tracing.Tracer()
    api = tracing.install(tr)
    api["cli"].figure_rows("sheswe", 1.0, 1.0, [0.77])
    summary = tr.summary()
    spans = summary["spans"]
    for name in ("cli.figure_rows", "model.big_theta", "model.theta_integral_finite",
                 "specialfn.ml.neg", "moments.second_lyapunov", "model.dalang_satisfied"):
        assert spans.get(name, {}).get("calls", 0) > 0, name
    top = spans["cli.figure_rows"]
    assert top["calls"] == 1 and 0 < top["self_s"] < top["total_s"]
    assert abs(sum(s["self_s"] for s in spans.values()) - summary["top_level_s"]) < 1e-6


def _benchmark_json():
    path = Path("BENCHMARK.json")
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def main() -> int:
    for test in (_plans, _sweep_checks, _curve_checks, _mc_checks, _benchmark_json, _tracer):
        test()
        print(f"ok {test.__name__.lstrip('_')}")
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
