"""Command-line front end.

Subcommands: check-dalang, constants, second-moment, lyapunov, pth-bound,
volterra, chaos, diagrams, simulate, figures.  Each subcommand declares
only the options it reads.  Deterministic commands emit byte-stable
CSV/JSON with the fully resolved parameter set echoed in the output
header.  Exit codes: 0 success, else the `exit_code` of the package error
raised (see errors.py).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import diagrams as dg
from . import moments as mm
from . import simulate as sim
from .errors import InvalidParams, ResultOverflow, SpdeMomentsError, ValidationError
from .model import (
    _KV_FIELDS,
    ModelParams,
    big_theta,
    dalang_bound,
    dalang_satisfied,
    derived_constants,
    params_from_kv,
    params_to_dict,
    theta,
    theta_integral_finite,
)

__all__ = ["main", "figure_rows", "figure_csv", "grid_spec", "locate_crossing"]

# parameters of a model command without --config or model flags
_DEFAULT_PARAMS = ModelParams(alpha=2.0, beta=1.0)


def _emit(text: str, out_path):
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    """payload as indented JSON; ResultOverflow for a non-finite number,
    which JSON cannot hold."""
    try:
        return json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ResultOverflow("a result is not finite in double precision") from None


def _emit_model_json(payload: dict, p: ModelParams, out_path, **tail):
    """payload, then the resolved "params", then the tail fields."""
    _emit(_json_text({**payload, "params": params_to_dict(p), **tail}), out_path)


def grid_spec(text: str) -> np.ndarray:
    """start:stop:step inclusive of both ends (within rounding)."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"bad grid spec {text!r}, want start:stop:step") from exc
    if not (math.isfinite(start) and start <= stop < math.inf and 0 < step < math.inf):
        raise ValidationError(f"bad grid spec {text!r}")
    try:
        grid = start + step * np.arange(int(round((stop - start) / step)) + 1)
    except (OverflowError, ValueError):  # an infinite count, or numpy refuses the size
        grid = np.empty(0)
    if not grid.size:  # numpy also returns no elements for a size in [2**63, 2**64)
        raise ValidationError(f"grid spec {text!r} has too many points")
    return grid[grid <= stop + 1e-12]


def _dalang_inequality(p: ModelParams) -> str:
    formula = (
        "2*alpha + (alpha/beta)*min(2*gamma-1, 0)" if p.beta < 2 else "alpha*min(2, 1+gamma)"
    )
    return f"d < {formula} = {dalang_bound(p):.17g}"


# family -> (dest of its grid option, default grid, theta_big row gated on
# Dalang's condition rather than on a finite spectral integral, curves); a
# curve is (series prefix, the ModelParams fields at grid point x).  sheswe
# and tfspde differ only in gamma(beta).  The library functions are looked
# up when a row is made, not stored here, so that wrappers installed on the
# module are seen.
_FIGURE_FAMILIES = {
    "sheswe": ("beta_grid", "0.01:2.0:0.01", False,
               [("", lambda x: dict(alpha=2.0, beta=x, gamma=0.0))]),
    "tfspde": ("beta_grid", "0.01:2.0:0.01", False,
               [("", lambda x: dict(alpha=2.0, beta=x, gamma=math.ceil(x) - x))]),
    "sfhe": ("alpha_grid", "1.05:5:0.05", True, [
        ("sfhe_", lambda x: dict(alpha=x, beta=1.0, gamma=0.0)),
        ("sfwe_", lambda x: dict(alpha=x, beta=2.0, gamma=0.0)),
    ]),
}


def figure_rows(family: str, nu: float, lam: float, grid) -> list[tuple]:
    """(x, y, series) rows for the parameter-sweep figure families."""
    if family not in _FIGURE_FAMILIES:
        raise ValidationError(f"unknown figure family {family!r}")
    _, _, dalang_gated, curves = _FIGURE_FAMILIES[family]
    rows = []
    for x in grid:
        x = float(x)
        for prefix, fields_at in curves:
            p = ModelParams(**fields_at(x), lam=lam, nu=nu, dim=1)
            dalang = dalang_satisfied(p)
            if dalang if dalang_gated else theta_integral_finite(p):
                rows.append((x, big_theta(p), prefix + "theta_big"))
            if dalang:
                rows.append((x, mm.second_lyapunov(p), prefix + "lyapunov"))
    return rows


def figure_csv(family: str, nu: float, lam: float, rows) -> str:
    """Figure rows as `x,y,series` CSV under a header comment."""
    lines = [f"# family={family} nu={nu!r} lambda={lam!r}", "x,y,series"]
    lines += [f"{x:.17g},{y:.17g},{s}" for x, y, s in rows]
    return "\n".join(lines) + "\n"


def locate_crossing(rows, series_a: str, series_b: str):
    """Linear-interpolation crossing of two series from figure rows.

    Returns (x, value) of the first sign change of series_a - series_b.
    """
    a = {x: y for x, y, s in rows if s == series_a}
    b = {x: y for x, y, s in rows if s == series_b}
    xs = sorted(set(a) & set(b))
    if len(xs) < 2:
        raise ValidationError("need at least two shared grid points")
    prev = None
    for x in xs:
        d = a[x] - b[x]
        if prev is not None:
            x0, d0 = prev
            if d0 == 0.0:
                return x0, a[x0]
            if d0 * d < 0:
                w = d0 / (d0 - d)
                xc = x0 + w * (x - x0)
                yc = a[x0] + w * (a[x] - a[x0])
                return xc, yc
        prev = (x, d)
    raise ValidationError("series do not cross on the grid")


def _resolve_params(ns: argparse.Namespace) -> ModelParams:
    """Heat-equation defaults, or the --config file, overridden by the model flags."""
    try:
        params = params_from_kv(Path(ns.config).read_text()) if ns.config else _DEFAULT_PARAMS
    except OSError as exc:
        raise InvalidParams(f"cannot read config file {ns.config!r}: {exc.strerror}") from exc
    flags = {k: getattr(ns, k) for k in _KV_FIELDS.values() if getattr(ns, k) is not None}
    return dataclasses.replace(params, **flags)


def _cmd_check_dalang(ns) -> int:
    p = _resolve_params(ns)
    ok = dalang_satisfied(p)
    payload = {
        "satisfied": ok,
        "inequality": _dalang_inequality(p),
        "d": p.dim,
        "theta": theta(p),
    }
    _emit_model_json(payload, p, ns.out)
    return 0 if ok else 2


def _cmd_constants(ns) -> int:
    p = _resolve_params(ns)
    dc = derived_constants(p)
    payload = {"theta": dc.theta, "big_theta": dc.big_theta, "lyapunov_base": dc.lyapunov_base}
    _emit_model_json(payload, p, ns.out)
    return 0


def _moment_grid(ns) -> np.ndarray:
    if not 0 < ns.t_max < math.inf or ns.n_points < 2:
        raise ValidationError("need a finite t_max > 0 and at least 2 grid points")
    try:
        steps = np.arange(1, ns.n_points + 1)
    except ValueError:  # numpy refuses the size
        steps = np.empty(0)
    if not steps.size:  # numpy also returns no elements for a size in [2**63, 2**64)
        raise ValidationError(f"--n-points {ns.n_points} is too large")
    return steps * (ns.t_max / ns.n_points)


def _curve_text(curve: mm.MomentCurve, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "params": params_to_dict(curve.params),
            "method": curve.method,
            "t": curve.t_grid.tolist(),
            "value": curve.values.tolist(),
        }
        if curve.stderr is not None:
            payload["stderr"] = curve.stderr.tolist()
        return _json_text(payload)
    header = " ".join(f"{k}={v!r}" for k, v in params_to_dict(curve.params).items())
    return f"# {header}\n" + curve.to_csv()


def _cmd_second_moment(ns) -> int:
    p = _resolve_params(ns)
    grid = _moment_grid(ns)
    curve = mm.MomentCurve(grid, mm.second_moment(p, grid), "closed-form", p)
    _emit(_curve_text(curve, ns.format), ns.out)
    return 0


def _cmd_volterra(ns) -> int:
    p = _resolve_params(ns)
    curve = mm.volterra_second_moment(p, _moment_grid(ns), rtol=ns.rtol)
    _emit(_curve_text(curve, ns.format), ns.out)
    return 0


def _cmd_lyapunov(ns) -> int:
    p = _resolve_params(ns)
    _emit_model_json({"second_lyapunov": mm.second_lyapunov(p)}, p, ns.out)
    return 0


def _cmd_pth_bound(ns) -> int:
    p = _resolve_params(ns)
    payload = {
        "p": ns.p,
        "t": ns.t,
        "pth_moment_upper_sq": mm.pth_moment_upper(p, ns.t, ns.p),
        "pth_lyapunov_upper": mm.pth_lyapunov_upper(p, ns.p),
        "rate_exponent": 1.0 + 1.0 / (theta(p) + 1.0),
    }
    _emit_model_json(payload, p, ns.out)
    return 0


def _cmd_chaos(ns) -> int:
    p = _resolve_params(ns)
    if ns.k < 0:
        raise ValidationError(f"--k must be >= 0, got {ns.k}")
    terms = [dg.chaos_term(p, ns.t, k) for k in range(ns.k + 1)]
    payload = {
        "t": ns.t,
        "terms": terms,
        "partial_sum": float(sum(terms)),
        "second_moment": mm.second_moment(p, ns.t),
    }
    tail = {}
    if ns.mc_samples is not None:
        mc = [
            dg.chaos_term_mc(p, ns.t, k, ns.mc_samples, ns.seed + k)
            for k in range(min(ns.k, 4) + 1)
        ]
        tail["mc"] = [{"k": k, "estimate": e, "stderr": s} for k, (e, s) in enumerate(mc)]
    _emit_model_json(payload, p, ns.out, **tail)
    return 0


def _cmd_diagrams(ns) -> int:
    if (ns.p is None) != (ns.m is None):
        raise ValidationError("diagrams needs --p and --m together")
    lines = []
    if ns.partition:
        part = dg.Partition(ns.partition)
        diags = dg.enumerate_admissible(part)
        lines.append(f"# admissible diagrams for n={part.n}: {len(diags)}")
        if not ns.count_only:
            lines.extend(dg.diagram_to_line(d) for d in diags)
    if ns.p is not None:
        lines.append(
            f"# balanced diagrams p={ns.p} m={ns.m}: {dg.count_balanced(ns.p, ns.m)} "
            f"(lower bound {dg.count_lower_bound(ns.p, ns.m)})"
        )
        if not ns.count_only:
            for part in dg.balanced_partitions(ns.p, ns.m):
                for d in dg.enumerate_balanced(part, ns.p, ns.m):
                    lines.append(dg.diagram_to_line(d))
    if not lines:
        raise ValidationError("diagrams needs --partition and/or --p/--m")
    _emit("\n".join(lines) + "\n", ns.out)
    return 0


def _cmd_simulate(ns) -> int:
    sidecar_path = Path(ns.out).with_suffix(".json") if ns.out else None
    if ns.out and sidecar_path == Path(ns.out):
        raise ValidationError(f"--out {ns.out!r} would be overwritten by its sidecar")
    p = _resolve_params(ns)
    dt = ns.dt
    if dt is None:  # SWE steps the characteristic lattice sqrt(nu/2) dt = dx
        dt = ns.dx / math.sqrt(p.nu / 2.0) if ns.family == "swe" else 1e-4
    cfg = sim.SimConfig(
        dx=ns.dx,
        dt=dt,
        domain_half_width=ns.domain_half_width,
        t_end=ns.t_max,
        n_paths=ns.paths,
        seed=ns.seed,
    )
    probes = ns.probes if ns.probes is not None else [ns.t_max]
    simulate = sim.simulate_she if ns.family == "she" else sim.simulate_swe
    out = simulate(p, cfg, probes)
    _emit(_curve_text(out.curve, ns.format), ns.out)
    sidecar = dict(n_paths=cfg.n_paths, seed=cfg.seed, dx=cfg.dx, dt=cfg.dt,
                   stderr=out.curve.stderr.tolist(), scheme=out.scheme)
    _emit_model_json(sidecar, p, sidecar_path)
    return 0


def _cmd_figures(ns) -> int:
    read, default, *_ = _FIGURE_FAMILIES[ns.family]
    for dest, *_ in _FIGURE_FAMILIES.values():
        if dest != read and getattr(ns, dest) is not None:
            flag = dest.replace("_", "-")
            raise ValidationError(f"--{flag} does not apply to --family {ns.family}")
    spec = getattr(ns, read)
    grid = grid_spec(default if spec is None else spec)
    rows = figure_rows(ns.family, ns.nu, ns.lam, grid)
    _emit(figure_csv(ns.family, ns.nu, ns.lam, rows), ns.out)
    return 0


def _command(sub, name: str, handler, model: bool = True) -> argparse.ArgumentParser:
    """A subcommand parser with --out and, for model commands, the model flags."""
    sp = sub.add_parser(name)
    sp.set_defaults(handler=handler)
    if model:
        sp.add_argument("--config", help="flat key=value parameter file")
        for key, field in _KV_FIELDS.items():
            sp.add_argument(f"--{key}", dest=field, type=int if field == "dim" else float)
    sp.add_argument("--out", help="output file (default: stdout)")
    return sp


def partition_sizes(text: str) -> tuple[int, ...]:
    """`a,b,...` as a tuple of part sizes (the --partition type)."""
    return tuple(int(v) for v in text.split(","))


def _curve_options(sp, t_max: float):
    """Options of the commands that emit a t,value,method curve."""
    sp.add_argument("--t-max", dest="t_max", type=float, default=t_max)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building its ten
    subcommands takes longer than a warm `lyapunov` call."""
    ap = argparse.ArgumentParser(
        prog="spde-moments",
        description="Moments and Lyapunov exponents for fractional "
        "stochastic heat/wave equations with space-time white noise.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    _command(sub, "check-dalang", _cmd_check_dalang)
    _command(sub, "constants", _cmd_constants)
    sp = _command(sub, "second-moment", _cmd_second_moment)
    _curve_options(sp, t_max=1.0)
    sp.add_argument("--n-points", dest="n_points", type=int, default=256)
    sp = _command(sub, "volterra", _cmd_volterra)
    _curve_options(sp, t_max=1.0)
    sp.add_argument("--n-points", dest="n_points", type=int, default=256)
    sp.add_argument("--rtol", type=float, help="Richardson check at half the step")
    _command(sub, "lyapunov", _cmd_lyapunov)
    sp = _command(sub, "pth-bound", _cmd_pth_bound)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--t", type=float, default=1.0)
    sp = _command(sub, "chaos", _cmd_chaos)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--k", type=int, default=4)
    sp.add_argument("--mc-samples", dest="mc_samples", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp = _command(sub, "diagrams", _cmd_diagrams, model=False)
    sp.add_argument("--partition", type=partition_sizes, help="comma-separated part sizes")
    sp.add_argument("--p", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--count-only", action="store_true")
    sp = _command(sub, "simulate", _cmd_simulate)
    sp.add_argument("--family", choices=["she", "swe"], required=True)
    _curve_options(sp, t_max=0.5)
    sp.add_argument("--probes", type=float, nargs="+")
    sp.add_argument("--dx", type=float, default=0.02)
    sp.add_argument("--dt", type=float)  # default 1e-4 (she), dx/sqrt(nu/2) (swe)
    sp.add_argument("--domain-half-width", dest="domain_half_width", type=float, default=1.2)
    sp.add_argument("--paths", type=int, default=10000)
    sp.add_argument("--seed", type=int, default=0)
    sp = _command(sub, "figures", _cmd_figures, model=False)
    sp.add_argument("--family", choices=list(_FIGURE_FAMILIES), required=True)
    sp.add_argument("--nu", type=float, default=1.0)
    sp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    for dest in dict.fromkeys(dest for dest, *_ in _FIGURE_FAMILIES.values()):
        sp.add_argument("--" + dest.replace("_", "-"), dest=dest)
    return ap


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        return ns.handler(ns)
    except SpdeMomentsError as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(payload), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
