"""Span tracer for the traced benchmark run.

`install` wraps every public function (each module's `__all__`) of the six
layer modules at every module-level binding: the importers' `from .x import f`
names, the `sf`/`mm`/`dg`/`sim` module aliases (replaced by proxies whose
public functions are wrapped), the package namespace, and the defining
module's own globals.  Two own-module namespaces are left alone, so that
their internal calls count as the caller's own work:

- `specialfn`, whose scalar kernels call each other inside series loops
  (`rgamma` hundreds of times per `ml`);
- `cli`, whose `main -> run -> figure_rows` dispatch is parsing and
  formatting; `cli.main.self_s` is then the main span minus its library
  child spans.

Each call opens a span that records its parent.  Spans are kept in flat
arrays and written out when the worker ends; self time is a span's duration
minus the durations of its direct children.  Exact counters (distinct Theta
tuples, Volterra steps, simulator cell steps, ...) are recorded by hooks on
the same wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("specialfn", "model", "moments", "diagrams", "simulate", "cli")
_OWN_NAMESPACE_UNWRAPPED = {"specialfn", "cli"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.distinct: dict[str, set] = {}

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, classify=None, on_return=None):
        """Wrapper recording one span per call; `classify(args)` may pick a
        finer span name, `on_return(tracer, args, kwargs, result)` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(classify(args, kwargs) if classify else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per layer: self
        seconds; plus the exact counters."""
        n = len(self.start)
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        calls = np.bincount(nid, minlength=len(names))
        self_by_name = np.bincount(nid, weights=self_t, minlength=len(names))
        total_by_name = np.bincount(nid, weights=dur, minlength=len(names))
        spans = {
            name: {
                "calls": int(calls[i]),
                "self_s": float(self_by_name[i]),
                "total_s": float(total_by_name[i]),
            }
            for i, name in enumerate(names)
        }
        layers = Counter()
        for name, rec in spans.items():
            layers[name.split(".")[0]] += rec["self_s"]
        return {
            "spans": spans,
            "layers": dict(layers),
            "top_level_s": float(dur[~has_parent].sum()),
            "counters": dict(self.counters),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }

    def write(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


# --- hooks: finer span names and exact counts computed from the arguments ---


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _ml_branch(args, kwargs):
    return "specialfn.ml.neg" if _arg(args, kwargs, 2, "z") < 0 else "specialfn.ml.pos"


def _big_theta_key(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    tracer.distinct.setdefault("model.big_theta", set()).add((p.alpha, p.beta, p.gamma, p.dim))


def _volterra_steps(tracer, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "t_grid"))
    rtol = args[2] if len(args) > 2 else kwargs.get("rtol")
    # the rtol check re-solves at half the step: n + 2n steps
    tracer.counters["moments.volterra.steps"] += 3 * n if rtol is not None else n


def _grid_cells(cfg) -> int:
    return int(round(2.0 * cfg.domain_half_width / cfg.dx)) + 1


def _sim_steps(cfg, args, kwargs) -> int:
    return round(max(_arg(args, kwargs, 2, "probes")) / cfg.dt)


def _she_counts(tracer, args, kwargs, result):
    cfg = _arg(args, kwargs, 1, "cfg")
    cells = cfg.n_paths * (_grid_cells(cfg) - 2) * _sim_steps(cfg, args, kwargs)
    tracer.counters["simulate.she.cell_steps"] += cells
    # computed, not measured: per interior cell and step the float32 noise
    # is written and read, and the field is read and written (4 x 4 bytes);
    # temporaries of the stencil expression are not counted
    tracer.counters["simulate.she.bytes_computed"] += 16 * cells


def _swe_counts(tracer, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    cfg = _arg(args, kwargs, 1, "cfg")
    m = _grid_cells(cfg)
    n = _sim_steps(cfg, args, kwargs)
    tracer.counters["simulate.swe.window_sums"] += cfg.n_paths * m * n * (n + 1) // 2
    kappa = math.sqrt(p.nu / 2.0)
    pad = n * max(1, int(math.ceil(kappa * cfg.dt / cfg.dx))) + 3
    # computed: the float64 history of padded u*dW arrays held at the end
    tracer.counters["simulate.swe.history_bytes_computed"] += n * cfg.n_paths * (m + 2 * pad) * 8


def _diagram_count(tracer, args, kwargs, result):
    tracer.counters["diagrams.diagram_count"] += len(result)


_HOOKS = {
    "specialfn.ml": {"classify": _ml_branch},
    "model.big_theta": {"on_return": _big_theta_key},
    "moments.volterra_second_moment": {"on_return": _volterra_steps},
    "simulate.simulate_she": {"name": "simulate.she", "on_return": _she_counts},
    "simulate.simulate_swe": {"name": "simulate.swe", "on_return": _swe_counts},
    "diagrams.enumerate_admissible": {"on_return": _diagram_count},
}


def install(tracer: Tracer, package: str = "spde_moments") -> dict[str, types.ModuleType]:
    """Wrap the public functions of every layer at every binding; returns
    proxies of the layer modules through which the harness calls in."""
    pkg = importlib.import_module(package)
    mods = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for fname in mod.__all__:
            fn = getattr(mod, fname)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                hook = _HOOKS.get(f"{layer}.{fname}", {})
                wrappers[fn] = tracer.wrap(
                    fn,
                    hook.get("name", f"{layer}.{fname}"),
                    classify=hook.get("classify"),
                    on_return=hook.get("on_return"),
                )
    layer_of = {mod: layer for layer, mod in mods.items()}
    proxies = {}
    for layer, mod in mods.items():
        proxy = types.ModuleType(mod.__name__, mod.__doc__)
        proxy.__dict__.update(mod.__dict__)
        _patch(proxy.__dict__, wrappers)
        proxies[layer] = proxy
    for layer, mod in mods.items():
        own = mod.__name__ if layer in _OWN_NAMESPACE_UNWRAPPED else None
        _patch(mod.__dict__, wrappers, skip_module=own)
        for key, value in list(mod.__dict__.items()):
            if isinstance(value, types.ModuleType) and value in layer_of and value is not mod:
                mod.__dict__[key] = proxies[layer_of[value]]
    _patch(pkg.__dict__, wrappers)
    return proxies


def _patch(namespace: dict, wrappers: dict, skip_module=None):
    for key, value in list(namespace.items()):
        if inspect.isfunction(value) and value in wrappers and value.__module__ != skip_module:
            namespace[key] = wrappers[value]
