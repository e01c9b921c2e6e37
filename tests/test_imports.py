"""The package's import surface.  scipy stays off the package's import path
and off every call the benchmark workloads make: it is a test-only
dependency, and importing it costs several times the work of a CLI command.
Every exported name resolves to an object the package defines: the
benchmark tracer looks up each `__all__` entry, so a stale one would break
a traced run."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import spde_moments

SRC = str(Path(spde_moments.__file__).resolve().parents[1])

_SCRIPT = """
import contextlib, io, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import spde_moments
from spde_moments import cli, simulate
from spde_moments.model import ModelParams
assert not scipy_modules(), scipy_modules()
assert "numpy.random" in sys.modules

for family, nu in (("sheswe", 1.0), ("tfspde", 2.0), ("sfhe", 1.0)):
    for x in (0.55, 1.3):
        cli.figure_rows(family, nu, 1.0, [x + (0.8 if family == "sfhe" else 0.0)])
params = ["--alpha", "1.5", "--beta", "0.8", "--gamma", "0.2"]
for argv in (
    ["second-moment", *params, "--t-max", "2", "--n-points", "50"],
    ["volterra", *params, "--t-max", "2", "--n-points", "600", "--rtol", "1e-2"],
    ["pth-bound", *params, "--p", "2", "--t", "2"],
    ["lyapunov", *params],
    ["chaos", "--t", "1", "--k", "4", "--mc-samples", "1000", "--seed", "1"],
    ["diagrams", "--partition", "2,2,3,3"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
she = simulate.SimConfig(dx=0.1, dt=0.002, domain_half_width=0.6, t_end=0.02, n_paths=8, seed=5)
simulate.simulate_she(ModelParams(2.0, 1.0), she, [0.02])
swe = simulate.SimConfig(dx=0.1, dt=0.1, domain_half_width=1.0, t_end=0.3, n_paths=8, seed=3)
simulate.simulate_swe(ModelParams(2.0, 2.0, nu=2.0), swe, [0.3])
assert not scipy_modules(), scipy_modules()
print("ok")
"""


def test_no_scipy_on_import_or_benchmark_ops():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"


def _defined_in_package(obj) -> bool:
    return getattr(obj, "__module__", "").split(".")[0] == "spde_moments"


def test_every_exported_name_is_defined_in_the_package():
    for info in pkgutil.iter_modules(spde_moments.__path__):
        if info.name == "__main__":  # runs the CLI on import
            continue
        mod = importlib.import_module(f"spde_moments.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            assert _defined_in_package(getattr(mod, name)), f"{mod.__name__}.{name}"
    exported = [
        name for name, obj in vars(spde_moments).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert exported
    for name in exported:
        assert _defined_in_package(getattr(spde_moments, name)), name
