"""The package's import surface.  scipy stays off the package's import path
and off every call the benchmark workloads make: it is a test-only
dependency, and importing it costs several times the work of a CLI command.
Every exported name resolves to an object the package defines: the
benchmark tracer looks up each `__all__` entry, so a stale one would break
a traced run.  Every exported name has a caller in the package or its
scripts, or is kept for the ROADMAP item named in `_PLANNED`: code that
only the tests reach belongs with the tests.  Every error class is raised or
warned with by the package, or is the base of one that is."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import spde_moments

SRC = str(Path(spde_moments.__file__).resolve().parents[1])
SCRIPTS = Path(SRC).parent / "scripts"

# exported names that no command, script or library function calls yet,
# each with the ROADMAP item that will call it
_PLANNED = {
    "model.t_p": 4,
    "model.kernel_nonneg_known": 4,
    "diagrams.crossing_vanishes": 4,
    "moments.she_exact_pth_lyapunov": 6,
    "moments.second_moment_log": 9,
    "model.kernel_ft": 10,
}

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


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _referenced(nodes) -> set[str]:
    """The names and attribute names used in code under `nodes`: a
    docstring, a comment or an `__all__` string is no reference."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for node in nodes
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unreached_names(modules: dict[str, str], scripts: dict[str, str],
                    planned: dict[str, int]) -> list[str]:
    """The faults of the export surface, from the source texts of the
    package's modules and of its scripts, keyed by file stem.

    An exported name is reached when a script, or a module other than
    `__init__` outside the name's own definition, refers to it.  A fault is
    an unreached name that `planned` does not list as "module.name", or a
    `planned` entry that names no exported name or a reached one.
    """
    trees = {stem: ast.parse(text) for stem, text in modules.items() if stem != "__init__"}
    refs = {stem: _referenced([tree]) for stem, tree in trees.items()}
    outside = _referenced(ast.parse(text) for text in scripts.values())
    exported, reached = set(), set()
    for stem, tree in trees.items():
        others = outside.union(*(r for s, r in refs.items() if s != stem))
        for name in _exported(tree):
            exported.add(f"{stem}.{name}")
            rest = (node for node in tree.body if getattr(node, "name", None) != name)
            if name in others or name in _referenced(rest):
                reached.add(f"{stem}.{name}")
    unplanned = exported - reached - planned.keys()
    return (
        [f"{q} has no caller and no _PLANNED item" for q in sorted(unplanned)]
        + [f"_PLANNED names {q}, which is not exported" for q in sorted(planned.keys() - exported)]
        + [f"_PLANNED names {q}, which has a caller" for q in sorted(planned.keys() & reached)]
    )


def test_every_exported_name_has_a_caller_or_a_planned_item():
    package = Path(spde_moments.__file__).parent
    modules = {f.stem: f.read_text() for f in package.glob("*.py")}
    scripts = {f.stem: f.read_text() for f in SCRIPTS.glob("*.py")}
    assert "cli" in modules and "make_figures" in scripts
    assert unreached_names(modules, scripts, _PLANNED) == []


def test_unreached_names_rejects_an_orphan_and_stale_planned_entries():
    lib = '''
__all__ = ["used", "orphan", "by_script"]

def used():
    pass

def orphan():
    return orphan

def by_script():
    pass
'''
    modules = {
        "__init__": "from .lib import orphan\norphan()\n",
        "lib": lib,
        "app": '"""Calls orphan()."""\nfrom .lib import orphan, used\nused()  # orphan()\n',
    }
    scripts = {"run": "from pkg import lib\nlib.by_script()\n"}
    orphan = "lib.orphan has no caller and no _PLANNED item"
    assert unreached_names(modules, scripts, {}) == [orphan]
    assert unreached_names(modules, scripts, {"lib.orphan": 4, "lib.gone": 4, "lib.used": 9}) == [
        "_PLANNED names lib.gone, which is not exported",
        "_PLANNED names lib.used, which has a caller",
    ]


def _name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def vestigial_errors(errors: str, modules: dict[str, str]) -> list[str]:
    """The classes of the `errors` source that nothing uses, from the source
    texts of the package's modules (`errors` among them).

    A class is used when a module raises it (`raise X` or `raise X(...)`) or
    passes it to `warnings.warn`, or when it is the base of a used class.
    """
    bases = {
        node.name: {_name(b) for b in node.bases}
        for node in ast.parse(errors).body
        if isinstance(node, ast.ClassDef)
    }
    used = set()
    nodes = (node for text in modules.values() for node in ast.walk(ast.parse(text)))
    for node in nodes:
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            used.add(_name(exc))
        elif isinstance(node, ast.Call) and _name(node.func) == "warn":
            used.update(_name(arg) for arg in [*node.args, *(k.value for k in node.keywords)])
    for name in reversed(bases):  # a base is defined before its subclasses
        if name in used:
            used |= bases[name]
    return [f"{c} is neither raised nor warned with" for c in bases if c not in used]


def test_every_error_class_is_raised_or_warned():
    package = Path(spde_moments.__file__).parent
    modules = {f.stem: f.read_text() for f in package.glob("*.py")}
    assert "ResultOverflow is neither raised nor warned with" in vestigial_errors(
        modules["errors"], {}
    )
    assert vestigial_errors(modules["errors"], modules) == []


def test_vestigial_errors_rejects_a_class_left_behind():
    errors = '''
class Base(Exception):
    pass

class Raised(Base):
    pass

class Called(Raised):
    pass

class Warned(UserWarning):
    pass

class Left(Base):
    """Raised by nothing since its guard went."""
'''
    lib = '''
import warnings
from .errors import Called, Left, Raised, Warned

def f(x):
    try:
        x()
    except Left:  # raise Left
        raise
    if x:
        raise errors.Called("x") from None
    warnings.warn("rough", Warned)
    return Left
'''
    modules = {"errors": errors, "lib": lib}
    assert vestigial_errors(errors, modules) == ["Left is neither raised nor warned with"]
    modules["lib"] = lib.replace("raise errors.Called(\"x\")", "raise Raised")
    assert vestigial_errors(errors, modules) == [
        "Called is neither raised nor warned with", "Left is neither raised nor warned with",
    ]


# the functions of model, moments and diagrams that catch OverflowError
# themselves; every other overflow goes through errors.finite_or_overflow
_OVERFLOW_HANDLERS = {
    "model.kernel_ft": "a power past the range would reach ml as an argument of -inf",
    "moments._volterra_solve": "an h_max past the range is no error: every step is below it",
}


def overflow_handlers(modules: dict[str, str]) -> list[str]:
    """"module.function" for each `except` clause naming OverflowError (alone
    or in a tuple) in the source texts, keyed by file stem; a handler in a
    nested function or a method counts for its top-level function or class
    member, and one outside any function for "module.<module>"."""
    found = []
    for stem, text in modules.items():
        scopes = []
        for node in ast.parse(text).body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{m.name}", m) for m in node.body
                           if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes.append((node.name, node))
            else:
                scopes.append(("<module>", node))
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    types_ = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                    if "OverflowError" in map(_name, types_):
                        found.append(f"{stem}.{name}")
    return found


def test_overflow_is_caught_only_by_the_one_rule():
    package = Path(spde_moments.__file__).parent
    modules = {stem: (package / f"{stem}.py").read_text()
               for stem in ("model", "moments", "diagrams")}
    found = overflow_handlers(modules)
    assert sorted(set(found) - _OVERFLOW_HANDLERS.keys()) == []
    assert sorted(_OVERFLOW_HANDLERS.keys() - set(found)) == []  # no stale entry


def test_overflow_handlers_finds_every_scope():
    lib = '''
try:
    import fast
except (ImportError, OverflowError):
    fast = None

def direct(x):
    try:
        return x ** 2
    except OverflowError:
        return None

def nested(x):
    def inner():
        try:
            return x()
        except (ValueError, OverflowError):
            raise
    return inner

def other(x):
    try:
        return x()
    except ValueError:  # except OverflowError
        return None

class Box:
    def method(self):
        try:
            pass
        except errors.OverflowError:
            pass
'''
    assert overflow_handlers({"lib": lib}) == [
        "lib.<module>", "lib.direct", "lib.nested", "lib.Box.method",
    ]
