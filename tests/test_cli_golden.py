"""Byte-for-byte CLI regression against recorded outputs.

Each file tests/golden/<name>.json holds the argv of one fast command and
what it produced: exit code, stdout, stderr, the files it wrote under the
working directory and the warnings it raised.  The test reruns every case
in an empty directory and compares all of it exactly.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest

from spde_moments.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_SHE_SIM = ["simulate", "--family", "she", "--t-max", "0.02", "--dx", "0.1", "--dt", "0.002",
            "--domain-half-width", "0.6", "--paths", "8", "--seed", "5"]
_SWE_SIM = ["simulate", "--family", "swe", "--alpha", "2", "--beta", "2", "--nu", "2",
            "--dx", "0.1", "--t-max", "0.3", "--domain-half-width", "1", "--paths", "8",
            "--seed", "3"]

CASES = {
    "check_dalang_heat": ["check-dalang", "--alpha", "2", "--beta", "1", "--dim", "1"],
    "check_dalang_violated": ["check-dalang", "--alpha", "2", "--beta", "0.6"],
    "check_dalang_wave_out": ["check-dalang", "--alpha", "3", "--beta", "2", "--gamma", "0.4",
                              "--dim", "2", "--out", "d.json"],
    "constants_wave": ["constants", "--alpha", "2", "--beta", "1.5", "--gamma", "0.2",
                       "--lambda", "0.7", "--u1", "0.5"],
    "constants_dalang_violated": ["constants", "--alpha", "1", "--beta", "1.5", "--dim", "3"],
    "constants_bad_alpha": ["constants", "--alpha", "-1"],
    "second_moment_csv": ["second-moment", "--t-max", "2", "--n-points", "4"],
    "second_moment_json_u1": ["second-moment", "--alpha", "2", "--beta", "1.5", "--u1", "0.5",
                              "--n-points", "3", "--format", "json"],
    "second_moment_out": ["second-moment", "--beta", "0.8", "--gamma", "0.3", "--n-points", "5",
                          "--out", "m.csv"],
    "second_moment_switch_radius": ["second-moment", "--alpha", "2", "--beta", "1.5", "--u1",
                                    "0.5", "--t-max", "60", "--n-points", "24"],
    "second_moment_overflow": ["second-moment", "--t-max", "5000", "--n-points", "8"],
    "volterra_csv": ["volterra", "--n-points", "16"],
    "volterra_json_rtol": ["volterra", "--beta", "1.5", "--u1", "0.2", "--n-points", "32",
                           "--rtol", "0.1", "--format", "json"],
    "volterra_u1_rtol": ["volterra", "--beta", "1.3", "--u1", "0.5", "--n-points", "600",
                         "--rtol", "1e-3"],
    "volterra_step_too_coarse": ["volterra", "--t-max", "1", "--n-points", "16",
                                 "--rtol", "1e-12"],
    "lyapunov_wave": ["lyapunov", "--alpha", "3", "--beta", "2"],
    "lyapunov_missing_config": ["lyapunov", "--config", "missing.cfg"],
    "pth_bound": ["pth-bound", "--p", "4", "--t", "2"],
    "pth_bound_overflow": ["pth-bound", "--t", "5000"],
    "chaos_terms": ["chaos", "--t", "0.5", "--k", "3"],
    "chaos_mc": ["chaos", "--beta", "1.5", "--k", "2", "--mc-samples", "200", "--seed", "1"],
    "diagrams_partition": ["diagrams", "--partition", "1,2,3"],
    "diagrams_odd_partition": ["diagrams", "--partition", "1,2,2"],
    "diagrams_balanced_count": ["diagrams", "--p", "4", "--m", "3", "--count-only"],
    "diagrams_no_arguments": ["diagrams"],
    "simulate_she": _SHE_SIM,
    "simulate_swe_out": _SWE_SIM + ["--format", "json", "--out", "s.txt"],
    "simulate_unstable": ["simulate", "--family", "she", "--t-max", "0.02", "--dx", "0.02",
                          "--dt", "0.01", "--paths", "2"],
    "figures_sheswe": ["figures", "--family", "sheswe", "--beta-grid", "0.5:2:0.5"],
    "figures_tfspde": ["figures", "--family", "tfspde", "--beta-grid", "0.25:2:0.25",
                       "--nu", "2", "--lambda", "0.5"],
    "figures_sfhe_out": ["figures", "--family", "sfhe", "--alpha-grid", "1.5:3:0.75",
                         "--out", "f.csv"],
    "parser_rejects_format": ["second-moment", "--format", "xml"],
}


def run_case(argv: list[str]) -> dict:
    """Run the CLI in the current directory and record everything it produced.

    COLUMNS is pinned to 80 for the run: argparse wraps the usage text of a
    rejected command line to the terminal width.
    """
    out, err = io.StringIO(), io.StringIO()
    before = set(os.listdir("."))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
    files = {name: Path(name).read_text() for name in sorted(set(os.listdir(".")) - before)}
    return {
        "argv": list(argv),
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": files,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
    }


def test_golden_set_matches_cases():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_unchanged(name, tmp_path, monkeypatch):
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert expected["argv"] == CASES[name]
    monkeypatch.chdir(tmp_path)
    assert run_case(CASES[name]) == expected


def test_parser_reused_after_a_rejection(tmp_path, monkeypatch):
    # the parser is built once per process: a command line that argparse
    # rejects must not change what the next command prints
    monkeypatch.chdir(tmp_path)
    for name in ("parser_rejects_format", "second_moment_csv", "parser_rejects_format",
                 "lyapunov_wave"):
        assert run_case(CASES[name]) == json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def _regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            cwd = os.getcwd()
            os.chdir(tmp)
            try:
                record = run_case(argv)
            finally:
                os.chdir(cwd)
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n")
        print(f"{name}: exit {record['exit_code']}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
