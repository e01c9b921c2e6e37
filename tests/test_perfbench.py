"""The benchmark harness's own self-test, run as the harness documents it:
`python3 perfbench/run.py --self-test` from the repository root.  It is the
check that each workload's required spans still bind to the library's
functions, so a change that renames or stops calling one of them fails here
and not only when the benchmark runs."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_self_test_passes():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "self-test passed"
