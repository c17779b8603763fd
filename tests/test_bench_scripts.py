"""Import smoke: every ``benchmarks/bench_*.py`` script still starts.

The benchmark scripts are run by hand and by CI jobs, never imported by
the test suite, so a stale import (a renamed or deleted API) would only
surface when someone next runs them.  ``--help`` imports the script and
its ``repro`` dependencies, then exits before any timing starts.
"""

import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("bench_*.py"))


def test_bench_scripts_found():
    assert SCRIPTS, f"no bench_*.py scripts under {BENCHMARKS}"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_bench_script_help(script):
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
