"""The pytest-benchmark files under ``bench/`` call anomap by name, but the
test run does not collect them.  This test runs them once, untimed, so that a
name renamed in ``src`` fails here and not first on a manual bench run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = ["bench/bench_pipeline.py", "bench/bench_scoring.py",
         "bench/bench_train.py"]


def test_bench_files_pass_untimed():
    pytest.importorskip("pytest_benchmark")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *FILES, "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
