"""Smoke runs of the experiment scripts against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["transference_suite.py", "--presets", "Q_sqrt2", "--ranks", "1", "--trials", "1"],
    ["covering_convergence.py", "Q_sqrt2", "--min-resolution", "4", "--max-resolution", "8"],
], ids=["transference_suite", "covering_convergence"])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
