"""The layer micro-benchmarks in ``benchmarks/`` sit outside the tier-1 test
paths, so a change to a signature they call could break them unnoticed. This
runs each of them once, untimed, in a fresh interpreter."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmarks_run_once():
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/test_layers.py", "--benchmark-disable",
         "-q"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
