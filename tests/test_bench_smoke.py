"""The benchmark's self-test: every op class once, each checked against
its reference (bench/run.py --tiny)."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tiny_run_passes():
    proc = subprocess.run([sys.executable, "bench/run.py", "--tiny"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
