"""The benchmark's smoke run: every workload at toy size, untraced and
traced, must be correct, report every declared metric and see every
layer wrapper fire.  A call site that binds a layer function at import
time bypasses its wrapper and fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "smoke.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
