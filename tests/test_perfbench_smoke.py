"""The benchmark's own smoke test, run as its users run it.

It pins one ``synthesize_heartbeat`` call per beat and one
``integrate_euler`` call per lead, checks every workload at a tiny size
and that a corrupted output fails exactly one operation.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_passes():
    done = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
