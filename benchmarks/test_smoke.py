"""Smoke test of the benchmark itself (not part of the tier-1 suite, which collects tests/ only).

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload once at a tiny size, traced and untraced, and requires
that every metric named in BENCHMARK.json is printed with its unit and that
no item failed.  Takes about a minute on two cores.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke_prints_every_metric_and_fails_nothing():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.stdout.strip().splitlines()[-1] == '{"smoke": "ok"}'
