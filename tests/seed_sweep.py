"""Failure counts and metric spreads of verify checks over a range of seeds.

Runs run_verify_suite(cfg, only=checks) once per verify seed and prints, as
JSON, the seeds at which any flag failed, each flag's failure count and each
metric's mean and sample standard deviation over the seeds.  "figures" names
the figure-reproduction check, which run_verify_suite runs after the others.
Exits 1 when any flag failed at any seed, so a CI step can gate on it.

    PYTHONPATH=src python tests/seed_sweep.py --checks localtime_second_moment --seeds 0 99
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile

import numpy as np

from bridgelab import verification
from bridgelab.config import parse_config


def sweep(checks, seeds, outputs):
    """{"seeds", "checks", "failing_seeds", "flag_failures": name -> count, "metrics": name -> {"mean", "sd"}}."""
    failures, values, failing = {}, {}, []
    for seed in seeds:
        cfg = parse_config(f"drift.family = power\ndrift.beta = 0.8\nseed = {seed}\noutputs = {outputs}\n")
        report = verification.run_verify_suite(cfg, only=checks)
        for name, ok in report.pass_flags.items():
            failures[name] = failures.get(name, 0) + (not ok)
        if not all(report.pass_flags.values()):
            failing.append(seed)
        for name, value in report.metrics.items():
            values.setdefault(name, []).append(float(value))
    return {
        "seeds": [seeds[0], seeds[-1]],
        "checks": list(checks),
        "failing_seeds": failing,
        "flag_failures": dict(sorted(failures.items())),
        "metrics": {
            name: {"mean": float(np.mean(v)), "sd": float(np.std(v, ddof=1)) if len(v) > 1 else 0.0}
            for name, v in sorted(values.items())
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    checks = [name for name, _ in verification.CHECKS] + ["figures"]
    parser.add_argument("--checks", nargs="+", required=True, choices=checks)
    parser.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"), help="inclusive")
    args = parser.parse_args(argv)
    first, last = args.seeds
    if last < first:
        parser.error("--seeds needs FIRST <= LAST")
    with tempfile.TemporaryDirectory() as tmp:
        result = sweep(args.checks, list(range(first, last + 1)), tmp)
    print(json.dumps(result, indent=1))
    return 1 if any(result["flag_failures"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
