"""Golden sha256 digests of bridgelab's deterministic artifacts.

The manifest golden_digests.json pins the bits of every verify metric and
flag, of the CLI's CSV artifacts at default configs, and of the engine's
primitives on small fixed inputs.  The bits of np.exp and friends depend on
the Python and numpy builds and on the CPU features numpy dispatches to, so
the manifest records that fingerprint; test_golden_digests skips, naming the
difference, on any other one.

    PYTHONPATH=src python tests/golden_digests.py           # list the digests that moved
    PYTHONPATH=src python tests/golden_digests.py --write   # rewrite the manifest

The manifest also keeps the repr of every verify metric, so the listing shows
each moved metric as old -> new.  A change that moves bits on purpose rewrites
the manifest and lists the moved digests in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np

from bridgelab import cli, drift, local_time, simulate, verification
from bridgelab.config import parse_config
from bridgelab.drift import DriftSpec

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")
REWRITE = "PYTHONPATH=src python tests/golden_digests.py --write"

_SPECS = {
    "power0.8": DriftSpec.power(0.8),
    "power2": DriftSpec.power(2.0),
    "exponential1.5": DriftSpec.exponential(1.5),
    "constant1": DriftSpec.constant(1.0),
    "brownian": DriftSpec.constant(0.0),
    "tabulated": DriftSpec.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 0.5, 1.0]),
}
_FAMILIES = ("power0.8", "exponential1.5", "constant1", "tabulated")

# (name, drift, scheme, level, eps list, grid steps, h, paths); the horizons are the steps times h,
# the last past BLOCK_STEPS, so each walk has several blocks, and a level of 1.5 or 50 leaves
# whole blocks of exact zeros
_ENSEMBLES = (
    ("power0.8_euler_x1.2_65paths", "power0.8", "euler", 1.2, [1e-4, 1e-3], [3000], 1e-3, 65),
    ("power2_exact_x1.5_sparse", "power2", "exact", 1.5, [1e-4], [0, 500, 3000], 1e-3, 2),
    ("brownian_euler_x0.4_1path_dense", "brownian", "euler", 0.4, [1e-3], range(0, 2501, 7), 1e-3, 1),
    ("exponential1.5_exact_x50", "exponential1.5", "exact", 50.0, [1e-2], [2500], 1e-3, 3),
    ("tabulated_euler_x0_sparse", "tabulated", "euler", 0.0, [1e-3, 4e-3], [5, 1024, 2900], 1e-3, 5),
)


def fingerprint():
    """What the bits depend on besides the code: interpreter, numpy, machine and numpy's CPU dispatch."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_dispatch": sorted(f for f in __cpu_dispatch__ if __cpu_features__.get(f)),
    }


def fingerprint_mismatch(recorded):
    """Each fingerprint entry that differs between the recorded one and this process, or ''."""
    here = fingerprint()
    keys = sorted(recorded.keys() | here.keys())
    return "; ".join(f"{k}: manifest {recorded.get(k)!r}, here {here.get(k)!r}" for k in keys if recorded.get(k) != here.get(k))


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _array_sha(arr):
    arr = np.ascontiguousarray(arr)
    return _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def run_verify(outputs):
    """The verify run that the acceptance tests and the manifest share."""
    cfg = parse_config(f"drift.family = power\ndrift.beta = 0.8\noutputs = {outputs}\n")
    return verification.run_verify_suite(cfg)


def verify_values(report):
    """The repr of every verify metric, by digest name."""
    return {f"verify.metric.{k}": repr(float(v)) for k, v in report.metrics.items()}


def _verify_digests(report):
    out = {k: _sha(v.encode()) for k, v in verify_values(report).items()}
    out.update({f"verify.flag.{k}": _sha(repr(bool(v)).encode()) for k, v in report.pass_flags.items()})
    return out


def _cli_digests(workdir):
    """Every CSV of the CLI commands at the default config, and each report's metrics and flags."""
    runs = [[cmd] for cmd in ("law", "simulate", "localtime", "holder")]
    runs += [["figures", "--which", which] for which in ("figure1", "figure2")]
    out = {}
    for argv in runs:
        name = argv[-1]
        outputs = os.path.join(workdir, name)
        cli.main([*argv, "--out", outputs])
        for fname in sorted(os.listdir(outputs)):
            path = os.path.join(outputs, fname)
            if fname.endswith(".csv"):
                with open(path, "rb") as fh:
                    out[f"cli.{name}.{fname}"] = _sha(fh.read())
            elif fname.endswith("_report.json"):
                with open(path, encoding="utf-8") as fh:
                    report = json.load(fh)
                kept = {k: report[k] for k in ("metrics", "pass_flags")}  # wall_time varies, outputs differ
                out[f"cli.{name}.{fname}"] = _sha(json.dumps(kept, sort_keys=True).encode())
    return out


def _engine_digests():
    out = {}
    lo = np.array([0.0, 0.1, 0.5, 1.0, 2.0, 0.0])
    hi = np.array([0.3, 1.0, 2.5, 3.0, 2.9, 0.0])
    for name in _FAMILIES:
        spec = _SPECS[name]
        for rate in (1.0, 2.0):
            out[f"decay_integrals.{name}.rate{rate:g}"] = _array_sha(drift.decay_integrals(spec, lo, hi, rate))
        for scheme in ("euler", "exact"):
            decays, stds = simulate.transition_table(spec, range(201), 0.01, scheme)
            out[f"transition_table.{name}.{scheme}"] = _array_sha(np.stack([decays, stds]))
    for scheme in ("euler", "exact"):
        one_block = simulate.terminal_values(_SPECS["power2"], [0.5, 1.0, 2.0], 0.01, 70, 11, scheme)
        out[f"terminal_values.power2.{scheme}.one_block"] = _array_sha(one_block)
        blocks = simulate.terminal_values(_SPECS["power0.8"], [5.0, 20.0], 0.01, 5, 12, scheme)
        out[f"terminal_values.power0.8.{scheme}.blocks"] = _array_sha(blocks)
    for i, (name, spec, scheme, x, eps, steps, h, n) in enumerate(_ENSEMBLES):
        values = local_time.kernel_ensemble(_SPECS[spec], x, eps, np.asarray(steps) * h, h, n, 20 + i, scheme)
        out[f"kernel_ensemble.{name}"] = _array_sha(values)
    return out


def digests(verify_report, workdir):
    """Every digest of the manifest, name -> sha256 hex, from a verify report and a scratch directory."""
    return {**_verify_digests(verify_report), **_cli_digests(workdir), **_engine_digests()}


def load():
    with open(MANIFEST, encoding="utf-8") as fh:
        return json.load(fh)


def moved(expected, got):
    """Names whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--write", action="store_true", help="rewrite the manifest from this tree")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        report = run_verify(os.path.join(tmp, "verify"))
        got, values = digests(report, tmp), verify_values(report)
    if args.write:
        payload = {
            "regenerate": REWRITE,
            "fingerprint": fingerprint(),
            "digests": dict(sorted(got.items())),
            "values": dict(sorted(values.items())),
        }
        with open(MANIFEST, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {len(got)} digests to {MANIFEST}")
        return 0
    manifest = load()
    mismatch = fingerprint_mismatch(manifest["fingerprint"])
    if mismatch:
        print(f"fingerprint differs from the manifest's, so the digests cannot be compared: {mismatch}")
        return 2
    changed = moved(manifest["digests"], got)
    print(f"{len(changed)} of {len(got)} digests moved")
    old_values = manifest.get("values", {})
    for name in changed:
        shown = f": {old_values.get(name, '?')} -> {values[name]}" if name in values else ""
        print(f"  {name}{shown}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
