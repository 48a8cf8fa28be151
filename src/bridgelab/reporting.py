"""CSV and JSON artifact emission with byte-deterministic formatting."""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


def fmt_float(x):
    """Shortest decimal representation that round-trips the double exactly."""
    return repr(float(x))


def emit_csv(records, schema, path, preamble=None):
    """Write rows as UTF-8, comma-separated, LF-terminated CSV.

    records: iterable of rows matching the schema length; floats are written
    in shortest round-trip form.  preamble lines, if any, are written as
    '# ...' comments above the header.
    """
    schema = list(schema)
    lines = []
    if preamble:
        lines.extend(f"# {p}" for p in preamble)
    lines.append(",".join(schema))
    for row in records:
        row = tuple(row)
        if len(row) != len(schema):
            raise DomainError(f"row {row!r} does not match schema {schema}")
        lines.append(",".join(fmt_float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else str(v) for v in row))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path):
    """Read back an emit_csv file: (header, rows of floats, preamble lines)."""
    preamble, header, rows = [], None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("# "):
                preamble.append(line[2:])
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(tuple(float(v) for v in line.split(",")))
    return header or [], rows, preamble


def path_to_csv(path_obj, out_path, include_increments=False):
    """Serialize a sample path as t,x or t,x,dw (row k carries the increment over (t_{k-1}, t_k])."""
    if include_increments and path_obj.brownian_increments is not None:
        dw = np.concatenate([[0.0], path_obj.brownian_increments])
        records = zip(path_obj.times, path_obj.values, dw)
        schema = ("t", "x", "dw")
    else:
        records = zip(path_obj.times, path_obj.values)
        schema = ("t", "x")
    emit_csv(records, schema, out_path)


def decay_stats_to_csv(stats, out_path):
    emit_csv(
        zip(stats.horizons, stats.mean_abs, stats.mean_sq, stats.std_err_sq),
        ("T", "mean_abs", "mean_sq", "stderr_sq"),
        out_path,
    )


def curve_to_csv(curve, out_path):
    smoothing = "none" if curve.smoothing is None else fmt_float(curve.smoothing)
    preamble = [
        f"estimator={curve.estimator} smoothing={smoothing} x={fmt_float(curve.level_x)} seed={curve.source_seed}"
    ]
    emit_csv(zip(curve.checkpoints, curve.values), ("t", "L"), out_path, preamble=preamble)


def profile_to_csv(profile, out_path):
    emit_csv(zip(profile.scales, profile.sup_increments), ("scale", "sup_increment"), out_path)


@dataclass
class ReportSummary:
    """Machine-readable outcome of one CLI command."""

    command: str
    config_digest: str
    metrics: dict = field(default_factory=dict)
    pass_flags: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @property
    def all_passed(self):
        return all(self.pass_flags.values())

    def to_json(self):
        payload = {
            "command": self.command,
            "config_digest": self.config_digest,
            "metrics": {k: float(v) for k, v in self.metrics.items()},
            "pass_flags": {k: bool(v) for k, v in self.pass_flags.items()},
            "wall_time": float(self.wall_time),
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def write(self, out_dir):
        path = os.path.join(out_dir, f"{self.command}_report.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json())
        return path


def digest_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
