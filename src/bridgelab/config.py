"""Experiment configuration: a flat key=value document with dotted keys.

Example::

    drift.family = power
    drift.beta = 2.0
    T = 10
    h = 0.01
    seed = 7

Unknown keys are rejected; every error message names the offending key.
Configs round-trip losslessly through to_text / parse_config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .drift import DriftSpec, FAMILIES
from .errors import ConfigError, DomainError
from .reporting import digest_text, fmt_float, read_csv
from .simulate import MAX_STEPS

MAX_PATH_STEPS = 10**10  # n_paths * steps: ~6 min at the engine's ~37 ns per path-step (2 vCPUs)


def _parse_float_list(raw, key):
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: expected comma-separated numbers, got {raw!r}") from exc


@dataclass
class ExperimentConfig:
    drift_family: str = ""
    drift_beta: float | None = None
    drift_scale: float = 1.0
    drift_table: str | None = None  # path to a two-column CSV: time, alpha
    scheme: str = "euler"
    T: float = 10.0
    h: float = 0.01
    n_paths: int = 1
    seed: int = 0
    outputs: str = "."
    simulate_horizons: tuple = ()
    law_times: tuple = ()
    localtime_x: float = 0.0
    localtime_eps_ladder: tuple = ()
    localtime_checkpoints: tuple = ()
    localtime_delta: float | None = None
    holder_scales: tuple = ()
    holder_r: float = 1.0

    def drift_spec(self):
        """Materialize the DriftSpec, loading the table CSV if needed."""
        if self.drift_family == "tabulated":
            if not self.drift_table:
                raise ConfigError("drift.table: required for the tabulated family")
            header, rows, _ = read_csv(self.drift_table)
            if header[:2] != ["time", "alpha"]:
                raise ConfigError(f"drift.table: {self.drift_table} must have header time,alpha")
            return DriftSpec.tabulated([r[0] for r in rows], [r[1] for r in rows])
        kwargs = {"scale": self.drift_scale}
        if self.drift_family in ("power", "exponential"):
            if self.drift_beta is None:
                raise ConfigError("drift.beta: required for power and exponential families")
            return getattr(DriftSpec, self.drift_family)(self.drift_beta, **kwargs)
        return DriftSpec.constant(self.drift_scale)


_KEYS = {
    "drift.family": ("drift_family", str),
    "drift.beta": ("drift_beta", float),
    "drift.scale": ("drift_scale", float),
    "drift.table": ("drift_table", str),
    "scheme": ("scheme", str),
    "T": ("T", float),
    "h": ("h", float),
    "n_paths": ("n_paths", int),
    "seed": ("seed", int),
    "outputs": ("outputs", str),
    "simulate.horizons": ("simulate_horizons", "floats"),
    "law.times": ("law_times", "floats"),
    "localtime.x": ("localtime_x", float),
    "localtime.eps_ladder": ("localtime_eps_ladder", "floats"),
    "localtime.checkpoints": ("localtime_checkpoints", "floats"),
    "localtime.delta": ("localtime_delta", float),
    "holder.scales": ("holder_scales", "floats"),
    "holder.r": ("holder_r", float),
}
_FIELD_TO_KEY = {f: k for k, (f, _) in _KEYS.items()}


def parse_config(source):
    """Parse a key=value document into a validated ExperimentConfig."""
    values = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ConfigError(f"{key}: unknown configuration key")
        if key in values:
            raise ConfigError(f"{key}: duplicate key")
        field_name, typ = _KEYS[key]
        try:
            if typ == "floats":
                values[field_name] = _parse_float_list(val, key)
            elif typ is int:
                values[field_name] = int(val)
            elif typ is float:
                values[field_name] = float(val)
            else:
                values[field_name] = val
            floats = values[field_name] if typ == "floats" else [values[field_name]] if typ is float else []
            if not all(map(math.isfinite, floats)):
                raise ConfigError(f"{key}: must be a finite number, got {val!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{key}: cannot parse {val!r} as {typ.__name__}") from exc

    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg):
    if not cfg.drift_family:
        raise ConfigError("drift.family: required key is missing")
    if cfg.drift_family not in FAMILIES:
        raise ConfigError(f"drift.family: must be one of {FAMILIES}, got {cfg.drift_family!r}")
    if cfg.scheme not in ("euler", "exact"):
        raise ConfigError(f"scheme: must be euler or exact, got {cfg.scheme!r}")
    if cfg.h <= 0:
        raise ConfigError(f"h: must be positive, got {cfg.h}")
    if cfg.T < cfg.h:
        raise ConfigError(f"T: must be at least h, got T={cfg.T}, h={cfg.h}")
    if cfg.n_paths < 1:
        raise ConfigError(f"n_paths: must be at least 1, got {cfg.n_paths}")
    delta = () if cfg.localtime_delta is None else (cfg.localtime_delta,)
    for key, vals in (("localtime.eps_ladder", cfg.localtime_eps_ladder), ("localtime.delta", delta),
                      ("holder.r", (cfg.holder_r,))):
        if any(v <= 0 for v in vals):
            raise ConfigError(f"{key}: must be positive, got {min(vals)}")
    steps = max((cfg.T, *cfg.simulate_horizons)) / cfg.h
    if steps > MAX_STEPS:
        key = "T" if cfg.T / cfg.h == steps else "simulate.horizons"
        raise ConfigError(f"{key}: {steps:.3g} steps of h per path exceed the cap of {MAX_STEPS:.0e}")
    if cfg.n_paths * math.ceil(steps) > MAX_PATH_STEPS:
        raise ConfigError(f"n_paths: {cfg.n_paths} x {math.ceil(steps)} path-steps exceed the cap of {MAX_PATH_STEPS:.0e}")
    try:
        cfg.drift_spec()  # surfaces drift-level constraint violations early
    except DomainError as exc:  # DriftSpec's message starts with the field: beta, scale or table
        field, _, reason = str(exc).partition(": ")
        raise ConfigError(f"drift.{field}: {reason}") from exc


def to_text(cfg):
    """Canonical serialization; parse_config(to_text(cfg)) == cfg."""
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        key = _FIELD_TO_KEY[f.name]
        if val is None:
            continue
        if isinstance(val, tuple):
            if not val:
                continue
            rendered = ",".join(fmt_float(v) for v in val)
        elif isinstance(val, float):
            rendered = fmt_float(val)
        else:
            rendered = str(val)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_digest(cfg):
    """Digest of the canonical serialization; changes iff any field changes."""
    return digest_text(to_text(cfg))
