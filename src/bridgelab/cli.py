"""Command-line front end.

Subcommands: simulate, law, localtime, holder, figures, verify.  Experiment
parameters come from a key=value config file (see config.py); --seed, --out
and (simulate, holder) --threads override the corresponding knobs; without
--threads, path batches run on every core the process may use.  Every
subcommand writes its CSV artifacts plus a <command>_report.json summary into
the output directory.  Given a fixed config and seed, artifacts are
byte-identical regardless of the thread count: path randomness is keyed by
(seed, path_index, step), never by execution order.

Exit codes: 0 when every pass flag holds; 1 when one fails; 2 for a bad flag,
config file or config value; 3 when the run raises a package error (a
DomainError, NumericsError, UnsupportedSchemeError or InsufficientDataError),
printed as one "error: ..." line on stderr, with no report written.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

import numpy as np

from . import gaussian_law, holder_analysis, local_time, simulate, verification
from .config import config_digest, parse_config
from .errors import ConfigError, DomainError, InsufficientDataError, NumericsError, UnsupportedSchemeError
from .reporting import (
    ReportSummary,
    curve_to_csv,
    decay_stats_to_csv,
    emit_csv,
    fmt_float,
    path_to_csv,
    profile_to_csv,
)
from .verification import run_figures_preset

_DEFAULT_CONFIG = "drift.family = power\ndrift.beta = 0.8\n"

def _cmd_simulate(cfg, args):
    spec = cfg.drift_spec()
    summary = ReportSummary(command="simulate", config_digest=config_digest(cfg))
    gen = simulate.euler_path if cfg.scheme == "euler" else simulate.exact_path
    for i in range(min(cfg.n_paths, 16)):
        path = gen(spec, T=cfg.T, h=cfg.h, seed=cfg.seed, path_index=i)
        path_to_csv(
            path,
            os.path.join(cfg.outputs, f"path_{i:04d}.csv"),
            include_increments=cfg.scheme == "euler",
        )
        summary.metrics[f"path_{i}_final"] = float(path.values[-1])
        summary.metrics[f"path_{i}_stability_warning"] = float(path.stability_warning)
    horizons = cfg.simulate_horizons or (cfg.T,)
    if cfg.n_paths >= 100:
        stats = simulate.batch_terminal_stats(
            spec, horizons, cfg.h, cfg.n_paths, cfg.seed, cfg.scheme, threads=args.threads
        )
        decay_stats_to_csv(stats, os.path.join(cfg.outputs, "terminal_stats.csv"))
        summary.metrics["mean_sq_final"] = float(stats.mean_sq[-1])
    return summary


def _cmd_law(cfg, args):
    spec = cfg.drift_spec()
    summary = ReportSummary(command="law", config_digest=config_digest(cfg))
    times = np.asarray(cfg.law_times or (1.0, 2.0, 3.0), dtype=float)
    mat = gaussian_law.build_cov_matrix(spec, times)
    records = [
        (times[i], times[j], mat.entries[i, j])
        for i in range(len(times))
        for j in range(len(times))
    ]
    emit_csv(records, ("s", "t", "cov"), os.path.join(cfg.outputs, "covariance.csv"))
    bounds = gaussian_law.det_bounds(spec, times)
    summary.metrics["det_conditioning"] = bounds.det
    summary.metrics["det_lu"] = gaussian_law.lu_det(mat.entries)
    summary.metrics["det_lower"] = bounds.lower
    summary.metrics["det_upper"] = bounds.upper
    summary.pass_flags["det_sandwich"] = bounds.lower - 1e-12 <= bounds.det <= bounds.upper + 1e-12
    return summary


def _cmd_localtime(cfg, args):
    spec = cfg.drift_spec()
    summary = ReportSummary(command="localtime", config_digest=config_digest(cfg))
    path = simulate.euler_path(spec, T=cfg.T, h=cfg.h, seed=cfg.seed)
    checkpoints = cfg.localtime_checkpoints or tuple(np.linspace(cfg.h, path.horizon, 64))
    ladder = cfg.localtime_eps_ladder or (cfg.h,)
    delta = cfg.localtime_delta if cfg.localtime_delta is not None else math.sqrt(cfg.h)
    x = cfg.localtime_x
    finals = {}
    for eps in ladder:
        curve = local_time.kernel_estimate(path, x, eps, checkpoints)
        curve_to_csv(curve, os.path.join(cfg.outputs, f"localtime_kernel_{fmt_float(eps)}.csv"))
        finals[f"kernel_{fmt_float(eps)}"] = float(curve.values[-1])
    binned = local_time.binned_estimate(path, x, delta, checkpoints)
    curve_to_csv(binned, os.path.join(cfg.outputs, "localtime_binned.csv"))
    finals["binned"] = float(binned.values[-1])
    tanaka = local_time.tanaka_estimate(path, spec, x, checkpoints)
    curve_to_csv(tanaka, os.path.join(cfg.outputs, "localtime_tanaka.csv"))
    finals["tanaka"] = float(tanaka.values[-1])
    summary.metrics.update({f"final_{k}": v for k, v in finals.items()})
    return summary


def _cmd_holder(cfg, args):
    spec = cfg.drift_spec()
    summary = ReportSummary(command="holder", config_digest=config_digest(cfg))
    scales = cfg.holder_scales or tuple(cfg.h * 2.0 ** np.arange(2, 8))
    profile = holder_analysis.time_profile(spec, cfg.T, cfg.h, 1, cfg.seed, scales, cfg.scheme)
    profile_to_csv(profile, os.path.join(cfg.outputs, "holder_time_profile.csv"))
    summary.metrics["time_slope"] = profile.fitted_slope
    summary.metrics["time_intercept"] = profile.fitted_intercept
    summary.metrics["time_band_low"], summary.metrics["time_band_high"] = verification.HOLDER_TIME_BAND

    r = cfg.holder_r
    x_grid = np.linspace(-r, r, 257)
    space = holder_analysis.space_modulus(
        spec,
        cfg.T,
        x_grid,
        n_paths=max(cfg.n_paths, 4),
        h=cfg.h,
        seed=cfg.seed,
        eps=cfg.h,
        scheme=cfg.scheme,
        threads=args.threads,
    )
    profile_to_csv(space, os.path.join(cfg.outputs, "holder_space_profile.csv"))
    summary.metrics["space_slope"] = space.fitted_slope
    summary.metrics["space_intercept"] = space.fitted_intercept
    summary.metrics["space_band_low"], summary.metrics["space_band_high"] = verification.HOLDER_SPACE_BAND
    return summary


def _cmd_figures(cfg, args):
    return run_figures_preset(args.which, seed=cfg.seed, outputs=cfg.outputs)


def _cmd_verify(cfg, args):
    only = set(args.checks.split(",")) if args.checks else None
    summary = verification.run_verify_suite(cfg, only=only)
    for name, ok in sorted(summary.pass_flags.items()):
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return summary


_HANDLERS = dict(simulate=_cmd_simulate, law=_cmd_law, localtime=_cmd_localtime, holder=_cmd_holder,
                 figures=_cmd_figures, verify=_cmd_verify)


def _build_parser():
    parser = argparse.ArgumentParser(prog="bridgelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", help="output directory (or $BRIDGELAB_OUT, or config outputs)")
        if name in ("simulate", "holder"):
            p.add_argument("--threads", type=int, help="worker threads for path batches (default: every core)")
        if name == "figures":
            p.add_argument("--which", choices=("figure1", "figure2"), default="figure1")
        if name == "verify":
            p.add_argument("--checks", help="comma-separated subset of checks to run")
    return parser


def _load_config(args):
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = parse_config(_DEFAULT_CONFIG)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    out = args.out or os.environ.get("BRIDGELAB_OUT")
    if out:
        overrides["outputs"] = out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "threads", None) is not None and args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2
    os.makedirs(cfg.outputs, exist_ok=True)

    start = time.monotonic()
    try:
        summary = _HANDLERS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericsError, UnsupportedSchemeError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    summary.wall_time = time.monotonic() - start
    summary.write(cfg.outputs)
    return 0 if summary.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
