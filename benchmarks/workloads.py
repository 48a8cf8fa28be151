"""The four bridgelab benchmark workloads: seeded inputs and one pass each.

law_oracle  the quadrature side: the law-oracle acceptance checks, the
            mollified second-moment ladder, a batch of law calls on random
            grids and two exact transition tables.  No normals are drawn.
ensemble    the path side: the Monte Carlo acceptance checks, a direct
            growth probe and a long-horizon Euler terminal_values run at
            threads=1 and threads=2.
pathwise    one path at a time: the Hoelder and estimator checks, one fine
            Euler path, the three local-time estimators, the time modulus
            and a level sweep.
cli_cold    cold `python -m bridgelab.cli` subprocesses on generated configs.

A pass is a list of items.  An item is one acceptance check, one group of
direct calls or one CLI invocation.  It fails on a false pass flag, a broken
invariant, an exception, a nonzero exit or an artifact digest mismatch.

The workload seed drives every input the benchmark generates: the random
time grids, the tabulated drift table, the path seeds and the CLI configs.
Acceptance checks run at the seeds of the suite itself, as `bridgelab
verify` derives them from its default seed, so that a check item is exactly
the gate the acceptance tests hold.  The figure presets run at their default
seed for the same reason (NOTES.md gives the failure rate of the presets'
tail flag at other seeds).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bridgelab import drift, gaussian_law, holder_analysis, local_time, simulate, verification
from bridgelab.drift import DriftSpec

WORKLOADS = ("law_oracle", "ensemble", "pathwise", "cli_cold")

_CHECKS = dict(verification.CHECKS)
# `bridgelab verify` seeds check i with config seed + 1000 * i; the config seed defaults to 0.
_SUITE_SEED = {name: 1000 * i for i, (name, _) in enumerate(verification.CHECKS)}
_LAW_LAYERS = ("gaussian_law", "drift")
_CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Sizes:
    """Input sizes of one pass; SMOKE shrinks everything that has no gate tied to its size."""

    law_grids: int = 200
    ladder: tuple = (1e-1, 1e-2, 1e-3)
    table_T: float = 10.0
    terminal_paths: int = 4096
    terminal_steps: int = 20000
    growth_paths: int = 256
    path_log2_steps: int = 15
    check_kwargs: dict = field(default_factory=dict)


FULL = Sizes()
SMOKE = Sizes(
    law_grids=8,
    ladder=(1e-1, 1e-2),
    table_T=1.0,
    terminal_paths=256,
    terminal_steps=2000,
    growth_paths=16,
    path_log2_steps=11,
    # Only the checks whose gates are exact identities shrink; the statistical
    # gates keep the suite's sample sizes.
    check_kwargs={"determinants": {"n_grids": 20}, "conditional_variance": {"n_pairs": 20}},
)


def _random_grid(rng, size, min_gap=0.01, hi=3.0):
    while True:
        times = np.sort(rng.uniform(min_gap, hi, size))
        if np.all(np.diff(times) >= min_gap):
            return times


def _path_seed(rng):
    return int(rng.integers(0, 2**31))


def _cli_configs(rng):
    """Small key=value configs, one per subcommand; figures keep the preset seed."""
    common = f"drift.family = power\ndrift.beta = {float(rng.uniform(0.5, 1.5))!r}\n"
    law_times = np.sort(rng.choice(np.arange(1, 31), size=4, replace=False)) / 10.0
    return {
        "law": common + f"law.times = {','.join(repr(float(t)) for t in law_times)}\n",
        # 8192 paths are two chunks of the CLI's 4096, so --threads 2 has two to run at once.
        # At 40 steps a chunk's noise is 1.3 MB, so whether the two chunks' noise
        # overlaps in time hardly moves the peak RSS.
        "simulate": common + "T = 2\nh = 0.05\nn_paths = 8192\nsimulate.horizons = 0.5,1,2\n"
        f"seed = {_path_seed(rng)}\n",
        "localtime": common + f"T = 2\nh = 0.001\nlocaltime.eps_ladder = 0.01,0.001\nseed = {_path_seed(rng)}\n",
        "holder": common + f"T = 1\nh = 0.001\nn_paths = 4\nseed = {_path_seed(rng)}\n",
        "figures": "drift.family = power\ndrift.beta = 0.8\n",
        "verify": common + f"seed = {_path_seed(rng)}\n",
    }


def make_inputs(workload, seed, work_dir, sizes=FULL):
    """Generate every input of a workload from its seed; configs are written under work_dir."""
    rng = np.random.default_rng(seed)
    if workload == "law_oracle":
        # Grid sizes 2..6 and the two families cycle, so the number and kind of
        # law calls is the same for every seed; times and exponents are random.
        grids = []
        for i in range(sizes.law_grids):
            if i % 2:
                spec = DriftSpec.exponential(float(rng.uniform(0.8, 1.2)))
            else:
                spec = DriftSpec.power(float(rng.uniform(0.8, 1.5)))
            grids.append((spec, _random_grid(rng, 2 + i % 5)))
        # alpha(t) = t within 5%: A(t) passes the underflow cutoff of the
        # transition table near t = 7.7 for every seed, so the share of steps
        # that truncate their integral (the costly ones) hardly depends on it.
        knots = np.linspace(0.0, sizes.table_T, 41)
        alpha = knots * rng.uniform(0.95, 1.05, len(knots))
        return {
            "grids": grids,
            "tabulated": DriftSpec.tabulated(knots, alpha),
            "table_times": np.arange(int(round(sizes.table_T / 0.01)) + 1) * 0.01,
        }
    if workload == "ensemble":
        return {"terminal_seed": _path_seed(rng), "growth_seed": _path_seed(rng)}
    if workload == "pathwise":
        return {"path_seed": _path_seed(rng)}
    if workload == "cli_cold":
        cfg_dir = Path(work_dir) / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        configs = _cli_configs(rng)
        paths = {}
        for name, text in configs.items():
            paths[name] = cfg_dir / f"{name}.cfg"
            paths[name].write_text(text, encoding="utf-8")
        return {"configs": paths, "law_text": configs["law"]}
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


@dataclass
class Item:
    name: str
    seconds: float
    problems: list


class Pass:
    """One pass of a workload: its items, work counts and values read back from outputs."""

    def __init__(self, inputs, sizes, tracer, work_dir, state):
        self.inputs = inputs
        self.sizes = sizes
        self.tracer = tracer
        self.work_dir = Path(work_dir)
        self.state = state  # survives across the passes of a run
        self.items = []
        self.counts = Counter()
        self.values = {}

    def item(self, name, body):
        start = time.perf_counter()
        try:
            problems = list(body())
        except Exception as exc:  # a failing item is counted and the pass goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        self.items.append(Item(name, time.perf_counter() - start, problems))

    def call(self, item, func, *args, work=0, **kwargs):
        """Call a public bridgelab function inside a span named after its module."""
        layer = func.__module__.rsplit(".", 1)[-1]
        with self.tracer.span(layer, func.__name__, item, work):
            out = func(*args, **kwargs)
        if layer in _LAW_LAYERS:
            self.counts["law_calls"] += 1
        return out

    def check(self, name):
        def body():
            with self.tracer.span("verification", name, name):
                metrics, flags = _CHECKS[name](seed=_SUITE_SEED[name], **self.sizes.check_kwargs.get(name, {}))
            self.values.update({f"verification.{k}": v for k, v in metrics.items()})
            return [f"flag {k} is false" for k, ok in flags.items() if not ok]

        self.item(name, body)


@contextmanager
def counting_normals(counts):
    """Count in counts["normals_drawn"] every standard normal that simulate draws, checks included.

    simulate._normals is the program's single draw site; it is wrapped for the
    duration of a traced pass only, so untraced passes run the program as is.
    """
    draw = simulate._normals
    lock = threading.Lock()

    def counted(seed, path_index, n):
        with lock:
            counts["normals_drawn"] += n
        return draw(seed, path_index, n)

    simulate._normals = counted
    try:
        yield
    finally:
        simulate._normals = draw


def _finite(*arrays):
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


# law_oracle ---------------------------------------------------------------


def _law_batch(p):
    name = "law_batch"
    problems = []
    for spec, grid in p.inputs["grids"]:
        lo, hi = float(grid[0]), float(grid[-1])
        var = p.call(name, gaussian_law.variance, spec, hi)
        mat = p.call(name, gaussian_law.build_cov_matrix, spec, grid)
        bounds = p.call(name, gaussian_law.det_bounds, spec, grid)
        cvar = p.call(name, gaussian_law.conditional_variance, spec, lo, hi)
        dint = p.call(name, drift.decay_integral, spec, lo, hi, 1.0)
        fine = np.linspace(0.0, hi, 257)
        steps = p.call(name, drift.decay_integral_steps, spec, fine, 2.0, work=len(fine) - 1)
        last = p.call(name, gaussian_law.conditional_variance, spec, float(fine[-2]), float(fine[-1]))
        if not (_finite(var, mat.entries, cvar, dint, steps) and var > 0):
            problems.append(f"non-finite or non-positive law values on {spec}")
        elif abs(mat.entries[-1, -1] - var) > 1e-9 * var:
            problems.append(f"covariance diagonal != variance on {spec}")
        elif not bounds.lower - 1e-12 <= bounds.det <= bounds.upper + 1e-12:
            problems.append(f"determinant sandwich broken on {spec}")
        elif not (0 < cvar <= hi - lo + 1e-12 and 0 < dint <= hi - lo + 1e-12):
            problems.append(f"conditional variance or decay integral outside (0, t-s] on {spec}")
        elif abs(steps[-1] - last) > 1e-8 * last:
            problems.append(f"decay_integral_steps disagrees with conditional_variance on {spec}")
    return problems[:3]


def _second_moment_ladder(p):
    name = "second_moment_ladder"
    pow1 = DriftSpec.power(1.0)
    rungs = [(eps, p.call(name, gaussian_law.localtime_second_moment, pow1, 1.0, eps, eps)) for eps in p.sizes.ladder]
    bm = p.call(name, gaussian_law.localtime_second_moment, DriftSpec.constant(0.0), 1.0, 0.0, 0.0)
    problems = []
    values = [v for _, v in sorted(rungs)]  # smallest eps first
    if not all(a >= b - 1e-12 for a, b in zip(values, values[1:])):
        problems.append(f"second moment increases with smoothing: {rungs}")
    if abs(bm - 1.0) > 1e-4:
        problems.append(f"Brownian second moment {bm!r} is not within 1e-4 of 1")
    return problems


def _transition_tables(p):
    name = "transition_tables"
    times = p.inputs["table_times"]
    problems = []
    for label, spec in (("power", DriftSpec.power(2.0)), ("tabulated", p.inputs["tabulated"])):
        decays, stds = p.call(f"{name}.{label}", simulate.exact_transition_table, spec, times, work=len(times) - 1)
        if not (_finite(decays, stds) and np.all(decays > 0) and np.all(decays <= 1) and np.all(stds >= 0)):
            problems.append(f"{label} transition table is not finite with decays in (0, 1]")
    return problems


def law_oracle_pass(p):
    for check in ("determinants", "conditional_variance", "laplace_asymptotic"):
        p.check(check)
    p.item("law_batch", lambda: _law_batch(p))
    p.item("second_moment_ladder", lambda: _second_moment_ladder(p))
    p.item("transition_tables", lambda: _transition_tables(p))


# ensemble -----------------------------------------------------------------

_TERMINAL_SPEC = DriftSpec.power(0.8)
_TERMINAL_HORIZONS = (1.0, 2.0)


def _terminal_values(p, threads):
    name = f"terminal_values_threads{threads}"
    n_paths, n_steps = p.sizes.terminal_paths, p.sizes.terminal_steps
    vals = p.call(
        name,
        simulate.terminal_values,
        _TERMINAL_SPEC,
        list(_TERMINAL_HORIZONS),
        _TERMINAL_HORIZONS[-1] / n_steps,
        n_paths,
        p.inputs["terminal_seed"],
        scheme="euler",
        chunk=n_paths // 2,  # two chunks, so threads=2 has two to run at once
        threads=threads,
        work=n_paths * n_steps,
    )
    p.counts["path_steps"] += n_paths * n_steps
    if not _finite(vals):
        return ["terminal values are not finite"]
    if threads == 1:
        p.state["terminal_threads1"] = vals
        problems = []
        for j, horizon in enumerate(_TERMINAL_HORIZONS):
            oracle = p.call(name, gaussian_law.variance, _TERMINAL_SPEC, horizon)
            se = oracle * math.sqrt(2.0 / (n_paths - 1))
            if abs(float(vals[:, j].var(ddof=1)) - oracle) > 6.0 * se:
                problems.append(f"sample variance at T={horizon} is more than 6 se from the oracle")
        return problems
    if vals.tobytes() != p.state.pop("terminal_threads1").tobytes():
        return ["threads=2 terminal values differ from threads=1"]
    return []


def _growth_probe(p):
    name = "growth_probe"
    horizons = np.arange(1.0, 9.0)
    h = 1e-3
    n_paths = p.sizes.growth_paths
    steps = n_paths * int(round(horizons[-1] / h))
    curve, exponent = p.call(
        name,
        local_time.growth_probe,
        DriftSpec.power(1.5),
        0.0,
        horizons,
        h,
        n_paths,
        p.inputs["growth_seed"],
        scheme="exact",
        work=steps,
    )
    p.counts["path_steps"] += steps
    return [] if _finite(curve, exponent) and exponent > 0 else ["growth probe curve or exponent invalid"]


def ensemble_pass(p):
    for check in ("law_agreement", "localtime_second_moment", "bridge_decay", "localtime_growth"):
        p.check(check)
    p.item("growth_probe", lambda: _growth_probe(p))
    p.item("terminal_values_threads1", lambda: _terminal_values(p, 1))
    p.item("terminal_values_threads2", lambda: _terminal_values(p, 2))


# pathwise -----------------------------------------------------------------

_PATH_SPEC = DriftSpec.power(0.8)
_LEVEL_EPS = 4e-5


def _single_path(p):
    name = "single_path"
    h = 2.0 ** -p.sizes.path_log2_steps
    n_steps = 2**p.sizes.path_log2_steps
    path = p.call(name, simulate.euler_path, _PATH_SPEC, 1.0, h, seed=p.inputs["path_seed"], work=n_steps)
    p.counts["path_steps"] += n_steps
    sigma = math.sqrt(p.call(name, gaussian_law.variance, _PATH_SPEC, 1.0))

    kernel = p.call(name, local_time.kernel_estimate, path, 0.0, _LEVEL_EPS, path.times, work=n_steps)
    binned = p.call(name, local_time.binned_estimate, path, 0.0, math.sqrt(h), path.times, work=n_steps)
    tanaka = p.call(name, local_time.tanaka_estimate, path, _PATH_SPEC, 0.0, path.times, work=n_steps)
    scales = h * 2.0 ** np.arange(2, 10)
    profile = p.call(name, holder_analysis.time_modulus, kernel, scales, work=n_steps)
    x_grid = np.linspace(-1.0, 1.0, 257)
    levels = p.call(
        name, holder_analysis.level_sweep, path.values, h, x_grid, _LEVEL_EPS, work=len(path.values) * len(x_grid)
    )

    problems = []
    if not _finite(path.values, kernel.values, binned.values, tanaka.values, levels, profile.fitted_slope):
        problems.append("non-finite path, local-time or modulus values")
    if abs(path.values[-1]) >= 6.0 * sigma:
        problems.append("|X_1| is beyond 6 oracle standard deviations")
    if np.any(np.diff(kernel.values) < 0) or np.any(np.diff(binned.values) < 0):
        problems.append("kernel or binned local time decreases in time")
    if np.any(levels < 0) or abs(levels[128] - kernel.values[-1]) > 1e-9 * kernel.values[-1]:
        problems.append("level sweep at x=0 disagrees with the kernel estimate")
    return problems


def pathwise_pass(p):
    for check in ("holder_space", "holder_time", "estimator_consistency"):
        p.check(check)
    p.item("single_path", lambda: _single_path(p))


# cli_cold -----------------------------------------------------------------

# (item, config, argv after the subcommand, report file stem)
CLI_INVOCATIONS = (
    ("import", None, None, None),
    ("law", "law", ["law"], "law"),
    ("simulate_t1", "simulate", ["simulate", "--threads", "1"], "simulate"),
    ("simulate_t2", "simulate", ["simulate", "--threads", "2"], "simulate"),
    ("localtime", "localtime", ["localtime"], "localtime"),
    ("holder", "holder", ["holder"], "holder"),
    ("figure1", "figures", ["figures", "--which", "figure1"], "figure1"),
    ("figure2", "figures", ["figures", "--which", "figure2"], "figure2"),
    ("verify", "verify", ["verify", "--checks", "laplace_asymptotic"], "verify"),
)


def subprocess_env(src_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src_dir), env.get("PYTHONPATH")]))
    env.pop("BRIDGELAB_OUT", None)
    return env


def _digests(out_dir):
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.glob("*.csv"))}


def _law_artifact_problems(p, out_dir):
    """covariance.csv must hold, bit for bit, the matrix the library computes in process."""
    keys = dict(line.split(" = ", 1) for line in p.inputs["law_text"].splitlines())
    spec = DriftSpec.power(float(keys["drift.beta"]))
    times = np.array([float(t) for t in keys["law.times"].split(",")])
    mat = p.call("law", gaussian_law.build_cov_matrix, spec, times)
    rows = (out_dir / "covariance.csv").read_text(encoding="utf-8").splitlines()[1:]
    written = np.array([float(r.split(",")[2]) for r in rows]).reshape(mat.entries.shape)
    return [] if np.array_equal(written, mat.entries) else ["covariance.csv differs from build_cov_matrix"]


def _holder_values(p, report):
    """How far each slope `bridgelab holder` prints lies outside its printed band (0 inside it)."""
    m = report["metrics"]
    outside = 0
    for kind in ("time", "space"):
        slope, low, high = m[f"{kind}_slope"], m[f"{kind}_band_low"], m[f"{kind}_band_high"]
        distance = max(low - slope, slope - high, 0.0)
        p.values[f"cli.holder.{kind}_slope"] = slope
        p.values[f"cli.holder.{kind}_slope_band_distance"] = distance
        outside += distance > 0
    p.values["cli.holder.slopes_outside_band"] = float(outside)


def _invoke(p, name, config, argv, report_stem):
    out_dir = p.work_dir / "cli" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    if argv is None:
        cmd = [sys.executable, "-c", "import bridgelab"]
    else:
        cmd = [sys.executable, "-m", "bridgelab.cli", argv[0], "--config", str(p.inputs["configs"][config])]
        cmd += ["--out", str(out_dir), *argv[1:]]
    with p.tracer.span("cli", name, name):
        proc = subprocess.run(
            cmd, cwd=out_dir, env=p.state["env"], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=_CLI_TIMEOUT_S,
        )
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}"]
    p.counts["bytes_written"] += sum(f.stat().st_size for f in out_dir.iterdir())
    if report_stem is None:
        return []
    report = json.loads((out_dir / f"{report_stem}_report.json").read_text(encoding="utf-8"))
    p.values[f"cli.{name}.report_wall_s"] = report["wall_time"]
    problems = []
    digests = _digests(out_dir)
    reference = p.state.setdefault("digests", {})  # the first pass of the run is the reference
    if reference.setdefault(name, digests) != digests:
        problems.append("artifact digests differ from the run's first pass")
    if name == "simulate_t2" and digests != p.state["pass_digests"].get("simulate_t1"):
        problems.append("simulate --threads 2 artifacts differ from --threads 1")
    p.state["pass_digests"][name] = digests
    if name == "law":
        problems += _law_artifact_problems(p, out_dir)
    if name == "holder":
        _holder_values(p, report)
    return problems


def cli_cold_pass(p):
    p.state["pass_digests"] = {}
    for name, config, argv, report_stem in CLI_INVOCATIONS:
        p.item(name, lambda: _invoke(p, name, config, argv, report_stem))


PASSES = {
    "law_oracle": law_oracle_pass,
    "ensemble": ensemble_pass,
    "pathwise": pathwise_pass,
    "cli_cold": cli_cold_pass,
}
