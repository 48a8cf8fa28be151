"""Run one bridgelab benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload law_oracle --seed 1 --seconds 24 --trace 0
    python3 benchmarks/run.py --smoke

--trace 0 runs untraced passes for --seconds and prints the end-to-end
metrics.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics, derived from the spans of the traced passes, plus the
tracing overhead: spans per pass times the measured cost of one span, over
the untraced pass time.  (Traced minus untraced pass time would measure the
same thing, but on two passes it is swamped by run-to-run noise.)  At least
two passes run either way.  --smoke runs every
workload once at a tiny size, traced and untraced, and checks that every
metric named in BENCHMARK.json is printed with its unit and that no item
failed.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  attempted and failed count items (checks,
direct-call groups, CLI invocations) over every pass of the run, so
failed / attempted is the run's failed fraction.  The exit code is 0 only if
no item failed.  Spans and a full result with the machine manifest are
written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from importlib import metadata
from pathlib import Path

# One BLAS thread per process: the threads=2 items are the only parallelism.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
MIN_PASSES = 2

CHECK_NAMES = (
    "law_agreement",
    "laplace_asymptotic",
    "determinants",
    "conditional_variance",
    "localtime_second_moment",
    "estimator_consistency",
    "bridge_decay",
    "localtime_growth",
    "holder_time",
    "holder_space",
)
CLI_NAMES = ("law", "simulate_t1", "simulate_t2", "localtime", "holder", "figure1", "figure2", "verify")


def _units(kind):
    """Metric name -> unit for "end_to_end" or "per_layer", as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _quantile(samples, q):
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1]


def _tail(samples):
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples) if samples else None}
    for p in (99, 95, 90, 75):
        if n * (100 - p) >= 1000:
            out[f"p{p}"] = _quantile(samples, p / 100)
            break
    return out


def _manifest(args):
    def first_line(path, key):
        try:
            with open(path, encoding="utf-8") as fh:
                return next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith(key)), "unknown")
        except OSError:
            return "unknown"

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "ram_total": first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_commit():
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_samples(workload, seed, work_dir, env, repeats):
    samples = []
    for i in range(repeats):
        probe_dir = work_dir / f"setup{i}"
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed), str(probe_dir)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def _end_to_end(run):
    return {
        "wall_s": statistics.median(p["wall"] for p in run["passes"] if not p["traced"]),
        "setup_s": statistics.median(run["setup"]),
        "peak_rss_mb": run["peak_rss_mb"],
    }


def _per_layer(run, spans):
    traced = [p for p in run["passes"] if p["traced"]]
    untraced = [p for p in run["passes"] if not p["traced"]]
    n_passes = len(traced)
    traced_wall = sum(p["wall"] for p in traced)
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    errors = defaultdict(int)
    for s in spans:
        for key in ((s["layer"],), (s["layer"], s["fn"]), (s["layer"], s["fn"], s["parent"])):
            dur[key] += s["end"] - s["start"]
            calls[key] += 1
            work[key] += s["n"]
        if s["error"]:
            errors[(s["layer"], s["error"])] += 1

    def per_call(*key, scale=1.0):
        return dur[key] / calls[key] * scale if calls[key] else 0.0

    def per_work(*key, scale=1.0):
        return dur[key] / work[key] * scale if work[key] else 0.0

    def per_pass_count(name):
        return sum(p["counts"][name] for p in traced) / n_passes

    def last_value(name):
        return next((p["values"][name] for p in reversed(traced) if name in p["values"]), 0.0)

    def mean_value(name):
        vals = [p["values"][name] for p in traced if name in p["values"]]
        return statistics.fmean(vals) if vals else 0.0

    cli = [s["end"] - s["start"] for s in spans if s["layer"] == "cli" and s["fn"] != "import"]
    t1 = dur[("simulate", "terminal_values", "terminal_values_threads1")]
    t2 = dur[("simulate", "terminal_values", "terminal_values_threads2")]
    us, ms, ns = 1e6, 1e3, 1e9
    out = {
        "law_calls_per_s": sum(p["counts"]["law_calls"] for p in traced) / traced_wall,
        "path_steps_per_s": sum(p["counts"]["path_steps"] for p in traced) / traced_wall,
        "cli_cold_s_p50": statistics.median(cli) if cli else 0.0,
        "cli_cold_s_p90": _quantile(cli, 0.9) if cli else 0.0,
        "trace_overhead_frac": len(spans) / n_passes * run["span_cost_s"]
        / statistics.median(p["wall"] for p in untraced),
        "drift.decay_integral.us_per_call": per_call("drift", "decay_integral", scale=us),
        "drift.decay_integral_steps.ns_per_step": per_work("drift", "decay_integral_steps", scale=ns),
        "gaussian_law.variance.us_per_call": per_call("gaussian_law", "variance", scale=us),
        "gaussian_law.conditional_variance.us_per_call": per_call("gaussian_law", "conditional_variance", scale=us),
        "gaussian_law.build_cov_matrix.us_per_call": per_call("gaussian_law", "build_cov_matrix", scale=us),
        "gaussian_law.det_bounds.us_per_call": per_call("gaussian_law", "det_bounds", scale=us),
        "gaussian_law.localtime_second_moment.ms_per_call": per_call(
            "gaussian_law", "localtime_second_moment", scale=ms
        ),
        "gaussian_law.busy_s": dur[("gaussian_law",)] / n_passes,
        "gaussian_law.numerics_errors": errors[("gaussian_law", "NumericsError")] / n_passes,
        "simulate.exact_transition_table.power.ms_per_call": per_call(
            "simulate", "exact_transition_table", "transition_tables.power", scale=ms
        ),
        "simulate.exact_transition_table.tabulated.ms_per_call": per_call(
            "simulate", "exact_transition_table", "transition_tables.tabulated", scale=ms
        ),
        "simulate.normals_drawn": per_pass_count("normals_drawn"),
        "simulate.terminal_values.ns_per_path_step": per_work("simulate", "terminal_values", scale=ns),
        "simulate.threads2_speedup": t1 / t2 if t2 else 0.0,
        "simulate.busy_s": dur[("simulate",)] / n_passes,
        "local_time.growth_probe.ns_per_path_step": per_work("local_time", "growth_probe", scale=ns),
        "simulate.euler_path.ns_per_step": per_work("simulate", "euler_path", scale=ns),
        "local_time.kernel_estimate.ms_per_call": per_call("local_time", "kernel_estimate", scale=ms),
        "local_time.binned_estimate.ms_per_call": per_call("local_time", "binned_estimate", scale=ms),
        "local_time.tanaka_estimate.ms_per_call": per_call("local_time", "tanaka_estimate", scale=ms),
        "holder_analysis.level_sweep.ns_per_sample_level": per_work("holder_analysis", "level_sweep", scale=ns),
        "holder_analysis.time_modulus.ms_per_call": per_call("holder_analysis", "time_modulus", scale=ms),
        "holder_analysis.busy_s": dur[("holder_analysis",)] / n_passes,
        "verification.consistency_attempts": last_value("verification.consistency_attempts"),
        "cli.import_s": per_call("cli", "import"),
        "reporting.bytes_written": per_pass_count("bytes_written"),
        "cli.holder.time_slope_band_distance": last_value("cli.holder.time_slope_band_distance"),
        "cli.holder.space_slope_band_distance": last_value("cli.holder.space_slope_band_distance"),
        "cli.holder.slopes_outside_band": last_value("cli.holder.slopes_outside_band"),
    }
    for name in CHECK_NAMES:
        out[f"verification.{name}.s"] = per_call("verification", name)
    for name in CLI_NAMES:
        out[f"cli.{name}.cold_s"] = per_call("cli", name)
        out[f"cli.{name}.report_wall_s"] = mean_value(f"cli.{name}.report_wall_s")
    return out


def run_workload(workloads, tracing, workload, seed, seconds, traced, sizes, setup_repeats):
    """Set up, then run passes for `seconds` (at least MIN_PASSES); traced runs alternate untraced and traced."""
    run_id = f"{workload}-seed{seed}-{os.getpid()}"
    work_dir = OUT / run_id
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = workloads.subprocess_env(SRC)
    tracer = tracing.Tracer(run_id)
    run = {"run_id": run_id, "passes": [], "setup": []}
    try:
        inputs = workloads.make_inputs(workload, seed, work_dir, sizes)
        run["setup"] = _setup_samples(workload, seed, work_dir, env, setup_repeats)
        state = {"env": env}
        start = time.perf_counter()
        while True:
            is_traced = traced and len(run["passes"]) % 2 == 1
            tracer.pass_index = len(run["passes"])
            p = workloads.Pass(inputs, sizes, tracer if is_traced else tracing.NullTracer(), work_dir, state)
            with workloads.counting_normals(p.counts) if is_traced else nullcontext():
                t0 = time.perf_counter()
                workloads.PASSES[workload](p)
                wall = time.perf_counter() - t0
            run["passes"].append(
                {"traced": is_traced, "wall": wall, "items": p.items, "counts": p.counts, "values": p.values}
            )
            done = len(run["passes"])
            typical = statistics.median(q["wall"] for q in run["passes"])
            if done >= MIN_PASSES and time.perf_counter() - start + typical > seconds:
                break
        run["peak_rss_mb"] = _peak_rss_mb()
        if traced:
            run["span_cost_s"] = tracing.span_cost()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    run["spans"] = tracer.spans
    if traced:
        run["spans_path"] = OUT / f"spans-{run_id}.jsonl"
        tracer.write(run["spans_path"])
    return run


def _summary(run):
    items = [it for p in run["passes"] for it in p["items"]]
    failures = [(it.name, it.problems) for it in items if it.problems]
    return len(items), failures


def _emit(manifest, run, metrics, units):
    attempted, failures = _summary(run)
    detail = {
        "manifest": manifest,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall"], "items_s": {it.name: it.seconds for it in p["items"]},
             "values": p["values"]}
            for p in run["passes"]
        ],
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "wall_s": _tail([p["wall"] for p in run["passes"] if not p["traced"]]),
        "setup_s": _tail(run["setup"]) if run["setup"] else None,
        "item_medians_s": {
            name: statistics.median(it.seconds for p in run["passes"] for it in p["items"] if it.name == name)
            for name in dict.fromkeys(it.name for p in run["passes"] for it in p["items"])
        },
        "spans": str(run["spans_path"].relative_to(ROOT)) if "spans_path" in run else None,
    }
    (OUT / f"result-{run['run_id']}.json").write_text(
        json.dumps({"detail": detail, "metrics": metrics}, indent=1, default=str) + "\n", encoding="utf-8"
    )
    for name, problems in failures:
        print(f"FAIL {name}: {'; '.join(problems)}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    for key in ("failed_frac", "wall_s", "setup_s"):
        print(f"detail {key} {json.dumps(detail[key])}")
    for name, value in metrics.items():
        print(f"metric {name} {value!r} {units[name]}")
    return attempted, len(failures)


def _import_program():
    """Import the benchmark's modules against the checkout's src/, or return None if it has none."""
    if not (SRC / "bridgelab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import bridgelab
    import tracing
    import workloads

    if Path(bridgelab.__file__).resolve().parent != (SRC / "bridgelab").resolve():
        raise RuntimeError(f"bridgelab imported from {bridgelab.__file__}, not from {SRC}")
    return workloads, tracing


def _smoke(workloads, tracing):
    units = {**_units("end_to_end"), **_units("per_layer")}
    ok = True
    for workload in workloads.WORKLOADS:
        run = run_workload(workloads, tracing, workload, 0, 0, True, workloads.SMOKE, 1)
        computed = {**_end_to_end(run), **_per_layer(run, run["spans"])}
        metrics = {name: float(computed[name]) for name in units if name in computed}
        args = argparse.Namespace(workload=workload, seed=0, seconds=0, trace="smoke")
        attempted, failed = _emit(_manifest(args), run, metrics, units)
        if failed or set(computed) != set(units):
            print(f"smoke {workload}: {failed} of {attempted} items failed; metrics computed but not declared: "
                  f"{set(computed) - set(units)}, declared but not computed: {set(units) - set(computed)}",
                  file=sys.stderr)
            ok = False
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("law_oracle", "ensemble", "pathwise", "cli_cold"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds at least 1")

    modules = _import_program()
    if modules is None:
        print(f"error: no bridgelab sources under {SRC}", file=sys.stderr)
        return 2
    workloads, tracing = modules
    OUT.mkdir(exist_ok=True)
    if args.smoke:
        return _smoke(workloads, tracing)

    run = run_workload(
        workloads, tracing, args.workload, args.seed, args.seconds, bool(args.trace), workloads.FULL,
        0 if args.trace else SETUP_REPEATS,
    )
    if args.trace:
        computed, units = _per_layer(run, run["spans"]), _units("per_layer")
    else:
        computed, units = _end_to_end(run), _units("end_to_end")
    metrics = {name: float(computed[name]) for name in units}
    attempted, failed = _emit(_manifest(args), run, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
