"""Path generation for the bridge SDE dX = -alpha(t) X dt + dW, X_0 = 0.

Two schemes: plain Euler (used by the preset experiments; retains the
driving Brownian increments for pathwise local-time identities) and an exact
Gaussian-transition scheme that is unbiased at any step size and therefore
safe for stiff drifts.

Randomness is drawn from counter-based Philox streams keyed by
(seed, path_index), with step k consuming the k-th draw of the stream, so a
sample is a pure function of (seed, path_index, step) and results never
depend on execution order or worker count.

One engine, walk, steps a chunk of paths time-major over blocks of
BLOCK_STEPS steps, drawing each block from the chunk's Philox generators,
which stay alive between blocks.  Callers reduce each (steps, paths) block as
it comes (snapshots at horizons, whole-path capture, a running kernel
integral), so memory is O(chunk x block) unless whole paths are kept, and
results are bit-identical for any block length, chunk size and thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import drift as drift_mod
from .errors import DomainError

_MASK64 = (1 << 64) - 1
BLOCK_STEPS = 1024


@dataclass
class SamplePath:
    """One trajectory on a uniform grid, with its generation metadata.

    brownian_increments holds the Delta-W per step for the Euler scheme and
    is None for the exact scheme, which does not expose the driving noise.
    stability_warning is set when h * alpha(t) exceeded 1 somewhere on the
    grid (plain Euler degrades there).
    """

    times: np.ndarray
    values: np.ndarray
    brownian_increments: np.ndarray | None
    scheme: str
    seed: int
    path_index: int
    stability_warning: bool = False

    def __post_init__(self):
        if len(self.times) != len(self.values):
            raise DomainError("times and values must have equal length")
        if self.brownian_increments is not None and len(self.brownian_increments) != len(self.times) - 1:
            raise DomainError("need one Brownian increment per step")

    @property
    def h(self):
        return float(self.times[1] - self.times[0])

    @property
    def horizon(self):
        return float(self.times[-1])


@dataclass(frozen=True)
class DecayStats:
    """Monte Carlo |X_T| and X_T^2 summaries across a ladder of horizons."""

    horizons: np.ndarray
    mean_abs: np.ndarray
    mean_sq: np.ndarray
    n_paths: int
    std_err_sq: np.ndarray


def grid(T, h):
    """The step grid 0, h, 2h, ... of the smallest length that reaches T."""
    if T <= 0 or h <= 0 or h > T:
        raise DomainError(f"need 0 < h <= T, got h={h}, T={T}")
    n = int(math.ceil(T / h - 1e-9))
    return np.arange(n + 1) * float(h)


_grid = grid


def horizon_steps(horizons, h):
    """Grid step index of each horizon; DomainError unless every horizon lies on the grid."""
    steps = [int(round(t / h)) for t in horizons]
    if any(abs(k * h - t) > 1e-9 * max(1.0, t) for k, t in zip(steps, horizons)):
        raise DomainError("horizons must lie on the step grid")
    return steps


def _stream(seed, path_index):
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    return Generator(Philox(key=key))


def _normals(seed, path_index, n):
    """The first n normals of a path's stream; walk draws the same values block by block."""
    return _stream(seed, path_index).standard_normal(n)


def exact_transition_table(spec, times):
    """Per-step decay factors and noise standard deviations of the true transition.

    X_{t_{k+1}} = exp(-(A(t_{k+1}) - A(t_k))) X_{t_k} + N(0, Var(X_{t_{k+1}} | X_{t_k})).
    """
    a_vals = drift_mod.eval_antiderivative(spec, np.asarray(times, dtype=float))
    decays = np.exp(-np.diff(a_vals))
    stds = np.sqrt(np.maximum(drift_mod.decay_integral_steps(spec, times, 2.0), 0.0))
    return decays, stds


def walk(spec, times, seed, path_indices, scheme="euler", table=None, xi=None):
    """Yield (k0, values, noise) per block: X at steps k0+1, k0+2, ... as (block_steps, paths).

    noise drove those steps (dW for Euler, std * N for exact).  x - (alpha * x) * h + dW
    and decay * x + std * N are evaluated in that order, on Python floats for one path
    and in place on numpy rows for several, so they agree bit for bit with a scalar
    re-derivation.  table: a precomputed exact_transition_table; xi: test hook.
    """
    n, h = len(times) - 1, float(times[1] - times[0])
    euler = scheme == "euler"
    if euler:
        coef, scale = np.asarray(drift_mod.eval_alpha(spec, times[:-1]), dtype=float), np.full(n, math.sqrt(h))
    elif scheme == "exact":
        coef, scale = table if table is not None else exact_transition_table(spec, times)
    else:
        raise DomainError(f"scheme must be euler or exact, got {scheme!r}")
    m = len(path_indices)
    streams = [_stream(seed, p) for p in path_indices] if xi is None else None
    x = np.zeros(m) if m > 1 else 0.0
    for k0 in range(0, n, BLOCK_STEPS):
        k1 = min(k0 + BLOCK_STEPS, n)
        draws = np.empty((m, k1 - k0))
        if xi is None:
            for row, stream in zip(draws, streams):
                stream.standard_normal(out=row)
        else:
            draws[:] = np.broadcast_to(np.asarray(xi, dtype=float), (m, n))[:, k0:k1]
        draws *= scale[k0:k1]
        values = np.empty((k1 - k0, m))
        if m == 1:
            column = []
            for c, w in zip(coef[k0:k1].tolist(), draws[0].tolist()):
                x = (x - (c * x) * h) + w if euler else c * x + w
                column.append(x)
            values[:, 0] = column
        else:
            for c, w, row in zip(coef[k0:k1].tolist(), draws.T, values):
                np.multiply(x, c, out=row)
                if euler:
                    row *= h
                    np.subtract(x, row, out=row)
                row += w
                x = row
        yield k0, values, draws.T


def record(out, steps, k0, block):
    """Copy the rows of block (grid steps k0+1, k0+2, ...) at the given steps into out[:, j]."""
    rows = np.asarray(steps) - k0 - 1
    hit = (rows >= 0) & (rows < len(block))
    out[:, hit] = np.moveaxis(block[rows[hit]], 0, 1)


def paths(spec, times, seed, path_indices, scheme="euler", xi=None):
    """Whole trajectories and the noise that drove them, as (values, noise), one row per path."""
    values = np.zeros((len(path_indices), len(times)))
    noise = np.empty((len(path_indices), len(times) - 1))
    for k0, v, w in walk(spec, times, seed, path_indices, scheme, xi=xi):
        values[:, k0 + 1 : k0 + 1 + len(v)] = v.T
        noise[:, k0 : k0 + len(v)] = w.T
    return values, noise


def ensemble(fn, n_paths, chunk, threads):
    """Stack fn(path_indices) over chunks of paths 0 .. n_paths-1, run on up to `threads` threads."""
    chunks = [range(lo, min(lo + chunk, n_paths)) for lo in range(0, n_paths, chunk)]
    if threads <= 1 or len(chunks) <= 1:
        return np.concatenate([fn(c) for c in chunks], axis=0)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.concatenate(list(pool.map(fn, chunks)), axis=0)


def _euler_block(spec, times, seed, path_indices, xi=None):
    """Euler trajectories for several paths at once; returns (values, dW, warn)."""
    alpha = np.asarray(drift_mod.eval_alpha(spec, times[:-1]), dtype=float)
    values, dw = paths(spec, times, seed, path_indices, "euler", xi)
    return values, dw, bool(np.any(alpha * (times[1] - times[0]) > 1.0))


def euler_path(spec, T, h, seed=0, path_index=0, xi=None):
    """One Euler path; xi is a test hook overriding the standard normals."""
    times = grid(T, h)
    values, dw, warn = _euler_block(spec, times, seed, [path_index], xi)
    return SamplePath(
        times=times,
        values=values[0],
        brownian_increments=dw[0],
        scheme="euler",
        seed=seed,
        path_index=path_index,
        stability_warning=warn,
    )


def exact_path(spec, T, h, seed=0, path_index=0, xi=None):
    """One exact-transition path; every marginal has the true Gaussian law."""
    times = grid(T, h)
    values, _ = paths(spec, times, seed, [path_index], "exact", xi=xi)
    return SamplePath(
        times=times,
        values=values[0],
        brownian_increments=None,
        scheme="exact",
        seed=seed,
        path_index=path_index,
    )


def shift_to_ab(path, a, b, spec):
    """Deterministic shift to the bridge running from a at 0 to b at infinity.

    The shifted process is b + (a - b) exp(-A(t)) + X_t on the same grid,
    driven by the same noise.
    """
    offset = b + (a - b) * np.exp(-drift_mod.eval_antiderivative(spec, path.times))
    return SamplePath(
        times=path.times,
        values=offset + path.values,
        brownian_increments=path.brownian_increments,
        scheme=path.scheme,
        seed=path.seed,
        path_index=path.path_index,
        stability_warning=path.stability_warning,
    )


def terminal_values(spec, horizons, h, n_paths, seed, scheme="exact", chunk=4096, threads=1):
    """X at each horizon for n_paths independent paths, shape (n_paths, len(horizons))."""
    horizons = np.asarray(horizons, dtype=float)
    steps = horizon_steps(horizons, h)
    times = grid(horizons[-1], h)
    table = exact_transition_table(spec, times) if scheme == "exact" else None

    def one_chunk(idx):
        out = np.zeros((len(idx), len(steps)))
        for k0, values, _ in walk(spec, times, seed, idx, scheme, table):
            record(out, steps, k0, values)
        return out

    return ensemble(one_chunk, n_paths, chunk, threads)


def batch_terminal_stats(spec, horizons, n_paths, scheme="exact", h=0.05, seed=0, chunk=4096, threads=1):
    """Monte Carlo decay statistics of |X_T| and X_T^2 over a horizon ladder."""
    horizons = np.asarray(horizons, dtype=float)
    if np.any(np.diff(horizons) <= 0):
        raise DomainError("horizons must be strictly increasing")
    if n_paths < 100:
        raise DomainError("need at least 100 paths for stable statistics")
    values = terminal_values(spec, horizons, h, n_paths, seed, scheme, chunk, threads)
    sq = values**2
    return DecayStats(
        horizons=horizons,
        mean_abs=np.abs(values).mean(axis=0),
        mean_sq=sq.mean(axis=0),
        n_paths=n_paths,
        std_err_sq=sq.std(axis=0, ddof=1) / math.sqrt(n_paths),
    )
