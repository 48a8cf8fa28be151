"""Path generation for the bridge SDE dX = -alpha(t) X dt + dW, X_0 = 0.

Both schemes step one affine recursion x <- decay_k * x + std_k * N_k between
increasing grid steps, the knots, and a scheme is nothing but its (decays, stds)
table (transition_table(spec, knots, h, scheme), one row per gap): plain Euler
(used by the preset experiments; retains the driving Brownian increments for
pathwise local-time identities) and the exact Gaussian transition, unbiased
at any step size and therefore safe for stiff drifts.

Randomness is drawn from counter-based Philox streams keyed by
(seed, path_index), row k of the table taking the k-th draw, so a walked sample
is a pure function of (seed, path_index, step), a recorded one (terminal_values)
of (seed, path_index, horizon index), and results never depend on execution
order or worker count.  A stream is built straight from its key, without
reading OS entropy.

One engine, walk, steps at most _TILE_PATHS = 256 paths through a table
time-major over blocks of BLOCK_STEPS steps, drawing each block from the
paths' Philox generators, which stay alive between blocks.  Within a block it
evaluates the recursion as a blocked scan over sub-blocks of _SCAN_STEPS steps
aligned to step 0, and a block is a whole number of sub-blocks, so a numpy call
covers every sub-block of the block at once and a narrow walk does not pay one
call per step.  walk writes every block into the same buffers, so a yielded
block is valid only until the next one is requested, and memory is
O(paths x block) unless whole paths are kept.  ensemble(spec, knots, h,
scheme, seed, n_paths, reduce, ...) checks its integer arguments, builds
transition_table(spec, knots, h, scheme), cuts the batch into tasks of at most
256 paths, so a task's one values block (the scan runs in place on the noise)
is 2 MB, walks each task and hands its blocks to the caller's reducer (a level
sweep, or snapshots of them or of a running kernel integral at the horizons'
steps) as they come.  The calling thread and a pool share the tasks, by default
on every core, or on one thread when the table is too short to gain from more.
Memory is the thread count times one task's working set; results are
bit-identical for any chunk size, task width and thread count, and any
BLOCK_STEPS but in an Euler table of longer gaps, composed BLOCK_STEPS steps at
a time.  An Euler single path redraws its increments.
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from . import drift as drift_mod
from .errors import DomainError, NumericsError

_MASK64 = (1 << 64) - 1
_COUNTER0 = np.zeros(4, dtype=np.uint64)
BLOCK_STEPS = 1024
_TILE_PATHS = 256  # paths a walk steps at most: its 1024-step values block is 2 MB
_SLAB_PATHS = 64  # paths drawn per slab before the slab is transposed into the time-major noise
_SCAN_STEPS = 32  # sub-block length of walk's scan, whose blocks are whole sub-blocks; path bits depend on it
_SERIAL_STEPS = BLOCK_STEPS * 5 // 8  # a walk of fewer steps runs on one thread: on two it ran slower
MAX_STEPS = 10**8  # per path: one whole path of 10^8 float64 values takes 0.8 GB


@dataclass
class SamplePath:
    """One trajectory on a uniform grid, with its generation metadata.

    brownian_increments holds the Delta-W per step for the Euler scheme and
    is None for the exact scheme, which does not expose the driving noise.
    stability_warning is set when an Euler decay 1 - h * alpha(t) is negative
    somewhere on the grid, i.e. h * alpha(t) > 1 (plain Euler degrades there).
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


def grid_steps(T, h):
    """The step count n of the shortest grid 0, h, 2h, ..., n h that reaches T, at most MAX_STEPS."""
    if not 0 < h <= T < math.inf:
        raise DomainError(f"need 0 < h <= T < inf, got h={h}, T={T}")
    steps = float(T) / float(h)  # Python floats overflow to inf without a numpy warning
    if steps > MAX_STEPS:
        raise DomainError(f"T={T} takes {steps:.3g} steps of h={h}, past the cap of {MAX_STEPS:.0e} per path")
    return int(math.ceil(steps - 1e-9))


def grid(T, h):
    """The step grid 0, h, 2h, ... of the smallest length that reaches T."""
    return np.arange(grid_steps(T, h) + 1) * float(h)


def horizon_steps(horizons, h):
    """Grid step index of each horizon, an array; DomainError unless there is one and the horizons are
    finite, nonnegative, nondecreasing, on the grid and at most MAX_STEPS steps."""
    if not 0 < h < math.inf:
        raise DomainError(f"need 0 < h < inf, got h={h}")
    horizons = np.asarray(horizons, dtype=float)
    if len(horizons) == 0:
        raise DomainError("horizons must not be empty")
    if not np.all(np.isfinite(horizons)):
        raise DomainError(f"horizons must be finite, got {horizons}")
    if not (horizons[0] >= 0 and np.all(np.diff(horizons) >= 0)):
        raise DomainError("horizons must be nonnegative and nondecreasing")
    reach = float(horizons[-1]) / float(h)
    if reach > MAX_STEPS:
        raise DomainError(f"horizons reach {reach:.3g} steps of h={h}, past the cap of {MAX_STEPS:.0e} per path")
    steps = [int(round(t / h)) for t in horizons]
    if any(abs(k * h - t) > 1e-9 * max(1.0, t) for k, t in zip(steps, horizons)):
        raise DomainError("horizons must lie on the step grid")
    return np.asarray(steps)


class _Key(ISeedSequence):
    """Hands Philox a ready key, so building a stream reads no OS entropy."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _check_seed(seed):
    """DomainError unless seed is an integer, the one rule of a stream's key."""
    if not isinstance(seed, numbers.Integral):
        raise DomainError(f"seed must be an integer, got {seed!r}")


def _stream(seed, path_index):
    """The Philox stream of a path, Generator(Philox(key=[seed, path_index] mod 2^64)); seed must be an integer."""
    _check_seed(seed)
    key = np.array([seed & _MASK64, path_index & _MASK64], dtype=np.uint64)
    return Generator(Philox(_Key(key), counter=_COUNTER0))


def _rekeyed(seed, path_indices):
    """One generator, re-keyed to each path's stream in turn: enough when each stream is read once."""
    gen = _stream(seed, 0)
    state = gen.bit_generator.state
    for p in path_indices:
        state["state"]["key"] = np.array([seed & _MASK64, p & _MASK64], dtype=np.uint64)
        gen.bit_generator.state = state
        yield gen


def _normals(seed, path_index, n):
    """The first n normals of a path's stream; walk draws the same values block by block."""
    return _stream(seed, path_index).standard_normal(n)


def exact_transition_table(spec, times):
    """Per-step decay factors and noise standard deviations of the true transition.

    X_{t_{k+1}} = exp(-(A(t_{k+1}) - A(t_k))) X_{t_k} + N(0, Var(X_{t_{k+1}} | X_{t_k})).
    An A that overflows is a NumericsError naming the first time where it does.
    """
    with np.errstate(over="ignore"):  # A is nondecreasing, so it overflows if it does at the last time
        if drift_mod.eval_antiderivative(spec, times[-1]) == math.inf:
            first = np.argmax(drift_mod.eval_antiderivative(spec, times) == math.inf)
            raise NumericsError(f"A(t) overflows to inf at t={times[first]}")
    a = drift_mod.eval_antiderivative(spec, np.asarray(times, dtype=float))
    decays = np.subtract(a[:-1], a[1:], out=a[:-1])  # bit for bit -np.diff(a); both columns are built in place
    stds = drift_mod.decay_integral_steps(spec, times, 2.0)
    return np.exp(decays, out=decays), np.sqrt(stds, out=stds)


def transition_table(spec, knots, h, scheme):
    """The (decays, stds) table of a scheme's chain between grid steps knots[0] < knots[1] < ..., one row per gap.

    knots: an increasing integer array, or a range such as a grid walk's range(n + 1), every gap one step.
    exact: exact_transition_table on the times knots * h.  euler on unit gaps: (1 - h * alpha(t_k), sqrt(h)), a
    decay negative exactly where h * alpha(t_k) > 1 and the stds one read-only value broadcast, 8 B per step.
    euler on longer gaps: the unit steps composed over each gap, D = prod d_k, S^2 = h * sum_k (prod_{j>k} d_j)^2,
    in pieces of at most BLOCK_STEPS steps joined by (D, V) <- (D * D_p, D_p^2 * V + V_p); NumericsError if not finite.
    """
    if scheme not in ("euler", "exact"):
        raise DomainError(f"scheme must be euler or exact, got {scheme!r}")
    h = float(h)
    unit = knots[-1] - knots[0] == len(knots) - 1  # every gap one step, told without reading the knots
    times = (np.arange(knots[0], knots[-1] + 1) if unit else np.asarray(knots)) * h
    if scheme == "exact":
        return exact_transition_table(spec, times)
    if unit:
        decays = np.asarray(drift_mod.eval_alpha(spec, times[:-1]), dtype=float)
        decays *= -h
        decays += 1.0  # in place, bit for bit 1.0 - h * alpha
        return decays, np.broadcast_to(math.sqrt(h), len(decays))
    decays, stds = np.ones(len(knots) - 1), np.zeros(len(knots) - 1)  # stds hold V until the sqrt
    with np.errstate(over="ignore", invalid="ignore"):
        for j, (k0, k1) in enumerate(zip(knots[:-1], knots[1:])):
            for lo in range(k0, k1, BLOCK_STEPS):
                d = transition_table(spec, range(lo, min(lo + BLOCK_STEPS, k1) + 1), h, scheme)[0]
                after = np.cumprod(d[::-1])  # after[i] = d_{b-1-i} ... d_{b-1}; after[-1] is D_p
                stds[j] = after[-1] ** 2 * stds[j] + h * (1.0 + after[:-1] @ after[:-1])
                decays[j] *= after[-1]
        np.sqrt(stds, out=stds)
    bad = ~(np.isfinite(decays) & np.isfinite(stds))
    if bad.any():
        raise NumericsError(f"horizons: the {scheme} chain is not finite up to t={times[np.argmax(bad) + 1]}")
    return decays, stds


def chain_variance(spec, knots, h, scheme):
    """Var X at each knot of the chain that walk steps through transition_table(spec, knots, h, scheme) from X = 0.

    v_0 = 0 and v_{j+1} = d_j^2 v_j + s_j^2, one Python step per gap: about 1.3 ms per 10^4 gaps.
    On the exact table it is the law's variance at the knot times; on Euler's, the Euler chain's.
    """
    decays, stds = transition_table(spec, knots, h, scheme)
    rows = zip(np.square(decays).tolist(), np.square(stds).tolist())
    return np.fromiter(itertools.accumulate(rows, lambda v, ds: ds[0] * v + ds[1], initial=0.0), float, len(decays) + 1)


def _scan_plan(values, decays, prods, temp, start):
    """The views that walk's scan steps through for a block of len(values) steps.

    A block starts where a sub-block does, so they depend only on its length, and walk
    builds them once per length.  Returns the y steps (previous y, decays, temporary, y),
    one per row r >= 1 of the sub-blocks, whose row 0 is its noise already, and the
    x = y + P * s steps (P, s, temporary, x), one per sub-block.
    """
    span, b = _SCAN_STEPS, len(values)
    y_steps = []
    for r in range(1, min(span, b)):  # row r of each sub-block
        y = values[r::span]
        y_steps.append((values[r - 1 : b - 1 : span], decays[r::span, None], temp[: len(y)], y))
    fix_steps, s = [], start
    for r0 in range(0, b, span):
        r1 = min(r0 + span, b)
        fix_steps.append((prods[r0:r1, None], s, temp[: r1 - r0], values[r0:r1]))
        s = values[r1 - 1]
    return y_steps, fix_steps


def walk(table, seed, path_indices):
    """Yield (k0, values) per block: X at steps k0+1, k0+2, ... as (block steps, paths).

    table is (decays, stds).  path_indices names at most _TILE_PATHS paths.  A
    block has BLOCK_STEPS steps, taken in whole scan sub-blocks, except the
    last, which ends with the grid.  Every block is written into the same
    buffer, so the yielded array is read-only and valid only until the next
    block is requested; copy what must outlive it.  Each path's normals come
    from its own stream, a slab of _SLAB_PATHS paths at a time, and are scaled
    into time-major rows of that buffer, where the scan turns them into X; no
    noise is kept (an Euler path redraws it).  A walk of one block reads each stream
    once, so it re-keys a single generator instead of keeping one per path.

    x <- decay * x + noise is evaluated as a blocked scan over sub-blocks of
    _SCAN_STEPS steps, counted from step 0 of the grid.  Inside a sub-block, y
    starts from zero and follows y <- decay * y + noise, in place on the noise,
    one numpy step per offset for every sub-block of the block at once; then
    x = y + P * s, where P is the running product of the decays inside the
    sub-block and s is x where the sub-block starts.  No block ends inside a
    sub-block, so every element gets the same float operations for any chunk
    width and any BLOCK_STEPS.  No step divides, so zero and negative decays are safe.
    """
    decays, stds = table
    n, m, span = len(decays), len(path_indices), _SCAN_STEPS
    if m > _TILE_PATHS:
        raise DomainError(f"path_indices must name at most {_TILE_PATHS} paths, got {m}")
    block = max(span, BLOCK_STEPS // span * span)
    streams = [_stream(seed, p) for p in path_indices] if n > block else None
    rows = min(block, n)
    # one allocation: the values block; s, x where the block starts; the block's decays and their running products;
    # a scan step's temporary, a row per sub-block or one sub-block.  At a full tile ~2 MB, kept in the thread's heap.
    sizes = (rows * m, m, rows, rows, max(span, -(-rows // span)) * m)
    values, start, block_decays, prods, temp = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    values, temp = values.reshape(rows, m), temp.reshape(-1, m)
    start[:] = 0.0
    plans = {}
    slab = np.empty((min(_SLAB_PATHS, m), rows))
    for k0 in range(0, n, block):
        k1 = min(k0 + block, n)
        b = k1 - k0
        v, d, p = values[:b], block_decays[:b], prods[:b]
        source = _rekeyed(seed, path_indices) if streams is None else iter(streams)
        for lo in range(0, m, _SLAB_PATHS):
            draws = slab[: min(_SLAB_PATHS, m - lo), :b]
            for row, stream in zip(draws, source):  # rows first: zip stops before an extra stream
                stream.standard_normal(out=row)
            draws *= stds[k0:k1]
            v[:, lo : lo + len(draws)] = draws.T
        np.copyto(d, decays[k0:k1])
        if b not in plans:
            plans[b] = _scan_plan(v, d, p, temp, start)
        y_steps, fix_steps = plans[b]
        for prev, c, t, y in y_steps:
            np.multiply(prev, c, out=t)
            y += t  # noise + fl(prev * decay): bit for bit fl(prev * decay) + noise
        # P over the whole sub-blocks, then over the walk's last, partial one
        body = b // span * span
        np.multiply.accumulate(d[:body].reshape(-1, span), axis=1, out=p[:body].reshape(-1, span))
        np.multiply.accumulate(d[body:], out=p[body:])
        for c, s, t, x in fix_steps:
            np.multiply(c, s, out=t)
            x += t
        np.copyto(start, v[-1])
        yield k0, v


def recorded(steps, k0, n_rows):
    """The slice of the nondecreasing array steps that falls in the block of grid steps k0+1 .. k0+n_rows."""
    lo, hi = np.searchsorted(steps, (k0, k0 + n_rows), side="right")
    return slice(lo, hi)


def snapshots(tiles, steps, shape):
    """The rows at the nondecreasing steps of the (k0, tile) pairs, whose rows are grid steps k0+1, k0+2, ...

    The array has the given shape, (paths, len(steps), ...), and holds the row
    at steps[j] in column j; a step that no tile holds, step 0 among them, reads 0.0.
    """
    out = np.zeros(shape)
    for k0, tile in tiles:
        j = recorded(steps, k0, len(tile))
        out[:, j] = np.moveaxis(tile[steps[j] - k0 - 1], 0, 1)
    return out


def _trajectories(table, seed, path_indices):
    """Whole trajectories from X_0 = 0, one row per path."""
    values = np.zeros((len(path_indices), len(table[0]) + 1))
    for k0, v in walk(table, seed, path_indices):
        values[:, k0 + 1 : k0 + 1 + len(v)] = v.T
    return values


def _cores():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def ensemble(spec, knots, h, scheme, seed, n_paths, reduce, chunk=None, threads=None):
    """Stack reduce(path_indices, walk(table, seed, path_indices)) over tasks of paths 0 .. n_paths-1.

    seed, n_paths, chunk and threads are checked first; only then is the table,
    transition_table(spec, knots, h, scheme), built, and it is dropped on return;
    a grid walk passes range(n + 1), since an array of knots would live as long.
    reduce takes a task's paths and the blocks of their walk, and returns its
    rows, one per path unless it sums them.  A task holds at most chunk paths
    and at most _TILE_PATHS, the widest walk.  A batch of fewer than two such
    tasks is split into one task per thread instead, as long as each keeps a
    draw slab of _SLAB_PATHS paths.  A lone task's result is returned as is, without a copy.

    Up to `threads` threads (None: every core the process may run on), the caller
    and a pool of the rest, take tasks in turn from one count; results stack in
    task order, and a task's exception propagates.  A table of fewer than
    _SERIAL_STEPS steps runs on one thread, too short to pay for the pool.  Memory
    is threads times one task's working set.  n_paths, chunk, threads: integers >= 1.
    """
    _check_seed(seed)
    for name, value in (("n_paths", n_paths), ("chunk", chunk), ("threads", threads)):
        if value is not None and not (isinstance(value, numbers.Integral) and value >= 1):
            raise DomainError(f"{name} must be an integer of at least 1, got {value!r}")
    table = transition_table(spec, knots, h, scheme)
    workers = 1 if len(table[0]) < _SERIAL_STEPS else _cores() if threads is None else threads
    width = min(_TILE_PATHS, n_paths if chunk is None else chunk)
    if n_paths < 2 * width:  # a small batch: one task per thread, each of a draw slab or more
        tasks = max(1, min(workers, n_paths // _SLAB_PATHS))
        width = min(width, -(-n_paths // tasks))
    chunks = [range(lo, min(lo + width, n_paths)) for lo in range(0, n_paths, width)]
    threads = min(workers, len(chunks))

    def task(idx):
        return reduce(idx, walk(table, seed, idx))

    if len(chunks) == 1:
        return task(chunks[0])
    results, order = [None] * len(chunks), itertools.count()

    def drain():
        for i in itertools.takewhile(len(chunks).__gt__, order):  # next() on a count is atomic under the GIL
            results[i] = task(chunks[i])

    if threads <= 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=threads - 1) as pool:
            helpers = [pool.submit(drain) for _ in range(threads - 1)]
            drain()
            for helper in helpers:
                helper.result()
    return np.concatenate(results, axis=0)


def _single_path(scheme, spec, T, h, seed, path_index):
    table = transition_table(spec, range(grid_steps(T, h) + 1), h, scheme)
    times = grid(T, h)
    # walk keeps no noise: an Euler path redraws the increments that drove it, an exact path draws none
    noise = _normals(seed, path_index, len(table[0])) * table[1] if scheme == "euler" else None
    return SamplePath(
        times=times,
        values=_trajectories(table, seed, [path_index])[0],
        brownian_increments=noise,
        scheme=scheme,
        seed=seed,
        path_index=path_index,
        stability_warning=bool(np.any(table[0] < 0.0)),
    )


def euler_path(spec, T, h, seed=0, path_index=0):
    """One Euler path, with the Brownian increments that drove it."""
    return _single_path("euler", spec, T, h, seed, path_index)


def exact_path(spec, T, h, seed=0, path_index=0):
    """One exact-transition path; every marginal has the true Gaussian law."""
    return _single_path("exact", spec, T, h, seed, path_index)


def terminal_values(spec, horizons, h, n_paths, seed, scheme="exact", chunk=4096, threads=None):
    """X at each horizon for n_paths independent paths, shape (n_paths, len(horizons)).

    The horizons must be nonnegative and nondecreasing (horizon_steps).  A path
    takes one draw per distinct nonzero horizon, walking the chain between them
    (its knots are step 0 and the distinct horizon steps), so exact values depend
    on h only through the horizons, and Euler values through the chain too.  chunk bounds the
    paths stepped together; ensemble caps it at _TILE_PATHS.  Neither it nor
    threads changes a bit of the result.
    """
    steps = horizon_steps(horizons, h)
    new = np.diff(steps, prepend=0) > 0  # each distinct nonzero horizon ends a gap
    knots = np.append(0, steps[new])
    rows = np.cumsum(new)  # the walk's step r is X at knots[r]; step 0 reads 0.0

    def reduce(idx, blocks):
        return snapshots(blocks, rows, (len(idx), len(rows)))

    return ensemble(spec, knots, h, scheme, seed, n_paths, reduce, chunk, threads)


def batch_terminal_stats(spec, horizons, h, n_paths, seed, scheme="exact", threads=None):
    """Monte Carlo decay statistics of |X_T| and X_T^2 over a horizon ladder."""
    horizons = np.asarray(horizons, dtype=float)
    if np.any(np.diff(horizons) == 0):  # terminal_values checks that they are nondecreasing
        raise DomainError("horizons must be strictly increasing")
    if n_paths < 100:
        raise DomainError(f"n_paths must be at least 100 for stable statistics, got {n_paths}")
    values = terminal_values(spec, horizons, h, n_paths, seed, scheme, threads=threads)
    sq = values**2
    return DecayStats(
        horizons=horizons,
        mean_abs=np.abs(values).mean(axis=0),
        mean_sq=sq.mean(axis=0),
        n_paths=n_paths,
        std_err_sq=sq.std(axis=0, ddof=1) / math.sqrt(n_paths),
    )
