"""Empirical Hoelder-modulus estimation for local-time curves.

The modulus at scale eta is the sup of |f(t) - f(s)| over pairs at distance
at most eta (nested classes, so the profile is monotone in the scale by
construction); the Hoelder exponent is the slope of the profile in log-log
coordinates.  Both the time variable and the level variable of the local
time are analyzed this way.  The lag sups max |f(s + lag) - f(s)| have one
owner, _LagSups, which differences whole curves and streamed ones alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import local_time, simulate
from .drift import loglog_slope, running_sup
from .errors import DomainError, InsufficientDataError

_SWEEP_STEPS = 256  # samples per level_sweep piece; memory is O(_SWEEP_STEPS * levels)
_MEAN_PATHS = 64  # paths per task of time_profile, whose average is summed task by task
_LAG_PIECE = 2**14  # samples _LagSups differences at once, over all its curves


@dataclass
class ModulusProfile:
    """Sup-increment sizes across a decreasing ladder of scales, with its fit."""

    scales: np.ndarray
    sup_increments: np.ndarray
    fitted_slope: float
    fitted_intercept: float


class _LagSups:
    """Running max |f(s) - f(s - lag)| of several curves at each lag, fed their samples in step order.

    The one place a curve is differenced at a lag.  Pairs reaching before
    step 0 do not count, so the sups after step k are those of the curves'
    samples 0 .. k, and a lag with no pair gives 0.  A window holds the last
    r samples differenced, then up to r pending ones, which are differenced at
    every lag at once; r = max(max(lags), _LAG_PIECE // curves), so one curve
    is differenced _LAG_PIECE samples at a time and memory does not grow with k.
    """

    def __init__(self, first, lags):
        r = max(max(lags, default=1), _LAG_PIECE // len(first))
        self.lags, self.window, self.diff = lags, np.empty((len(first), 2 * r)), np.empty((len(first), r))
        self.window[:, r - 1] = first  # row r - 1 holds step k, the last differenced; pending rows follow
        self.k = self.pending = 0
        self.sups = np.zeros((len(first), len(lags)))

    @classmethod
    def of(cls, curves, lags):
        """The sups of whole curves, shape (curves, samples), at each lag: shape (curves, lags)."""
        sups = cls(curves[:, 0], lags)
        sups.feed(curves[:, 1:].T)
        return sups.taken()

    def feed(self, samples):
        """Take the samples at the next steps, shape (samples, curves)."""
        r = self.diff.shape[1]
        while len(samples):
            take = min(len(samples), r - self.pending)
            self.window[:, r + self.pending : r + self.pending + take] = samples[:take].T
            self.pending += take
            samples = samples[take:]
            if self.pending == r:
                self.taken()

    def taken(self):
        """Difference the pending samples; return the sups over every sample fed, shape (curves, lags)."""
        w, r, nb = self.window, self.diff.shape[1], self.pending
        for j, lag in enumerate(self.lags):
            i = max(0, lag - self.k - 1)  # the first pending sample whose partner is at step 0 or later
            if i < nb:
                d = np.subtract(w[:, r + i : r + nb], w[:, r + i - lag : r + nb - lag], out=self.diff[:, : nb - i])
                np.maximum(self.sups[:, j], np.abs(d, out=d).max(axis=1), out=self.sups[:, j])
        w[:, :r] = w[:, nb : nb + r]
        self.k, self.pending = self.k + nb, 0
        return self.sups.copy()


def _nested_sup_increments(curves, lags):
    """Max |f[i+l] - f[i]| over all l' <= l of each row f, for each requested lag; NaN propagates.

    Shape (curves, lags), C-ordered.  A lag past a curve's end counts as its
    last.  On nondecreasing curves of finite span the lag-l sup already bounds
    every shorter lag (rounding is monotone, so this holds for the computed
    differences too), and only the requested lags are taken; otherwise every
    lag up to the largest is, and the sups are accumulated across lags.
    """
    lags = np.minimum(lags, max(1, curves.shape[1] - 1))
    if np.all(curves[:, 1:] >= curves[:, :-1]) and np.all(np.isfinite(curves[:, -1] - curves[:, 0])):
        return _LagSups.of(curves, lags)
    nested = np.maximum.accumulate(_LagSups.of(curves, range(1, lags.max() + 1)), axis=1)
    return np.ascontiguousarray(nested[:, lags - 1])


def _uniform_spacing(checkpoints):
    dt = np.diff(checkpoints)
    if len(dt) < 1 or not dt[0] > 0 or np.any(np.abs(dt - dt[0]) > 1e-9 * max(dt[0], 1e-300)):
        raise DomainError("curve checkpoints must form an increasing uniform grid")
    return float(dt[0])


def _scale_lags(scales, spacing):
    """Scales sorted decreasing, and each as a whole number of grid spacings, to 1e-9 relative."""
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    if len(scales) == 0:
        raise DomainError("scales must not be empty")
    if not np.all(np.isfinite(scales)):
        raise DomainError(f"scales must be finite, got {scales}")
    if scales[-1] < spacing * (1 - 1e-9):
        raise DomainError(f"smallest scale {scales[-1]} is below the grid spacing {spacing}")
    lags = np.rint(scales / spacing)
    if np.any(np.abs(lags * spacing - scales) > 1e-9 * scales):
        raise DomainError(f"scales must be whole multiples of the grid spacing {spacing}, got {scales}")
    return scales, [int(lag) for lag in lags]


def _fitted_profile(scales, sups):
    """The profile with its log-log fit; NaN slope and intercept when too few points are usable."""
    try:
        slope, intercept = loglog_slope(zip(scales, sups))
    except InsufficientDataError:
        slope, intercept = float("nan"), float("nan")
    return ModulusProfile(
        scales=scales, sup_increments=sups, fitted_slope=slope, fitted_intercept=intercept
    )


def time_modulus(curve, scales):
    """Sup-increment profile of a local-time curve in the time variable."""
    scales, lags = _scale_lags(scales, _uniform_spacing(curve.checkpoints))
    return _fitted_profile(scales, _nested_sup_increments(curve.values[None], lags)[0])


def time_profile(spec, T, h, n_paths, seed, scales, scheme="euler"):
    """Sup-increment profile in time of the kernel local time at level 0, with eps = h, averaged over paths.

    The curves of paths 0 .. n_paths-1 at every grid step are averaged before
    the sups are taken: averaging a moderate ensemble suppresses single-path
    saturation events (windows where the path sits at the level and the
    mollified curve climbs at its maximal rate, which bend the smallest scales
    toward slope 1) while keeping the pathwise roughness that a large-ensemble
    mean would smooth away entirely.  Each task of _MEAN_PATHS paths adds its
    curves, tile by tile and in path order, into one row; the task rows are
    added in order and divided by n_paths, the same on any core count.  Up to
    _MEAN_PATHS paths that is time_modulus of the curves' mean(axis=0), bit for
    bit.  Only the mean curve and the transition table, 8 B per step each, grow with T.
    """
    n = simulate.grid_steps(T, h)
    scales, lags = _scale_lags(scales, h)

    def summed(idx, blocks):
        total = np.zeros((1, n + 1))
        for k, cum in local_time.kernel_tiles(blocks, 0.0, np.array([h]), h):
            rows = total[0, k + 1 : k + 1 + len(cum)]
            np.copyto(rows, cum[:, 0, 0])
            for j in range(1, cum.shape[1]):
                rows += cum[:, j, 0]
        return total

    sums = simulate.ensemble(spec, range(n + 1), h, scheme, seed, n_paths, summed, chunk=_MEAN_PATHS)
    mean = sums[0]
    for row in sums[1:]:
        mean += row
    mean /= n_paths
    return _fitted_profile(scales, _nested_sup_increments(mean[None], lags)[0])


def _bound_lags(dt, n_samples):
    """time_modulus_bound_fit's lags 1, 2, 4, ...: below time 1 and below n_samples."""
    lags, lag = [], 1
    while lag * dt < 1.0 and lag < n_samples:
        lags.append(lag)
        lag *= 2
    return lags


def _bound_fit(sups, lags, dt, T, spec):
    """The max, from 0, of sups[..., i] over the bracket at distance lags[i] * dt; NaN propagates."""
    if not 0 < T < math.inf:
        raise DomainError(f"T must be positive and finite, got {T}")
    growth = math.sqrt((T + 1.0) * running_sup(spec, T + 1.0))
    brackets = [math.sqrt(lag * dt) * (growth + math.sqrt(math.log(1.0 / (lag * dt)))) for lag in lags]
    return np.max(sups / np.array(brackets), axis=-1, initial=0.0)


def time_modulus_bound_fit(curve, T, spec):
    """Smallest constant making the two-term square-root bracket dominate the curve.

    Bracket at distance eta < 1:
        sqrt(eta) * sqrt((T+1) * alpha*(T+1)) + sqrt(eta) * sqrt(log(1/eta)).
    Returns the max over all grid pairs at dyadic distances below 1 of
    |increment| / bracket; 0 for a constant curve, NaN if the curve has a NaN.
    T must be positive and finite.
    """
    dt = _uniform_spacing(curve.checkpoints)
    lags = _bound_lags(dt, len(curve.values))
    return float(_bound_fit(_LagSups.of(curve.values[None], lags)[0], lags, dt, T, spec))


def time_bound_fits(spec, horizons, h, n_paths, seed):
    """time_modulus_bound_fit of each path's kernel local time at level 0, eps = h, up to each horizon.

    Shape (n_paths, len(horizons)); paths 0 .. n_paths-1 walk one Euler grid to
    the last horizon.  No curve is kept: each task streams its paths' lag sups
    from local_time.kernel_tiles and takes them at each horizon's step, so
    only the table, 8 B per step, grows with the horizon.
    """
    steps = simulate.horizon_steps(horizons, h)
    if steps[0] < 1:  # horizon_steps checks that they are nondecreasing
        raise DomainError(f"horizons must be positive and nondecreasing, got {horizons}")
    lags = _bound_lags(h, steps[-1] + 1)

    def snapshots(idx, blocks):
        sups, snaps = _LagSups(np.zeros(len(idx)), lags), []
        for k, cum in local_time.kernel_tiles(blocks, 0.0, np.array([h]), h):
            r0 = 0
            for step in steps[simulate.recorded(steps, k, len(cum))]:
                sups.feed(cum[r0 : step - k, :, 0])
                snaps.append(sups.taken())
                r0 = step - k
            sups.feed(cum[r0:, :, 0])
        return np.stack(snaps, axis=1)

    sups = simulate.ensemble(spec, range(steps[-1] + 1), h, "euler", seed, n_paths, snapshots)
    return np.stack([_bound_fit(sups[:, j], lags, h, T, spec) for j, T in enumerate(horizons)], axis=1)


def _sweep_levels(h, x_grid, eps):
    """x_grid as a float array; DomainError unless h and eps are positive and finite and the levels nondecreasing."""
    for name, value in (("h", h), ("eps", eps)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    x = np.asarray(x_grid, dtype=float)
    if not np.all(x[1:] >= x[:-1]):
        raise DomainError("levels must be nondecreasing")
    return x


class _LevelSweep:
    """level_sweep of several paths at once, fed their samples block by block in time order.

    Pieces of _SWEEP_STEPS samples start at multiples of _SWEEP_STEPS from
    sample 0 whatever the block lengths, so the result equals one sweep of the
    whole paths bit for bit.  A full piece is swept only once a later sample
    has arrived, because the trapezoid halves the weight of a path's last
    sample; at most _SWEEP_STEPS samples per path are held back.
    """

    def __init__(self, n_paths, h, x, eps):
        self.h, self.x, self.eps = float(h), x, eps
        self.reach = 10.0 * math.sqrt(eps)
        self.out = np.zeros((n_paths, len(x)))
        self.held = np.empty((n_paths, 0))
        self.first = True

    def feed(self, block):
        """Take the next samples of every path, shape (samples, paths)."""
        run = np.concatenate([self.held, block.T], axis=1)
        cut = (run.shape[1] - 1) // _SWEEP_STEPS * _SWEEP_STEPS
        for lo in range(0, cut, _SWEEP_STEPS):
            self._piece(run[:, lo : lo + _SWEEP_STEPS], last=False)
        self.held = run[:, cut:]

    def total(self):
        """Kernel local time of each path at every level, shape (paths, levels), after the last sample."""
        self._piece(self.held, last=True)
        return self.out / math.sqrt(2.0 * math.pi * self.eps)

    def _piece(self, pieces, last):
        w = np.full(pieces.shape[1], self.h)
        if self.first:
            w[0] = 0.5 * self.h
        if last:
            w[-1] = 0.5 * self.h
        self.first = False
        for out, v in zip(self.out, pieces):
            lo = np.searchsorted(self.x, v.min() - self.reach, "left")
            hi = np.searchsorted(self.x, v.max() + self.reach, "right")
            if lo < hi:
                e = np.subtract(v[:, None], self.x[lo:hi])
                np.square(e, out=e)
                np.negative(e, out=e)
                e /= 2.0 * self.eps
                np.exp(e, out=e)
                out[lo:hi] += w @ e


def level_sweep(path_values, h, x_grid, eps):
    """Kernel local time at every level of the nondecreasing x_grid from one traversal of the path.

    Trapezoid weights in time, Gaussian kernel of variance eps in space.  Each
    piece of _SWEEP_STEPS samples is evaluated only on the levels within
    10 sqrt(eps) of the piece's range, so kernel terms below exp(-50) of the
    peak are dropped (the truncated sweep of Wand 1994).
    """
    sweep = _LevelSweep(1, h, _sweep_levels(h, x_grid, eps), eps)
    sweep.feed(np.asarray(path_values, dtype=float)[:, None])
    return sweep.total()[0]


def space_modulus(spec, t, x_grid, n_paths, h, seed, eps, scheme="euler", threads=None):
    """Sup-increment profile of L_t^x in the level variable, ensemble-averaged.

    simulate.ensemble steps the paths in tasks of at most 256, and each walk
    block is swept over the uniform x_grid as it comes, so no path is kept and
    memory does not grow with the horizon beyond the transition table.  Per
    path: nested sup-increments of its level sweep across the dyadic level
    distances dx, 2 dx, 4 dx, ... up to a quarter of the grid's span (at least
    three); profiles are averaged over paths (max within a path, then mean
    across paths) and fitted in log-log coordinates.
    """
    x = _sweep_levels(h, x_grid, eps)  # checked before the table is built, and once
    if not h <= t < math.inf:
        raise DomainError(f"need 0 < h <= t < inf, got h={h}, t={t}")
    n = simulate.grid_steps(t, h)
    dx = _uniform_spacing(x)
    n_dyadic = max(3, int(math.floor(math.log2((x[-1] - x[0]) / (4 * dx)))) + 1)
    scales, lags = _scale_lags(dx * 2.0 ** np.arange(n_dyadic), dx)

    def profiles(idx, blocks):
        sweep = _LevelSweep(len(idx), h, x, eps)
        sweep.feed(np.zeros((1, len(idx))))  # X_0 = 0
        for _, values in blocks:
            sweep.feed(values)
        return _nested_sup_increments(sweep.total(), lags)

    sups = simulate.ensemble(spec, range(n + 1), h, scheme, seed, n_paths, profiles, threads=threads)
    return _fitted_profile(scales, np.mean(sups, axis=0))
