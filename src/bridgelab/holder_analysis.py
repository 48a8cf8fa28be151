"""Empirical Hoelder-modulus estimation for local-time curves.

The modulus at scale eta is the sup of |f(t) - f(s)| over pairs at distance
at most eta (nested classes, so the profile is monotone in the scale by
construction); the Hoelder exponent is the slope of the profile in log-log
coordinates.  Both the time variable and the level variable of the local
time are analyzed this way.  _LagSups takes the lag sups of streamed
curves, and _nested_sup_increments the nested sups of whole ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import local_time, simulate
from .drift import loglog_slope, running_sup
from .errors import DomainError, InsufficientDataError

_SWEEP_STEPS = 1024  # samples per level_sweep piece, aligned to sample 0
_SWEEP_SIZE = 2**16  # elements a level_sweep temporary holds, when a piece or the level grid is not longer
_MEAN_PATHS = 64  # paths time_profile averages at most, in one walk
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

    For streamed curves; whole ones go to _nested_sup_increments.  Pairs reaching
    before step 0 do not count, so the sups after step k are those of the curves'
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
    """Max |f[i+l'] - f[i]| over all l' <= l of each row f, for each requested lag; NaN propagates.

    Shape (curves, lags), C-ordered.  A lag past a curve's end counts as its
    last.  The sup at lag l is the largest range max - min of a window of
    l + 1 samples, bit for bit, since rounded subtraction is monotone in each
    argument and sign-symmetric; the windows' max and min come from a sparse
    table doubled from the samples, O(n log(largest lag)).  On a nondecreasing
    finite curve a window's range is its last sample less its first: the
    plain lag-l sup of _LagSups, bit for bit.  Ranges cannot see a pair of equal
    infinities (inf - inf is NaN) that a window holds beside finite samples,
    so a curve with two of them at most l apart is NaN from lag l on.
    """
    n = curves.shape[1]
    lags = np.minimum(lags, max(1, n - 1))
    sups = np.zeros((len(curves), len(lags)))
    top = bottom = curves
    width = 1  # top and bottom: max and min of the windows of width samples from each start
    for i in np.argsort(lags, kind="stable"):
        span = lags[i] + 1
        if span > n:  # a one-sample curve has no pair
            continue
        while 2 * width <= span:
            top = np.maximum(top[:, :-width], top[:, width:])
            bottom = np.minimum(bottom[:, :-width], bottom[:, width:])
            width *= 2
        starts, shift = n - span + 1, span - width
        ranges = np.maximum(top[:, :starts], top[:, shift : shift + starts])
        ranges -= np.minimum(bottom[:, :starts], bottom[:, shift : shift + starts])
        sups[:, i] = np.abs(ranges, out=ranges).max(axis=1)
    for row in np.flatnonzero(np.isinf(curves).any(axis=1)):
        for sign in (math.inf, -math.inf):
            gaps = np.diff(np.flatnonzero(curves[row] == sign))
            if len(gaps):
                sups[row, lags >= gaps.min()] = math.nan
    return sups


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
    mean would smooth away entirely.  At most _MEAN_PATHS paths (more are a
    DomainError), walked as one task on one thread: each kernel_tiles tile's
    curves are summed in path order, divided by n_paths and fed to a _LagSups.
    The mean never decreases, so this is time_modulus of the curves'
    mean(axis=0) bit for bit, and only the table, 8 B per step, grows with T.
    """
    if n_paths > _MEAN_PATHS:
        raise DomainError(f"n_paths must be at most {_MEAN_PATHS}, got {n_paths}")
    n = simulate.grid_steps(T, h)
    scales, lags = _scale_lags(scales, h)

    def mean_sups(idx, blocks):
        sups = _LagSups(np.zeros(1), [min(lag, n) for lag in lags])
        for _, cum in local_time.kernel_tiles(blocks, 0.0, np.array([h]), h):
            sups.feed(sum(cum[:, 1:, 0].T, cum[:, 0, 0])[:, None] / n_paths)  # paths added in order
        return sups.taken()[0]

    sups = simulate.ensemble(spec, range(n + 1), h, scheme, seed, n_paths, mean_sups, threads=1)
    return _fitted_profile(scales, sups)


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
    Returns the max over dyadic eta < 1 of the nested sup of |increment| at
    distances up to eta, over the bracket; 0 for a constant curve, NaN if the
    curve has a NaN.  On a kernel curve, which never decreases, these are
    time_bound_fits' streamed lag sups, bit for bit.  T: positive and finite.
    """
    dt = _uniform_spacing(curve.checkpoints)
    lags = _bound_lags(dt, len(curve.values))
    return float(_bound_fit(_nested_sup_increments(curve.values[None], lags)[0], lags, dt, T, spec))


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


def _spacing(x):
    """The spacing of a uniform level grid, from its end levels."""
    return (float(x[-1]) - float(x[0])) / (len(x) - 1)


def _sweep_levels(h, x_grid, eps):
    """x_grid as a float array; DomainError unless h and eps are positive and finite and x_grid is uniform.

    A uniform grid has at least two levels, and its level j is x_grid[0] + j dx
    to 1e-9 dx, with dx = _spacing(x_grid) positive and finite.
    """
    for name, value in (("h", h), ("eps", eps)):
        if not 0 < value < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value}")
    x = np.asarray(x_grid, dtype=float)
    dx = _spacing(x) if x.ndim == 1 and len(x) >= 2 else math.nan
    if not (0 < dx < math.inf and np.all(np.abs(x - (x[0] + np.arange(len(x)) * dx)) <= 1e-9 * dx)):
        raise DomainError(
            "levels must be nondecreasing and evenly spaced: x_grid must be a uniform grid of at least two "
            f"levels x_grid[0] + j dx with dx > 0, got {x.size} levels"
        )
    return x


class _LevelSweep:
    """level_sweep of several paths at once, fed their samples block by block in time order.

    Pieces of _SWEEP_STEPS samples start at multiples of _SWEEP_STEPS from
    sample 0 whatever the block lengths.  A full piece is swept only once a
    later sample has arrived, because the trapezoid halves the weight of a
    path's last sample; at most _SWEEP_STEPS samples per path are held back.

    A piece is swept by nearest-level recurrence, the factorisation of the fast
    Gauss transform (Greengard & Strain 1991).  A sample at r = v - x_j from
    its nearest level j (an end level, for a sample past the grid) has kernel
    exp(-(r - k dx)^2 / 2 eps) = e0 u^k g_k at level j + k and e0 d^k g_k at
    level j - k, k >= 0, where e0 = exp(-r^2 / 2 eps), u = exp((2 r - dx) c),
    d = exp(-(2 r + dx) c), c = dx / 2 eps, and g_k = exp(-k (k - 1) dx c).
    On the grid |r| <= dx / 2, so u and d are at most 1 and the running terms
    e0 u^k and e0 d^k stay in [0, 1]: nothing overflows for any dx / sqrt(eps).
    (Past the grid the ratio pointing off it is taken as 1; its terms land off
    the grid.)  d is q / u with q = exp(-2 dx c), so a sample costs two exp;
    three once q would fall below exp(-700), near the end of the normal
    numbers, which is at dx > 26 sqrt(eps), where m is 1.  Each level offset
    then costs one multiply of the running terms and one np.bincount of the
    terms of every sample in a group of pieces into (piece, level) bins, which
    g_k scales; the bins span only the levels the group's samples reach.
    Offsets stop at m levels, 10 sqrt(eps) past every sample, so
    terms below exp(-50) of the peak are dropped (the truncated sweep of Wand
    1994).  A piece's bins do not depend on which pieces share a bincount, and
    each path adds its pieces' sums in order, so the result equals one sweep
    of the whole paths bit for bit.  A NaN sample makes its path NaN at every
    level, and an infinite one adds 0.
    """

    def __init__(self, n_paths, h, x, eps):
        self.h, self.eps, self.x0, self.dx = float(h), eps, float(x[0]), _spacing(x)
        self.m = min(len(x) - 1, math.ceil(min(10.0 * math.sqrt(eps) / self.dx + 0.5, len(x))))
        self.c = min(self.dx / (2.0 * eps), 1e300)  # capped: past that every ratio underflows anyway
        k = np.arange(self.m + 1.0)
        self.g = np.exp(-(k * (k - 1.0)) * min(self.dx * self.c, 1e300))
        self.q = math.exp(-2.0 * self.dx * self.c) if self.dx * self.c < 350.0 else 0.0  # u d, or 0 past exp(-700)
        self.out = np.zeros((n_paths, len(x)))
        self.held = np.empty((0, n_paths))
        self.first = True

    def feed(self, block):
        """Take the next samples of every path, shape (samples, paths)."""
        run = np.concatenate([self.held, block])
        cut = (len(run) - 1) // _SWEEP_STEPS * _SWEEP_STEPS
        self._pieces(run[:cut], _SWEEP_STEPS, last=False)
        self.held = run[cut:]

    def total(self):
        """Kernel local time of each path at every level, shape (paths, levels), after the last sample."""
        self._pieces(self.held, len(self.held), last=True)
        out = self.out * (self.h / math.sqrt(2.0 * math.pi * self.eps))
        out[np.isnan(out[:, 0])] = np.nan  # a NaN sample is binned at level 0
        return out

    def _pieces(self, run, length, last):
        """Add to each path the sums of its pieces of `length` samples in run, shape (samples, paths).

        A group of (piece, path) columns is swept at once, consecutive pieces
        of a slice of the paths, so that a temporary holds about _SWEEP_SIZE
        elements; each path then adds its pieces' sums in order.
        """
        if not len(run):
            return
        n_paths, n_levels = self.out.shape
        width = max(1, _SWEEP_SIZE // max(length, n_levels + 2 * self.m))  # columns a group holds
        per = max(1, width // n_paths)  # pieces a group holds
        pieces = run.reshape(-1, length, n_paths)
        for q in range(0, len(pieces), per):
            for p in range(0, n_paths, width):
                group = pieces[q : q + per, :, p : p + width]
                cols = group.transpose(1, 0, 2).reshape(length, -1)
                sums, a = self._sums(cols, group.shape[2] if self.first and q == 0 else 0, last)
                for part in sums.reshape(len(group), -1, sums.shape[1]):
                    self.out[p : p + width, a : a + part.shape[1]] += part
        self.first = False

    def _sums(self, v, n_first, last):
        """The trapezoid kernel sums, in units of h, of each column of v at the levels its group reaches.

        Returns the sums, shape (columns, levels), and the first of those
        levels, which reach m past the nearest levels of the group's samples:
        a fine grid pays only for the levels its pieces reach, and the levels
        left out would add only zeros.  v holds one piece per column, in time
        order.
        The first n_first columns begin their paths, and with last every
        column ends its path; those samples take half weight (once, for a
        path of one sample).
        """
        n_levels, m = self.out.shape[1], self.m
        j = v - self.x0
        j /= self.dx
        np.fmax(j, 0.0, out=j)  # a sample past the grid, or NaN, goes to an end level
        np.fmin(j, n_levels - 1.0, out=j)
        np.rint(j, out=j)
        lo, hi = int(j.min()), int(j.max())
        # bins: column after column, each of the levels lo .. hi padded by m on both sides
        stride = hi - lo + 1 + 2 * m
        bins = j.astype(np.intp)
        bins += np.arange(m - lo, m - lo + stride * v.shape[1], stride)
        bins = bins.ravel()
        r = j  # from here on, j's buffer holds r, then the ratio up
        r *= self.dx
        r += self.x0
        np.subtract(v, r, out=r)
        e0 = np.square(r)
        e0 /= -2.0 * self.eps
        np.exp(e0, out=e0)
        if n_first:
            e0[0, :n_first] *= 0.5
        if last and (not n_first or len(v) > 1):
            e0[-1] *= 0.5
        up = np.add(r, r, out=r)
        with np.errstate(over="ignore", divide="ignore"):
            if self.q:
                up -= self.dx
                up *= self.c
                np.exp(up, out=up)  # inf for a sample far past the top level
                down = np.divide(self.q, up)  # inf for one far past the bottom
            else:
                down = up + self.dx
                down *= -self.c
                np.exp(down, out=down)
                up -= self.dx
                up *= self.c
                np.exp(up, out=up)
        np.minimum(up, 1.0, out=up)
        np.minimum(down, 1.0, out=down)
        sums = np.bincount(bins, e0.ravel(), stride * v.shape[1])
        term = np.empty_like(e0)
        for ratio, shift in ((up, 1), (down, -1)):
            for k in range(1, m + 1):
                np.multiply(e0 if k == 1 else term, ratio, out=term)
                binned = np.bincount(bins, term.ravel(), len(sums))
                if k > 1:
                    binned *= self.g[k]
                if shift > 0:
                    sums[k:] += binned[:-k]
                else:
                    sums[:-k] += binned[k:]
        a, b = max(lo - m, 0), min(hi + m + 1, n_levels)
        return sums.reshape(-1, stride)[:, a - lo + m : b - lo + m], a


def level_sweep(path_values, h, x_grid, eps):
    """Kernel local time at every level of the uniform x_grid from one traversal of the path.

    Trapezoid weights in time, Gaussian kernel of variance eps in space, by
    _LevelSweep's nearest-level recurrence: two exp per sample and one
    multiply and one binned add per sample and level offset, out to
    10 sqrt(eps) (terms below exp(-50) of the peak are dropped, the truncated
    sweep of Wand 1994).  A NaN sample gives NaN at every level; an infinite
    one adds nothing.  x_grid: at least two evenly spaced increasing levels.
    """
    sweep = _LevelSweep(1, h, _sweep_levels(h, x_grid, eps), eps)
    sweep.feed(np.asarray(path_values, dtype=float)[:, None])
    return sweep.total()[0]


def space_modulus(spec, t, x_grid, n_paths, h, seed, eps, scheme="euler", threads=None):
    """Sup-increment profile of L_t^x in the level variable, ensemble-averaged.

    x_grid must be uniform, at least two levels dx apart (a DomainError
    otherwise, before any path is walked).  simulate.ensemble steps the paths
    in tasks of at most 256, and each walk block goes as it comes into one
    _LevelSweep of all the task's paths, so no path is kept and memory does
    not grow with the horizon beyond the transition table; the sweeps' bits
    do not depend on the task width.  Per path: nested sup-increments of its
    level sweep across the dyadic level distances dx, 2 dx, 4 dx, ... up to a
    quarter of the grid's span (at least three); profiles are averaged over
    paths (max within a path, then mean across paths) and fitted in log-log
    coordinates.
    """
    x = _sweep_levels(h, x_grid, eps)  # checked before the table is built, and once
    if not h <= t < math.inf:
        raise DomainError(f"need 0 < h <= t < inf, got h={h}, t={t}")
    n = simulate.grid_steps(t, h)
    dx = _spacing(x)
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
