"""Local-time estimation from sample paths.

Three independent estimators of the occupation density L_t^x:

* kernel  - time integral of a Gaussian mollifier of width sqrt(eps) applied
            to X - x (trapezoid on the path grid);
* binned  - occupation time of the band |X - x| < delta divided by 2*delta;
* tanaka  - pathwise reconstruction |X_t - x| - |X_0 - x| minus the
            sign-weighted stochastic sum plus the sign-weighted drift sum,
            defined on Euler paths (the exact scheme does not expose the
            driving increments).

Plus ensemble probes: the epsilon-Cauchy diagnostic of the mollified family,
the second moment of the mollified local time with a box-occupation control
variate, and the long-horizon growth of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from . import simulate
from .errors import DomainError, InsufficientDataError, NumericsError, UnsupportedSchemeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# below _EXP_FAST, np.exp's result is subnormal or zero and costs 20-150 ns: densities read 0.0
_EXP_FAST = -707.0
_TILE_SIZE = 2**15  # elements in a row tile of kernel_ensemble's reducer, per buffer


@dataclass
class LocalTimeCurve:
    """Estimated L_t^x at a set of checkpoint times."""

    level_x: float
    checkpoints: np.ndarray
    values: np.ndarray
    estimator: str
    smoothing: float | None
    source_seed: int


def _checkpoint_array(checkpoints, horizon):
    cp = np.atleast_1d(np.asarray(checkpoints, dtype=float))
    if not np.all((cp >= 0) & (cp <= horizon * (1 + 1e-12) + 1e-12)):  # NaN fails both
        raise DomainError(f"checkpoints must be finite and lie within [0, {horizon}], got {cp}")
    return cp


def _gaussian_density(sq_offsets, eps, out=None):
    """p_eps at squared offsets, exp(sq / (-2 eps)) / (sqrt(2 pi) sqrt(eps)); eps broadcasts.

    Written into out when given.  Bit for bit the plain formula where the
    exponent is at least _EXP_FAST; below it the density reads 0.0 (the plain
    value is under 4e-302 for eps >= 1e-12), and NaN propagates.
    """
    e = np.divide(sq_offsets, -2.0 * eps, out=out)
    low = e < _EXP_FAST
    np.maximum(e, _EXP_FAST, out=e)
    np.exp(e, out=e)
    np.copyto(e, 0.0, where=low)  # NaN is never low, so it stays
    e /= _SQRT_2PI * np.sqrt(eps)
    return e


def _running_trapezoid(y, h, prev, carry, out, cumulative):
    """Trapezoid integral continued over samples y from the sample prev, whose integral is carry.

    Writes the increments into out, the carry added to the first; returns the
    integral at each sample of y when cumulative, else only at the last one.
    The sum runs step by step along axis 0, so splitting y into blocks changes
    no bit.  A reduce over a single column would sum pairwise, so that case
    takes the cumulative path too.
    """
    np.add(prev, y[:1], out=out[:1])
    np.add(y[:-1], y[1:], out=out[1:])
    out *= 0.5 * h  # bit for bit (out * 0.5) * h unless out * 0.5 is subnormal: at the flush edge, eps > 0.65
    out[:1] += carry
    if cumulative or out[0].size == 1:
        np.cumsum(out, axis=0, out=out)
        return out if cumulative else out[-1]
    return np.add.reduce(out.reshape(len(out), -1), axis=0).reshape(out.shape[1:])


def _occupation_curve(path, y, x, checkpoints, estimator, smoothing):
    """Curve of the trapezoid integral of the samples y taken along the path."""
    cp = _checkpoint_array(checkpoints, path.horizon)
    cum = np.empty(len(y))
    cum[0] = 0.0
    _running_trapezoid(y[1:], path.h, y[0], 0.0, cum[1:], cumulative=True)
    return LocalTimeCurve(
        level_x=float(x),
        checkpoints=cp,
        values=np.interp(cp, path.times, cum),
        estimator=estimator,
        smoothing=float(smoothing),
        source_seed=path.seed,
    )


def kernel_estimate(path, x, eps, checkpoints):
    """Heat-kernel mollified local time: int_0^t p_eps(X_r - x) dr."""
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")
    dens = _gaussian_density(np.square(path.values - x), eps)
    return _occupation_curve(path, dens, x, checkpoints, "kernel", eps)


def binned_estimate(path, x, delta, checkpoints):
    """Occupation-measure estimate: Leb{r <= t : |X_r - x| < delta} / (2 delta)."""
    if not 0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    y = np.heaviside(delta - np.abs(path.values - x), 0.0)  # 1 inside the band, 0 on and outside, NaN at NaN
    y /= 2.0 * delta
    return _occupation_curve(path, y, x, checkpoints, "binned", delta)


def tanaka_estimate(path, spec, x, checkpoints):
    """Pathwise local time from the occupation identity of |X - x|.

    L_t = |X_t - x| - |X_0 - x| - sum sgn(X_k - x) dW_k
          + sum sgn(X_k - x) alpha(t_k) X_k h,
    with sgn(0) = 0 and both sums non-anticipating (left endpoints).
    Checkpoints are snapped to the nearest grid node.
    """
    if path.scheme != "euler" or path.brownian_increments is None:
        raise UnsupportedSchemeError("tanaka estimation needs an euler path with retained increments")
    cp = _checkpoint_array(checkpoints, path.horizon)
    h = path.h
    v = path.values
    sgn = np.sign(v[:-1] - x)
    alpha = np.asarray(drift_mod.eval_alpha(spec, path.times[:-1]), dtype=float)
    stoch = np.concatenate([[0.0], np.cumsum(sgn * path.brownian_increments)])
    drift_sum = np.concatenate([[0.0], np.cumsum(sgn * alpha * v[:-1] * h)])
    l_grid = np.abs(v - x) - abs(v[0] - x) - stoch + drift_sum
    idx = np.clip(np.rint(cp / h).astype(int), 0, len(v) - 1)
    return LocalTimeCurve(
        level_x=float(x),
        checkpoints=cp,
        values=l_grid[idx],
        estimator="tanaka",
        smoothing=None,
        source_seed=path.seed,
    )


def kernel_tiles(blocks, x, eps, h, steps=None):
    """Yield (k, cum) per row tile of a task's walk: its paths' kernel local times at grid steps k+1 .. k+len(cum).

    cum has shape (len(cum), paths, len(eps)), eps being an array, and each
    path's curve is kernel_estimate's bit for bit, whatever the block length,
    task width and thread count.  A tile holds at most _TILE_SIZE elements and
    a walk block, and is valid only until the next is asked for.  Given the
    nondecreasing steps the caller records, only the tiles holding one of them
    are yielded; the others are summed without a cumsum.
    """
    for k0, block in blocks:
        if k0 == 0:
            m, ne = block.shape[1], len(eps)
            rows = max(1, min(len(block), _TILE_SIZE // (m * ne)))
            sq = np.empty((rows, m, 1))
            dens, trap = np.empty((2, rows, m, ne))
            prev = _gaussian_density(np.square(np.zeros((m, 1)) - x), eps)
            acc = np.zeros((m, ne))
        for r0 in range(0, len(block), rows):
            values = block[r0 : r0 + rows]
            k, nb = k0 + r0, len(values)
            s = np.subtract(values[..., None], x, out=sq[:nb])
            np.square(s, out=s)
            span = None if steps is None else simulate.recorded(steps, k, nb)
            cumulative = span is None or span.start < span.stop
            y = _gaussian_density(s, eps, dens[:nb])
            cum = _running_trapezoid(y, h, prev, acc, trap[:nb], cumulative)
            prev[:], acc[:] = y[-1], cum[-1] if cumulative else cum
            if cumulative:
                yield k, cum


def kernel_ensemble(spec, x, eps_list, horizons, h, n_paths, seed, scheme="euler"):
    """Kernel local time of paths 0 .. n_paths-1 at the horizons, shape (n_paths, len(horizons), len(eps_list)).

    The grid reaches the last horizon, simulate.horizon_steps finds each one's
    step, and a horizon 0 records 0.0.  simulate.ensemble runs tasks of at most
    256 paths on every core, and each takes its snapshots of kernel_tiles.
    """
    steps = simulate.horizon_steps(horizons, h)
    eps = np.asarray(eps_list, dtype=float)
    if not np.all((eps > 0) & (eps < math.inf)):
        raise DomainError(f"eps_list must be positive and finite, got {eps}")

    def curves(idx, blocks):
        return simulate.snapshots(kernel_tiles(blocks, x, eps, h, steps), steps, (len(idx), len(steps), len(eps)))

    return simulate.ensemble(spec, range(steps[-1] + 1), h, scheme, seed, n_paths, curves)


def _steps_to(t, h):
    """simulate.grid_steps(t, h), refusing h > t by the name t."""
    if not 0 < h <= t < math.inf:
        raise DomainError(f"need 0 < h <= t < inf, got h={h}, t={t}")
    return simulate.grid_steps(t, h)


def kernel_second_moment(spec, x, eps, t, h, n_paths, seed):
    """Monte Carlo E (L_t^x)^2 of the kernel local time of variance eps, with a box-occupation control variate.

    Returns (estimate, standard_error, occupation_z).  Each path's L is
    kernel_ensemble's at step grid_steps(t, h) of its Euler walk, bit for bit.
    The same walk gives the path's box occupation B, the trapezoid integral of
    1{x - delta < X < x + delta} / (2 delta) with delta = 2 sqrt(eps), whose mean
    is exact from the chain's variance (simulate.chain_variance) and the normal
    law.  The estimate is mean L^2 - beta (mean B - E B), beta the least-squares
    slope of L^2 on B, and its standard error is that of L^2 - beta B.  B does
    not involve the kernel, so a defect of the kernel moves the estimate as it
    moves the plain mean of L^2.  occupation_z is (mean B - E B) / se(B).
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    if not 0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps}")
    if n_paths < 3:
        raise DomainError(f"n_paths must be at least 3, got {n_paths}")
    n = _steps_to(t, h)
    delta = 2.0 * math.sqrt(eps)
    lo, hi = x - delta, x + delta
    steps, eps_arr = np.array([n]), np.array([eps])

    def moments(idx, blocks):
        inside = np.full(len(idx), 0.5 * (lo < 0.0 < hi))  # trapezoid count of steps 0 .. n in the box; X_0 = 0
        last = None

        def counted():
            nonlocal inside, last
            mask = None  # one bool block: the count below hi less the count at or below lo
            for k0, block in blocks:
                mask = np.empty(block.shape, bool) if mask is None else mask[: len(block)]
                inside += np.count_nonzero(np.less(block, hi, out=mask), axis=0)
                inside -= np.count_nonzero(np.less_equal(block, lo, out=mask), axis=0)
                last = (lo < block[-1]) & (block[-1] < hi)
                yield k0, block

        cum = simulate.snapshots(kernel_tiles(counted(), x, eps_arr, h, steps), steps, (len(idx), 1, 1))
        inside -= 0.5 * last
        return np.column_stack([np.square(cum[:, 0, 0]), inside * (h / (2.0 * delta))])

    l_sq, box = simulate.ensemble(spec, range(n + 1), h, "euler", seed, n_paths, moments).T
    scales = np.sqrt(2.0 * simulate.chain_variance(spec, range(n + 1), h, "euler")).tolist()
    # P(lo < X_k < hi) for X_k ~ N(0, v_k); X_0 = 0
    hit = [0.5 * (math.erf(hi / s) - math.erf(lo / s)) if s > 0 else float(lo < 0.0 < hi) for s in scales]
    box_mean = (math.fsum(hit) - 0.5 * (hit[0] + hit[-1])) * (h / (2.0 * delta))
    centred = box - box.mean()
    beta = (centred @ (l_sq - l_sq.mean())) / (centred @ centred) if centred.any() else 0.0
    estimate = float(l_sq.mean() - beta * (box.mean() - box_mean))
    standard_error = float(np.std(l_sq - beta * box, ddof=1) / math.sqrt(n_paths))
    box_se = np.std(box, ddof=1) / math.sqrt(n_paths)
    occupation_z = float((box.mean() - box_mean) / box_se) if box_se > 0 else math.nan
    return estimate, standard_error, occupation_z


def cauchy_diagnostic(spec, x, t, eps_ladder, n_paths, seed):
    """Monte Carlo E |L_{t, eps_i} - L_{t, eps_{i+1}}|^2 along a decreasing ladder.

    The mollified family is L^2-Cauchy as eps -> 0, so the sequence should
    trend to zero; only that empirical trend is contracted, the quadrature
    bound is not asserted here.  Paths are stepped at h = min(smallest eps, 1e-3).
    """
    ladder = np.asarray(eps_ladder, dtype=float)
    if not (np.all((ladder > 0) & (ladder < math.inf)) and np.all(np.diff(ladder) < 0)):
        raise DomainError(f"eps_ladder must be strictly decreasing, positive and finite, got {ladder}")
    if len(ladder) < 2:
        return []
    if n_paths < 500:
        raise DomainError(f"n_paths must be at least 500, got {n_paths}")
    h = min(float(ladder.min()), 1e-3)
    l_vals = kernel_ensemble(spec, x, ladder, [_steps_to(t, h) * h], h, n_paths, seed)[:, 0, :]
    diffs = l_vals[:, :-1] - l_vals[:, 1:]
    return list((diffs**2).mean(axis=0))


def growth_probe(spec, x, horizons, h, n_paths, seed, scheme="exact"):
    """Ensemble-mean kernel local time, of kernel variance h, at integer horizons plus its growth exponent.

    Returns (mean curve, fitted exponent from log L vs log n regression).
    Raises if the mean curve fails to increase strictly or the exponent is
    not positive; both hold for any nondegenerate drift since the mollifier
    is strictly positive.  The fit is loglog_slope's: fewer than three
    horizons are its InsufficientDataError, raised before any walk.
    """
    if not math.isfinite(x):
        raise DomainError(f"x must be finite, got {x}")
    horizons = np.asarray(horizons, dtype=float)
    if np.any(horizons[:1] == 0) or np.any(np.diff(horizons) == 0):  # horizon_steps checks the rest
        raise DomainError("horizons must be positive and strictly increasing")
    if len(simulate.horizon_steps(horizons, h)) < 3:
        raise InsufficientDataError(f"need at least 3 horizons, got {len(horizons)}")
    l_vals = kernel_ensemble(spec, x, [h], horizons, h, n_paths, seed, scheme)
    curve = l_vals[:, :, 0].mean(axis=0)
    if np.any(np.diff(curve) <= 0):
        raise NumericsError("ensemble local-time curve failed to increase strictly")
    slope, _ = drift_mod.loglog_slope(zip(horizons, curve))
    if slope <= 0:
        raise NumericsError("fitted growth exponent is not positive")
    return curve, float(slope)
