"""Empirical Hoelder-modulus estimation for local-time curves.

The modulus at scale eta is the sup of |f(t) - f(s)| over pairs at distance
at most eta (nested classes, so the profile is monotone in the scale by
construction); the Hoelder exponent is the slope of the profile in log-log
coordinates.  Both the time variable and the level variable of the local
time are analyzed this way.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import simulate
from .errors import DomainError, InsufficientDataError


@dataclass
class ModulusProfile:
    """Sup-increment sizes across a decreasing ladder of scales, with its fit."""

    scales: np.ndarray
    sup_increments: np.ndarray
    fitted_slope: float
    fitted_intercept: float


def loglog_slope(points):
    """Ordinary least squares of log(value) on log(scale).

    Points with value <= 0 are dropped (with a warning); fewer than three
    usable points raise InsufficientDataError.  Scales must be positive.
    """
    pts = np.asarray(list(points), dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise InsufficientDataError("need at least 3 (scale, value) points")
    if np.any(pts[:, 0] <= 0):
        raise DomainError("scales must be strictly positive")
    usable = pts[:, 1] > 0
    if not np.all(usable):
        warnings.warn(f"dropping {int((~usable).sum())} nonpositive values from log-log fit")
    pts = pts[usable]
    if len(pts) < 3:
        raise InsufficientDataError("fewer than 3 usable points after dropping nonpositive values")
    slope, intercept = np.polyfit(np.log(pts[:, 0]), np.log(pts[:, 1]), 1)
    return float(slope), float(intercept)


def _nested_sup_increments(values, lags):
    """Max |values[i+l] - values[i]| over all l' <= l, for each requested lag."""
    out = np.empty(len(lags))
    targets = {lag: j for j, lag in enumerate(lags)}
    best = 0.0
    for lag in range(1, max(lags) + 1):
        d = np.abs(values[lag:] - values[:-lag])
        if len(d):
            best = max(best, float(d.max()))
        if lag in targets:
            out[targets[lag]] = best
    return out


def _uniform_spacing(checkpoints):
    dt = np.diff(checkpoints)
    if len(dt) < 1 or np.any(np.abs(dt - dt[0]) > 1e-9 * max(dt[0], 1e-300)):
        raise DomainError("curve checkpoints must form a uniform grid")
    return float(dt[0])


def time_modulus(curve, scales):
    """Sup-increment profile of a local-time curve in the time variable."""
    dt = _uniform_spacing(curve.checkpoints)
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    if scales[-1] < dt * (1 - 1e-9):
        raise DomainError(f"smallest scale {scales[-1]} is below the grid resolution {dt}")
    lags = [int(round(s / dt)) for s in scales]
    sups = _nested_sup_increments(curve.values, lags)
    try:
        slope, intercept = loglog_slope(zip(scales, sups))
    except InsufficientDataError:
        slope, intercept = float("nan"), float("nan")
    return ModulusProfile(
        scales=scales, sup_increments=sups, fitted_slope=slope, fitted_intercept=intercept
    )


def time_modulus_bound_fit(curve, T, spec):
    """Smallest constant making the two-term square-root bracket dominate the curve.

    Bracket at distance eta < 1:
        sqrt(eta) * sqrt((T+1) * alpha*(T+1)) + sqrt(eta) * sqrt(log(1/eta)).
    Returns the max over all grid pairs at dyadic distances below 1 of
    |increment| / bracket; 0 for a constant curve.
    """
    from . import drift as drift_mod

    dt = _uniform_spacing(curve.checkpoints)
    growth = math.sqrt((T + 1.0) * drift_mod.running_sup(spec, T + 1.0))
    fitted = 0.0
    lag = 1
    while lag * dt < 1.0 and lag < len(curve.values):
        eta = lag * dt
        sup = float(np.abs(curve.values[lag:] - curve.values[:-lag]).max())
        bracket = math.sqrt(eta) * (growth + math.sqrt(math.log(1.0 / eta)))
        fitted = max(fitted, sup / bracket)
        lag *= 2
    return fitted


def level_sweep(path_values, h, x_grid, eps, time_chunk=256):
    """Kernel local time at every level of x_grid from one traversal of the path.

    Trapezoid weights in time, Gaussian kernel of variance eps in space.  Each
    time chunk is evaluated only on the levels within 10 sqrt(eps) of the
    chunk's range, so kernel terms below exp(-50) of the peak are dropped
    (the truncated sweep of Wand 1994); memory stays O(time_chunk * levels).
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    v = np.asarray(path_values, dtype=float)
    x = np.asarray(x_grid, dtype=float)
    w = np.full(len(v), h)
    w[0] = w[-1] = 0.5 * h
    reach = 10.0 * math.sqrt(eps)
    out = np.zeros(len(x))
    for lo in range(0, len(v), time_chunk):
        vb = v[lo : lo + time_chunk]
        near = np.flatnonzero((x >= vb.min() - reach) & (x <= vb.max() + reach))
        out[near] += w[lo : lo + time_chunk] @ np.exp(-((vb[:, None] - x[near]) ** 2) / (2.0 * eps))
    return out / math.sqrt(2.0 * math.pi * eps)


def space_modulus(
    spec,
    t,
    x_grid,
    n_paths,
    h,
    seed,
    eps,
    scheme="euler",
    scales=None,
    threads=1,
):
    """Sup-increment profile of L_t^x in the level variable, ensemble-averaged.

    Paths are stepped together in chunks of up to 64.  Per path: one level
    sweep over the uniform x_grid, then nested sup-increments across dyadic
    level distances; profiles are averaged over paths (max within a path,
    then mean across paths) and fitted in log-log coordinates.
    """
    x = np.asarray(x_grid, dtype=float)
    dx = _uniform_spacing(x)
    if scales is None:
        n_dyadic = max(3, int(math.floor(math.log2((x[-1] - x[0]) / (4 * dx)))) + 1)
        scales = dx * 2.0 ** np.arange(n_dyadic)
    scales = np.sort(np.asarray(scales, dtype=float))[::-1]
    if scales[-1] < dx * (1 - 1e-9):
        raise DomainError(f"smallest scale {scales[-1]} is below the level spacing {dx}")
    lags = [int(round(s / dx)) for s in scales]
    times = simulate.grid(t, h)

    def profiles(idx):
        values, _ = simulate.paths(spec, times, seed, idx, scheme)
        return [_nested_sup_increments(level_sweep(v, float(h), x, eps), lags) for v in values]

    sups = np.mean(simulate.ensemble(profiles, n_paths, 64, threads), axis=0)
    try:
        slope, intercept = loglog_slope(zip(scales, sups))
    except InsufficientDataError:
        slope, intercept = float("nan"), float("nan")
    return ModulusProfile(
        scales=scales, sup_increments=sups, fitted_slope=slope, fitted_intercept=intercept
    )
