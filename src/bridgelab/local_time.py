"""Local-time estimation from sample paths.

Three independent estimators of the occupation density L_t^x:

* kernel  - time integral of a Gaussian mollifier of width sqrt(eps) applied
            to X - x (trapezoid on the path grid);
* binned  - occupation time of the band |X - x| < delta divided by 2*delta;
* tanaka  - pathwise reconstruction |X_t - x| - |X_0 - x| minus the
            sign-weighted stochastic sum plus the sign-weighted drift sum,
            defined on Euler paths (the exact scheme does not expose the
            driving increments).

Plus ensemble probes: the epsilon-Cauchy diagnostic of the mollified family
and the long-horizon growth of L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift as drift_mod
from . import simulate
from .errors import DomainError, NumericsError, UnsupportedSchemeError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    if np.any(cp < 0) or np.any(cp > horizon * (1 + 1e-12) + 1e-12):
        raise DomainError(f"checkpoints must lie within [0, {horizon}]")
    return cp


def _cumulative_trapezoid(y, h):
    out = np.empty(len(y))
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * h, out=out[1:])
    return out


def kernel_estimate(path, x, eps, checkpoints):
    """Heat-kernel mollified local time: int_0^t p_eps(X_r - x) dr."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    cp = _checkpoint_array(checkpoints, path.horizon)
    y = np.exp(-((path.values - x) ** 2) / (2.0 * eps)) / (_SQRT_2PI * math.sqrt(eps))
    cum = _cumulative_trapezoid(y, path.h)
    return LocalTimeCurve(
        level_x=float(x),
        checkpoints=cp,
        values=np.interp(cp, path.times, cum),
        estimator="kernel",
        smoothing=float(eps),
        source_seed=path.seed,
    )


def binned_estimate(path, x, delta, checkpoints):
    """Occupation-measure estimate: Leb{r <= t : |X_r - x| < delta} / (2 delta)."""
    if delta <= 0:
        raise DomainError("delta must be positive")
    cp = _checkpoint_array(checkpoints, path.horizon)
    y = (np.abs(path.values - x) < delta).astype(float) / (2.0 * delta)
    cum = _cumulative_trapezoid(y, path.h)
    return LocalTimeCurve(
        level_x=float(x),
        checkpoints=cp,
        values=np.interp(cp, path.times, cum),
        estimator="binned",
        smoothing=float(delta),
        source_seed=path.seed,
    )


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


def kernel_ensemble(spec, x, eps_list, T, h, n_paths, seed, steps=None, scheme="euler", chunk=512, threads=1):
    """Kernel local time of paths 0 .. n_paths-1 at grid steps, shape (n_paths, len(steps), len(eps_list)).

    steps defaults to the end of the grid reaching T.  The trapezoid sum runs
    step by step (the carry is prepended before np.cumsum), so block length,
    chunk and threads do not change a bit of the result.
    """
    times = simulate.grid(T, h)
    steps = np.asarray([len(times) - 1] if steps is None else steps)
    eps = np.asarray(eps_list, dtype=float)
    norm = _SQRT_2PI * np.sqrt(eps)
    table = simulate.exact_transition_table(spec, times) if scheme == "exact" else None

    def density(values):  # kernel_estimate's density bit for bit, one column per eps
        dens = (values - x)[..., None] ** 2 / (-2.0 * eps)
        np.exp(dens, out=dens)
        dens /= norm
        return dens

    def one_chunk(idx):
        out = np.zeros((len(idx), len(steps), len(eps)))
        prev, acc = density(np.zeros(len(idx))), np.zeros((len(idx), len(eps)))
        for k0, values, _ in simulate.walk(spec, times, seed, idx, scheme, table):
            dens = density(values)
            cum = np.concatenate([acc[None], prev[None], dens[:-1]])
            cum[1:] += dens
            cum[1:] *= 0.5
            cum[1:] *= h
            np.cumsum(cum, axis=0, out=cum)
            simulate.record(out, steps, k0, cum[1:])
            prev, acc = dens[-1], cum[-1]
        return out

    return simulate.ensemble(one_chunk, n_paths, chunk, threads)


def _kernel_at_ensemble(spec, x, eps_list, t, h, n_paths, seed, chunk=512, threads=1):
    """Kernel local time at the end of the grid reaching t, shape (n_paths, len(eps_list))."""
    return kernel_ensemble(spec, x, eps_list, t, h, n_paths, seed, chunk=chunk, threads=threads)[:, 0, :]


def cauchy_diagnostic(spec, x, t, eps_ladder, n_paths, seed, h=None, chunk=512, threads=1):
    """Monte Carlo E |L_{t, eps_i} - L_{t, eps_{i+1}}|^2 along a decreasing ladder.

    The mollified family is L^2-Cauchy as eps -> 0, so the sequence should
    trend to zero; only that empirical trend is contracted, the quadrature
    bound is not asserted here.
    """
    ladder = np.asarray(eps_ladder, dtype=float)
    if np.any(ladder <= 0) or np.any(np.diff(ladder) >= 0):
        raise DomainError("eps_ladder must be strictly decreasing and positive")
    if len(ladder) < 2:
        return []
    if n_paths < 500:
        raise DomainError("need at least 500 paths")
    if h is None:
        h = min(float(ladder.min()), 1e-3)
    l_vals = _kernel_at_ensemble(spec, x, ladder, t, h, n_paths, seed, chunk, threads)
    diffs = l_vals[:, :-1] - l_vals[:, 1:]
    return list((diffs**2).mean(axis=0))


def growth_probe(spec, x, horizons, h, n_paths, seed, scheme="exact", eps=None, chunk=256, threads=1):
    """Ensemble-mean kernel local time at integer horizons plus its growth exponent.

    Returns (mean curve, fitted exponent from log L vs log n regression).
    Raises if the mean curve fails to increase strictly or the exponent is
    not positive; both hold for any nondegenerate drift since the mollifier
    is strictly positive.
    """
    horizons = np.asarray(horizons, dtype=float)
    if np.any(np.diff(horizons) <= 0) or np.any(horizons <= 0):
        raise DomainError("horizons must be positive and strictly increasing")
    if eps is None:
        eps = h
    steps = simulate.horizon_steps(horizons, h)
    l_vals = kernel_ensemble(spec, x, [eps], horizons[-1], h, n_paths, seed, steps, scheme, chunk, threads)
    curve = l_vals[:, :, 0].mean(axis=0)
    if np.any(np.diff(curve) <= 0):
        raise NumericsError("ensemble local-time curve failed to increase strictly")
    slope, _ = np.polyfit(np.log(horizons), np.log(curve), 1)
    if slope <= 0:
        raise NumericsError("fitted growth exponent is not positive")
    return curve, float(slope)
