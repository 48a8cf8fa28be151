"""Time-dependent mean-reversion rates alpha(t) and their stable integral transforms.

Every law formula downstream reduces to differences A(t) - A(s) of the
antiderivative A(t) = int_0^t alpha(u) du.  Exponentials of A are only ever
formed as exp(-c * (A(t) - A(s))) with s <= t, so integrands live in (0, 1]
and never overflow, no matter how explosive the drift is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ExtrapolationError, NumericsError

FAMILIES = ("power", "exponential", "constant", "tabulated")

# exp(-x) for x beyond this is treated as an exact zero when truncating
# integration ranges; the dropped mass is below 1e-26 of the retained one.
_EXP_CUTOFF = 60.0
_EPSABS, _EPSREL = 1e-12, 1e-10

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# mapped to (0, 1)
_GL_X = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS
# node groups of a panel in its own (0, 1) coordinate: the whole panel, its left and its right half
_WHOLE_AND_HALVES = np.stack([_GL_X, 0.5 * _GL_X, 0.5 + 0.5 * _GL_X])
# the most panels bisection may add to one interval before NumericsError
_PANEL_BUDGET = 200
# intervals per kernel pass: bounds the (intervals x 48) node arrays
_BATCH = 2048


@dataclass(frozen=True)
class DriftSpec:
    """A nonnegative deterministic rate alpha(t) on [0, inf).

    family "power":       alpha(t) = scale * t**beta,  beta > 0
    family "exponential": alpha(t) = scale * exp(beta * t),  beta > 0
    family "constant":    alpha(t) = scale  (scale = 0 is plain Brownian motion)
    family "tabulated":   piecewise-linear interpolation of (time, alpha) pairs
    """

    family: str
    beta: float = 0.0
    scale: float = 1.0
    table: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"unknown drift family {self.family!r}")
        if self.family in ("power", "exponential"):
            if not self.beta > 0:
                raise DomainError(f"{self.family} drift requires beta > 0, got {self.beta}")
            if not self.scale > 0:
                raise DomainError(f"{self.family} drift requires scale > 0, got {self.scale}")
        elif self.family == "constant":
            if self.scale < 0:
                raise DomainError(f"constant drift requires scale >= 0, got {self.scale}")
        else:
            pairs = tuple((float(t), float(a)) for t, a in self.table)
            if len(pairs) < 2:
                raise DomainError("tabulated drift needs at least two (time, alpha) pairs")
            times = [t for t, _ in pairs]
            if times[0] != 0.0:
                raise DomainError("tabulated times must start at 0")
            if any(t2 <= t1 for t1, t2 in zip(times, times[1:])):
                raise DomainError("tabulated times must be strictly increasing")
            if any(a < 0 for _, a in pairs):
                raise DomainError("tabulated alpha values must be nonnegative")
            object.__setattr__(self, "table", pairs)
            # knot times, knot alphas and A at the knots (exact trapezoids), cached read-only
            times, values = np.array(pairs).T
            knot_cum = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))])
            for name, arr in (("_times", times), ("_values", values), ("_knot_cum", knot_cum)):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @classmethod
    def power(cls, beta, scale=1.0):
        return cls("power", beta=float(beta), scale=float(scale))

    @classmethod
    def exponential(cls, beta, scale=1.0):
        return cls("exponential", beta=float(beta), scale=float(scale))

    @classmethod
    def constant(cls, scale):
        return cls("constant", scale=float(scale))

    @classmethod
    def tabulated(cls, times, values):
        return cls("tabulated", table=tuple(zip(map(float, times), map(float, values))))

    @property
    def is_zero(self):
        """True for the degenerate alpha == 0 case (plain Brownian motion)."""
        if self.family == "constant":
            return self.scale == 0.0
        if self.family == "tabulated":
            return all(a == 0.0 for _, a in self.table)
        return False


@dataclass(frozen=True)
class GrowthReport:
    """Outcome of the numerical probe of the bridge-decay growth conditions."""

    condition_i_holds: bool
    condition_ii_holds: bool
    fitted_decay_exponent: float
    probe_grid: np.ndarray
    worst_ratio: float


def eval_alpha(spec, t):
    """Evaluate alpha(t); accepts scalars or arrays, t >= 0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("alpha(t) is only defined for t >= 0")
    if spec.family == "power":
        out = spec.scale * np.power(arr, spec.beta)
    elif spec.family == "exponential":
        out = spec.scale * np.exp(spec.beta * arr)
    elif spec.family == "constant":
        out = np.full_like(arr, spec.scale)
    else:
        times, values = spec._times, spec._values
        if np.any(arr > times[-1]):
            raise ExtrapolationError(
                f"t beyond tabulated range [0, {times[-1]}]"
            )
        out = np.interp(arr, times, values)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def eval_antiderivative(spec, t):
    """A(t) = int_0^t alpha(u) du, closed form per family.

    The tabulated family integrates its piecewise-linear interpolant exactly
    (trapezoid on the knots plus the partial last segment).
    """
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("A(t) is only defined for t >= 0")
    if spec.family == "tabulated" and np.any(arr > spec._times[-1]):
        raise ExtrapolationError(f"t beyond tabulated range [0, {spec._times[-1]}]")
    out = _antiderivative(spec, arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _antiderivative(spec, arr, out=None):
    """A on an array of times already known to lie in the drift's domain.

    The closed forms are evaluated into out (which may be arr itself), or
    into a new array when out is None; an array passed only as arr is never
    written.
    """
    if spec.family == "power":
        p = spec.beta + 1.0
        out = np.power(arr, p, out=out)
        out *= spec.scale
        out /= p
        return out
    if spec.family == "exponential":
        out = np.expm1(np.multiply(arr, spec.beta, out=out), out=out)
        out *= spec.scale
        out /= spec.beta
        return out
    if spec.family == "constant":
        return np.multiply(arr, spec.scale, out=out)
    times, values = spec._times, spec._values
    idx = np.clip(np.searchsorted(times, arr, side="right") - 1, 0, len(times) - 2)
    a_t = np.interp(arr, times, values)
    return np.add(spec._knot_cum[idx], 0.5 * (values[idx] + a_t) * (arr - times[idx]), out=out)


def running_sup(spec, t):
    """alpha*(t) = sup of alpha over [0, t]."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise DomainError("running sup is only defined for t >= 0")
    if spec.family in ("power", "exponential"):
        out = eval_alpha(spec, arr)  # nondecreasing families
    elif spec.family == "constant":
        out = np.full_like(arr, spec.scale)
    else:
        times, values = spec._times, spec._values
        if np.any(arr > times[-1]):
            raise ExtrapolationError(f"t beyond tabulated range [0, {times[-1]}]")
        knot_max = np.maximum.accumulate(values)
        idx = np.clip(np.searchsorted(times, arr, side="right") - 1, 0, len(times) - 2)
        # piecewise-linear segments attain their sup at an endpoint or at t itself
        out = np.maximum(knot_max[idx], np.interp(arr, times, values))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _inverse_antiderivative(spec, level):
    """Largest u >= 0 with A(u) <= level, or 0 where level <= 0; level is an array.

    Used to truncate integrals whose integrand exp(-(A(hi)-A(u))) has already
    underflowed below u.  Closed form for every family; for the tabulated
    family A is piecewise quadratic, so u is a root of the quadratic on the
    segment that the cumulative knot integrals place the level in.
    """
    positive = np.maximum(level, 0.0)
    if spec.family == "power":
        p = spec.beta + 1.0
        return np.power(positive * p / spec.scale, 1.0 / p)
    if spec.family == "exponential":
        return np.log1p(positive * spec.beta / spec.scale) / spec.beta
    if spec.family == "constant":
        return positive / spec.scale if spec.scale > 0.0 else np.zeros_like(positive)
    times, values = spec._times, spec._values
    k = np.clip(np.searchsorted(spec._knot_cum, level, side="right") - 1, 0, len(times) - 2)
    a0 = values[k]
    slope = (values[k + 1] - a0) / (times[k + 1] - times[k])
    rest = np.maximum(level - spec._knot_cum[k], 0.0)
    # a0 d + slope d^2 / 2 = rest, solved in the form without cancellation
    root = a0 + np.sqrt(np.maximum(a0 * a0 + 2.0 * slope * rest, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.where(rest > 0.0, 2.0 * rest / root, 0.0)
    return np.where(level > 0.0, times[k] + d, 0.0)


def decay_integrals(spec, lo, hi, rate):
    """int_lo^hi exp(-rate * (A(hi) - A(u))) du for arrays of intervals, by adaptive quadrature.

    The integrand is bounded by 1 by construction.  Each range is truncated
    where the integrand has underflowed below exp(-_EXP_CUTOFF), so sharply
    concentrated integrands (explosive drifts at large hi) are resolved instead
    of averaged away, and tabulated drifts are split at their knots.  Each
    panel gets a 16-point Gauss-Legendre rule and the rule on its two halves;
    their difference is the panel's error estimate, and only the panels whose
    estimate exceeds their share of max(_EPSABS, _EPSREL * integral) are
    bisected (QUADPACK's strategy, Piessens et al. 1983).  An interval that
    needs more than _PANEL_BUDGET bisections raises NumericsError carrying
    its estimate and the error bound it reached.  A non-finite hi or rate is
    a DomainError, and an A(hi) that overflows is a NumericsError.

    Every row is reduced on its own, so an interval's result is bit-identical
    whether it is computed alone or in a batch of any size; intervals are
    processed _BATCH at a time, which bounds memory.

    Accuracy floor: A(hi) and A(u) are rounded before they are subtracted, so
    relative accuracy is no better than about rate * A(hi) * 2^-52 whatever
    _EPSREL asks (~1e-9 for exponential(1.5) near t = 10); it is not reported.
    For the exponential family the rounding of beta * u is amplified by
    beta * u, and the error reaches a few times that floor.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if lo.shape != hi.shape:
        lo, hi = np.broadcast_arrays(lo, hi)
    ok = (lo >= 0) & (lo <= hi) & (hi < math.inf)
    if not ok.all():
        bad = np.argmin(ok)
        raise DomainError(f"need 0 <= lo <= hi < inf, got lo={lo.flat[bad]}, hi={hi.flat[bad]}")
    if spec.family == "tabulated" and np.any(hi > spec._times[-1]):
        raise ExtrapolationError(f"t beyond tabulated range [0, {spec._times[-1]}]")
    if not 0 < rate < math.inf:
        raise DomainError(f"rate must be positive and finite, got {rate}")
    flat_lo, flat_hi = lo.ravel(), hi.ravel()
    out = np.empty(flat_lo.shape)
    for i in range(0, len(out), _BATCH):
        out[i : i + _BATCH] = _decay_batch(spec, flat_lo[i : i + _BATCH], flat_hi[i : i + _BATCH], rate)
    return out.reshape(lo.shape)


def _initial_panels(spec, cut, hi):
    """(owner, left edge, width) of each interval's first panels: [cut, hi], split at tabulated knots."""
    if spec.family != "tabulated":
        return np.arange(len(cut)), cut, hi - cut
    times = spec._times
    first = np.searchsorted(times, cut, side="right")
    inside = np.maximum(np.searchsorted(times, hi, side="left") - first, 0)
    owner = np.repeat(np.arange(len(cut)), inside + 1)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(inside + 1) - (inside + 1), inside + 1)
    knot = np.minimum(first[owner] + j, len(times) - 1)
    left = np.where(j == 0, cut[owner], times[knot - 1])
    right = np.where(j == inside[owner], hi[owner], times[knot])
    return owner, left, right - left


def _decay_batch(spec, lo, hi, rate):
    with np.errstate(over="ignore"):
        a_hi = _antiderivative(spec, hi)
    if a_hi.max() == math.inf:
        i = int(np.argmax(a_hi))
        raise NumericsError(f"A(hi) overflows to inf at hi={hi[i]}, so exp(-rate * (A(hi) - A(u))) cannot be formed")
    cut = np.maximum(lo, np.minimum(_inverse_antiderivative(spec, a_hi - _EXP_CUTOFF / rate), hi))
    # a panel's share of the absolute tolerance is its share of the truncated range
    span = np.where(hi > cut, hi - cut, 1.0)
    owner, left, width = _initial_panels(spec, cut, hi)
    count = np.zeros(len(hi), dtype=int)
    value = np.zeros(len(hi))
    error = np.zeros(len(hi))
    whole = None
    while True:
        first = whole is None
        # the weighted integrand w * exp(rate * (A(u) - A(hi))) at every node, in one array
        f = width[:, None, None] * (_WHOLE_AND_HALVES if first else _WHOLE_AND_HALVES[1:])
        f += left[:, None, None]
        _antiderivative(spec, f, out=f)
        f -= a_hi[owner, None, None]
        f *= rate
        np.exp(f, out=f)
        f *= _GL_W
        sums = width[:, None] * f.sum(-1)
        if first:
            whole, sums = sums[:, 0], sums[:, 1:]
        halves = 0.5 * sums
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - whole)
        done = err <= np.maximum(_EPSABS * (width / span[owner]), _EPSREL * fine)
        if first and len(owner) == len(hi) and done.all():
            return fine  # one accepted panel per interval; fine is never -0.0, so it equals 0.0 + fine
        np.add.at(value, owner[done], fine[done])
        np.add.at(error, owner[done], err[done])
        if done.all():
            return value
        split = ~done
        owner = owner[split]
        count += np.bincount(owner, minlength=len(hi))
        if np.any(count > _PANEL_BUDGET):
            i = int(np.argmax(count > _PANEL_BUDGET))
            mine = owner == i
            raise NumericsError(
                f"quadrature did not converge on [{cut[i]}, {hi[i]}] within {_PANEL_BUDGET} bisections",
                estimate=float(value[i] + fine[split][mine].sum()),
                achieved_tol=float(error[i] + err[split][mine].sum()),
            )
        half = 0.5 * width[split]
        left = np.concatenate([left[split], left[split] + half])
        width = np.concatenate([half, half])
        whole = np.concatenate([halves[split, 0], halves[split, 1]])
        owner = np.concatenate([owner, owner])


def decay_integral(spec, lo, hi, rate):
    """int_lo^hi exp(-rate * (A(hi) - A(u))) du for one interval; see decay_integrals."""
    return float(decay_integrals(spec, lo, hi, rate))


def decay_integral_steps(spec, times, rate):
    """Per-step integrals int_{t_k}^{t_{k+1}} exp(-rate*(A(t_{k+1})-A(u))) du on a time grid."""
    times = np.asarray(times, dtype=float)
    return decay_integrals(spec, times[:-1], times[1:], rate)


def laplace_asymptotic_ratio(spec, kappa, t):
    """alpha(t) * int_0^t exp(-kappa*(A(t)-A(s))) ds; tends to 1/kappa as t grows.

    Evaluated entirely in the shifted form with integrand in (0, 1]; the naive
    quotient of exponentials of A would overflow long before the asymptotic
    regime is reached.
    """
    if t <= 0:
        raise DomainError("t must be positive")
    if kappa <= 0:
        raise DomainError("kappa must be positive")
    a_t = eval_alpha(spec, t)
    if a_t <= 0 or spec.is_zero:
        raise DomainError("ratio requires alpha strictly positive on (0, t]")
    if spec.family == "tabulated":
        times, values = spec._times, spec._values
        inside = (times > 0) & (times <= t)
        if np.any(values[inside] <= 0):
            raise DomainError("ratio requires alpha strictly positive on (0, t]")
    return a_t * decay_integral(spec, 0.0, t, kappa)


def check_growth_conditions(spec, gamma, probe_horizon, n_points=48):
    """Probe the two sufficient conditions for the bridge to pin at infinity.

    Condition (i): (alpha*(t+1))**(2*gamma) / alpha(t) decays like a negative
    power of t.  Decided by log-log regression over a log-spaced grid on
    [1, probe_horizon]; pass threshold is a fitted decay exponent > 0.05.
    The probe starts at t = 1 rather than 0 because the conditions only
    constrain the large-time regime (power drifts have alpha'(t)/alpha(t)
    unbounded at 0+ yet are the canonical passing family).

    Condition (ii): |alpha'(t)/alpha(t)| stays bounded, probed by central
    finite differences with step 1e-4 * max(1, t); pass iff the ratio does
    not grow between the first and second half of the grid.
    """
    if probe_horizon < 16:
        raise DomainError("probe_horizon must be at least 16")
    if not (0 <= gamma <= 0.5):
        raise DomainError("gamma must lie in [0, 1/2]")
    grid = np.logspace(0.0, math.log10(probe_horizon), n_points)

    alpha_vals = eval_alpha(spec, grid)
    sup_vals = running_sup(spec, grid + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.power(sup_vals, 2.0 * gamma) / alpha_vals
    usable = np.isfinite(ratio) & (ratio > 0)

    if not np.all(usable):
        cond_i = False
        fitted = float("nan")
        worst = float("inf")
    else:
        from .holder_analysis import loglog_slope  # imported here: holder_analysis imports this module

        slope, _ = loglog_slope(zip(grid, ratio))
        fitted = -slope
        cond_i = fitted > 0.05
        worst = float(ratio.max())

    # condition (ii): secant slopes of log alpha
    if spec.is_zero:
        cond_ii = True  # alpha' == 0 identically
    else:
        step = 1e-4 * np.maximum(1.0, grid)
        hi_t = grid + step
        if spec.family == "tabulated":
            tmax = spec._times[-1]
            hi_t = np.minimum(hi_t, tmax)
        lo_t = np.maximum(grid - step, 0.0)
        d_alpha = (eval_alpha(spec, hi_t) - eval_alpha(spec, lo_t)) / (hi_t - lo_t)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_slope = np.abs(d_alpha / alpha_vals)
        if not np.all(np.isfinite(log_slope)):
            cond_ii = False
        else:
            half = n_points // 2
            cond_ii = log_slope[half:].max() <= 1.05 * log_slope[:half].max() + 1e-9

    return GrowthReport(
        condition_i_holds=bool(cond_i),
        condition_ii_holds=bool(cond_ii),
        fitted_decay_exponent=fitted,
        probe_grid=grid,
        worst_ratio=worst,
    )
