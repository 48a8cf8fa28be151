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
from scipy import integrate

from .errors import DomainError, ExtrapolationError, NumericsError

FAMILIES = ("power", "exponential", "constant", "tabulated")

# exp(-x) for x beyond this is treated as an exact zero when truncating
# integration ranges; the dropped mass is below 1e-26 of the retained one.
_EXP_CUTOFF = 60.0
_QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# mapped to (0, 1)
_GL_X = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


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

    def _knots(self):
        arr = np.asarray(self.table, dtype=float)
        return arr[:, 0], arr[:, 1]


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
        times, values = spec._knots()
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
    if spec.family == "power":
        p = spec.beta + 1.0
        out = spec.scale * np.power(arr, p) / p
    elif spec.family == "exponential":
        out = spec.scale * np.expm1(spec.beta * arr) / spec.beta
    elif spec.family == "constant":
        out = spec.scale * arr
    else:
        times, values = spec._knots()
        if np.any(arr > times[-1]):
            raise ExtrapolationError(f"t beyond tabulated range [0, {times[-1]}]")
        knot_cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(times))]
        )
        idx = np.clip(np.searchsorted(times, arr, side="right") - 1, 0, len(times) - 2)
        t0 = times[idx]
        a0 = values[idx]
        a_t = np.interp(arr, times, values)
        out = knot_cum[idx] + 0.5 * (a0 + a_t) * (arr - t0)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


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
        times, values = spec._knots()
        if np.any(arr > times[-1]):
            raise ExtrapolationError(f"t beyond tabulated range [0, {times[-1]}]")
        knot_max = np.maximum.accumulate(values)
        idx = np.clip(np.searchsorted(times, arr, side="right") - 1, 0, len(times) - 2)
        # piecewise-linear segments attain their sup at an endpoint or at t itself
        out = np.maximum(knot_max[idx], np.interp(arr, times, values))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _inverse_gap(spec, hi, gap):
    """Largest u in [0, hi] with A(hi) - A(u) >= gap, or 0 if none.

    Used to truncate integrals whose integrand exp(-(A(hi)-A(u))) has already
    underflowed below u.
    """
    hi_arr = np.asarray(hi, dtype=float)
    target = eval_antiderivative(spec, hi_arr) - gap
    if spec.family == "power":
        p = spec.beta + 1.0
        u = np.power(np.maximum(target, 0.0) * p / spec.scale, 1.0 / p)
    elif spec.family == "exponential":
        u = np.log1p(np.maximum(target, 0.0) * spec.beta / spec.scale) / spec.beta
    elif spec.family == "constant":
        if spec.scale == 0.0:
            u = np.zeros_like(hi_arr)
        else:
            u = np.maximum(target, 0.0) / spec.scale
    else:
        u = np.zeros_like(hi_arr)
        flat = np.atleast_1d(hi_arr)
        res = np.atleast_1d(u)
        for i, (h, tgt) in enumerate(zip(flat, np.atleast_1d(target))):
            if tgt <= 0:
                res[i] = 0.0
                continue
            lo_b, hi_b = 0.0, float(h)
            for _ in range(80):
                mid = 0.5 * (lo_b + hi_b)
                if eval_antiderivative(spec, mid) < tgt:
                    lo_b = mid
                else:
                    hi_b = mid
            res[i] = lo_b
        u = res.reshape(hi_arr.shape)
    u = np.minimum(u, hi_arr)
    return float(u) if np.isscalar(hi) or hi_arr.ndim == 0 else u


def decay_integral(spec, lo, hi, rate):
    """int_lo^hi exp(-rate * (A(hi) - A(u))) du via adaptive quadrature.

    The integrand is bounded by 1 by construction.  The range is truncated
    where the integrand has underflowed, so sharply concentrated integrands
    (explosive drifts at large hi) are resolved instead of averaged away.
    """
    if not (0 <= lo <= hi):
        raise DomainError(f"need 0 <= lo <= hi, got lo={lo}, hi={hi}")
    if rate <= 0:
        raise DomainError(f"rate must be positive, got {rate}")
    if hi == lo:
        return 0.0
    a_hi = eval_antiderivative(spec, hi)
    cut = max(float(lo), _inverse_gap(spec, hi, _EXP_CUTOFF / rate))

    def integrand(u):
        return math.exp(-rate * (a_hi - eval_antiderivative(spec, u)))

    points = None
    if spec.family == "tabulated":
        times, _ = spec._knots()
        interior = times[(times > cut) & (times < hi)]
        points = list(interior) if len(interior) and len(interior) <= 100 else None

    result = integrate.quad(integrand, cut, hi, points=points, full_output=1, **_QUAD_OPTS)
    value, abserr = result[0], result[1]
    if len(result) > 3:  # ier != 0 appends an explanation message
        raise NumericsError(
            f"quadrature did not converge on [{cut}, {hi}]: {result[3]}",
            estimate=value,
            achieved_tol=abserr,
        )
    return value


def decay_integral_steps(spec, times, rate):
    """Per-step integrals int_{t_k}^{t_{k+1}} exp(-rate*(A(t_{k+1})-A(u))) du.

    Fixed 32-point Gauss-Legendre per step after truncating each step at the
    underflow cutoff; built for transition tables with many steps, where a
    scipy.quad call per step would dominate the runtime.
    """
    times = np.asarray(times, dtype=float)
    lo = times[:-1]
    hi = times[1:]
    cut = np.maximum(lo, _inverse_gap(spec, hi, _EXP_CUTOFF / rate))
    width = hi - cut
    u = cut[:, None] + width[:, None] * _GL_X[None, :]
    expo = rate * (eval_antiderivative(spec, hi)[:, None] - eval_antiderivative(spec, u))
    return width * (np.exp(-expo) @ _GL_W)


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
        times, values = spec._knots()
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
        from .holder_analysis import loglog_slope

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
            tmax = spec._knots()[0][-1]
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
