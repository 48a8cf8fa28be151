"""Exact second-order law of the bridge dX = -alpha(t) X dt + dW.

Variances, covariances, conditional variances, covariance matrices on time
grids, determinant identities and bounds, Gaussian absolute moments and the
double-integral second moment of the mollified local time.  Everything is
computed by stable quadrature of exp(-c * (A(t) - A(s))) integrands, all of
them through the one adaptive kernel drift.decay_integrals; this module is
the oracle the simulation schemes are verified against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import drift
from .errors import DomainError, NumericsError

# localtime_second_moment: tolerance on the whole double integral, the most
# tensor panels it may use, and how many panels are evaluated at once
_LT2_EPSABS, _LT2_EPSREL = 1e-10, 1e-9
_LT2_PANEL_BUDGET = 4000
_LT2_BATCH = 16


@dataclass(frozen=True)
class CovarianceMatrix:
    """E(X_{u_i} X_{u_j}) on a strictly increasing grid of positive times.

    times has shape (..., p) and entries (..., p, p): leading axes stack
    independent grids, as passed to build_cov_matrix.
    """

    times: np.ndarray
    entries: np.ndarray


@dataclass(frozen=True)
class DetBounds:
    """lower <= det <= upper; floats for one grid, arrays over the stack for a stack of grids."""

    lower: float
    upper: float
    det: float


def _one_or_stack(values):
    """A float for one grid or one interval, the array itself for a stack; values is a numpy result."""
    return float(values) if values.ndim == 0 else values


def variance(spec, t):
    """Var(X_t) = int_0^t exp(-2 (A(t) - A(s))) ds."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    if t == 0:
        return 0.0
    return drift.decay_integral(spec, 0.0, t, 2.0)


def covariance(spec, s, t):
    """E(X_s X_t) = exp(-(A(s v t) - A(s ^ t))) * Var(X_{s ^ t})."""
    if not (0 <= s < math.inf and 0 <= t < math.inf):
        raise DomainError(f"times must be nonnegative and finite, got s={s}, t={t}")
    lo, hi = min(s, t), max(s, t)
    if lo == 0:
        return 0.0
    gap = drift.eval_antiderivative(spec, hi) - drift.eval_antiderivative(spec, lo)
    return math.exp(-gap) * variance(spec, lo)


def conditional_variance(spec, s, t):
    """Var(X_t | X_s) = int_s^t exp(-2 (A(t) - A(r))) dr for 0 <= s <= t.

    s and t may be arrays, which broadcast against each other; the result is
    then an array, each entry bit-identical to the scalar call.  It is
    exactly 0.0 where s == t: the kernel's panel there has width 0.
    """
    lo, hi = np.asarray(s), np.asarray(t)
    ok = (0 <= lo) & (lo <= hi)
    if not ok.all():
        i = np.argmin(ok)
        lo, hi = np.broadcast_arrays(lo, hi)
        raise DomainError(f"need 0 <= s <= t, got s={lo.flat[i]}, t={hi.flat[i]}")
    return _one_or_stack(drift.decay_integrals(spec, lo, hi, 2.0))


def increment_variance(spec, t1, t2, gamma):
    """E |X_{t2} - X_{t1}|^2 and the modulus bound it is controlled by.

    The variance is computed in the cancellation-free form
    (1 - exp(-dA))^2 Var(lo) + Var(hi | lo); the bound is
    |t2-t1|^(2g) [ (alpha*(hi))^(2g) / alpha(lo) + alpha(hi)^(2g-1) ]
    without its unknown multiplicative constant.  A vanishing alpha(lo)
    (plain Brownian motion) yields bound = inf; the variance is returned
    regardless.
    """
    if not (0 < t1 < math.inf and 0 < t2 < math.inf):
        raise DomainError(f"t1, t2 must be positive and finite, got t1={t1}, t2={t2}")
    if not 0 <= gamma <= 0.5:
        raise DomainError("gamma must lie in [0, 1/2]")
    lo, hi = min(t1, t2), max(t1, t2)
    if lo == hi:
        return 0.0, 0.0
    gap = drift.eval_antiderivative(spec, hi) - drift.eval_antiderivative(spec, lo)
    shrink = -math.expm1(-gap)  # 1 - exp(-gap), stable for small gaps
    var = shrink * shrink * variance(spec, lo) + conditional_variance(spec, lo, hi)

    a_lo = drift.eval_alpha(spec, lo)
    a_hi = drift.eval_alpha(spec, hi)
    a_sup = drift.running_sup(spec, hi)
    dt = hi - lo
    if a_lo == 0.0 or a_hi == 0.0:
        bound = float("inf")
    else:
        bound = dt ** (2 * gamma) * (a_sup ** (2 * gamma) / a_lo + a_hi ** (2 * gamma - 1.0))
    return var, bound


def _validate_grid(times):
    """times as a float array of shape (..., p): the last axis is one grid, leading axes stack grids."""
    arr = np.asarray(times, dtype=float)
    if arr.ndim < 1 or arr.shape[-1] < 1:
        raise DomainError("times must be a nonempty 1-d sequence")
    if (arr[..., 0] <= 0).any():
        raise DomainError("all times must be strictly positive (Var(X_0) = 0 is singular)")
    if (arr[..., 1:] <= arr[..., :-1]).any():
        raise DomainError("times must be strictly increasing")
    return arr


def _with_previous(times):
    """The validated grid(s) and each point's predecessor on its grid, 0 before the first."""
    u = _validate_grid(times)
    prev = np.zeros_like(u)
    prev[..., 1:] = u[..., :-1]
    return u, prev


def build_cov_matrix(spec, times):
    """Covariance matrix of (X_{u_1}, ..., X_{u_p}) on an increasing grid, or on each of a stack of grids."""
    u = _validate_grid(times)
    var = drift.decay_integrals(spec, 0.0, u, 2.0)
    a_vals = drift.eval_antiderivative(spec, u)
    # E(X_{u_i} X_{u_j}) = exp(-(A(u_j) - A(u_i))) Var(X_{u_i}) for i <= j
    upper = np.exp(-np.maximum(a_vals[..., None, :] - a_vals[..., :, None], 0.0)) * var[..., :, None]
    entries = np.triu(upper) + np.triu(upper, 1).swapaxes(-1, -2)
    return CovarianceMatrix(times=u, entries=entries)


def det_by_conditioning(spec, times):
    """det of the covariance matrix as Var(X_{u_1}) * prod of step conditional variances.

    The process is Markov, so conditioning on the whole past reduces to the
    previous grid point; each factor is an independent quadrature, not a
    by-product of the matrix entries.  A float for one grid, an array for a
    stack of grids.
    """
    u, prev = _with_previous(times)
    return _one_or_stack(np.prod(drift.decay_integrals(spec, prev, u, 2.0), axis=-1))


def det_bounds(spec, times):
    """Product-of-gaps sandwich for the covariance determinant, of one grid or of each of a stack."""
    u, prev = _with_previous(times)
    upper = np.prod(u - prev, axis=-1)
    last = u[..., -1]
    rates = -2.0 * drift.running_sup(spec, last) * last
    # math.exp, not np.exp: the two round differently on a few percent of arguments
    decay = np.array([math.exp(r) for r in rates.flat]).reshape(rates.shape)
    return DetBounds(
        lower=_one_or_stack(upper * decay), upper=_one_or_stack(upper), det=det_by_conditioning(spec, u)
    )


def lu_det(matrix):
    """Determinant via LU with partial pivoting (LAPACK), of one matrix or of each of a stack; the direct route."""
    return _one_or_stack(np.linalg.det(np.asarray(matrix, dtype=float)))


def abs_moment(sigma_sq, m):
    """Moments of a centered Gaussian with variance sigma_sq.

    Even m = 2n: (2n)! sigma^(2n) / (2^n n!).  Odd m: returns the signed
    moment, which is 0 (a centered Gaussian has no odd signed moments;
    absolute odd moments are deliberately not provided).
    """
    if sigma_sq < 0:
        raise DomainError("sigma_sq must be nonnegative")
    m = int(m)
    if m < 1:
        raise DomainError("moment order must be >= 1")
    if m % 2 == 1:
        return 0.0
    n = m // 2
    return math.factorial(2 * n) / (2**n * math.factorial(n)) * sigma_sq**n


def _lt2_rules(spec, s0, ds, p0, dp, eps, theta, whole):
    """Tensor Gauss-Legendre values of 2/sqrt(g) on panels [s0, s0+ds] x [p0, p0+dp].

    Columns: the rule on the two halves in s, then on the two halves in phi,
    preceded by the rule on the whole panel when whole is true.  Var(X_r)
    and Var(X_s | X_r) at every node pair and Var(X_s) at every s node come
    from one kernel call; Var(X_s) does not depend on phi, so each s node is
    integrated once and shared by every phi node and rule that uses it.
    """
    groups = drift._WHOLE_AND_HALVES
    s = s0[:, None, None] + ds[:, None, None] * groups  # (panels, 3 node groups, n)
    phi = p0[:, None, None] + dp[:, None, None] * groups
    pairs = ([(0, 0)] if whole else []) + [(1, 0), (2, 0), (0, 1), (0, 2)]
    s_group = [i for i, _ in pairs]
    ss = s[:, s_group, :, None]  # (panels, rules, n, 1)
    pp = np.stack([phi[:, j, None, :] for _, j in pairs], 1)  # (panels, rules, 1, n)
    r = ss * np.sin(pp) ** 2
    s_minus_r = ss * np.cos(pp) ** 2
    n_pairs = r.size
    lo = np.zeros(2 * n_pairs + s.size)
    lo[n_pairs : 2 * n_pairs] = r.ravel()
    hi = np.concatenate([r.ravel(), np.broadcast_to(ss, r.shape).ravel(), s.ravel()])
    var = drift.decay_integrals(spec, lo, hi, 2.0)
    v_r, cvar = var[: 2 * n_pairs].reshape((2,) + r.shape)
    v_s = var[2 * n_pairs :].reshape(s.shape)[:, s_group, :, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (v_r / r) * (cvar / (ss - r)) + (theta * v_r + eps * v_s + eps * theta) / (r * s_minus_r)
        f = np.where(np.isfinite(g) & (g > 0.0), 2.0 / np.sqrt(g), 0.0)
    area = np.array([1.0 if pair == (0, 0) else 0.5 for pair in pairs])
    return (ds * dp)[:, None] * area * (f * drift._GL_W[:, None] * drift._GL_W).sum((-2, -1))


def localtime_second_moment(spec, t, eps, theta):
    """(1/pi) double integral of det(A_{eps,theta}(s, r))^(-1/2) over 0 < r < s < t.

    A_{eps,theta}(s, r) = [[Var(X_s)+theta, Cov(X_r, X_s)],
                           [Cov(X_r, X_s),  Var(X_r)+eps ]].

    theta attaches to the later time s and eps to the earlier r; for
    eps != theta the symmetric product moment E(L_eps L_theta) is the average
    of this value over both assignments (they coincide when eps == theta).

    With eps = theta = 0 the integrand has inverse-square-root singularities
    at r = 0 and r = s; the inner integral substitutes r = s sin^2(phi),
    which absorbs both exactly (for plain Brownian motion the inner integral
    is the Beta(1/2, 1/2) integral).  The determinant is factored as
    det = Var(r) cvar(r, s) + theta Var(r) + eps Var(s) + eps theta, all
    terms nonnegative, and each factor is normalized by its vanishing rate
    so the transformed integrand 2/sqrt(g) on (s, phi) in [0, t] x [0, pi/2]
    is smooth and bounded.

    The double integral is adaptive tensor-panel cubature.  Each panel gets
    the 16 x 16 Gauss-Legendre rule W and the rules S and P on its two halves
    in s and in phi.  |S - W| and |P - W| estimate the error of each
    direction; a panel is accepted at S + P - W when their sum is within its
    share of the tolerance, and is otherwise bisected in the direction with
    the larger error, so boundary layers along one edge are refined in one
    direction only.  Panels are evaluated _LT2_BATCH at a time, so memory
    stays bounded.
    """
    for name, value in (("t", t), ("eps", eps), ("theta", theta)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if t <= 0:
        raise DomainError("t must be positive")
    if eps < 0 or theta < 0:
        raise DomainError("smoothing parameters must be nonnegative")

    full_area = t * (math.pi / 2.0)
    s0, ds = np.zeros(1), np.full(1, float(t))
    p0, dp = np.zeros(1), np.full(1, math.pi / 2.0)
    whole = None
    total, total_err, n_panels = 0.0, 0.0, 1
    while len(s0):
        parts = []
        for k in range(0, len(s0), _LT2_BATCH):
            batch = slice(k, k + _LT2_BATCH)
            parts.append(_lt2_rules(spec, s0[batch], ds[batch], p0[batch], dp[batch], eps, theta, whole is None))
        sums = np.concatenate(parts)
        if whole is None:
            whole, sums = sums[:, 0], sums[:, 1:]
        err_s = np.abs(sums[:, 0] + sums[:, 1] - whole)
        err_p = np.abs(sums[:, 2] + sums[:, 3] - whole)
        fine = sums.sum(1) - whole
        err = err_s + err_p
        done = err <= np.maximum(_LT2_EPSABS * ds * dp / full_area, _LT2_EPSREL * np.abs(fine))
        total += float(fine[done].sum())
        total_err += float(err[done].sum())
        split = ~done
        n_panels += int(split.sum())
        if n_panels > _LT2_PANEL_BUDGET:
            raise NumericsError(
                f"local-time double integral did not converge within {_LT2_PANEL_BUDGET} panels",
                estimate=(total + float(fine[split].sum())) / math.pi,
                achieved_tol=(total_err + float(err[split].sum())) / math.pi,
            )
        in_s = (err_s >= err_p)[split]
        s0, ds, p0, dp, sums = s0[split], ds[split], p0[split], dp[split], sums[split]
        ds, dp = np.where(in_s, 0.5 * ds, ds), np.where(in_s, dp, 0.5 * dp)
        s0 = np.concatenate([s0, s0 + np.where(in_s, ds, 0.0)])
        p0 = np.concatenate([p0, p0 + np.where(in_s, 0.0, dp)])
        ds, dp = np.tile(ds, 2), np.tile(dp, 2)
        whole = np.concatenate([np.where(in_s, sums[:, 0], sums[:, 2]), np.where(in_s, sums[:, 1], sums[:, 3])])
    return total / math.pi
