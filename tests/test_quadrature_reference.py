"""The in-place quadrature rounds against the allocating forms they replaced.

drift._decay_batch evaluates each round in one node array, and
gaussian_law._lt2_rules integrates Var(X_s) once per s node instead of once
per (s, phi) node pair.  Neither may change a bit.  The allocating round,
with its closed forms of A, and the per-pair rule are kept here as
references, and every result is compared with tobytes().
"""

import math

import numpy as np
import pytest

from bridgelab import drift, gaussian_law
from bridgelab.drift import DriftSpec
from bridgelab.errors import NumericsError

HUMP = DriftSpec.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0, 0.5])
# drift and horizon per family, steep enough at the horizon that [0, t] takes several rounds
SPECS = {
    "power": (DriftSpec.power(2.0, scale=1.5), 6.0),
    "exponential": (DriftSpec.exponential(1.2, scale=0.5), 6.0),
    "constant": (DriftSpec.constant(2.5), 40.0),
    "tabulated": (DriftSpec.tabulated([0.0, 1.0, 10.0], [1.0, 4.0, 30.0]), 10.0),
}

# the number of rounds each reference batch took, so the tests can tell single- from multi-round cases
ROUNDS = []


def reference_antiderivative(spec, arr):
    if spec.family == "power":
        p = spec.beta + 1.0
        return spec.scale * np.power(arr, p) / p
    if spec.family == "exponential":
        return spec.scale * np.expm1(spec.beta * arr) / spec.beta
    if spec.family == "constant":
        return spec.scale * arr
    times, values = spec._times, spec._values
    idx = np.clip(np.searchsorted(times, arr, side="right") - 1, 0, len(times) - 2)
    a_t = np.interp(arr, times, values)
    return spec._knot_cum[idx] + 0.5 * (values[idx] + a_t) * (arr - times[idx])


def reference_decay_batch(spec, lo, hi, rate):
    """The kernel's batch with the allocating round and no one-round return."""
    a_hi = reference_antiderivative(spec, hi)
    cut = np.maximum(lo, np.minimum(drift._inverse_antiderivative(spec, a_hi - drift._EXP_CUTOFF / rate), hi))
    span = np.where(hi > cut, hi - cut, 1.0)
    owner, left, width = drift._initial_panels(spec, cut, hi)
    count = np.zeros(len(hi), dtype=int)
    value = np.zeros(len(hi))
    whole = None
    rounds = 0
    while True:
        rounds += 1
        nodes = drift.PANEL_NODES if whole is None else drift.PANEL_NODES[1:]
        u = left[:, None, None] + width[:, None, None] * nodes
        f = np.exp(-rate * (a_hi[owner, None, None] - reference_antiderivative(spec, u)))
        sums = width[:, None] * (f * drift.PANEL_WEIGHTS).sum(-1)
        if whole is None:
            whole, sums = sums[:, 0], sums[:, 1:]
        halves = 0.5 * sums
        fine = halves[:, 0] + halves[:, 1]
        err = np.abs(fine - whole)
        done = err <= np.maximum(drift._EPSABS * (width / span[owner]), drift._EPSREL * fine)
        np.add.at(value, owner[done], fine[done])
        if done.all():
            ROUNDS.append(rounds)
            return value
        split = ~done
        owner = owner[split]
        count += np.bincount(owner, minlength=len(hi))
        if np.any(count > drift._PANEL_BUDGET):
            raise NumericsError("reference did not converge")
        half = 0.5 * width[split]
        left = np.concatenate([left[split], left[split] + half])
        width = np.concatenate([half, half])
        whole = np.concatenate([halves[split, 0], halves[split, 1]])
        owner = np.concatenate([owner, owner])


def reference_lt2_rules(spec, s0, ds, p0, dp, eps, theta, whole):
    """The tensor rules with Var(X_s) integrated once per (s, phi) node pair."""
    groups = drift.PANEL_NODES
    s = s0[:, None, None] + ds[:, None, None] * groups
    phi = p0[:, None, None] + dp[:, None, None] * groups
    pairs = ([(0, 0)] if whole else []) + [(1, 0), (2, 0), (0, 1), (0, 2)]
    ss = np.stack([s[:, i, :, None] for i, _ in pairs], 1)
    pp = np.stack([phi[:, j, None, :] for _, j in pairs], 1)
    r = ss * np.sin(pp) ** 2
    s_minus_r = ss * np.cos(pp) ** 2
    ss, r = np.broadcast_arrays(ss, r)
    zero = np.zeros_like(r)
    v_r, cvar, v_s = drift.decay_integrals(spec, np.stack([zero, r, zero]), np.stack([r, ss, ss]), 2.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = (v_r / r) * (cvar / (ss - r)) + (theta * v_r + eps * v_s + eps * theta) / (r * s_minus_r)
        f = np.where(np.isfinite(g) & (g > 0.0), 2.0 / np.sqrt(g), 0.0)
    area = np.array([1.0 if pair == (0, 0) else 0.5 for pair in pairs])
    return (ds * dp)[:, None] * area * (f * drift.PANEL_WEIGHTS[:, None] * drift.PANEL_WEIGHTS).sum((-2, -1))


def intervals(tmax, kind, n=60):
    rng = np.random.default_rng(7)
    if kind == "short":  # accepted in the first round; the first four straddle t = 1, a tabulated knot
        lo = rng.uniform(0.0, tmax - 0.01, n)
        lo[:4] = 1.0 - 0.002 * np.arange(1, 5)
        return lo, lo + 0.01
    if kind == "long":  # from 0 to far out: several rounds of bisection
        return np.zeros(n), rng.uniform(0.5 * tmax, tmax, n)
    lo = rng.uniform(0.0, tmax, n)  # "empty": lo == hi
    return lo, lo.copy()


@pytest.mark.parametrize("rate", [1.0, 2.0])
@pytest.mark.parametrize("family", sorted(SPECS))
@pytest.mark.parametrize("kind", ["short", "long", "empty"])
def test_kernel_equals_allocating_round(monkeypatch, family, kind, rate):
    spec, tmax = SPECS[family]
    lo, hi = intervals(tmax, kind)
    got = drift.decay_integrals(spec, lo, hi, rate)
    singles = [drift.decay_integral(spec, a, b, rate) for a, b in zip(lo[:5], hi[:5])]
    ROUNDS.clear()
    monkeypatch.setattr(drift, "_decay_batch", reference_decay_batch)
    expected = drift.decay_integrals(spec, lo, hi, rate)
    assert got.tobytes() == expected.tobytes()
    assert np.array(singles).tobytes() == expected[:5].tobytes()
    # the cases exercise what they are named after
    assert ROUNDS[-1] > 1 if kind == "long" else ROUNDS == [1]
    if kind == "empty":
        assert not expected.any()


@pytest.mark.parametrize(
    "spec, t, eps",
    [
        (DriftSpec.power(1.0), 1.0, 1e-1),
        (DriftSpec.power(1.0), 1.0, 1e-2),
        (DriftSpec.power(1.0), 1.0, 1e-3),
        (DriftSpec.constant(0.0), 1.0, 0.0),
        (HUMP, 1.0, 1e-2),
    ],
    ids=["power1-1e-1", "power1-1e-2", "power1-1e-3", "bm-0", "tabulated-1e-2"],
)
def test_second_moment_equals_per_pair_rules(monkeypatch, spec, t, eps):
    got = gaussian_law.localtime_second_moment(spec, t, eps, eps)
    monkeypatch.setattr(drift, "_decay_batch", reference_decay_batch)
    monkeypatch.setattr(gaussian_law, "_lt2_rules", reference_lt2_rules)
    expected = gaussian_law.localtime_second_moment(spec, t, eps, eps)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()
    assert math.isfinite(got) and got > 0.0
