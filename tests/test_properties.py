"""Property-based tests of the law oracle over all four drift families.

The fixed-example tests sample these invariants at a few points; here
hypothesis draws the drift, the grid and the intervals.  Examples are
derandomized so the suite is reproducible run to run.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as si

from bridgelab.drift import DriftSpec, decay_integral, decay_integrals, eval_antiderivative, running_sup
from bridgelab.gaussian_law import build_cov_matrix, conditional_variance, det_by_conditioning, lu_det

HORIZON = 3.0
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def drifts(draw):
    family = draw(st.sampled_from(["power", "exponential", "constant", "tabulated"]))
    if family == "power":
        return DriftSpec.power(draw(st.floats(0.3, 2.5)), draw(st.floats(0.25, 2.0)))
    if family == "exponential":
        return DriftSpec.exponential(draw(st.floats(0.2, 1.5)), draw(st.floats(0.25, 2.0)))
    if family == "constant":
        return DriftSpec.constant(draw(st.one_of(st.just(0.0), st.floats(0.0, 5.0))))
    n = draw(st.integers(2, 8))
    inner = sorted(draw(st.lists(st.floats(0.05, HORIZON - 0.05), min_size=n - 2, max_size=n - 2, unique=True)))
    times = [0.0, *inner, HORIZON]
    if np.any(np.diff(times) <= 1e-3):
        times = list(np.linspace(0.0, HORIZON, n))
    values = draw(st.lists(st.floats(0.0, 6.0), min_size=n, max_size=n))
    return DriftSpec.tabulated(times, values)


@st.composite
def grids(draw, min_gap=0.01):
    """Strictly increasing times in [min_gap, HORIZON] at least min_gap apart."""
    gaps = draw(st.lists(st.floats(min_gap, 1.0), min_size=1, max_size=6))
    times = np.cumsum(gaps)
    return times[times <= HORIZON]


def intervals(n_max):
    pair = st.tuples(st.floats(0.0, HORIZON), st.floats(0.0, HORIZON)).map(sorted)
    return st.lists(pair, min_size=1, max_size=n_max).map(np.array)


def quad_reference(spec, lo, hi, rate):
    """scipy.quad of the same integrand, with breakpoints at the knots and near hi."""
    a_hi = eval_antiderivative(spec, hi)
    points = [hi - d for d in (1e-1, 1e-2, 1e-3) if hi - d > lo]
    if spec.family == "tabulated":
        points += [t for t, _ in spec.table if lo < t < hi]
    return si.quad(
        lambda u: math.exp(-rate * (a_hi - eval_antiderivative(spec, u))), lo, hi,
        points=sorted(points) or None, epsabs=1e-15, epsrel=1e-13, limit=500,
    )[0]


@PROPERTY
@given(drifts(), grids())
def test_covariance_matrix_is_psd(spec, times):
    entries = build_cov_matrix(spec, times).entries
    assert np.array_equal(entries, entries.T)
    assert np.linalg.eigvalsh(entries).min() >= -1e-12 * np.abs(entries).max()


@PROPERTY
@given(drifts(), grids())
def test_lu_determinant_equals_conditioning_determinant(spec, times):
    direct = lu_det(build_cov_matrix(spec, times).entries)
    by_conditioning = det_by_conditioning(spec, times)
    assert abs(direct - by_conditioning) <= 1e-8 * by_conditioning


@PROPERTY
@given(drifts(), intervals(8))
def test_conditional_variance_sandwich(spec, pairs):
    for s, t in pairs:
        cv = conditional_variance(spec, s, t)
        lower = (t - s) * math.exp(-2.0 * running_sup(spec, t) * (t - s))
        assert lower - 1e-12 <= cv <= (t - s) + 1e-12


@PROPERTY
@given(drifts(), intervals(4), st.sampled_from([1.0, 2.0]))
def test_kernel_agrees_with_quad_reference(spec, pairs, rate):
    got = decay_integrals(spec, pairs[:, 0], pairs[:, 1], rate)
    for (lo, hi), value in zip(pairs, got):
        ref = quad_reference(spec, lo, hi, rate)
        assert abs(value - ref) <= 1e-9 * ref + 1e-300


@PROPERTY
@given(drifts(), intervals(40), st.sampled_from([1.0, 2.0, 3.5]))
def test_kernel_batch_is_bit_identical_to_single_calls(spec, pairs, rate):
    batch = decay_integrals(spec, pairs[:, 0], pairs[:, 1], rate)
    single = np.array([decay_integral(spec, lo, hi, rate) for lo, hi in pairs])
    assert batch.tobytes() == single.tobytes()
