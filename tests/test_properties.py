"""Property-based tests over all four drift families.

The fixed-example tests sample these invariants at a few points; here
hypothesis draws the drift, the grid, the intervals, the path ensemble and
the config.  Examples are derandomized so the suite is reproducible run to
run.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox
from scipy import integrate as si

from bridgelab import drift, holder_analysis, local_time, simulate

from bridgelab.config import ExperimentConfig, parse_config, to_text
from bridgelab.drift import DriftSpec, decay_integral, decay_integrals, eval_antiderivative, running_sup
from bridgelab.gaussian_law import build_cov_matrix, conditional_variance, det_bounds, det_by_conditioning, lu_det
from bridgelab.simulate import SamplePath, euler_path, exact_path, grid, shift_to_ab, terminal_values

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


@st.composite
def grid_stacks(draw):
    """Grids from `grids`, each cut to the length of the shortest, stacked along a leading axis."""
    stack = draw(st.lists(grids(), min_size=1, max_size=5))
    p = min(map(len, stack))
    return np.array([times[:p] for times in stack])


def same_bits(a, b):
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


@PROPERTY
@given(drifts(), grid_stacks())
def test_stacked_grids_equal_single_grids(spec, stack):
    entries = build_cov_matrix(spec, stack).entries
    lu = lu_det(entries)
    dets = det_by_conditioning(spec, stack)
    bounds = det_bounds(spec, stack)
    for k, times in enumerate(stack):
        one = build_cov_matrix(spec, times).entries
        single = det_bounds(spec, times)
        assert same_bits(entries[k], one)
        assert same_bits(lu[k], lu_det(one))
        assert same_bits(dets[k], det_by_conditioning(spec, times))
        assert same_bits([bounds.lower[k], bounds.upper[k], bounds.det[k]], [single.lower, single.upper, single.det])


@PROPERTY
@given(drifts(), intervals(12))
def test_stacked_conditional_variance_equals_scalar_calls(spec, pairs):
    pairs = np.concatenate([pairs, pairs[:, [1, 1]]])  # and every t paired with itself
    got = conditional_variance(spec, pairs[:, 0], pairs[:, 1])
    assert same_bits(got, [conditional_variance(spec, s, t) for s, t in pairs])
    zeros = got[pairs[:, 0] == pairs[:, 1]]
    assert same_bits(zeros, np.zeros(len(zeros)))


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


@PROPERTY
@given(drifts(), st.lists(st.floats(0.0, HORIZON), min_size=1, max_size=48))
def test_in_place_antiderivative_is_bit_identical(spec, times):
    u = np.array(times).reshape(-1, 1, 1) * np.ones(3)  # a node-shaped array, as the kernel passes
    before = u.copy()
    expected = eval_antiderivative(spec, u)
    fresh = drift._antiderivative(spec, u)
    assert u.tobytes() == before.tobytes()  # out=None never writes the caller's array
    assert fresh.tobytes() == expected.tobytes()
    assert drift._antiderivative(spec, u, out=u) is u
    assert u.tobytes() == expected.tobytes()


@st.composite
def ensembles(draw):
    """A drift, a step h = 2^-j with h * sup alpha <= 1 up to the last horizon, and grid horizons."""
    spec = draw(drifts())
    n_horizons = draw(st.integers(1, 3))
    horizons = np.array(sorted(draw(st.lists(st.integers(1, 12), min_size=n_horizons, max_size=n_horizons, unique=True))))
    horizons = horizons * HORIZON / 12
    j = draw(st.integers(3, 6))
    while 2.0**-j * running_sup(spec, horizons[-1]) > 1.0:
        j += 1
    return spec, horizons, 2.0**-j


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    ensembles(),
    st.sampled_from(["euler", "exact"]),
    st.integers(0, 2**31),
    st.integers(1, 40),
    st.integers(1, 16),
    st.sampled_from([1, 2]),
)
def test_terminal_values_equal_single_paths(ensemble, scheme, seed, n_paths, chunk, threads):
    # chunks of several paths step numpy rows, single paths step Python floats
    spec, horizons, h = ensemble
    got = terminal_values(spec, horizons, h, n_paths, seed, scheme, chunk=chunk, threads=threads)
    steps = np.rint(horizons / h).astype(int)
    one_path = euler_path if scheme == "euler" else exact_path
    for i in range(n_paths):
        single = one_path(spec, horizons[-1], h, seed=seed, path_index=i).values[steps]
        assert got[i].tobytes() == single.tobytes()


endpoints = st.floats(-10.0, 10.0)


@PROPERTY
@given(drifts(), endpoints, endpoints, st.integers(0, 100))
def test_shift_starts_at_a(spec, a, b, seed):
    path = euler_path(spec, HORIZON, 0.05, seed=seed)
    shifted = shift_to_ab(path, a, b, spec)
    assert abs(shifted.values[0] - a) <= 2.0**-51 * (abs(a) + abs(b))


@st.composite
def unbounded_drifts(draw):
    """Drifts with A(t) -> infinity; a tabulated drift cannot be evaluated past its last knot."""
    family = draw(st.sampled_from(["power", "exponential", "constant"]))
    if family == "constant":
        return DriftSpec.constant(draw(st.floats(0.1, 5.0)))
    return getattr(DriftSpec, family)(draw(st.floats(0.3, 2.5)), draw(st.floats(0.25, 2.0)))


@PROPERTY
@given(unbounded_drifts(), endpoints, endpoints)
def test_shift_offset_tends_to_b(spec, a, b):
    # with zero noise the shifted path is the offset b + (a - b) exp(-A(t)) alone
    T = 1.0
    while eval_antiderivative(spec, T) < 40.0:
        T *= 2.0
    times = grid(T, T / 256)
    zero = SamplePath(times, np.zeros(len(times)), np.zeros(len(times) - 1), "euler", seed=0, path_index=0)
    offset = shift_to_ab(zero, a, b, spec).values
    gap = np.abs(offset - b)
    ulp = 2.0**-50 * (abs(a) + abs(b))
    assert np.all(np.diff(gap) <= ulp)
    assert gap[-1] <= abs(a - b) * math.exp(-40.0) + ulp


@pytest.fixture(scope="module")
def table_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("drift") / "alpha.csv"
    path.write_text("time,alpha\n0,0.5\n1,1.5\n3,4\n", encoding="utf-8")
    return str(path)


finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-3, 1e3)
ladder = st.lists(positive, max_size=4).map(tuple)


@st.composite
def configs(draw, table):
    family = draw(st.sampled_from(["power", "exponential", "constant", "tabulated"]))
    h = draw(st.floats(1e-3, 1.0))
    return ExperimentConfig(
        drift_family=family,
        drift_beta=draw(positive) if family in ("power", "exponential") else draw(st.none() | positive),
        drift_scale=draw(positive),
        drift_table=table if family == "tabulated" else None,
        scheme=draw(st.sampled_from(["euler", "exact"])),
        T=h * draw(st.floats(1.0, 1e4)),
        h=h,
        n_paths=draw(st.integers(1, 1000)),  # with T / h <= 1e4 and horizons / h <= 1e6: under the work caps
        seed=draw(st.integers(-(2**63), 2**63)),
        outputs=draw(st.text("abcxyz019_./-", min_size=1, max_size=12)),
        simulate_horizons=draw(ladder),
        law_times=draw(st.lists(positive, max_size=4).map(tuple)),
        localtime_x=draw(finite),
        localtime_eps_ladder=draw(ladder),
        localtime_checkpoints=draw(ladder),
        localtime_delta=draw(st.none() | positive),
        holder_scales=draw(ladder),
        holder_r=draw(positive),
    )


@PROPERTY
@given(st.data())
def test_config_text_round_trips(table_csv, data):
    cfg = data.draw(configs(table_csv))
    assert parse_config(to_text(cfg)) == cfg


_BANDS = {
    "fast": st.floats(-707.0, 0.0),
    "subnormal": st.floats(-746.0, -707.0, exclude_max=True),
    "zero": st.floats(-1e6, -746.0, exclude_max=True),
}


@PROPERTY
@given(
    st.lists(st.floats(1e-8, 10.0), min_size=1, max_size=3),
    st.fixed_dictionaries({band: st.lists(exp, min_size=1, max_size=20) for band, exp in _BANDS.items()}),
    st.lists(st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3),
)
def test_fused_density_equals_plain_formula(eps, exponents, specials):
    # offsets placed so that their exponents under the first eps fall in each band of np.exp;
    # the plain formula exp(-o^2 / (2 eps)) / sqrt(2 pi eps) is written as the one-pass numpy
    # expression it always was, o^2 / (-2 eps) and sqrt(2 pi) sqrt(eps), which fixes NaN signs too
    eps = np.array(eps)
    exps = np.concatenate(list(exponents.values()))
    signs = np.where(np.arange(len(exps)) % 2, 1.0, -1.0)
    offsets = np.concatenate([signs * np.sqrt(-2.0 * eps[0] * exps), specials])
    plain = np.exp((offsets**2)[:, None] / (-2.0 * eps)) / (math.sqrt(2.0 * math.pi) * np.sqrt(eps))
    fused = local_time._gaussian_density(np.square(offsets)[:, None], eps)
    assert fused.tobytes() == plain.tobytes()
    out = np.empty_like(plain)
    assert local_time._gaussian_density(np.square(offsets)[:, None], eps, out) is out
    assert out.tobytes() == plain.tobytes()


_M64 = (1 << 64) - 1
keys = st.integers(-(2**70), 2**70) | st.integers(0, 2**64 - 1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(keys, keys, keys)
def test_stream_equals_keyed_philox(seed, index, other):
    # 3000 normals cross many Philox buffers, and two of walk's 1024-step blocks; a walk of
    # one block re-keys one generator per path instead
    def reference(i):
        return Generator(Philox(key=np.array([seed & _M64, i & _M64], dtype=np.uint64))).standard_normal(3000)

    assert simulate._stream(seed, index).standard_normal(3000).tobytes() == reference(index).tobytes()
    for n in (3000, 1000):
        _, noise = simulate.paths((np.ones(n), np.ones(n)), seed, [index, other, index])
        assert noise[0].tobytes() == noise[2].tobytes() == reference(index)[:n].tobytes()
        assert noise[1].tobytes() == reference(other)[:n].tobytes()


def nested_sup_reference(values, lags):
    """The nested sup by its definition: every lag up to each requested one, NaN propagating."""
    out = []
    for lag in lags:
        best = 0.0
        for l in range(1, min(lag, len(values) - 1) + 1):
            best = np.maximum(best, np.abs(values[l:] - values[:-l]).max())
        out.append(best)
    return np.array(out, dtype=float)


@PROPERTY
@given(st.data(), st.sampled_from(["monotone", "monotone", "infinite", "rough"]))
def test_monotone_fast_path_equals_general_loop(data, kind):
    # a large start turns tiny increments into rounding plateaus, and zero increments make exact ones;
    # lags reach past n / 2 and past the curve's end.  An infinite rise (inf - inf = NaN) and a
    # rough curve take the general loop.
    n = data.draw(st.integers(2, 120), label="n")
    rise = st.sampled_from([0.0, 1e-12, 0.5]) | st.floats(0.0, 1.0)
    rises = data.draw(st.lists(rise, min_size=n - 1, max_size=n - 1), label="rises")
    if kind == "infinite":
        rises[data.draw(st.integers(0, n - 2), label="infinite at")] = math.inf
    start = data.draw(st.sampled_from([0.0, -3.0, 1e6]), label="start")
    values = start + np.concatenate([[0.0], np.cumsum(rises)])
    if kind == "rough":
        values *= np.where(np.arange(n) % 3, 1.0, -1.0)
    else:
        assert np.all(values[1:] >= values[:-1])
    lags = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=4), label="short lags")
    lags += [data.draw(st.integers(max(1, n // 2), 2 * n), label="long lag"), 2 * n + 1]
    lags = data.draw(st.permutations(lags), label="lags")
    with np.errstate(invalid="ignore"):
        got = holder_analysis._nested_sup_increments(values, lags)
        assert got.tobytes() == nested_sup_reference(values, lags).tobytes()


def level_sweep_reference(v, h, x, eps):
    """The sweep of a whole path held at once: pieces of one trapezoid weight array, a mask per piece."""
    w = np.full(len(v), h)
    w[0] = w[-1] = 0.5 * h
    reach = 10.0 * math.sqrt(eps)
    out = np.zeros(len(x))
    for lo in range(0, len(v), holder_analysis._SWEEP_STEPS):
        vb = v[lo : lo + holder_analysis._SWEEP_STEPS]
        near = np.flatnonzero((x >= vb.min() - reach) & (x <= vb.max() + reach))
        out[near] += w[lo : lo + len(vb)] @ np.exp(-((vb[:, None] - x[near]) ** 2) / (2.0 * eps))
    return out / math.sqrt(2.0 * math.pi * eps)


@PROPERTY
@given(st.integers(1, 1500), st.lists(st.integers(1, 700), min_size=1, max_size=6), st.integers(1, 3))
def test_level_sweep_fed_in_any_blocks_equals_one_sweep(n, blocks, n_paths):
    # pieces stay aligned to sample 0 and the last sample keeps its half weight, whatever the blocks
    values = np.cumsum(np.random.default_rng(n).standard_normal((n, n_paths)), axis=0) * 0.05
    x = np.linspace(-1.0, 1.0, 41)
    sweep = holder_analysis._LevelSweep(n_paths, 1e-3, x, 1e-3)
    lo, k = 0, 0
    while lo < n:
        sweep.feed(values[lo : lo + blocks[k % len(blocks)]])
        lo, k = lo + blocks[k % len(blocks)], k + 1
    got = sweep.total()
    for j in range(n_paths):
        reference = level_sweep_reference(values[:, j], 1e-3, x, 1e-3).tobytes()
        assert got[j].tobytes() == holder_analysis.level_sweep(values[:, j], 1e-3, x, 1e-3).tobytes() == reference
