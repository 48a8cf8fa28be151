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
from bridgelab.simulate import euler_path, exact_path

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
def test_ensemble_snapshots_equal_single_paths(ensemble, scheme, seed, n_paths, chunk, threads):
    # a one-path chunk steps the same scan as a chunk of several paths, over every grid step
    spec, horizons, h = ensemble
    steps = np.rint(horizons / h).astype(int)

    def reduce(idx, blocks):
        return simulate.snapshots(blocks, steps, (len(idx), len(steps)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simulate, "_SERIAL_STEPS", 0)  # let these short walks use the threads
        got = simulate.ensemble(spec, range(steps[-1] + 1), h, scheme, seed, n_paths, reduce, chunk, threads)
    one_path = euler_path if scheme == "euler" else exact_path
    for i in range(n_paths):
        single = one_path(spec, horizons[-1], h, seed=seed, path_index=i).values[steps]
        assert got[i].tobytes() == single.tobytes()


def sequential(decays, noise):
    """x <- decay * x + noise, one step at a time on Python floats."""
    x, out = 0.0, []
    for c, dw in zip(decays.tolist(), noise.tolist()):
        x = c * x + dw
        out.append(x)
    return np.array(out)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(ensembles(), st.sampled_from(["euler", "exact"]), st.integers(0, 2**31), st.integers(0, 3), st.data())
def test_scan_bits_do_not_depend_on_block_or_width(ensemble, scheme, seed, finer, data):
    # each path's bits are the same for any BLOCK_STEPS and any chunk around it, and they are
    # the sequential recursion's up to rounding; up to 1536 steps cross 1024 and many sub-blocks
    spec, horizons, h = ensemble
    fine = h / 2**finer
    table = simulate.transition_table(spec, range(simulate.grid_steps(horizons[-1], fine) + 1), fine, scheme)
    n_paths = data.draw(st.integers(1, 70))
    ref_values = simulate._trajectories(table, seed, range(n_paths))
    blocks = data.draw(st.lists(st.integers(1, 3 * simulate._SCAN_STEPS + 5), min_size=1, max_size=3)) + [1024]
    for block in blocks:
        width = data.draw(st.integers(1, 70))
        lo = data.draw(st.integers(0, n_paths - 1))
        idx = range(lo, min(lo + width, n_paths))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "BLOCK_STEPS", block)
            values = simulate._trajectories(table, seed, idx)
        assert values.tobytes() == ref_values[lo : lo + len(idx)].tobytes()
    for p, values in enumerate(ref_values):
        expected = sequential(table[0], simulate._normals(seed, p, len(table[0])) * table[1])
        assert np.abs(values[1:] - expected).max() <= 1e-12 * np.abs(expected).max()


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
    # expression it always was, o^2 / (-2 eps) and sqrt(2 pi) sqrt(eps), which fixes NaN signs too,
    # with 0.0 wherever the exponent is below -707 (the subnormal band reads 0.0 as well)
    eps = np.array(eps)
    exps = np.concatenate(list(exponents.values()))
    signs = np.where(np.arange(len(exps)) % 2, 1.0, -1.0)
    offsets = np.concatenate([signs * np.sqrt(-2.0 * eps[0] * exps), specials])
    exponent = (offsets**2)[:, None] / (-2.0 * eps)
    plain = np.where(exponent < -707.0, 0.0, np.exp(exponent)) / (math.sqrt(2.0 * math.pi) * np.sqrt(eps))
    fused = local_time._gaussian_density(np.square(offsets)[:, None], eps)
    assert fused.tobytes() == plain.tobytes()
    out = np.empty_like(plain)
    assert local_time._gaussian_density(np.square(offsets)[:, None], eps, out) is out
    assert out.tobytes() == plain.tobytes()


def test_density_flush_boundary():
    # an exponent of exactly -707 keeps exp(-707); the next double below reads 0.0, and so
    # does an infinite offset, while NaN stays NaN
    sq = np.array([1414.0, 2.0 * -np.nextafter(-707.0, -np.inf), np.inf, np.nan])
    dens = local_time._gaussian_density(sq, 1.0)
    assert dens[0] == np.exp(np.array([-707.0]))[0] / math.sqrt(2.0 * math.pi)
    assert dens[0] > 0.0 and dens[1] == 0.0 and dens[2] == 0.0 and math.isnan(dens[3])


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
    for n in (3000, 1000):  # with zero decays, walk's values are its draws
        noise = simulate._trajectories((np.zeros(n), np.ones(n)), seed, [index, other, index])[:, 1:]
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


def nested_sup_per_lag(curves, lags):
    """The nested sups as the per-lag form took them: every lag up to the largest, then a running max."""
    lags = np.minimum(lags, max(1, curves.shape[1] - 1))
    streamed = holder_analysis._LagSups(curves[:, 0], range(1, lags.max() + 1))
    streamed.feed(curves[:, 1:].T)
    per_lag = streamed.taken()
    return np.ascontiguousarray(np.maximum.accumulate(per_lag, axis=1)[:, lags - 1])


@PROPERTY
@given(st.data(), st.lists(st.sampled_from(["rough", "monotone", "nan", "inf", "-inf", "both"]), min_size=1, max_size=4))
def test_windowed_ranges_equal_the_per_lag_form(data, kinds):
    # rows of one call: rough and monotone, a NaN, and infinities of one or both signs, one or
    # several and sometimes adjacent, so that a window can hold two equal ones beside finite samples
    n = data.draw(st.integers(1, 150), label="n")
    rows = []
    for kind in kinds:
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
        row = np.cumsum(rng.standard_normal(n) ** (2 if kind == "monotone" else 1)) * 0.1
        row[rng.random(n) < 0.2] = 0.0  # exact ties, and signed zeros once negated
        row *= data.draw(st.sampled_from([1.0, -1.0]), label="flip")
        hits = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4), label="hits")
        if kind == "nan":
            row[hits[0]] = math.nan
        elif kind != "rough" and kind != "monotone":
            for k, at in enumerate(hits):
                row[at] = -math.inf if kind == "-inf" or (kind == "both" and k % 2) else math.inf
        rows.append(row)
    curves = np.array(rows)
    lags = data.draw(st.lists(st.integers(1, 2 * n + 2), min_size=1, max_size=6), label="lags")
    with np.errstate(invalid="ignore"):
        got = holder_analysis._nested_sup_increments(curves, lags)
        assert got.flags.c_contiguous and got.shape == (len(curves), len(lags))
        assert got.tobytes() == nested_sup_per_lag(curves, lags).tobytes()


@PROPERTY
@given(st.data(), st.sampled_from(["monotone", "monotone", "infinite", "rough"]))
def test_ranges_equal_the_definition_on_monotone_rows(data, kind):
    # a large start turns tiny increments into rounding plateaus, and zero increments make exact ones;
    # lags reach past n / 2 and past the curve's end.  An infinite rise (inf - inf = NaN) and a
    # rough curve are held to the definition too.
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
        got = holder_analysis._nested_sup_increments(values[None], lags)[0]
        assert got.tobytes() == nested_sup_reference(values, lags).tobytes()


@PROPERTY
@given(
    st.sampled_from([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
    st.sampled_from([2, 3, 9, 65, 257]),
    st.integers(64, 3000),
    st.floats(-2.0, 2.0),
    st.sampled_from([0.25, 1.0, 4.0]),
    st.integers(0, 2**16),
)
def test_level_sweep_matches_the_dense_sum(ratio, n_levels, n, start, spread, seed):
    # dx / sqrt(eps) from 1/8 to 64 on a grid of exact levels over [-1, 1]; walks that start anywhere in
    # [-2, 2] leave the grid or never reach it, and most levels lie far from every sample
    dx = 2.0 / (n_levels - 1)
    x = -1.0 + dx * np.arange(n_levels)
    eps = (dx / ratio) ** 2
    step = spread * min(dx, math.sqrt(eps))
    v = start + np.cumsum(np.random.default_rng(seed).standard_normal(n)) * step
    v[0] = start
    h = 1.0 / n
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    dense = w @ np.exp(-((v[:, None] - x) ** 2) / (2.0 * eps)) / math.sqrt(2.0 * math.pi * eps)
    got = holder_analysis.level_sweep(v, h, x, eps)
    np.testing.assert_allclose(got, dense, rtol=0, atol=1e-13 * dense.max())


def level_sweep_reference(v, h, x, eps):
    """The sweep of a whole path held at once by nearest-level recurrence, one piece and one offset at a time.

    Each sample goes to its nearest level j, with r = v - (x0 + j dx); its term
    at offset k above is e0 u^k and below e0 d^k, where d = exp(-2 dx c) / u
    (a normal number at the dx and eps used here).  np.add.at sums the terms
    into level bins in sample order, as np.bincount does.  Every offset out to
    m is summed; one past the path's levels adds only zeros.
    """
    n_levels, x0, dx = len(x), x[0], (x[-1] - x[0]) / (len(x) - 1)
    m = min(n_levels - 1, math.ceil(10.0 * math.sqrt(eps) / dx + 0.5))
    c = dx / (2.0 * eps)
    k = np.arange(m + 1.0)
    g = np.exp(-(k * (k - 1.0)) * (dx * c))
    w = np.ones(len(v))
    w[0] = w[-1] = 0.5
    out = np.zeros(n_levels)
    for lo in range(0, len(v), holder_analysis._SWEEP_STEPS):
        vb = v[lo : lo + holder_analysis._SWEEP_STEPS]
        j = np.rint(np.clip((vb - x0) / dx, 0.0, n_levels - 1.0))
        r = vb - (j * dx + x0)
        e0 = np.exp(r * r / (-2.0 * eps)) * w[lo : lo + len(vb)]
        u = np.exp((2.0 * r - dx) * c)
        up, down = np.minimum(u, 1.0), np.minimum(math.exp(-2.0 * dx * c) / u, 1.0)

        def binned(term):
            bins = np.zeros(n_levels)
            np.add.at(bins, j.astype(int), term)
            return bins

        piece = binned(e0)
        for ratio, sign in ((up, 1), (down, -1)):
            term = e0
            for step in range(1, m + 1):
                term = term * ratio
                if sign > 0:
                    piece[step:] += g[step] * binned(term)[: n_levels - step]
                else:
                    piece[: n_levels - step] += g[step] * binned(term)[step:]
        out += piece
    return out * (h / math.sqrt(2.0 * math.pi * eps))


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
