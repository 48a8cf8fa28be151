import math
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.random import Generator, Philox

from bridgelab import local_time, simulate
from bridgelab.drift import DriftSpec, decay_integral_steps, eval_alpha, eval_antiderivative
from bridgelab.errors import DomainError, NumericsError
from bridgelab.gaussian_law import abs_moment, variance
from bridgelab.holder_analysis import space_modulus, time_bound_fits, time_profile
from bridgelab.local_time import kernel_ensemble
from bridgelab.simulate import (
    batch_terminal_stats,
    euler_path,
    exact_path,
    exact_transition_table,
    grid,
    terminal_values,
    transition_table,
)

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)


def flat_ensemble(n_steps, *args, **kwargs):
    """simulate.ensemble on the (ones, ones) table of n_steps steps, Brownian motion's Euler table at h = 1,
    for reducers that never walk it."""
    return simulate.ensemble(BM, range(n_steps + 1), 1.0, "euler", *args, **kwargs)


def grid_snapshots(spec, horizons, h, n_paths, seed, scheme="exact", chunk=None, threads=None):
    """X at the horizons from simulate.ensemble's walk of every grid step, read by a snapshots reducer:
    the walk that terminal_values no longer takes, for tests of the walk itself."""
    steps = simulate.horizon_steps(horizons, h)

    def reduce(idx, blocks):
        return simulate.snapshots(blocks, steps, (len(idx), len(steps)))

    return simulate.ensemble(spec, range(steps[-1] + 1), h, scheme, seed, n_paths, reduce, chunk, threads)


def scalar_scan(decays, noise):
    """walk's blocked scan on Python floats: in each sub-block of _SCAN_STEPS steps, counted from
    step 0, y starts from zero, P is the running product of the decays, and x = y + P * s."""
    x, out = 0.0, []
    for k, (c, dw) in enumerate(zip(decays, noise)):
        if k % simulate._SCAN_STEPS == 0:
            s, y, prod = x, dw, c
        else:
            y, prod = c * y + dw, prod * c
        x = y + prod * s
        out.append(x)
    return out


class TestGrid:
    def test_rounds_horizon_up(self):
        times = grid(1.0, 0.3)
        assert len(times) == 5  # 4 steps of 0.3 cover 1.2 >= 1.0
        assert times[0] == 0.0

    def test_bad_steps(self):
        with pytest.raises(DomainError):
            grid(1.0, 0.0)
        with pytest.raises(DomainError):
            grid(1.0, 2.0)


class TestEulerPath:
    def test_deterministic_replay(self):
        a = euler_path(BRIDGE, T=2.0, h=1e-3, seed=99, path_index=4)
        b = euler_path(BRIDGE, T=2.0, h=1e-3, seed=99, path_index=4)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.brownian_increments, b.brownian_increments)

    def test_distinct_path_indices_differ(self):
        a = euler_path(BRIDGE, T=1.0, h=0.01, seed=7, path_index=0)
        b = euler_path(BRIDGE, T=1.0, h=0.01, seed=7, path_index=1)
        assert not np.array_equal(a.values, b.values)

    def test_recursion_is_bit_reproducible(self):
        # scalar re-derivation of the blocked scan of (1 - h * alpha) * x + dW must match bitwise
        path = euler_path(BRIDGE, T=0.5, h=1e-3, seed=3)
        a = eval_alpha(BRIDGE, path.times[:-1])
        decays = [1.0 - path.h * a[k] for k in range(len(a))]
        expected = scalar_scan(decays, path.brownian_increments)
        assert np.array(expected).tobytes() == path.values[1:].tobytes()

    @pytest.mark.parametrize(
        "spec",
        [BRIDGE, BM, DriftSpec.exponential(1.5), DriftSpec.tabulated([0.0, 1.0, 5.0], [0.5, 2.0, 1.0])],
        ids=["power", "constant", "exponential", "tabulated"],
    )
    def test_euler_table_holds_one_column(self, spec):
        # stds is one read-only value seen through a zero stride; decays is built in place
        times = grid(4.0, 0.005)
        decays, stds = transition_table(spec, range(801), 0.005, "euler")
        assert stds.strides == (0,) and not stds.flags.writeable and stds.shape == decays.shape
        assert stds[0] == math.sqrt(0.005)
        assert decays.tobytes() == (1.0 - 0.005 * eval_alpha(spec, times[:-1])).tobytes()

    def test_block_rows_match_single_paths(self):
        table = transition_table(BRIDGE, range(101), 0.01, "euler")
        block = simulate._trajectories(table, 42, [0, 1, 2])
        for p in range(3):
            single = euler_path(BRIDGE, T=1.0, h=0.01, seed=42, path_index=p)
            assert np.array_equal(block[p], single.values)

    def test_initial_value_and_lengths(self):
        path = euler_path(BRIDGE, T=1.0, h=0.01, seed=0)
        assert path.values[0] == 0.0
        assert len(path.values) == len(path.times) == len(path.brownian_increments) + 1

    def test_stability_warning_for_stiff_drift(self):
        stiff = euler_path(DriftSpec.exponential(1.5), T=4.0, h=0.005, seed=0)
        assert stiff.stability_warning
        tame = euler_path(DriftSpec.exponential(1.5), T=3.0, h=0.005, seed=0)
        assert not tame.stability_warning


class TestExactPath:
    def test_constant_drift_matches_classical_transition(self):
        c, h = 1.5, 0.25
        decays, stds = exact_transition_table(DriftSpec.constant(c), grid(2.0, h))
        np.testing.assert_allclose(decays, math.exp(-c * h), rtol=1e-12)
        np.testing.assert_allclose(
            stds, math.sqrt((1 - math.exp(-2 * c * h)) / (2 * c)), rtol=1e-10
        )

    def test_single_step_std_is_marginal_std(self):
        spec = DriftSpec.power(2.0)
        _, stds = exact_transition_table(spec, grid(3.0, 3.0))
        assert stds[0] ** 2 == pytest.approx(variance(spec, 3.0), rel=1e-9)

    def test_no_increments_retained(self):
        path = exact_path(BRIDGE, T=1.0, h=0.1, seed=0)
        assert path.brownian_increments is None
        assert path.scheme == "exact"

    def test_only_euler_paths_redraw_their_increments(self, monkeypatch):
        # walk keeps no noise: an Euler path redraws its increments once, an exact path not at all
        draws, normals = [], simulate._normals
        monkeypatch.setattr(simulate, "_normals", lambda *args: draws.append(args) or normals(*args))
        exact_path(BRIDGE, T=1.0, h=0.01, seed=3, path_index=2)
        assert draws == []
        euler_path(BRIDGE, T=1.0, h=0.01, seed=3, path_index=2)
        assert draws == [(3, 2, 100)]

    def test_table_is_built_in_place_bit_for_bit(self):
        spec, times = DriftSpec.power(0.8), grid(2.0, 1e-3)
        decays, stds = exact_transition_table(spec, times)
        assert decays.tobytes() == np.exp(-np.diff(eval_antiderivative(spec, times))).tobytes()
        assert stds.tobytes() == np.sqrt(decay_integral_steps(spec, times, 2.0)).tobytes()

    @pytest.mark.parametrize(
        "spec, bound",
        [
            (DriftSpec.power(0.8), 20.0),
            (DriftSpec.exponential(0.5), 20.0),
            (DriftSpec.tabulated([0.0, 0.5, 1.0], [0.0, 2.0, 1.0]), 20.0),
        ],
        ids=["power", "exponential", "tabulated"],
    )
    def test_table_peaks_near_the_16_bytes_per_step_it_holds(self, spec, bound):
        # 2^20 steps, grid excluded.  With columns built out of place the power and exponential tables
        # peaked at 32.0 B per step; a tabulated A evaluated on the whole grid at once peaked at 48.0
        times = np.arange(2**20 + 1) / 2**20
        tracemalloc.start()
        try:
            exact_transition_table(spec, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**20 <= bound

    def test_marginal_variance_every_checkpoint(self):
        # exact scheme matches the quadrature law at all grid nodes (4 SE)
        spec = DriftSpec.power(0.8)
        horizons = np.arange(0.5, 4.01, 0.5)
        vals = terminal_values(spec, horizons, h=0.5, n_paths=20000, seed=123)
        n = vals.shape[0]
        for j, t in enumerate(horizons):
            v = variance(spec, t)
            sample = vals[:, j].var(ddof=1)
            se = v * math.sqrt(2.0 / (n - 1))
            assert abs(sample - v) < 4 * se

    def test_terminal_moments_2_4_6(self):
        spec = DriftSpec.power(2.0)
        vals = terminal_values(spec, [5.0], h=0.25, n_paths=20000, seed=7)[:, 0]
        v = variance(spec, 5.0)
        for m in (2, 4, 6):
            sample = (vals**m).mean()
            se = (vals**m).std(ddof=1) / math.sqrt(len(vals))
            assert abs(sample - abs_moment(v, m)) < 3 * se


class TestEulerVsExact:
    def test_variance_bias_shrinks_with_step(self):
        # the Euler second moment obeys v <- (1 - a h)^2 v + h exactly, so the
        # scheme gap at T is deterministic; it must shrink monotonically as h halves
        spec = DriftSpec.power(0.8)
        T = 5.0
        v_exact = variance(spec, T)
        gaps = []
        for h in (0.4, 0.2, 0.1, 0.05):
            times = grid(T, h)
            a = eval_alpha(spec, times[:-1])
            v = 0.0
            for k in range(len(a)):
                v = (1.0 - a[k] * h) ** 2 * v + h
            gaps.append(abs(v - v_exact))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_coarse_step_sample_agrees(self):
        spec = DriftSpec.power(0.8)
        vals = terminal_values(spec, [5.0], h=0.5, n_paths=20000, seed=5, scheme="euler")[:, 0]
        # compare against the deterministic Euler law, not the exact law
        times = grid(5.0, 0.5)
        a = eval_alpha(spec, times[:-1])
        v = 0.0
        for k in range(len(a)):
            v = (1.0 - a[k] * 0.5) ** 2 * v + 0.5
        se = v * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(vals.var(ddof=1) - v) < 4 * se


class TestBatchStats:
    def test_explosive_drift_decays(self):
        stats = batch_terminal_stats(DriftSpec.power(2.0), [2.0, 4.0, 8.0], 0.25, 1000, 0)
        assert np.all(np.diff(stats.mean_sq) < 0)
        assert stats.n_paths == 1000
        assert len(stats.mean_abs) == len(stats.mean_sq) == len(stats.std_err_sq) == 3

    def test_constant_drift_is_flat_at_stationary_level(self):
        stats = batch_terminal_stats(DriftSpec.constant(1.0), [5.0, 50.0], 0.5, 2000, 3)
        for j in range(2):
            assert abs(stats.mean_sq[j] - 0.5) < 4 * stats.std_err_sq[j]

    def test_brownian_motion_variance_grows_linearly(self):
        stats = batch_terminal_stats(BM, [1.0, 4.0], 0.5, 2000, 4)
        for j, t in enumerate((1.0, 4.0)):
            assert abs(stats.mean_sq[j] - t) < 4 * stats.std_err_sq[j]

    def test_validation(self):
        with pytest.raises(DomainError):
            batch_terminal_stats(BM, [2.0, 1.0], 0.5, 1000, 0)
        with pytest.raises(DomainError):
            batch_terminal_stats(BM, [1.0, 2.0], 0.5, 50, 0)
        with pytest.raises(DomainError):
            terminal_values(BM, [1.05], h=0.5, n_paths=100, seed=0)

    @pytest.mark.parametrize("horizons", [[2.0, 1.0], [-1.0, 1.0]])
    def test_horizon_off_the_grid_rejected(self, horizons):
        # the grid runs to horizons[-1]: a later or negative horizon would read 0.0
        with pytest.raises(DomainError, match="horizons"):
            terminal_values(DriftSpec.power(1.0), horizons, 0.01, 3, 5, scheme="euler")


def euler_chain(decays, h, knots):
    """(D, V) of the Euler chain over each gap between the grid steps knots, one step at a time on Python floats."""
    out = []
    for k0, k1 in zip(knots[:-1], knots[1:]):
        d_gap, v = 1.0, 0.0
        for d in decays[k0:k1].tolist():
            d_gap, v = d_gap * d, d * d * v + h
        out.append((d_gap, v))
    return np.array(out).T


class TestHorizonTable:
    # terminal_values walks one row per gap between distinct horizons, not the step grid
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_terminal_values_are_the_composed_recursion_on_the_stream(self, scheme):
        horizons, rows = [0.0, 0.5, 0.5, 1.25, 3.0], [0, 1, 1, 2, 3]
        got = terminal_values(BRIDGE, horizons, 0.01, 70, 8, scheme, chunk=16)
        decays, stds = transition_table(BRIDGE, np.array([0, 50, 125, 300]), 0.01, scheme)
        for p in range(70):
            x, expected = 0.0, [0.0]
            for d, s, w in zip(decays.tolist(), stds.tolist(), simulate._normals(8, p, 3).tolist()):
                x = d * x + s * w
                expected.append(x)
            assert got[p].tobytes() == np.array(expected)[rows].tobytes()

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_no_step_grid_is_built(self, monkeypatch, scheme):
        # the table is asked for the three knots 0, 1000, 2000; Euler's composition asks
        # for its pieces, none longer than BLOCK_STEPS steps
        table_of, received = simulate.transition_table, []

        def recording(spec, knots, h, scheme):
            received.append(len(knots))
            return table_of(spec, knots, h, scheme)

        monkeypatch.setattr(simulate, "transition_table", recording)
        assert terminal_values(BRIDGE, [1.0, 2.0], 1e-3, 4, 0, scheme).shape == (4, 2)
        assert received[0] == 3 and max(received[1:], default=0) <= simulate.BLOCK_STEPS + 1

    def test_a_one_step_gap_is_the_grid_row(self):
        # knots 0, 1, 3, 4: the composed ladder's rows 0 and 2 are the grid table's rows 0 and 3, bit for bit
        decays, stds = transition_table(BRIDGE, np.array([0, 1, 3, 4]), 0.01, "euler")
        grid_decays, grid_stds = transition_table(BRIDGE, range(5), 0.01, "euler")
        assert decays[[0, 2]].tobytes() == grid_decays[[0, 3]].tobytes()
        assert stds[[0, 2]].tobytes() == grid_stds[[0, 3]].tobytes()

    @pytest.mark.parametrize(
        "spec, h, knots",
        [
            (DriftSpec.power(0.8), 1e-3, [0, 1, 1030, 3000]),
            (DriftSpec.power(2.0), 1e-3, [0, 700, 2600, 4000]),
            (DriftSpec.exponential(1.5), 1e-3, [0, 2500]),
            (DriftSpec.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 0.5, 1.0]), 1e-3, [0, 1500, 3000]),
            (DriftSpec.power(2.0), 0.25, [0, 9, 24]),  # h * alpha > 1 past t = 2: negative decays
        ],
        ids=["power0.8", "power2", "exponential1.5", "tabulated", "negative_decays"],
    )
    def test_composed_euler_table_is_the_step_by_step_chain(self, spec, h, knots):
        decays, stds = transition_table(spec, np.array(knots), h, "euler")
        grid_decays = transition_table(spec, range(knots[-1] + 1), h, "euler")[0]
        chain_d, chain_v = euler_chain(grid_decays, h, knots)
        assert np.all(np.abs(stds**2 - chain_v) <= 1e-13 * chain_v)
        assert np.all(np.abs(decays - chain_d) <= 1e-13 * np.abs(chain_d))  # a decay of 0 at t = 2 is exact

    @pytest.mark.parametrize(
        "spec",
        [
            DriftSpec.power(0.8),
            DriftSpec.power(2.0),
            DriftSpec.exponential(1.5),
            DriftSpec.tabulated([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 0.5, 1.0]),
        ],
        ids=["power0.8", "power2", "exponential1.5", "tabulated"],
    )
    def test_composed_exact_table_holds_the_law(self, spec):
        knots = np.array([0, 50, 125, 300])
        decays, stds = transition_table(spec, knots, 0.01, "exact")
        v = 0.0
        for d, s, k in zip(decays, stds, knots[1:]):
            v = d * d * v + s * s
            assert abs(v / variance(spec, k * 0.01) - 1.0) <= 1e-12

    def test_a_chain_that_leaves_the_floats_is_a_numerics_error(self):
        # Euler decays 1 - h t^2 reach -5000 on power(2) at h = 0.5; an exponential A overflows past t ~ 1419
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericsError, match="^horizons: the euler chain is not finite up to t=100.0$"):
                terminal_values(DriftSpec.power(2.0), [100.0], 0.5, 4, 0, "euler")
            with pytest.raises(NumericsError, match=r"^A\(t\) overflows to inf at t=1500.0$"):
                terminal_values(DriftSpec.exponential(0.5), [1.0, 1500.0], 1.0, 4, 0, "exact")

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_memory_does_not_grow_with_the_horizon_steps(self, scheme):
        # a table on the grid would hold 8.4 MB at 2^20 steps
        def peak(log2_steps):
            tracemalloc.start()
            try:
                terminal_values(BRIDGE, [0.5, 1.0], 2.0**-log2_steps, 64, 0, scheme)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(4)  # first-call allocations
        assert peak(20) <= peak(16) + 2**14


class TestChainVariance:
    @pytest.mark.parametrize(
        "spec, T, h, rel",
        [
            # the oracle's own quadrature is off by up to 1.4e-11 at t = 0.06 .. 0.17 here (see the mpmath test)
            (DriftSpec.power(0.8), 1.0, 0.01, 2e-11),
            (DriftSpec.power(2.0), 8.0, 0.125, 1e-12),
        ],
        ids=["power0.8", "power2"],
    )
    def test_exact_chain_is_the_law_at_every_knot(self, spec, T, h, rel):
        n = simulate.grid_steps(T, h)
        v = simulate.chain_variance(spec, range(n + 1), h, "exact")
        oracle = np.array([variance(spec, k * h) for k in range(1, n + 1)])
        assert v[0] == 0.0 and len(v) == n + 1
        assert np.max(np.abs(v[1:] / oracle - 1.0)) <= rel

    def test_exact_chain_is_the_law_to_1e12_against_mpmath(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        v = simulate.chain_variance(BRIDGE, range(18), 0.01, "exact")
        for k in (6, 8, 17):
            t = mp.mpf(k) / 100
            ref = mp.quad(lambda s: mp.exp(-2 * (t**1.8 - s**1.8) / 1.8), [0, t])
            assert abs(v[k] / float(ref) - 1.0) <= 1e-12

    @pytest.mark.parametrize("h, n", [(0.01, 100), (1e-3, 1000)])
    def test_brownian_euler_chain_is_k_h(self, h, n):
        # one rounding per step: at 10^4 steps the running sum drifts ~1e-13 from k h
        v = simulate.chain_variance(BM, range(n + 1), h, "euler")
        k = np.arange(1, n + 1)
        assert v[0] == 0.0
        assert np.max(np.abs(v[1:] / (k * h) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    @pytest.mark.parametrize(
        "spec, h, n",
        [(DriftSpec.power(0.8), 0.01, 100), (DriftSpec.power(2.0), 0.25, 24)],  # the second has negative decays
        ids=["power0.8", "negative_decays"],
    )
    def test_gapped_knots_are_the_unit_ladder_at_its_knots(self, spec, h, n, scheme):
        # Euler composes the unit steps; an exact row is its own quadrature over the gap, good to ~1e-11
        knots = np.array([0, 3, 10, 11, 17, n])
        gapped = simulate.chain_variance(spec, knots, h, scheme)
        unit = simulate.chain_variance(spec, range(n + 1), h, scheme)[knots]
        assert gapped[0] == unit[0] == 0.0
        assert np.max(np.abs(gapped[1:] / unit[1:] - 1.0)) <= (1e-12 if scheme == "euler" else 1e-11)

    def test_costs_at_most_5_ms_at_10_4_steps(self):
        def cost():
            t0 = time.perf_counter()
            simulate.chain_variance(BM, range(10**4 + 1), 1e-4, "euler")
            return time.perf_counter() - t0

        assert min(cost() for _ in range(5)) <= 5e-3


class TestDeterminismAcrossExecution:
    def test_chunking_does_not_change_results(self):
        a = grid_snapshots(BRIDGE, [2.0], 0.1, 300, 9, chunk=7)
        b = grid_snapshots(BRIDGE, [2.0], 0.1, 300, 9, chunk=4096)
        assert np.array_equal(a, b)

    def test_threads_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(simulate, "_SERIAL_STEPS", 0)  # let the 20-step walk use the threads
        a = grid_snapshots(BRIDGE, [2.0], 0.1, 300, 9, chunk=32, threads=1)
        b = grid_snapshots(BRIDGE, [2.0], 0.1, 300, 9, chunk=32, threads=4)
        assert np.array_equal(a, b)


class TestStreamingEngine:
    def test_exact_recursion_is_bit_reproducible(self):
        # scalar re-derivation of decay * x + std * N, with N the Philox stream
        # keyed by (seed, path_index); 3000 steps cross several time blocks
        spec = DriftSpec.power(2.0)
        path = exact_path(spec, T=3.0, h=1e-3, seed=3, path_index=5)
        decays, stds = exact_transition_table(spec, path.times)
        xi = Generator(Philox(key=np.array([3, 5], dtype=np.uint64))).standard_normal(len(decays))
        expected = scalar_scan(decays, [stds[k] * xi[k] for k in range(len(decays))])
        assert np.array(expected).tobytes() == path.values[1:].tobytes()

    def test_euler_increments_are_scaled_stream_normals(self):
        # simulate._normals is the documented draw of a path's stream; walk must draw the same values
        for path_index in (0, 7):
            path = euler_path(BRIDGE, T=2.5, h=1e-3, seed=11, path_index=path_index)
            n = len(path.brownian_increments)
            expected = math.sqrt(path.h) * simulate._normals(11, path_index, n)
            assert path.brownian_increments.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_length_does_not_change_results(self, monkeypatch, block):
        table = transition_table(BRIDGE, range(201), 0.01, "euler")
        ref = [grid_snapshots(BRIDGE, [0.5, 2.0], 0.01, 40, 4, scheme, chunk=16) for scheme in ("euler", "exact")]
        ref_block = simulate._trajectories(table, 4, [0, 3, 9])
        ref_path = euler_path(BRIDGE, T=2.0, h=0.01, seed=4, path_index=3)
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        for scheme, expected in zip(("euler", "exact"), ref):
            got = grid_snapshots(BRIDGE, [0.5, 2.0], 0.01, 40, 4, scheme, chunk=16)
            assert got.tobytes() == expected.tobytes()
        assert simulate._trajectories(table, 4, [0, 3, 9]).tobytes() == ref_block.tobytes()
        path = euler_path(BRIDGE, T=2.0, h=0.01, seed=4, path_index=3)
        assert path.values.tobytes() == ref_path.values.tobytes()
        assert path.brownian_increments.tobytes() == ref_path.brownian_increments.tobytes()

    @pytest.mark.parametrize("scheme, T", [("euler", 2.5), ("exact", 2.5), ("euler", 0.5)])
    def test_chunk_width_does_not_change_walk(self, scheme, T):
        # widths straddle the 64-path draw slab; 2500 steps end in a partial block, and
        # 500 steps are one block, drawn from one re-keyed generator
        table = transition_table(BRIDGE, range(simulate.grid_steps(T, 1e-3) + 1), 1e-3, scheme)
        ref = [simulate._trajectories(table, 21, [p])[0] for p in range(130)]
        for width in (1, 2, 63, 64, 65, 130):
            for lo in range(0, 130, width):
                values = simulate._trajectories(table, 21, range(lo, min(lo + width, 130)))
                for row, p in enumerate(range(lo, min(lo + width, 130))):
                    assert values[row].tobytes() == ref[p].tobytes()

    def test_walk_steps_at_most_a_tile(self):
        # no walk is wider than an ensemble task: a 257-path walk is refused before it draws
        table = transition_table(BRIDGE, range(101), 0.01, "euler")
        assert simulate._trajectories(table, 5, range(256)).shape == (256, 101)
        with pytest.raises(DomainError, match="path_indices"):
            simulate._trajectories(table, 5, range(257))

    @pytest.mark.parametrize("block", [1, 7, 33, 100])
    def test_walk_blocks_are_whole_sub_blocks(self, monkeypatch, block):
        # any BLOCK_STEPS is taken in whole sub-blocks of the scan; only the last block is cut
        table = transition_table(BRIDGE, range(1001), 1e-3, "euler")
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        blocks = [len(values) for _, values in simulate.walk(table, 5, range(3))]
        assert all(b % simulate._SCAN_STEPS == 0 for b in blocks[:-1])
        assert sum(blocks) == 1000

    def test_walk_reuses_its_block_buffers(self):
        # the documented contract: a yielded block is overwritten by the next one
        table = transition_table(BRIDGE, range(3001), 1e-3, "euler")
        blocks = [values for _, values in simulate.walk(table, 2, range(3))]
        assert len(blocks) == 3
        assert np.shares_memory(blocks[0], blocks[1])
        assert np.shares_memory(blocks[0], blocks[2])

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_default_threads_equal_one_and_three(self, monkeypatch, scheme):
        monkeypatch.setattr(simulate, "_SERIAL_STEPS", 0)  # let the 200-step walk use the threads
        args = (BRIDGE, [0.5, 2.0], 0.01, 70, 13, scheme)
        ref = grid_snapshots(*args, chunk=16, threads=1)
        assert grid_snapshots(*args, chunk=16, threads=3).tobytes() == ref.tobytes()
        assert grid_snapshots(*args, chunk=16).tobytes() == ref.tobytes()
        for cores in (1, 3):
            monkeypatch.setattr(simulate, "_cores", lambda cores=cores: cores)
            assert grid_snapshots(*args, chunk=16).tobytes() == ref.tobytes()

    def test_default_threads_use_every_core_up_to_the_chunks(self, monkeypatch):
        pools = []  # threads each pool run used: its workers and the calling thread

        def pool(max_workers):
            pools.append(max_workers + 1)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(simulate, "_cores", lambda: 8)
        for threads in (None, 2, 1):
            flat_ensemble(simulate.BLOCK_STEPS, 0, 30, lambda idx, _: np.zeros((len(idx), 1)), 10, threads)
        assert pools == [3, 2]  # None: 8 cores capped at 3 chunks; 1 runs without a pool

    def test_short_walks_run_without_a_pool(self, monkeypatch):
        # two threads lose to one on a walk shorter than _SERIAL_STEPS, whatever threads says
        pools = []  # threads each pool run used: its workers and the calling thread

        def pool(max_workers):
            pools.append(max_workers + 1)
            return ThreadPoolExecutor(max_workers)

        monkeypatch.setattr(simulate, "ThreadPoolExecutor", pool)
        monkeypatch.setattr(simulate, "_cores", lambda: 2)
        args = (BRIDGE, [1.0], 0.01, 600, 3, "euler")
        ref = grid_snapshots(*args, threads=1)
        assert grid_snapshots(*args).tobytes() == ref.tobytes()
        assert grid_snapshots(*args, threads=2).tobytes() == ref.tobytes()
        assert pools == []

        def widths(n_paths, n_steps):
            return flat_ensemble(n_steps, 0, n_paths, lambda idx, _: np.array([len(idx)]))

        assert widths(200, simulate._SERIAL_STEPS - 1).tolist() == [200]  # one task, not one per core
        assert widths(600, 1).tolist() == [256, 256, 88]
        assert pools == []
        assert widths(200, simulate._SERIAL_STEPS).tolist() == [100, 100]
        assert pools == [2]

    @pytest.mark.parametrize(
        "steps", [[4, 5, 6, 7], [4, 4, 6], [5, 9, 9, 12], [12, 13], [1, 2, 3, 12]], ids=str
    )
    def test_snapshots_copy_each_step_of_the_tiles(self, steps):
        # tile rows are grid steps 4 .. 7 and 8 .. 11; [4, 4, 6] spans as many rows as it has entries
        block = np.arange(8.0)[:, None] * np.array([1.0, 10.0]) + 4.0
        out = simulate.snapshots([(3, block[:4]), (7, block[4:])], np.array(steps), (2, len(steps)))
        expected = [[k, 10.0 * k - 36.0] if 4 <= k <= 11 else [0.0, 0.0] for k in steps]
        assert out.T.tolist() == expected

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 0, 0), "n_paths"),
            (lambda: kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], 0.01, 0, 0), "n_paths"),
            (lambda: space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 65), 0, 2.0**-8, 0, 1e-3), "n_paths"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 0, chunk=0), "chunk"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 0, threads=0), "threads"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 0, threads=-1), "threads"),
        ],
        ids=["terminal_values", "kernel_ensemble", "space_modulus", "chunk", "threads0", "threads-1"],
    )
    def test_fewer_than_one_path_chunk_or_thread_is_a_domain_error(self, call, name):
        with pytest.raises(DomainError, match=name):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], 0.01, 4, 1.5), "seed"),
            (lambda: kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], 0.01, 2.5, 0), "n_paths"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 1.5), "seed"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 2.5, 0), "n_paths"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 0, chunk=2.5), "chunk"),
            (lambda: terminal_values(BRIDGE, [1.0], 0.01, 4, 0, threads=2.5), "threads"),
            (lambda: space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 65), 4, 0.01, 1.5, 1e-3), "seed"),
            (lambda: space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 65), 2.5, 0.01, 0, 1e-3), "n_paths"),
            (lambda: space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 65), 4, 0.01, 0, 1e-3, threads=2.5), "threads"),
            (lambda: time_profile(BRIDGE, 1.0, 0.01, 4, 1.5, [0.02, 0.04]), "seed"),
            (lambda: time_profile(BRIDGE, 1.0, 0.01, 2.5, 0, [0.02, 0.04]), "n_paths"),
            (lambda: time_bound_fits(BRIDGE, [1.0], 0.01, 4, 1.5), "seed"),
            (lambda: time_bound_fits(BRIDGE, [1.0], 0.01, 2.5, 0), "n_paths"),
        ],
    )
    def test_non_integer_arguments_fail_before_the_table_is_built(self, monkeypatch, call, name):
        # a table of 10^6 exact steps took 0.4 s and 26 MB to build before a fractional n_paths was refused
        def builder(*args):
            raise AssertionError("the transition table was built")

        monkeypatch.setattr(simulate, "transition_table", builder)
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            call()

    def test_lone_chunk_is_returned_without_a_copy(self):
        result = np.zeros((3, 2))
        assert flat_ensemble(simulate.BLOCK_STEPS, 0, 3, lambda idx, _: result, 5) is result

    def test_ensemble_hands_each_task_its_walk(self):
        # 200 paths in four tasks: each reducer reads its own paths' blocks, in grid order
        table = transition_table(BRIDGE, range(2501), 1e-3, "euler")
        values = simulate._trajectories(table, 4, range(200))

        def finals(idx, blocks):
            ends = []
            for k0, v in blocks:
                ends.append(k0 + len(v))
                last = v[-1].copy()
            assert ends == sorted(ends) and ends[-1] == len(table[0])
            return last

        got = simulate.ensemble(BRIDGE, range(2501), 1e-3, "euler", 4, 200, finals, chunk=64)
        assert got.tobytes() == values[:, -1].tobytes()

    def test_ensemble_tasks_are_at_most_a_tile(self, monkeypatch):
        # whatever chunk the caller asks for, no walk steps more than _TILE_PATHS paths at once
        args = (BRIDGE, [0.5, 2.0], 0.01, 40, 6, "exact")
        curve_args = (BRIDGE, 0.1, [1e-2, 1e-3], [0.5, 2.0], 0.01, 40, 6)
        ref = terminal_values(*args, threads=1)
        monkeypatch.setattr(simulate, "_cores", lambda: 1)
        ref_curves = kernel_ensemble(*curve_args)
        monkeypatch.undo()
        widths, walk = [], simulate.walk

        def recording_walk(table, seed, path_indices):
            widths.append(len(path_indices))
            return walk(table, seed, path_indices)

        monkeypatch.setattr(simulate, "walk", recording_walk)
        monkeypatch.setattr(simulate, "_TILE_PATHS", 7)
        assert terminal_values(*args, chunk=4096).tobytes() == ref.tobytes()
        assert sorted(widths) == [5] + [7] * 5
        widths.clear()
        assert kernel_ensemble(*curve_args).tobytes() == ref_curves.tobytes()
        assert sorted(widths) == [5] + [7] * 5

    @pytest.mark.parametrize(
        "n_paths, cores, threads, widths",
        [
            (200, 2, None, [100, 100]),
            (200, 4, None, [67, 67, 66]),
            (200, 8, 2, [100, 100]),
            (200, 2, 1, [200]),
            (127, 2, None, [127]),
            (16, 2, None, [16]),
            (600, 2, None, [256, 256, 88]),
        ],
    )
    def test_small_batches_are_spread_over_the_cores(self, monkeypatch, n_paths, cores, threads, widths):
        # fewer than two tiles of paths: one task per thread, each keeping a 64-path draw slab
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        got = flat_ensemble(simulate.BLOCK_STEPS, 0, n_paths, lambda idx, _: np.array([[len(idx)]]), 4096, threads)
        assert got[:, 0].tolist() == widths

    def test_task_memory_does_not_grow_with_chunk_or_paths(self, monkeypatch):
        # a task's working set is one tile's: chunk=4096 peaks where chunk=256 does, and
        # kernel_ensemble over four tiles of paths where it does over one; its reducer's row
        # tiles add little to the walk blocks that a snapshots reducer holds for the same paths
        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        tile = simulate._TILE_PATHS
        args = (BRIDGE, [2.0], 1e-3, 4 * tile, 0, "euler")
        narrow = peak(lambda: grid_snapshots(*args, chunk=tile, threads=1))
        wide = peak(lambda: grid_snapshots(*args, chunk=4096, threads=1))
        assert abs(wide - narrow) < 0.05 * narrow
        monkeypatch.setattr(simulate, "_cores", lambda: 1)
        walk = peak(lambda: grid_snapshots(BRIDGE, [1.0], 1e-3, tile, 0, "euler", threads=1))
        one = peak(lambda: kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], 1e-3, tile, 0))
        four = peak(lambda: kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], 1e-3, 4 * tile, 0))
        assert four < 1.05 * one
        assert one - walk <= 1.05 * 3 * local_time._TILE_SIZE * 8  # three row-tile buffers

    def test_one_thread_walk_holds_one_block(self):
        # 256 paths x 20 000 Euler steps: the values block, the draw slab and the scan's state;
        # a separate 2 MB noise block read 5.41 MB
        tracemalloc.start()
        try:
            grid_snapshots(BRIDGE, [20.0], 1e-3, simulate._TILE_PATHS, 0, "euler", threads=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.6e6

    def test_calling_thread_runs_tasks(self):
        # a worker's task waits until the calling thread has run one of its own
        main, ran, ident = threading.get_ident(), threading.Event(), []

        def reduce(idx, _):
            ident.append(threading.get_ident())
            if ident[-1] == main:
                ran.set()
            elif not ran.wait(10):
                raise TimeoutError("the calling thread ran no task")
            return np.array([[idx[0]]])

        got = flat_ensemble(simulate.BLOCK_STEPS, 0, 6, reduce, chunk=1, threads=2)
        assert got[:, 0].tolist() == list(range(6))
        assert main in ident and len(set(ident)) == 2

    @pytest.mark.parametrize("raising", ["calling thread", "worker"])
    def test_task_exception_propagates_from_either_thread(self, raising):
        # two tasks on two threads: each holds until the other thread has started one
        main, started = threading.get_ident(), {True: threading.Event(), False: threading.Event()}

        def reduce(idx, _):
            on_main = threading.get_ident() == main
            started[on_main].set()
            if not started[not on_main].wait(10):
                raise TimeoutError("the other thread ran no task")
            if on_main == (raising == "calling thread"):
                raise ValueError(f"task {idx[0]} failed")
            return np.zeros((1, 1))

        with pytest.raises(ValueError, match="task . failed"):
            flat_ensemble(simulate.BLOCK_STEPS, 0, 2, reduce, chunk=1, threads=2)

    def test_threads_take_each_task_once(self):
        # eight threads on 200 one-path tasks, switching every microsecond: an index handed to
        # two threads would run twice, and one lost would leave its row unset
        runs, interval = [], sys.getswitchinterval()

        def reduce(idx, _):
            runs.append(idx[0])
            return np.array([[idx[0]]])

        sys.setswitchinterval(1e-6)
        try:
            got = flat_ensemble(simulate.BLOCK_STEPS, 0, 200, reduce, chunk=1, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(runs) == list(range(200))
        assert got[:, 0].tolist() == list(range(200))

    def test_long_horizon_memory_is_bounded(self):
        # 64 paths x 2e5 steps: the whole-horizon noise alone would take 102 MB
        tracemalloc.start()
        try:
            grid_snapshots(BRIDGE, [2.0], 1e-5, 64, 0, "euler", chunk=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_exact_scheme_long_horizon_memory_is_bounded(self):
        # the transition table is built in fixed batches of steps: O(steps) output, bounded work arrays
        tracemalloc.start()
        try:
            grid_snapshots(BRIDGE, [2.0], 1e-5, 64, 0, "exact", chunk=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
