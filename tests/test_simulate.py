import math
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from bridgelab import simulate
from bridgelab.drift import DriftSpec, eval_alpha, eval_antiderivative
from bridgelab.errors import DomainError
from bridgelab.gaussian_law import abs_moment, variance
from bridgelab.simulate import (
    batch_terminal_stats,
    euler_path,
    exact_path,
    exact_transition_table,
    shift_to_ab,
    terminal_values,
    _euler_block,
    _grid,
)

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)


class TestGrid:
    def test_rounds_horizon_up(self):
        times = _grid(1.0, 0.3)
        assert len(times) == 5  # 4 steps of 0.3 cover 1.2 >= 1.0
        assert times[0] == 0.0

    def test_bad_steps(self):
        with pytest.raises(DomainError):
            _grid(1.0, 0.0)
        with pytest.raises(DomainError):
            _grid(1.0, 2.0)


class TestEulerPath:
    def test_zero_noise_hook_gives_zero_path(self):
        path = euler_path(BRIDGE, T=1.0, h=0.01, seed=0, xi=0.0)
        assert np.all(path.values == 0.0)
        assert np.all(path.brownian_increments == 0.0)

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
        # scalar re-derivation of x - (alpha * x) * h + dW must match bitwise
        path = euler_path(BRIDGE, T=0.5, h=1e-3, seed=3)
        a = eval_alpha(BRIDGE, path.times[:-1])
        x = 0.0
        for k, dw in enumerate(path.brownian_increments):
            x = (x - (a[k] * x) * path.h) + dw
            assert x == path.values[k + 1]

    def test_block_rows_match_single_paths(self):
        times = _grid(1.0, 0.01)
        block, dws, _ = _euler_block(BRIDGE, times, 42, [0, 1, 2])
        for p in range(3):
            single = euler_path(BRIDGE, T=1.0, h=0.01, seed=42, path_index=p)
            assert np.array_equal(block[p], single.values)
            assert np.array_equal(dws[p], single.brownian_increments)

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
        decays, stds = exact_transition_table(DriftSpec.constant(c), _grid(2.0, h))
        np.testing.assert_allclose(decays, math.exp(-c * h), rtol=1e-12)
        np.testing.assert_allclose(
            stds, math.sqrt((1 - math.exp(-2 * c * h)) / (2 * c)), rtol=1e-10
        )

    def test_single_step_std_is_marginal_std(self):
        spec = DriftSpec.power(2.0)
        _, stds = exact_transition_table(spec, _grid(3.0, 3.0))
        assert stds[0] ** 2 == pytest.approx(variance(spec, 3.0), rel=1e-9)

    def test_no_increments_retained(self):
        path = exact_path(BRIDGE, T=1.0, h=0.1, seed=0)
        assert path.brownian_increments is None
        assert path.scheme == "exact"

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
            times = _grid(T, h)
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
        times = _grid(5.0, 0.5)
        a = eval_alpha(spec, times[:-1])
        v = 0.0
        for k in range(len(a)):
            v = (1.0 - a[k] * 0.5) ** 2 * v + 0.5
        se = v * math.sqrt(2.0 / (len(vals) - 1))
        assert abs(vals.var(ddof=1) - v) < 4 * se


class TestShift:
    def test_identity_when_endpoints_zero(self):
        path = euler_path(BRIDGE, T=1.0, h=0.01, seed=1)
        shifted = shift_to_ab(path, 0.0, 0.0, BRIDGE)
        assert np.array_equal(shifted.values, path.values)

    def test_starts_at_a(self):
        path = euler_path(BRIDGE, T=1.0, h=0.01, seed=1)
        shifted = shift_to_ab(path, 2.5, -1.0, BRIDGE)
        assert shifted.values[0] == pytest.approx(2.5, abs=1e-14)

    def test_deterministic_offset_oracle(self):
        spec = DriftSpec.power(2.0)
        path = euler_path(spec, T=4.0, h=0.01, seed=2)
        a, b = 1.0, -1.0
        shifted = shift_to_ab(path, a, b, spec)
        offset = b + (a - b) * np.exp(-eval_antiderivative(spec, path.times))
        np.testing.assert_allclose(shifted.values, offset + path.values, rtol=0, atol=1e-14)

    def test_pins_to_b_at_large_horizon(self):
        # the deterministic component of the shift decays below 1e-12 for
        # power(beta=2) once A(T) > 27.6, i.e. T > 4.36
        spec = DriftSpec.power(2.0)
        path = euler_path(spec, T=5.0, h=0.01, seed=2, xi=0.0)
        shifted = shift_to_ab(path, 1.0, -1.0, spec)
        assert abs(shifted.values[-1] - (-1.0)) < 1e-12


class TestBatchStats:
    def test_explosive_drift_decays(self):
        stats = batch_terminal_stats(DriftSpec.power(2.0), [2.0, 4.0, 8.0], 1000, "exact", h=0.25, seed=0)
        assert np.all(np.diff(stats.mean_sq) < 0)
        assert stats.n_paths == 1000
        assert len(stats.mean_abs) == len(stats.mean_sq) == len(stats.std_err_sq) == 3

    def test_constant_drift_is_flat_at_stationary_level(self):
        stats = batch_terminal_stats(DriftSpec.constant(1.0), [5.0, 50.0], 2000, "exact", h=0.5, seed=3)
        for j in range(2):
            assert abs(stats.mean_sq[j] - 0.5) < 4 * stats.std_err_sq[j]

    def test_brownian_motion_variance_grows_linearly(self):
        stats = batch_terminal_stats(BM, [1.0, 4.0], 2000, "exact", h=0.5, seed=4)
        for j, t in enumerate((1.0, 4.0)):
            assert abs(stats.mean_sq[j] - t) < 4 * stats.std_err_sq[j]

    def test_validation(self):
        with pytest.raises(DomainError):
            batch_terminal_stats(BM, [2.0, 1.0], 1000, "exact", h=0.5, seed=0)
        with pytest.raises(DomainError):
            batch_terminal_stats(BM, [1.0, 2.0], 50, "exact", h=0.5, seed=0)
        with pytest.raises(DomainError):
            terminal_values(BM, [1.05], h=0.5, n_paths=100, seed=0)


class TestDeterminismAcrossExecution:
    def test_chunking_does_not_change_results(self):
        a = terminal_values(BRIDGE, [2.0], h=0.1, n_paths=300, seed=9, chunk=7)
        b = terminal_values(BRIDGE, [2.0], h=0.1, n_paths=300, seed=9, chunk=4096)
        assert np.array_equal(a, b)

    def test_threads_do_not_change_results(self):
        a = terminal_values(BRIDGE, [2.0], h=0.1, n_paths=300, seed=9, chunk=32, threads=1)
        b = terminal_values(BRIDGE, [2.0], h=0.1, n_paths=300, seed=9, chunk=32, threads=4)
        assert np.array_equal(a, b)


class TestStreamingEngine:
    def test_exact_recursion_is_bit_reproducible(self):
        # scalar re-derivation of decay * x + std * N, with N the Philox stream
        # keyed by (seed, path_index); 3000 steps cross several time blocks
        spec = DriftSpec.power(2.0)
        path = exact_path(spec, T=3.0, h=1e-3, seed=3, path_index=5)
        decays, stds = exact_transition_table(spec, path.times)
        xi = Generator(Philox(key=np.array([3, 5], dtype=np.uint64))).standard_normal(len(decays))
        x = 0.0
        for k in range(len(decays)):
            x = decays[k] * x + stds[k] * xi[k]
            assert x == path.values[k + 1]

    @pytest.mark.parametrize("block", [1, 7, 10**6])
    def test_block_length_does_not_change_results(self, monkeypatch, block):
        times = _grid(2.0, 0.01)
        ref = [
            terminal_values(BRIDGE, [0.5, 2.0], h=0.01, n_paths=40, seed=4, scheme=scheme, chunk=16)
            for scheme in ("euler", "exact")
        ]
        ref_block = _euler_block(BRIDGE, times, 4, [0, 3, 9])
        ref_path = euler_path(BRIDGE, T=2.0, h=0.01, seed=4, path_index=3)
        monkeypatch.setattr(simulate, "BLOCK_STEPS", block)
        for scheme, expected in zip(("euler", "exact"), ref):
            got = terminal_values(BRIDGE, [0.5, 2.0], h=0.01, n_paths=40, seed=4, scheme=scheme, chunk=16)
            assert got.tobytes() == expected.tobytes()
        for got, expected in zip(_euler_block(BRIDGE, times, 4, [0, 3, 9])[:2], ref_block[:2]):
            assert got.tobytes() == expected.tobytes()
        path = euler_path(BRIDGE, T=2.0, h=0.01, seed=4, path_index=3)
        assert path.values.tobytes() == ref_path.values.tobytes()
        assert path.brownian_increments.tobytes() == ref_path.brownian_increments.tobytes()

    def test_long_horizon_memory_is_bounded(self):
        # 64 paths x 2e5 steps: the whole-horizon noise alone would take 102 MB
        tracemalloc.start()
        try:
            terminal_values(BRIDGE, [2.0], h=1e-5, n_paths=64, seed=0, scheme="euler", chunk=64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
