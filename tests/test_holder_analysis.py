import math
import tracemalloc

import numpy as np
import pytest

from bridgelab import holder_analysis, simulate, verification
from bridgelab.drift import DriftSpec
from bridgelab.errors import DomainError, InsufficientDataError
from bridgelab.holder_analysis import (
    _nested_sup_increments,
    level_sweep,
    loglog_slope,
    space_modulus,
    time_modulus,
    time_modulus_bound_fit,
    time_profile,
)
from bridgelab.local_time import LocalTimeCurve, kernel_ensemble

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)


def lag_sup_reference(values, lag):
    """Max |values[i+lag] - values[i]| by its definition, 0.0 if no pair is lag apart; NaN propagates."""
    return np.abs(values[lag:] - values[: max(0, len(values) - lag)]).max(initial=0.0)


def make_curve(fn, n=2049, T=1.0):
    t = np.linspace(0.0, T, n)
    return LocalTimeCurve(0.0, t, fn(t), "kernel", 1e-3, 0)


class TestLoglogSlope:
    def test_square_root_exact(self):
        h = 2.0 ** -np.arange(3, 10)
        slope, _ = loglog_slope(zip(h, np.sqrt(h)))
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_linear_with_intercept(self):
        h = 2.0 ** -np.arange(3, 10)
        slope, intercept = loglog_slope(zip(h, 3.0 * h))
        assert slope == pytest.approx(1.0, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)

    def test_root_log_modulus_shape(self):
        # f(h) = sqrt(h log(1/h)) over the dyadic ladder: the local slope is
        # (1 - 1/log(1/h)) / 2, i.e. between 0.38 and 0.45 on 2^-6 .. 2^-14,
        # so the fit sits displaced below 1/2 by the log factor
        h = 2.0 ** -np.arange(6, 15)
        vals = np.sqrt(h * np.log(1.0 / h))
        slope, _ = loglog_slope(zip(h, vals))
        local = 0.5 * (1.0 - 1.0 / np.log(1.0 / h))
        assert local.min() - 0.01 < slope < local.max() + 0.01
        assert slope == pytest.approx(0.425, abs=0.01)

    def test_too_few_points(self):
        with pytest.raises(InsufficientDataError):
            loglog_slope([(0.1, 1.0), (0.2, 2.0)])

    def test_zero_values_dropped_with_warning(self):
        pts = [(0.5, 1.0), (0.25, 0.5), (0.125, 0.25), (0.0625, 0.0)]
        with pytest.warns(UserWarning):
            slope, _ = loglog_slope(pts)
        assert slope == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(InsufficientDataError):
            with pytest.warns(UserWarning):
                loglog_slope([(0.5, 0.0), (0.25, 0.0), (0.125, 1.0)])

    def test_warning_counts_nonpositive_and_nan_apart(self):
        h = 2.0 ** -np.arange(3, 9)
        with pytest.warns(UserWarning, match="dropping 1 nonpositive and 2 NaN values"):
            slope, _ = loglog_slope(zip(h, [h[0], 0.0, math.nan, h[3], math.nan, h[5]]))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(DomainError):
            loglog_slope([(0.5, 1.0), (0.0, 1.0), (0.125, 1.0)])


class TestTimeModulus:
    def test_lipschitz_curve(self):
        profile = time_modulus(make_curve(lambda t: t), 2.0 ** -np.arange(3, 8))
        assert profile.fitted_slope == pytest.approx(1.0, abs=1e-9)

    def test_square_root_curve(self):
        profile = time_modulus(make_curve(np.sqrt), 2.0 ** -np.arange(3, 8))
        assert profile.fitted_slope == pytest.approx(0.5, abs=0.01)

    def test_constant_curve_reports_gracefully(self):
        with pytest.warns(UserWarning, match="nonpositive"):
            profile = time_modulus(make_curve(lambda t: np.ones_like(t)), 2.0 ** -np.arange(3, 8))
        assert np.all(profile.sup_increments == 0.0)
        assert math.isnan(profile.fitted_slope)

    def test_scale_below_resolution_rejected(self):
        with pytest.raises(DomainError):
            time_modulus(make_curve(np.sqrt, n=65), [2.0**-10])

    def test_off_grid_scales_rejected(self):
        # rounded, 1.5 spacings would take the lag-2 sup while the profile reports 1.5 spacings
        curve = make_curve(np.sqrt)
        h = curve.checkpoints[1]
        with pytest.raises(DomainError, match="scales must be whole multiples"):
            time_modulus(curve, [1.5 * h, 3 * h, 6 * h])
        assert time_modulus(curve, [2 * h, 3 * h, 6 * h * (1 + 1e-12)]).scales[1] == 3 * h

    def test_descending_checkpoints_rejected(self):
        # a negative spacing made negative lags, and the profile read uninitialized memory
        curve = LocalTimeCurve(0.0, np.linspace(1.0, 0.0, 5), np.linspace(4.0, 0.0, 5), "kernel", 1e-3, 0)
        with pytest.raises(DomainError, match="increasing"):
            time_modulus(curve, [0.25, 0.5, 0.75])

    def test_shift_invariance_and_scaling(self):
        scales = 2.0 ** -np.arange(3, 8)
        base = time_modulus(make_curve(np.sqrt), scales)
        shifted = time_modulus(make_curve(lambda t: np.sqrt(t) + 5.0), scales)
        np.testing.assert_allclose(shifted.sup_increments, base.sup_increments, rtol=1e-12)
        scaled = time_modulus(make_curve(lambda t: 3.0 * np.sqrt(t)), scales)
        assert scaled.fitted_slope == pytest.approx(base.fitted_slope, abs=1e-9)
        assert scaled.fitted_intercept == pytest.approx(
            base.fitted_intercept + math.log(3.0), abs=1e-9
        )

    def test_profile_monotone_in_scale(self):
        rng = np.random.default_rng(3)
        rough = np.cumsum(rng.standard_normal(4097)) * 0.01
        curve = LocalTimeCurve(0.0, np.linspace(0, 1, 4097), rough, "kernel", 1e-3, 0)
        profile = time_modulus(curve, 2.0 ** -np.arange(3, 10))
        assert np.all(np.diff(profile.sup_increments) <= 1e-15)  # scales are decreasing

    @pytest.mark.parametrize("shape", [np.sqrt, lambda t: np.sin(20.0 * t)], ids=["monotone", "rough"])
    def test_nan_sample_propagates(self, shape):
        curve = make_curve(shape, n=65)
        curve.values[40] = math.nan
        sups = _nested_sup_increments(curve.values[None], [1, 2, 4, 8])
        assert np.all(np.isnan(sups))
        with pytest.warns(UserWarning, match="dropping 5 NaN values"):
            profile = time_modulus(curve, 2.0 ** -np.arange(2, 7))
        assert math.isnan(profile.fitted_slope)

    def test_duplicate_lags_get_the_same_sup(self):
        rough = np.sin(np.linspace(0.0, 20.0, 200))
        sups = _nested_sup_increments(rough[None], [4, 2, 4])[0]
        assert sups[0] == sups[2] >= sups[1] > 0.0

    def test_doubling_subadditivity(self):
        rng = np.random.default_rng(4)
        rough = np.abs(np.cumsum(rng.standard_normal(4097))) * 0.01
        curve = LocalTimeCurve(0.0, np.linspace(0, 1, 4097), rough, "kernel", 1e-3, 0)
        scales = 2.0 ** -np.arange(3, 10)
        profile = time_modulus(curve, scales)
        sups = profile.sup_increments  # decreasing scale order
        for j in range(len(scales) - 1):
            assert sups[j] <= 2.0 * sups[j + 1] + 1e-12


class TestTimeProfile:
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    @pytest.mark.parametrize("T, h", [(1.0, 2.0**-10), (1.0, 0.3)], ids=["on_grid", "overshooting_grid"])
    def test_equals_time_modulus_of_the_averaged_curve(self, scheme, T, h):
        # the hand-built recipe it replaces: whole grid, every-step ensemble, averaged LocalTimeCurve
        scales = h * 2.0 ** np.arange(3)
        times = simulate.grid(T, h)
        curves = kernel_ensemble(BRIDGE, 0.0, [h], times, h, 3, 7, scheme)
        curve = LocalTimeCurve(0.0, times, curves[:, :, 0].mean(axis=0), "kernel", h, 7)
        want = time_modulus(curve, scales)
        got = time_profile(BRIDGE, T, h, 3, 7, scales, scheme)
        assert got.scales.tobytes() == want.scales.tobytes()
        assert got.sup_increments.tobytes() == want.sup_increments.tobytes()
        assert (got.fitted_slope, got.fitted_intercept) == (want.fitted_slope, want.fitted_intercept)

    def test_one_path_peaks_below_18_bytes_per_step(self):
        # the averaged curve (8 B) and the Euler table (8 B) while the path is walked, then the curve and
        # one fixed buffer of lag differences; it peaked at 24.1 B per step with full-length differences,
        # at 33.6 B per step when it also held every path's curve, its steps and a stds column, and at
        # 49.6 B per step before that
        h = 2.0**-18
        tracemalloc.start()
        try:
            time_profile(BRIDGE, 1.0, h, 1, 0, h * 2.0 ** np.arange(2, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 2**18 <= 18.0


def whole_curves(scheme, T, h, n_paths, seed):
    """The grid, and every path's kernel local time at level 0, eps = h, at every step: what the streams replace."""
    times = simulate.grid(T, h)
    curves = kernel_ensemble(BRIDGE, 0.0, [h], times, h, n_paths, seed, scheme)
    return times, curves[:, :, 0]


class TestStreamedTimeStatistics:
    H = 2.0**-10  # 1024 steps, past simulate._SERIAL_STEPS, so the patched core count reaches ensemble
    SCALES = H * 2.0 ** np.arange(0, 9, 2)

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("n_paths", [1, 16, 64])
    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_profile_equals_the_mean_curve(self, monkeypatch, scheme, n_paths, cores):
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        times, curves = whole_curves(scheme, 1.0, self.H, n_paths, 5)
        want = time_modulus(LocalTimeCurve(0.0, times, curves.mean(axis=0), "kernel", self.H, 5), self.SCALES)
        got = time_profile(BRIDGE, 1.0, self.H, n_paths, 5, self.SCALES, scheme)
        assert got.sup_increments.tobytes() == want.sup_increments.tobytes()
        assert (got.fitted_slope, got.fitted_intercept) == (want.fitted_slope, want.fitted_intercept)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_profile_of_100_paths_sums_by_64_path_task(self, monkeypatch, cores):
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        times, curves = whole_curves("euler", 1.0, self.H, 100, 5)
        mean = curves[:64].sum(axis=0)
        mean += curves[64:].sum(axis=0)
        mean /= 100
        want = time_modulus(LocalTimeCurve(0.0, times, mean, "kernel", self.H, 5), self.SCALES)
        got = time_profile(BRIDGE, 1.0, self.H, 100, 5, self.SCALES)
        assert got.sup_increments.tobytes() == want.sup_increments.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("n_paths", [1, 16, 64])
    def test_bound_fits_equal_the_curve_fits(self, monkeypatch, n_paths, cores):
        monkeypatch.setattr(simulate, "_cores", lambda: cores)
        horizons = [0.25, 0.75, 1.0]
        times, curves = whole_curves("euler", 1.0, self.H, n_paths, 5)
        got = holder_analysis.time_bound_fits(BRIDGE, horizons, self.H, n_paths, 5)
        assert got.shape == (n_paths, 3)
        for j, T in enumerate(horizons):
            n = simulate.grid_steps(T, self.H) + 1
            cut = [LocalTimeCurve(0.0, times[:n], row[:n], "kernel", self.H, 5) for row in curves]
            want = np.array([time_modulus_bound_fit(c, T, BRIDGE) for c in cut])
            assert got[:, j].tobytes() == want.tobytes()

    @pytest.mark.parametrize("piece", [1, 5, 64, 1000])
    def test_lag_sups_equal_the_definition_at_any_step(self, monkeypatch, piece):
        monkeypatch.setattr(holder_analysis, "_LAG_PIECE", 1)  # a max(lags) = 64 window, shifted ten times
        rng = np.random.default_rng(piece)
        curves = np.cumsum(rng.standard_normal((3, 700)), axis=1)
        curves[2, 300] = math.nan
        lags = [1, 2, 4, 8, 16, 32, 64]
        sups = holder_analysis._LagSups(curves[:, 0], lags)
        for lo in range(1, 700, piece):
            sups.feed(curves[:, lo : lo + piece].T)
            k = min(lo + piece, 700) - 1
            if k == 699 or rng.random() < 0.1:
                want = [[lag_sup_reference(c[: k + 1], lag) for lag in lags] for c in curves]
                np.testing.assert_array_equal(sups.taken(), want)

    def test_check_holder_time_peaks_below_5_mb(self):
        # with every path's curve at every step it held two (16, 65537) arrays and peaked at 11.6 MB
        tracemalloc.start()
        try:
            verification.check_holder_time(0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e6


class TestTimeModulusBoundFit:
    def test_constant_curve_gives_zero(self):
        curve = make_curve(lambda t: np.full_like(t, 2.0))
        assert time_modulus_bound_fit(curve, 1.0, DriftSpec.constant(1.0)) == 0.0

    def test_nan_sample_propagates(self):
        curve = make_curve(np.sqrt)
        curve.values[1000] = math.nan
        assert math.isnan(time_modulus_bound_fit(curve, 1.0, DriftSpec.constant(1.0)))

    def test_square_root_curve_bounded_by_inverse_root_two(self):
        # sup |sqrt(s+eta) - sqrt(s)| = sqrt(eta); bracket has the sqrt(2 eta)
        # growth term for alpha* = 1, so every ratio is below 1/sqrt(2)
        curve = make_curve(np.sqrt)
        fitted = time_modulus_bound_fit(curve, 1.0, DriftSpec.constant(1.0))
        # direct maximization oracle over the same dyadic pairs
        t = curve.checkpoints
        oracle = 0.0
        lag = 1
        growth = math.sqrt(2.0)
        while lag * (t[1] - t[0]) < 1.0 and lag < len(t):
            eta = lag * (t[1] - t[0])
            sup = np.abs(np.sqrt(t[lag:]) - np.sqrt(t[:-lag])).max()
            oracle = max(oracle, sup / (math.sqrt(eta) * (growth + math.sqrt(math.log(1 / eta)))))
            lag *= 2
        assert fitted == pytest.approx(oracle, rel=1e-12)
        assert fitted <= 1.0 / math.sqrt(2.0) + 1e-12


class TestLevelSweep:
    def test_pinned_path_reproduces_gaussian_profile(self):
        # a path stuck at 0 makes L(x) = t * p_eps(x)
        eps = 0.01
        x = np.linspace(-1, 1, 101)
        values = np.zeros(513)
        out = level_sweep(values, 1.0 / 512, x, eps)
        expected = np.exp(-(x**2) / (2 * eps)) / math.sqrt(2 * math.pi * eps)
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_matches_kernel_estimate_per_level(self):
        from bridgelab.local_time import kernel_estimate
        from bridgelab.simulate import euler_path

        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=5)
        x = np.linspace(-0.5, 0.5, 9)
        sweep = level_sweep(path.values, path.h, x, 1e-2)
        for j, level in enumerate(x):
            single = kernel_estimate(path, level, 1e-2, [path.horizon]).values[0]
            assert sweep[j] == pytest.approx(single, rel=1e-12)

    def test_truncated_sweep_matches_dense_reference(self):
        from bridgelab.simulate import euler_path

        path = euler_path(BRIDGE, T=1.0, h=2.0**-13, seed=11)
        x = np.linspace(-1, 1, 257)
        eps = 4e-5
        w = np.full(len(path.values), path.h)
        w[0] = w[-1] = 0.5 * path.h
        dense = w @ np.exp(-((path.values[:, None] - x) ** 2) / (2 * eps)) / math.sqrt(2 * math.pi * eps)
        np.testing.assert_allclose(level_sweep(path.values, path.h, x, eps), dense, rtol=0, atol=1e-13)

    def test_unsorted_levels_rejected(self):
        with pytest.raises(DomainError, match="nondecreasing"):
            level_sweep(np.zeros(10), 0.1, [0.0, 1.0, 0.5], 1e-2)

    @pytest.mark.parametrize("at", [0, 300, 1024, 2000], ids=["first", "inner", "piece_start", "last"])
    def test_nan_sample_makes_its_path_nan_at_every_level(self, at):
        # a NaN sample used to drop its whole piece: a pinned path read 2.99 at x = 0 against 3.99
        x = np.linspace(-1, 1, 65)
        values = np.zeros(2001)
        values[at] = math.nan
        assert np.all(np.isnan(level_sweep(values, 1e-3, x, 1e-3)))
        rng = np.random.default_rng(at)
        paths = np.cumsum(rng.standard_normal((2001, 3)), axis=0) * 0.02
        paths[at, 1] = math.nan
        sweep = holder_analysis._LevelSweep(3, 1e-3, x, 1e-3)
        for lo in range(0, 2001, 700):
            sweep.feed(paths[lo : lo + 700])
        got = sweep.total()
        assert np.all(np.isnan(got[1]))
        for j in (0, 2):
            assert got[j].tobytes() == level_sweep(paths[:, j], 1e-3, x, 1e-3).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["inf", "-inf"])
    def test_infinite_sample_adds_nothing(self, sign):
        # as in kernel_estimate, whose kernel at an infinite sample is exp(-inf) = 0
        from bridgelab.local_time import kernel_estimate
        from bridgelab.simulate import SamplePath

        h, eps = 1e-3, 1e-3
        x = np.linspace(-0.5, 0.5, 9)
        rng = np.random.default_rng(4)
        paths = np.cumsum(rng.standard_normal((1500, 2)), axis=0) * 0.02
        paths[[10, 1024, 1499], 0] = sign * math.inf
        sweep = holder_analysis._LevelSweep(2, h, x, eps)
        sweep.feed(paths[:1100])
        sweep.feed(paths[1100:])
        got = sweep.total()
        assert got[0].tobytes() == level_sweep(paths[:, 0], h, x, eps).tobytes()
        path = SamplePath(np.arange(1500) * h, paths[:, 0], None, "euler", 0, 0)
        for j, level in enumerate(x):
            single = kernel_estimate(path, level, eps, [path.horizon]).values[0]
            assert got[0, j] == pytest.approx(single, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("n_paths", [5, 100], ids=["pieces_grouped", "paths_sliced"])
    def test_paths_swept_together_equal_paths_swept_alone(self, n_paths):
        # a group holds 64 columns at 257 levels: 5 paths share it across pieces, 100 are cut into slices
        rng = np.random.default_rng(n_paths)
        paths = np.cumsum(rng.standard_normal((2500, n_paths)), axis=0) * 0.01
        x = np.linspace(-1, 1, 257)
        sweep = holder_analysis._LevelSweep(n_paths, 1e-3, x, 4e-5)
        sweep.feed(paths)
        got = sweep.total()
        for j in range(n_paths):
            assert got[j].tobytes() == level_sweep(paths[:, j], 1e-3, x, 4e-5).tobytes()

    def test_chunking_invariance(self, monkeypatch):
        rng = np.random.default_rng(8)
        values = np.cumsum(rng.standard_normal(2001)) * 0.02
        x = np.linspace(-1, 1, 33)
        monkeypatch.setattr(holder_analysis, "_SWEEP_STEPS", 100)
        a = level_sweep(values, 1e-3, x, 1e-3)
        monkeypatch.setattr(holder_analysis, "_SWEEP_STEPS", 10**6)
        b = level_sweep(values, 1e-3, x, 1e-3)
        np.testing.assert_allclose(a, b, rtol=1e-13)


class TestSpaceModulus:
    @pytest.mark.parametrize("lags", [[64, 1, 2, 700, 64], [2, 5000, 20000]], ids=["short", "past_the_end"])
    @pytest.mark.parametrize("kind", ["rough", "monotone"])
    def test_rows_at_once_equal_one_row_at_a_time(self, kind, lags):
        # 4 rows of 6000 samples take short lags in a 4096-sample window, which shifts, and one row
        # in a single pass; a NaN row sends monotone rows down the general path, which must give
        # their fast-path bits
        rng = np.random.default_rng(11)
        rows = np.cumsum(rng.standard_normal((4, 6000)) ** (2 if kind == "monotone" else 1), axis=1)
        rows[2, 1234] = math.nan
        got = _nested_sup_increments(rows, lags)
        want = np.concatenate([_nested_sup_increments(row[None], lags) for row in rows])
        assert got.flags.c_contiguous and got.shape == (4, len(lags))
        assert np.all(np.isnan(got[2])) and np.all(got[[0, 1, 3]] > 0.0)
        assert got.tobytes() == want.tobytes()

    def test_degenerate_path_is_smooth(self):
        # L(x) proportional to p_eps(x) is C^1, so at scales well below the
        # kernel width the increments are linear in the scale: slope near 1
        eps = 0.09
        x = np.linspace(-1, 1, 257)
        profile_values = level_sweep(np.zeros(1025), 1.0 / 1024, x, eps)
        dx = x[1] - x[0]
        lags = [2, 4, 8]
        sups = _nested_sup_increments(profile_values[None], lags)[0]
        slope, _ = loglog_slope(zip(np.array(lags) * dx, sups))
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_bridge_ensemble_slope_sane(self):
        x = np.linspace(-1, 1, 129)
        profile = space_modulus(BRIDGE, 1.0, x, n_paths=8, h=2.0**-13, seed=0, eps=1e-4)
        assert 0.25 < profile.fitted_slope < 0.75
        assert np.all(np.diff(profile.sup_increments) <= 1e-15)

    def test_memory_grows_only_by_the_transition_table(self):
        # paths are swept block by block, never kept: what grows is the (decays, stds) table,
        # 16 B per step once built; fixed costs cancel in the difference
        peaks = []
        for log2_steps in (12, 16):
            tracemalloc.start()
            try:
                space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 65), n_paths=16, h=2.0**-log2_steps, seed=0, eps=1e-3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (2**16 - 2**12) < 24.0

    @pytest.mark.parametrize("scheme", ["euler", "exact"])
    def test_streamed_sweeps_equal_whole_path_sweeps(self, monkeypatch, scheme):
        # 70 paths span three tasks; 1000 steps end in a partial sweep piece and a partial walk block
        x = np.linspace(-1, 1, 65)
        h, eps = 1e-3, 1e-3
        table = simulate.transition_table(BRIDGE, range(1001), h, scheme)
        values = simulate._trajectories(table, 3, range(70))
        monkeypatch.setattr(simulate, "_TILE_PATHS", 32)
        profile = space_modulus(BRIDGE, 1.0, x, n_paths=70, h=h, seed=3, eps=eps, scheme=scheme)
        lags = [int(round(s / (x[1] - x[0]))) for s in profile.scales]
        whole = np.mean([_nested_sup_increments(level_sweep(v, h, x, eps)[None], lags)[0] for v in values], axis=0)
        assert profile.sup_increments.tobytes() == whole.tobytes()

    def test_scales_are_the_dyadic_ladder(self):
        # dx, 2 dx, 4 dx, ... up to a quarter of the span, and at least three
        for n_levels, n_scales in ((257, 7), (17, 3)):
            x = np.linspace(-1, 1, n_levels)
            profile = space_modulus(BRIDGE, 1.0, x, n_paths=2, h=2.0**-8, seed=0, eps=1e-3)
            assert profile.scales.tolist() == [(x[1] - x[0]) * 2.0**k for k in range(n_scales)][::-1]

    def test_nonuniform_grid_rejected(self):
        x = np.concatenate([np.linspace(-1, 0, 9), np.linspace(0.1, 1, 9)])
        with pytest.raises(DomainError):
            space_modulus(BRIDGE, 1.0, x, n_paths=2, h=2.0**-8, seed=0, eps=1e-3)

    @pytest.mark.parametrize(
        "h, x, eps, message",
        [
            (0.01, np.linspace(-1, 1, 33), math.nan, "^eps must be positive"),
            (0.01, np.linspace(-1, 1, 33), -1.0, "^eps must be positive"),
            (math.nan, np.linspace(-1, 1, 33), 1e-3, "^h must be positive"),
            (0.01, np.linspace(1, -1, 33), 1e-3, "^levels must be nondecreasing"),
        ],
        ids=["nan_eps", "negative_eps", "nan_h", "decreasing_levels"],
    )
    def test_bad_sweep_arguments_are_refused_before_the_table_is_built(self, monkeypatch, h, x, eps, message):
        # the sweep refused eps only inside the first task, after the whole table was built
        def refuse_to_build(*args):
            raise AssertionError("the transition table was built")

        monkeypatch.setattr(simulate, "transition_table", refuse_to_build)
        with pytest.raises(DomainError, match=message):
            space_modulus(BRIDGE, 1.0, x, 2, h, 0, eps)
