import math

import numpy as np
import pytest

from bridgelab.drift import DriftSpec
from bridgelab.errors import DomainError, InsufficientDataError
from bridgelab.holder_analysis import (
    _nested_sup_increments,
    level_sweep,
    loglog_slope,
    space_modulus,
    time_modulus,
    time_modulus_bound_fit,
)
from bridgelab.local_time import LocalTimeCurve

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)


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

    def test_doubling_subadditivity(self):
        rng = np.random.default_rng(4)
        rough = np.abs(np.cumsum(rng.standard_normal(4097))) * 0.01
        curve = LocalTimeCurve(0.0, np.linspace(0, 1, 4097), rough, "kernel", 1e-3, 0)
        scales = 2.0 ** -np.arange(3, 10)
        profile = time_modulus(curve, scales)
        sups = profile.sup_increments  # decreasing scale order
        for j in range(len(scales) - 1):
            assert sups[j] <= 2.0 * sups[j + 1] + 1e-12


class TestTimeModulusBoundFit:
    def test_constant_curve_gives_zero(self):
        curve = make_curve(lambda t: np.full_like(t, 2.0))
        assert time_modulus_bound_fit(curve, 1.0, DriftSpec.constant(1.0)) == 0.0

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

    def test_chunking_invariance(self):
        rng = np.random.default_rng(8)
        values = np.cumsum(rng.standard_normal(2001)) * 0.02
        x = np.linspace(-1, 1, 33)
        a = level_sweep(values, 1e-3, x, 1e-3, time_chunk=100)
        b = level_sweep(values, 1e-3, x, 1e-3, time_chunk=10**6)
        np.testing.assert_allclose(a, b, rtol=1e-13)


class TestSpaceModulus:
    def test_degenerate_path_is_smooth(self):
        # L(x) proportional to p_eps(x) is C^1, so at scales well below the
        # kernel width the increments are linear in the scale: slope near 1
        eps = 0.09
        x = np.linspace(-1, 1, 257)
        profile_values = level_sweep(np.zeros(1025), 1.0 / 1024, x, eps)
        dx = x[1] - x[0]
        lags = [2, 4, 8]
        sups = _nested_sup_increments(profile_values, lags)
        slope, _ = loglog_slope(zip(np.array(lags) * dx, sups))
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_bridge_ensemble_slope_sane(self):
        x = np.linspace(-1, 1, 129)
        profile = space_modulus(BRIDGE, 1.0, x, n_paths=8, h=2.0**-13, seed=0, eps=1e-4)
        assert 0.25 < profile.fitted_slope < 0.75
        assert np.all(np.diff(profile.sup_increments) <= 1e-15)

    def test_grid_coarser_than_scale_rejected(self):
        x = np.linspace(-1, 1, 17)
        with pytest.raises(DomainError):
            space_modulus(BRIDGE, 1.0, x, n_paths=2, h=2.0**-8, seed=0, eps=1e-3, scales=[1e-3])

    def test_nonuniform_grid_rejected(self):
        x = np.concatenate([np.linspace(-1, 0, 9), np.linspace(0.1, 1, 9)])
        with pytest.raises(DomainError):
            space_modulus(BRIDGE, 1.0, x, n_paths=2, h=2.0**-8, seed=0, eps=1e-3)
