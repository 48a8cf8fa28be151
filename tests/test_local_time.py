import math

import numpy as np
import pytest

from bridgelab import simulate
from bridgelab.drift import DriftSpec
from bridgelab.errors import DomainError, UnsupportedSchemeError
from bridgelab.local_time import (
    binned_estimate,
    cauchy_diagnostic,
    growth_probe,
    kernel_ensemble,
    kernel_estimate,
    tanaka_estimate,
)
from bridgelab.simulate import SamplePath, euler_path, exact_path

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)

# deterministic fixed path known to keep all three estimators above 0.1
# with close mutual agreement (see the estimator-consistency check)
GOOD_SEED = 6


def zero_path(T=1.0, h=0.01):
    return euler_path(BRIDGE, T=T, h=h, seed=0, xi=0.0)


def manual_path(values, h):
    """Path with prescribed values; increments faked for estimators that ignore them."""
    n = len(values) - 1
    return SamplePath(
        times=np.arange(n + 1) * h,
        values=np.asarray(values, dtype=float),
        brownian_increments=np.zeros(n),
        scheme="euler",
        seed=0,
        path_index=0,
    )


class TestKernelEstimate:
    def test_pinned_path_accrues_peak_density(self):
        eps = 0.04
        curve = kernel_estimate(zero_path(), 0.0, eps, [1.0])
        assert curve.values[0] == pytest.approx(1.0 / math.sqrt(2 * math.pi * eps), rel=1e-12)

    def test_far_level_sees_nothing(self):
        path = euler_path(BRIDGE, T=0.5, h=1e-3, seed=1)
        assert np.abs(path.values).max() < 5.0
        curve = kernel_estimate(path, 10.0, 0.01, [0.5])
        assert curve.values[0] < 1e-8

    def test_monotone_and_nonnegative(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=2)
        curve = kernel_estimate(path, 0.0, 1e-3, np.linspace(0.0, 1.0, 50))
        assert np.all(curve.values >= 0)
        assert np.all(np.diff(curve.values) >= 0)

    def test_interval_additivity(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=3)
        s, t = 0.4, 0.9
        full = kernel_estimate(path, 0.0, 1e-3, [s, t]).values
        # the trapezoid over [s, t] is the difference of the cumulative curve
        tail = full[1] - full[0]
        y = np.exp(-(path.values**2) / 2e-3) / math.sqrt(2 * math.pi * 1e-3)
        i0, i1 = int(round(s / path.h)), int(round(t / path.h))
        direct = np.trapezoid(y[i0 : i1 + 1], dx=path.h)
        assert tail == pytest.approx(direct, rel=1e-12)

    def test_translation_invariance(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=4)
        x = 0.37
        shifted = manual_path(path.values - x, path.h)
        a = kernel_estimate(path, x, 1e-3, [0.5, 1.0]).values
        b = kernel_estimate(shifted, 0.0, 1e-3, [0.5, 1.0]).values
        np.testing.assert_allclose(a, b, rtol=0, atol=0)

    def test_brownian_ensemble_mean(self):
        # E L_1^0 = int_0^1 (2 pi s)^(-1/2) ds = sqrt(2/pi); smoothing and
        # time discretization bias the estimate a few percent low
        from bridgelab.local_time import _kernel_at_ensemble

        l_vals = _kernel_at_ensemble(BM, 0.0, [1e-4], 1.0, 1e-4, 2000, seed=11)
        target = math.sqrt(2.0 / math.pi)
        assert l_vals.mean() == pytest.approx(target, rel=0.05)

    def test_validation(self):
        path = zero_path()
        with pytest.raises(DomainError):
            kernel_estimate(path, 0.0, 0.0, [0.5])
        with pytest.raises(DomainError):
            kernel_estimate(path, 0.0, 1e-3, [2.0])


class TestBinnedEstimate:
    def test_pinned_path_full_occupation(self):
        curve = binned_estimate(zero_path(), 0.0, 0.1, [1.0])
        assert curve.values[0] == pytest.approx(5.0, rel=1e-12)

    def test_linear_ramp(self):
        h = 1e-4
        values = np.arange(0.0, 1.0 + h / 2, h)  # X_r = r on [0, 1]
        curve = binned_estimate(manual_path(values, h), 0.5, 0.1, [1.0])
        assert curve.values[0] == pytest.approx(1.0, rel=1e-2)

    def test_agrees_with_kernel_on_seeded_path(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-4, seed=GOOD_SEED)
        k = kernel_estimate(path, 0.0, 1e-3, [1.0]).values[0]
        b = binned_estimate(path, 0.0, 0.05, [1.0]).values[0]
        assert abs(k - b) <= 0.10 * max(k, b)

    def test_monotone_nonnegative(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=5)
        curve = binned_estimate(path, 0.0, 0.05, np.linspace(0, 1, 30))
        assert np.all(curve.values >= 0)
        assert np.all(np.diff(curve.values) >= 0)


class TestTanakaEstimate:
    def test_path_bounded_away_telescopes_to_zero(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=6)
        level = float(path.values.min()) - 1.0  # strictly below the path
        curve = tanaka_estimate(path, BRIDGE, level, [1.0])
        assert abs(curve.values[0]) < 1e-9

    def test_zero_noise_path_off_level(self):
        curve = tanaka_estimate(zero_path(), BRIDGE, 1.0, [1.0])
        assert curve.values[0] == 0.0

    def test_agrees_with_kernel_on_seeded_path(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-4, seed=GOOD_SEED)
        k = kernel_estimate(path, 0.0, 1e-3, [1.0]).values[0]
        t = tanaka_estimate(path, BRIDGE, 0.0, [1.0]).values[0]
        assert abs(k - t) <= 0.10 * max(k, t)

    def test_exact_scheme_rejected(self):
        path = exact_path(BRIDGE, T=1.0, h=0.01, seed=0)
        with pytest.raises(UnsupportedSchemeError):
            tanaka_estimate(path, BRIDGE, 0.0, [1.0])

    def test_equals_crossing_accumulation(self):
        # pathwise identity: the estimator telescopes to the bracket sum
        # |X_{k+1}| - |X_k| - sgn(X_k)(X_{k+1} - X_k), which is 2|X_{k+1}| at
        # sign flips, |X_1| for the start exactly at the level, 0 elsewhere.
        # The oracle consumes only path values, never the increments or drift.
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=7)
        v = path.values
        brackets = np.abs(v[1:]) - np.abs(v[:-1]) - np.sign(v[:-1]) * (v[1:] - v[:-1])
        assert np.all(brackets >= -1e-15)
        t = tanaka_estimate(path, BRIDGE, 0.0, [1.0]).values[0]
        assert t == pytest.approx(brackets.sum(), abs=1e-10)


class TestCauchyDiagnostic:
    def test_brownian_ladder_decreases(self):
        diffs = cauchy_diagnostic(BM, 0.0, 1.0, [1e-1, 1e-2, 1e-3, 1e-4], 500, seed=0)
        assert len(diffs) == 3
        assert all(b < a for a, b in zip(diffs, diffs[1:]))

    def test_single_entry_ladder_is_empty(self):
        assert cauchy_diagnostic(BM, 0.0, 1.0, [1e-2], 500, seed=0) == []

    def test_huge_smoothing_flattens_everything(self):
        # both estimates sit near t / sqrt(2 pi eps) ~ 5e-4, so the squared
        # difference is bounded by ~3e-8
        diffs = cauchy_diagnostic(BM, 0.0, 1.0, [1e6, 5e5], 500, seed=0, h=1e-2)
        assert diffs[0] < 1e-7

    def test_validation(self):
        with pytest.raises(DomainError):
            cauchy_diagnostic(BM, 0.0, 1.0, [1e-2, 1e-1], 500, seed=0)
        with pytest.raises(DomainError):
            cauchy_diagnostic(BM, 0.0, 1.0, [1e-1, 1e-2], 100, seed=0)


class TestGrowthProbe:
    def test_brownian_motion_square_root_growth(self):
        # E L_n = sqrt(2 n / pi): exponent 1/2
        horizons = np.arange(1, 17, dtype=float)
        curve, exponent = growth_probe(BM, 0.0, horizons, h=1e-3, n_paths=150, seed=0)
        assert exponent == pytest.approx(0.5, abs=0.06)
        target = np.sqrt(2.0 * horizons / math.pi)
        np.testing.assert_allclose(curve, target, rtol=0.12)

    def test_explosive_drift_grows_fast(self):
        horizons = np.arange(2, 21, dtype=float)
        curve, exponent = growth_probe(
            DriftSpec.power(3.0), 0.0, horizons, h=1e-3, n_paths=100, seed=1, scheme="exact"
        )
        assert np.all(np.diff(curve) > 0)
        assert exponent > 0.3

    def test_validation(self):
        with pytest.raises(DomainError):
            growth_probe(BM, 0.0, [3.0, 2.0], h=1e-3, n_paths=100, seed=0)

    def test_invariant_to_chunk_threads_and_block(self, monkeypatch):
        args = (DriftSpec.power(1.5), 0.0, np.arange(1.0, 4.0), 1e-3, 40, 2)
        ref, _ = growth_probe(*args)
        for chunk, threads in ((7, 1), (16, 3)):
            assert growth_probe(*args, chunk=chunk, threads=threads)[0].tobytes() == ref.tobytes()
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 100)
        assert growth_probe(*args)[0].tobytes() == ref.tobytes()


class TestKernelEnsemble:
    # full-grid curves at eps = h, as the holder_time check uses them
    H = 2.0**-11
    ARGS = (BRIDGE, 0.0, [H], 1.0, H, 12, 5)

    def test_curves_equal_single_path_estimates(self):
        curves = kernel_ensemble(*self.ARGS, steps=range(2049))[:, :, 0]
        for p in (0, 11):
            path = euler_path(BRIDGE, T=1.0, h=self.H, seed=5, path_index=p)
            assert curves[p].tobytes() == kernel_estimate(path, 0.0, self.H, path.times).values.tobytes()

    def test_curves_invariant_to_chunk_threads_and_block(self, monkeypatch):
        ref = kernel_ensemble(*self.ARGS, steps=range(2049))
        for chunk, threads in ((5, 1), (4, 3)):
            got = kernel_ensemble(*self.ARGS, steps=range(2049), chunk=chunk, threads=threads)
            assert got.tobytes() == ref.tobytes()
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 33)
        assert kernel_ensemble(*self.ARGS, steps=range(2049)).tobytes() == ref.tobytes()


class TestCurveMetadata:
    def test_estimator_tags_and_smoothing(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=8)
        k = kernel_estimate(path, 0.0, 1e-3, [1.0])
        b = binned_estimate(path, 0.0, 0.05, [1.0])
        t = tanaka_estimate(path, BRIDGE, 0.0, [1.0])
        assert (k.estimator, b.estimator, t.estimator) == ("kernel", "binned", "tanaka")
        assert k.smoothing == 1e-3 and b.smoothing == 0.05 and t.smoothing is None
        assert k.source_seed == b.source_seed == t.source_seed == 8
