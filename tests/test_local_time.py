import math

import numpy as np
import pytest

from bridgelab import local_time, simulate
from bridgelab.drift import DriftSpec
from bridgelab.errors import DomainError, InsufficientDataError, UnsupportedSchemeError
from bridgelab.local_time import (
    binned_estimate,
    cauchy_diagnostic,
    growth_probe,
    kernel_ensemble,
    kernel_estimate,
    kernel_second_moment,
    tanaka_estimate,
)
from bridgelab.simulate import SamplePath, euler_path, exact_path

BRIDGE = DriftSpec.power(0.8)
BM = DriftSpec.constant(0.0)

# deterministic fixed path known to keep all three estimators above 0.1
# with close mutual agreement (see the estimator-consistency check)
GOOD_SEED = 6


def zero_path(T=1.0, h=0.01):
    return manual_path(np.zeros(len(simulate.grid(T, h))), h)


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
        l_vals = kernel_ensemble(BM, 0.0, [1e-4], [1.0], 1e-4, 2000, seed=11)[:, 0, :]
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
        diffs = cauchy_diagnostic(BM, 0.0, 1.0, [1e6, 5e5], 500, seed=0)
        assert diffs[0] < 1e-7

    def test_validation(self):
        with pytest.raises(DomainError):
            cauchy_diagnostic(BM, 0.0, 1.0, [1e-2, 1e-1], 500, seed=0)
        with pytest.raises(DomainError):
            cauchy_diagnostic(BM, 0.0, 1.0, [1e-1, 1e-2], 100, seed=0)


class TestKernelSecondMoment:
    def test_rows_are_kernel_ensembles_squares_and_binned_boxes(self, monkeypatch):
        # the probe's per-path rows: L^2 bit for bit from kernel_ensemble, B the binned estimate at delta = 2 sqrt(eps)
        ensemble, rows = simulate.ensemble, []
        monkeypatch.setattr(simulate, "ensemble", lambda *args: rows.append(ensemble(*args)) or rows[-1])
        x, eps, t, h, n_paths, seed = 0.1, 1e-3, 2.5, 1e-3, 40, 3
        kernel_second_moment(BM, x, eps, t, h, n_paths, seed)
        l_vals = kernel_ensemble(BM, x, [eps], [t], h, n_paths, seed)[:, 0, 0]
        assert rows[0][:, 0].tobytes() == np.square(l_vals).tobytes()
        for p in range(n_paths):
            path = euler_path(BM, T=t, h=h, seed=seed, path_index=p)
            box = binned_estimate(path, x, 2.0 * math.sqrt(eps), [t]).values[0]
            assert rows[0][p, 1] == pytest.approx(box, rel=1e-12, abs=1e-15)

    def test_a_kernel_defect_still_shows(self, monkeypatch):
        # a control variate built from L_eps itself would absorb a kernel defect; the box occupation does not
        args = (BM, 0.0, 1e-4, 1.0, 1e-4, 256, 4000)
        plain = kernel_second_moment(*args)[0]
        monkeypatch.setattr(local_time, "_SQRT_2PI", local_time._SQRT_2PI / 1.1)  # the kernel 1.1 times too tall
        assert kernel_second_moment(*args)[0] >= plain + 0.15

    def test_level_far_from_every_path_is_the_plain_mean(self):
        # no path reaches the box, so B carries no information and the estimate is the mean of L^2
        estimate, se, occupation_z = kernel_second_moment(BM, 50.0, 1e-3, 1.0, 1e-3, 8, 0)
        assert estimate == 0.0 and se == 0.0 and math.isnan(occupation_z)


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
        with pytest.raises(InsufficientDataError):
            growth_probe(BM, 0.0, [1.0, 2.0], h=1e-2, n_paths=20, seed=0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_is_refused_before_any_walk(self, monkeypatch, x):
        # NaN walked every path, then found fewer than 3 usable points; inf found a curve that failed to increase
        def refuse_to_build(*args):
            raise AssertionError("the transition table was built")

        monkeypatch.setattr(simulate, "transition_table", refuse_to_build)
        with pytest.raises(DomainError, match="^x must be finite"):
            growth_probe(BM, x, [1.0, 2.0, 3.0], 1e-2, 20, 0)

    def test_too_few_horizons_are_refused_before_any_walk(self, monkeypatch):
        # kernel_ensemble walked every path before loglog_slope found two points
        def refuse_to_build(*args):
            raise AssertionError("the transition table was built")

        monkeypatch.setattr(simulate, "transition_table", refuse_to_build)
        with pytest.raises(InsufficientDataError, match="^need at least 3 horizons, got 2"):
            growth_probe(BRIDGE, 0.0, [1.0, 2.0], 0.01, 4, 0)

    def test_invariant_to_chunk_and_block(self, monkeypatch):
        args = (DriftSpec.power(1.5), 0.0, np.arange(1.0, 4.0), 1e-3, 40, 2)
        ref, _ = growth_probe(*args)
        for chunk in (7, 16):
            monkeypatch.setattr(simulate, "_TILE_PATHS", chunk)
            assert growth_probe(*args)[0].tobytes() == ref.tobytes()
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 100)
        assert growth_probe(*args)[0].tobytes() == ref.tobytes()


class TestKernelEnsemble:
    # full-grid curves at eps = h, as the holder_time check uses them
    H = 2.0**-11
    ARGS = (BRIDGE, 0.0, [H], simulate.grid(1.0, H), H, 12, 5)

    def test_curves_equal_single_path_estimates(self):
        curves = kernel_ensemble(*self.ARGS)[:, :, 0]
        for p in (0, 11):
            path = euler_path(BRIDGE, T=1.0, h=self.H, seed=5, path_index=p)
            assert curves[p].tobytes() == kernel_estimate(path, 0.0, self.H, path.times).values.tobytes()

    def test_curves_invariant_to_chunk_and_block(self, monkeypatch):
        ref = kernel_ensemble(*self.ARGS)
        for chunk in (5, 4):
            monkeypatch.setattr(simulate, "_TILE_PATHS", chunk)
            assert kernel_ensemble(*self.ARGS).tobytes() == ref.tobytes()
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 33)
        assert kernel_ensemble(*self.ARGS).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("x", [0.0, 0.4, 50.0])
    def test_final_step_equals_kernel_estimate(self, x):
        # only the final step recorded: blocks where every path is far add exact zeros, and
        # a 1-path chunk sums its single column step by step, not pairwise
        args = (BM, x, [1e-4], [1.0], 1e-4, 40, 8)
        finals = kernel_ensemble(*args)[:, 0, 0]
        for p in range(40):
            path = euler_path(BM, T=1.0, h=1e-4, seed=8, path_index=p)
            assert finals[p].tobytes() == kernel_estimate(path, x, 1e-4, [1.0]).values[0].tobytes()
        if x == 50.0:
            assert np.all(finals == 0.0)

    def test_one_path_chunk_sums_step_by_step(self, monkeypatch):
        # a single column would be reduced pairwise; it must keep kernel_estimate's sequential sum
        monkeypatch.setattr(simulate, "_TILE_PATHS", 1)
        finals = kernel_ensemble(BM, 0.0, [1e-4], [1.0], 1e-4, 4, 8)[:, 0, 0]
        for p in range(4):
            path = euler_path(BM, T=1.0, h=1e-4, seed=8, path_index=p)
            assert finals[p].tobytes() == kernel_estimate(path, 0.0, 1e-4, [1.0]).values[0].tobytes()

    def test_far_rows_after_a_near_sample_keep_its_increment(self, monkeypatch):
        # X ~ N(0, 0.05^2) at steps 1-4 and 11-12, |X| ~ 1e6 at steps 5-10: steps 5-10 are out
        # of reach, yet half of the trapezoid step from step 4 belongs to them; BLOCK_STEPS = 2 is
        # taken as one whole sub-block, so all 12 steps are one block, summed as kernel_estimate does
        stds = np.concatenate([np.full(4, 0.05), np.full(6, 1e6), np.full(2, 0.05)])
        table = (np.zeros(12), stds)
        monkeypatch.setattr(simulate, "transition_table", lambda spec, knots, h, scheme: table)
        monkeypatch.setattr(simulate, "BLOCK_STEPS", 2)
        finals = kernel_ensemble(BM, 0.0, [1e-2], [12.0], 1.0, 16, 0)[:, 0, 0]
        values = simulate._trajectories(table, 0, range(16))
        for p in range(16):
            assert finals[p] == kernel_estimate(manual_path(values[p], 1.0), 0.0, 1e-2, [12.0]).values[0]

    def test_one_path_chunks_equal_wide_chunks(self, monkeypatch):
        args = (BM, 0.4, [1e-4, 1e-3], [1.0], 1e-4, 12, 9)
        ref = kernel_ensemble(*args)
        monkeypatch.setattr(simulate, "_TILE_PATHS", 1)
        assert kernel_ensemble(*args).tobytes() == ref.tobytes()

    def test_threads_do_not_change_curves(self, monkeypatch):
        # kernel_ensemble runs on every core; pretend the process has one or three
        args = (BRIDGE, 0.2, [1e-3, 1e-2], [0.5, 1.0, 2.0], 1e-3, 30, 4)
        monkeypatch.setattr(simulate, "_TILE_PATHS", 7)
        ref = kernel_ensemble(*args)
        for cores in (1, 3):
            monkeypatch.setattr(simulate, "_cores", lambda cores=cores: cores)
            assert kernel_ensemble(*args).tobytes() == ref.tobytes()

    def test_repeated_and_zero_horizons(self):
        curves = kernel_ensemble(BRIDGE, 0.0, [1e-2], [0.0, 0.4, 0.4, 1.0], 0.01, 3, 2)
        final = kernel_ensemble(BRIDGE, 0.0, [1e-2], [1.0], 0.01, 3, 2)
        assert np.all(curves[:, 0] == 0.0)
        assert curves[:, 1].tobytes() == curves[:, 2].tobytes()
        assert curves[:, 3].tobytes() == final[:, 0].tobytes()

    def test_nan_level_propagates(self):
        assert np.all(np.isnan(kernel_ensemble(BM, math.nan, [1e-4], [0.2], 1e-4, 3, 0)))

    def test_shorter_horizon_is_a_prefix(self):
        # holder_time slices its T=2 curves out of the T=8 run
        short = kernel_ensemble(BRIDGE, 0.0, [self.H], simulate.grid(0.5, self.H), self.H, 3, 5, "exact")
        long = kernel_ensemble(BRIDGE, 0.0, [self.H], simulate.grid(1.0, self.H), self.H, 3, 5, "exact")
        assert short.tobytes() == long[:, :1025].tobytes()


class TestCurveMetadata:
    def test_estimator_tags_and_smoothing(self):
        path = euler_path(BRIDGE, T=1.0, h=1e-3, seed=8)
        k = kernel_estimate(path, 0.0, 1e-3, [1.0])
        b = binned_estimate(path, 0.0, 0.05, [1.0])
        t = tanaka_estimate(path, BRIDGE, 0.0, [1.0])
        assert (k.estimator, b.estimator, t.estimator) == ("kernel", "binned", "tanaka")
        assert k.smoothing == 1e-3 and b.smoothing == 0.05 and t.smoothing is None
        assert k.source_seed == b.source_seed == t.source_seed == 8
