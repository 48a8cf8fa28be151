import math

import numpy as np
import pytest
from scipy import integrate as si

from bridgelab import gaussian_law
from bridgelab.drift import DriftSpec, eval_antiderivative, running_sup
from bridgelab.errors import DomainError, ExtrapolationError, NumericsError
from bridgelab.gaussian_law import (
    abs_moment,
    build_cov_matrix,
    conditional_variance,
    covariance,
    det_bounds,
    det_by_conditioning,
    increment_variance,
    localtime_second_moment,
    lu_det,
    variance,
)

BM = DriftSpec.constant(0.0)
POW1 = DriftSpec.power(1.0)

# Frozen oracle values for the power(beta=1) drift, computed by independent
# adaptive quadrature of the closed-form integrands (see the oracle helpers
# below, which recompute them on the fly).
VAR_1 = 0.5380795069127684        # e^{-1} * int_0^1 e^{s^2} ds
COV_1_2 = 0.12006176655003416     # e^{-1.5} * VAR_1
CVAR_1_2 = 0.27455098772577946    # int_1^2 e^{-(4 - r^2)} dr
DET_1_2 = 0.14773026009790094     # VAR_1 * CVAR_1_2 == direct determinant


def variance_oracle(spec, t):
    a_t = eval_antiderivative(spec, t)
    return si.quad(
        lambda s: math.exp(-2.0 * (a_t - eval_antiderivative(spec, s))), 0.0, t,
        epsabs=1e-14, epsrel=1e-12, limit=200,
    )[0]


def cvar_oracle(spec, s, t):
    a_t = eval_antiderivative(spec, t)
    return si.quad(
        lambda r: math.exp(-2.0 * (a_t - eval_antiderivative(spec, r))), s, t,
        epsabs=1e-14, epsrel=1e-12, limit=200,
    )[0]


class TestVariance:
    def test_brownian_motion(self):
        assert variance(BM, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_zero_at_origin(self):
        assert variance(POW1, 0.0) == 0.0

    def test_constant_drift_closed_form(self):
        c, t = 1.3, 2.0
        expected = (1.0 - math.exp(-2 * c * t)) / (2 * c)
        assert variance(DriftSpec.constant(c), t) == pytest.approx(expected, rel=1e-10)

    def test_power_beta1_frozen_value(self):
        v = variance(POW1, 1.0)
        assert v == pytest.approx(VAR_1, rel=1e-10)
        assert v == pytest.approx(variance_oracle(POW1, 1.0), rel=1e-10)


class TestCovariance:
    def test_brownian_motion_is_min(self):
        assert covariance(BM, 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_time_anchors_zero(self):
        assert covariance(DriftSpec.power(2.0), 0.0, 5.0) == 0.0

    def test_power_beta1_frozen_value(self):
        c = covariance(POW1, 1.0, 2.0)
        assert c == pytest.approx(COV_1_2, rel=1e-10)
        assert c == pytest.approx(math.exp(-1.5) * variance_oracle(POW1, 1.0), rel=1e-10)

    def test_symmetry_and_cauchy_schwarz(self):
        rng = np.random.default_rng(5)
        for spec in (POW1, DriftSpec.exponential(0.7), DriftSpec.power(2.0)):
            for _ in range(25):
                s, t = rng.uniform(0.05, 3.0, 2)
                c1, c2 = covariance(spec, s, t), covariance(spec, t, s)
                assert c1 == pytest.approx(c2, rel=1e-12)
                assert c1 * c1 <= variance(spec, s) * variance(spec, t) * (1 + 1e-10)


class TestConditionalVariance:
    def test_brownian_motion(self):
        assert conditional_variance(BM, 1.0, 3.0) == pytest.approx(2.0, rel=1e-12)

    def test_degenerate_interval(self):
        assert conditional_variance(POW1, 1.5, 1.5) == 0.0

    def test_power_beta1_frozen_value(self):
        cv = conditional_variance(POW1, 1.0, 2.0)
        assert cv == pytest.approx(CVAR_1_2, rel=1e-10)
        assert cv == pytest.approx(cvar_oracle(POW1, 1.0, 2.0), rel=1e-10)

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            conditional_variance(POW1, 2.0, 1.0)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_sandwich(self, beta):
        spec = DriftSpec.power(beta)
        rng = np.random.default_rng(int(beta * 10))
        for _ in range(200):
            s, t = np.sort(rng.uniform(0.01, 4.0, 2))
            cv = conditional_variance(spec, s, t)
            lo = (t - s) * math.exp(-2.0 * running_sup(spec, t) * (t - s))
            assert lo - 1e-12 <= cv <= (t - s) + 1e-12

    def test_consistency_with_variance_recursion(self):
        # Var(t) = exp(-2 dA) Var(s) + Var(t | s)
        for s, t in ((0.3, 1.1), (1.0, 2.0), (2.0, 3.5)):
            gap = eval_antiderivative(POW1, t) - eval_antiderivative(POW1, s)
            lhs = variance(POW1, t)
            rhs = math.exp(-2 * gap) * variance(POW1, s) + conditional_variance(POW1, s, t)
            assert lhs == pytest.approx(rhs, rel=1e-9)


class TestIncrementVariance:
    def test_equal_times_vanish(self):
        var, bound = increment_variance(POW1, 2.0, 2.0, 0.25)
        assert var == 0.0

    def test_brownian_motion_independent_increments(self):
        var, bound = increment_variance(BM, 1.0, 2.0, 0.25)
        assert var == pytest.approx(1.0, rel=1e-10)
        assert bound == float("inf")  # alpha == 0 degenerate case

    def test_matches_bilinear_route(self):
        rng = np.random.default_rng(9)
        for spec in (POW1, DriftSpec.power(2.0), DriftSpec.exponential(0.5)):
            for _ in range(30):
                t1, t2 = rng.uniform(0.05, 3.0, 2)
                var, _ = increment_variance(spec, t1, t2, 0.25)
                oracle = (
                    variance(spec, t1) + variance(spec, t2) - 2.0 * covariance(spec, t1, t2)
                )
                assert var == pytest.approx(oracle, rel=1e-8, abs=1e-13)

    def test_single_constant_dominates_sample(self):
        # fit C as the max ratio over a random sample, then the example pair obeys it
        spec = DriftSpec.power(2.0)
        rng = np.random.default_rng(21)
        gamma = 0.25
        ratios = []
        for _ in range(1000):
            t1, t2 = rng.uniform(0.5, 6.0, 2)
            if abs(t2 - t1) < 1e-6:
                continue
            var, bound = increment_variance(spec, t1, t2, gamma)
            ratios.append(var / bound)
        c_fit = max(ratios)
        assert math.isfinite(c_fit) and c_fit > 0
        var, bound = increment_variance(spec, 4.0, 4.5, gamma)
        assert var <= c_fit * bound * (1 + 1e-12)


class TestCovMatrix:
    def test_brownian_motion_min_matrix(self):
        mat = build_cov_matrix(BM, [1.0, 2.0, 3.0])
        expected = [[1, 1, 1], [1, 2, 2], [1, 2, 3]]
        np.testing.assert_allclose(mat.entries, expected, rtol=1e-12)

    def test_single_time(self):
        mat = build_cov_matrix(POW1, [2.0])
        assert mat.entries.shape == (1, 1)
        assert mat.entries[0, 0] == pytest.approx(variance(POW1, 2.0), rel=1e-12)

    def test_power_beta1_frozen_entries(self):
        mat = build_cov_matrix(POW1, [1.0, 2.0])
        assert mat.entries[0, 0] == pytest.approx(VAR_1, rel=1e-9)
        assert mat.entries[0, 1] == pytest.approx(COV_1_2, rel=1e-9)
        assert mat.entries[1, 0] == pytest.approx(COV_1_2, rel=1e-9)

    def test_positive_definite(self):
        mat = build_cov_matrix(POW1, [0.5, 1.0, 1.7, 2.2, 3.0])
        assert np.all(np.linalg.eigvalsh(mat.entries) > 0)

    def test_bad_grids_rejected(self):
        with pytest.raises(DomainError):
            build_cov_matrix(POW1, [1.0, 1.0, 2.0])
        with pytest.raises(DomainError):
            build_cov_matrix(POW1, [0.0, 1.0])


class TestDeterminants:
    def test_brownian_motion_gap_product(self):
        assert det_by_conditioning(BM, [1.0, 2.0, 3.0]) == pytest.approx(1.0, rel=1e-12)
        assert det_by_conditioning(BM, [0.5, 2.0, 2.25]) == pytest.approx(0.1875, rel=1e-12)

    def test_power_beta1_matches_lu(self):
        det_c = det_by_conditioning(POW1, [1.0, 2.0])
        det_l = lu_det(build_cov_matrix(POW1, [1.0, 2.0]).entries)
        assert det_c == pytest.approx(DET_1_2, rel=1e-9)
        assert det_c == pytest.approx(det_l, rel=1e-9)

    def test_bounds_collapse_for_brownian_motion(self):
        b = det_bounds(BM, [0.3, 1.1, 2.9])
        assert b.lower == b.upper
        assert b.det == pytest.approx(b.upper, abs=1e-12)

    def test_power_beta2_bound_values(self):
        b = det_bounds(DriftSpec.power(2.0), [1.0, 2.0])
        assert b.upper == pytest.approx(1.0, rel=1e-12)
        assert b.lower == pytest.approx(math.exp(-16.0), rel=1e-12)

    def test_random_sweep_identity_and_sandwich(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(0.02, 3.0, p))
            while np.any(np.diff(times) < 0.01):
                times = np.sort(rng.uniform(0.02, 3.0, p))
            mat = build_cov_matrix(POW1, times)
            direct = lu_det(mat.entries)
            b = det_bounds(POW1, times)
            assert b.det == pytest.approx(direct, rel=1e-8)
            assert b.lower - 1e-12 <= b.det <= b.upper + 1e-12
            assert b.lower - 1e-12 <= direct <= b.upper + 1e-12


class TestStackedGrids:
    # two grids of size 3; leading axes stack grids, the last axis is one grid
    STACK = np.array([[0.5, 1.0, 2.0], [0.3, 1.1, 2.9]])

    def test_one_grid_gives_floats_and_a_stack_gives_arrays(self):
        b = det_bounds(POW1, self.STACK[0])
        one = [det_by_conditioning(POW1, self.STACK[0]), lu_det(build_cov_matrix(POW1, self.STACK[0]).entries)]
        assert all(type(v) is float for v in [b.lower, b.upper, b.det, *one])
        assert type(conditional_variance(POW1, 1.0, 2.0)) is float
        grids = self.STACK.reshape(2, 1, 3).repeat(2, axis=1)  # shape (2, 2, 3)
        mat = build_cov_matrix(POW1, grids)
        assert mat.times.shape == (2, 2, 3) and mat.entries.shape == (2, 2, 3, 3)
        b = det_bounds(POW1, grids)
        for values in (b.lower, b.upper, b.det, det_by_conditioning(POW1, grids), lu_det(mat.entries)):
            assert values.shape == (2, 2)
            assert values[1, 0] == values[1, 1]
        assert conditional_variance(POW1, [1.0, 1.5], 2.0).shape == (2,)

    def test_one_nonincreasing_grid_rejects_the_stack(self):
        bad = self.STACK.copy()
        bad[1, 2] = bad[1, 1]
        for fn in (build_cov_matrix, det_by_conditioning, det_bounds):
            with pytest.raises(DomainError, match="strictly increasing"):
                fn(POW1, bad)

    def test_one_grid_starting_at_zero_rejects_the_stack(self):
        bad = self.STACK.copy()
        bad[1, 0] = 0.0
        for fn in (build_cov_matrix, det_by_conditioning, det_bounds):
            with pytest.raises(DomainError, match="strictly positive"):
                fn(POW1, bad)

    def test_one_stacked_s_after_t_is_rejected(self):
        with pytest.raises(DomainError, match=r"got s=2\.5, t=2\.0"):
            conditional_variance(POW1, [0.5, 2.5, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DomainError):
            conditional_variance(POW1, [0.5, -0.5], 1.0)

    def test_zero_length_interval_beyond_a_table_is_rejected(self):
        # every s == t goes through the kernel, which checks the tabulated range like any other query
        tab = DriftSpec.tabulated([0.0, 1.0, 3.0], [0.5, 1.5, 4.0])
        assert conditional_variance(tab, 3.0, 3.0) == 0.0
        with pytest.raises(ExtrapolationError):
            conditional_variance(tab, 5.0, 5.0)

    def test_scalar_error_messages_unchanged(self):
        cases = [
            (lambda: build_cov_matrix(POW1, []), "times must be a nonempty 1-d sequence"),
            (lambda: det_bounds(POW1, 2.0), "times must be a nonempty 1-d sequence"),
            (lambda: build_cov_matrix(POW1, [0.0, 1.0]), "all times must be strictly positive (Var(X_0) = 0 is singular)"),
            (lambda: det_by_conditioning(POW1, [1.0, 1.0, 2.0]), "times must be strictly increasing"),
            (lambda: conditional_variance(POW1, 2.0, 1.0), "need 0 <= s <= t, got s=2.0, t=1.0"),
            (lambda: conditional_variance(POW1, 2, 1), "need 0 <= s <= t, got s=2, t=1"),
            (lambda: conditional_variance(POW1, -1.0, 1.0), "need 0 <= s <= t, got s=-1.0, t=1.0"),
        ]
        for call, message in cases:
            with pytest.raises(DomainError) as exc:
                call()
            assert str(exc.value) == message


class TestAbsMoment:
    def test_second_moment_is_variance(self):
        assert abs_moment(1.0, 2) == 1.0

    def test_fourth_moment_sigma2(self):
        # 4! * sigma^4 / (2^2 * 2!) = 3 * sigma^4 with sigma^2 = 2
        assert abs_moment(2.0, 4) == 12.0

    def test_sixth_moment_double_factorial(self):
        assert abs_moment(1.0, 6) == 15.0

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_double_factorial_oracle(self, n):
        dfact = 1
        for k in range(2 * n - 1, 0, -2):
            dfact *= k
        assert abs_moment(1.0, 2 * n) == pytest.approx(dfact, rel=1e-12)
        assert abs_moment(1.7, 2 * n) == pytest.approx(dfact * 1.7**n, rel=1e-12)

    def test_odd_moments_are_signed_zero(self):
        assert abs_moment(3.0, 3) == 0.0
        assert abs_moment(3.0, 7) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            abs_moment(-1.0, 2)
        with pytest.raises(DomainError):
            abs_moment(1.0, 0)


class TestLocaltimeSecondMoment:
    def test_brownian_motion_beta_integral(self):
        # inner integral is Beta(1/2, 1/2) = pi, so the double integral equals t
        assert localtime_second_moment(BM, 1.0, 0.0, 0.0) == pytest.approx(1.0, abs=1e-4)
        assert localtime_second_moment(BM, 2.0, 0.0, 0.0) == pytest.approx(2.0, abs=2e-4)

    def test_huge_smoothing_kills_mass(self):
        big = 1e6
        val = localtime_second_moment(POW1, 1.0, big, big)
        assert val == pytest.approx(1.0 / (2 * math.pi * big), rel=0.05)

    def test_nonincreasing_in_smoothing(self):
        vals = [localtime_second_moment(POW1, 1.0, e, e) for e in (0.0, 1e-3, 1e-2, 1e-1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        vals_theta = [localtime_second_moment(POW1, 1.0, 1e-3, th) for th in (0.0, 1e-2, 1e-1)]
        assert all(a >= b - 1e-12 for a, b in zip(vals_theta, vals_theta[1:]))

    def test_mollified_family_is_cauchy(self):
        # E|L_eps - L_theta|^2 = M(eps,eps) + M(theta,theta) - 2 E(L_eps L_theta) -> 0.
        # The half-domain formula assigns theta to the later time, so for
        # eps != theta the cross moment is the average over both assignments.
        ladder = [1e-1, 1e-2, 1e-3, 1e-4]
        gaps = []
        for e1, e2 in zip(ladder, ladder[1:]):
            m11 = localtime_second_moment(POW1, 1.0, e1, e1)
            m22 = localtime_second_moment(POW1, 1.0, e2, e2)
            cross = 0.5 * (
                localtime_second_moment(POW1, 1.0, e2, e1)
                + localtime_second_moment(POW1, 1.0, e1, e2)
            )
            gaps.append(m11 + m22 - 2 * cross)
        assert all(g >= -1e-8 for g in gaps)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_budget_exhaustion_reports_estimate_and_tolerance(self, monkeypatch):
        # power(1) at eps = theta = 1e-3 converges on 32 panels; 4 are not enough
        full = localtime_second_moment(POW1, 1.0, 1e-3, 1e-3)
        monkeypatch.setattr(gaussian_law, "_LT2_PANEL_BUDGET", 4)
        with pytest.raises(NumericsError, match="within 4 panels") as info:
            localtime_second_moment(POW1, 1.0, 1e-3, 1e-3)
        err = info.value
        assert err.estimate == pytest.approx(full, rel=1e-4)
        assert gaussian_law._LT2_EPSREL * err.estimate < err.achieved_tol < 1e-3 * err.estimate
        assert abs(err.estimate - full) <= err.achieved_tol

    def test_validation(self):
        with pytest.raises(DomainError):
            localtime_second_moment(POW1, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            localtime_second_moment(POW1, 1.0, -1.0, 0.0)
