import math

import numpy as np
import pytest

from bridgelab import drift
from bridgelab.drift import (
    DriftSpec,
    check_growth_conditions,
    decay_integral,
    decay_integral_steps,
    decay_integrals,
    eval_alpha,
    eval_antiderivative,
    laplace_asymptotic_ratio,
    running_sup,
)
from bridgelab.errors import DomainError, ExtrapolationError, NumericsError


def dense_trapezoid(spec, t, n=200001):
    """Independent antiderivative oracle: trapezoid on a dense uniform grid."""
    grid = np.linspace(0.0, t, n)
    return float(np.trapezoid(eval_alpha(spec, grid), grid))


HUMP = DriftSpec.tabulated([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0, 0.5])


class TestEvalAlpha:
    def test_power_square(self):
        assert eval_alpha(DriftSpec.power(2.0), 3.0) == 9.0

    def test_exponential_at_zero(self):
        assert eval_alpha(DriftSpec.exponential(0.5), 0.0) == 1.0

    def test_degenerate_constant_is_brownian_motion(self):
        spec = DriftSpec.constant(0.0)
        assert eval_alpha(spec, 17.3) == 0.0
        assert spec.is_zero

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            eval_alpha(DriftSpec.power(1.0), -0.1)

    def test_tabulated_interpolates_and_extrapolation_fails(self):
        assert eval_alpha(HUMP, 0.5) == 2.5
        with pytest.raises(ExtrapolationError):
            eval_alpha(HUMP, 3.5)

    def test_vectorized_matches_scalar(self):
        spec = DriftSpec.exponential(0.7, scale=2.0)
        ts = np.linspace(0.0, 3.0, 7)
        vec = eval_alpha(spec, ts)
        assert vec == pytest.approx([eval_alpha(spec, t) for t in ts])


class TestSpecValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            lambda: DriftSpec.power(0.0),
            lambda: DriftSpec.power(2.0, scale=0.0),
            lambda: DriftSpec.exponential(-1.0),
            lambda: DriftSpec.constant(-0.5),
            lambda: DriftSpec.tabulated([0.0], [1.0]),
            lambda: DriftSpec.tabulated([0.5, 1.0], [1.0, 1.0]),
            lambda: DriftSpec.tabulated([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
            lambda: DriftSpec.tabulated([0.0, 1.0], [1.0, -1.0]),
            lambda: DriftSpec("weird"),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(DomainError):
            bad()


class TestAntiderivative:
    def test_power_cube_over_three(self):
        assert eval_antiderivative(DriftSpec.power(2.0), 3.0) == pytest.approx(9.0, rel=1e-14)

    def test_exponential_closed_form(self):
        assert eval_antiderivative(DriftSpec.exponential(1.0), 1.0) == pytest.approx(
            math.e - 1.0, rel=1e-14
        )

    def test_tabulated_identity_ramp(self):
        # alpha interpolating t -> t on [0, 2]; trapezoid oracle on a dense grid
        ramp = DriftSpec.tabulated([0.0, 2.0], [0.0, 2.0])
        assert eval_antiderivative(ramp, 2.0) == pytest.approx(2.0, abs=1e-12)
        assert eval_antiderivative(ramp, 2.0) == pytest.approx(dense_trapezoid(ramp, 2.0), rel=1e-9)

    def test_tabulated_partial_segment(self):
        assert eval_antiderivative(HUMP, 0.5) == pytest.approx(dense_trapezoid(HUMP, 0.5), rel=1e-9)
        assert eval_antiderivative(HUMP, 2.7) == pytest.approx(dense_trapezoid(HUMP, 2.7), rel=1e-9)

    @pytest.mark.parametrize(
        "spec",
        [
            DriftSpec.power(0.8),
            DriftSpec.power(2.0, scale=3.0),
            DriftSpec.exponential(0.5),
            DriftSpec.exponential(1.5, scale=0.25),
        ],
    )
    def test_matches_dense_trapezoid_oracle(self, spec):
        for t in (0.5, 1.0, 3.0):
            assert eval_antiderivative(spec, t) == pytest.approx(
                dense_trapezoid(spec, t), rel=1e-10
            )

    def test_tabulated_inverse_is_closed_form_root(self):
        # u = A^{-1}(A(hi) - gap) on a table with rising, falling and zero segments
        spec = DriftSpec.tabulated([0.0, 0.5, 1.0, 2.0, 2.5, 3.0], [0.0, 3.0, 0.0, 0.0, 2.0, 0.7])
        rng = np.random.default_rng(13)
        hi = rng.uniform(0.0, 3.0, 2000)
        a_hi = eval_antiderivative(spec, hi)
        gap = a_hi * rng.uniform(0.0, 1.0, hi.shape)
        u = drift._inverse_antiderivative(spec, a_hi - gap)
        assert np.all((0.0 <= u) & (u <= hi + 1e-12))
        reached = a_hi - eval_antiderivative(spec, np.minimum(u, hi))
        np.testing.assert_allclose(reached, gap, rtol=1e-12, atol=1e-14)

    def test_monotone_in_time(self):
        rng = np.random.default_rng(11)
        specs = [DriftSpec.power(1.3), DriftSpec.exponential(0.4), DriftSpec.constant(2.0), HUMP]
        for spec in specs:
            for _ in range(50):
                t1, t2 = np.sort(rng.uniform(0.0, 3.0, 2))
                assert eval_antiderivative(spec, t2) >= eval_antiderivative(spec, t1)


class TestRunningSup:
    def test_monotone_drift_equals_alpha(self):
        assert running_sup(DriftSpec.power(2.0), 3.0) == 9.0

    def test_constant(self):
        assert running_sup(DriftSpec.constant(5.0), 100.0) == 5.0

    def test_tabulated_hump_remembers_peak(self):
        # peak value 4 at t=1, decaying after; grid-scan oracle (knots included)
        grid = np.union1d(np.linspace(0.0, 3.0, 20001), [0.0, 1.0, 2.0, 3.0])
        oracle = float(eval_alpha(HUMP, grid).max())
        assert running_sup(HUMP, 3.0) == pytest.approx(oracle, abs=1e-9)
        assert running_sup(HUMP, 3.0) == 4.0

    def test_dominates_alpha_and_nondecreasing(self):
        rng = np.random.default_rng(12)
        for spec in (DriftSpec.power(0.5), HUMP, DriftSpec.exponential(1.0)):
            ts = np.sort(rng.uniform(0.0, 3.0, 40))
            sups = np.array([running_sup(spec, t) for t in ts])
            assert np.all(np.diff(sups) >= -1e-15)
            for t, s in zip(ts, sups):
                probe = rng.uniform(0.0, t, 8) if t > 0 else []
                for r in probe:
                    assert s >= eval_alpha(spec, r) - 1e-12


class TestGrowthConditions:
    def test_power_beta2_fitted_exponent(self):
        # ratio ~ t^(2*0.1*2 - 2) = t^-1.6 for large t
        report = check_growth_conditions(DriftSpec.power(2.0), gamma=0.1, probe_horizon=64.0)
        assert report.condition_i_holds
        assert report.fitted_decay_exponent == pytest.approx(1.6, abs=0.1)
        assert report.condition_ii_holds
        assert len(report.probe_grid) >= 16

    def test_constant_drift_fails_condition_i(self):
        report = check_growth_conditions(DriftSpec.constant(1.0), gamma=0.25, probe_horizon=64.0)
        assert not report.condition_i_holds
        assert report.condition_ii_holds

    def test_exponential_gamma_zero(self):
        report = check_growth_conditions(DriftSpec.exponential(1.0), gamma=0.0, probe_horizon=32.0)
        assert report.condition_i_holds
        assert report.condition_ii_holds

    def test_zero_drift_fails_gracefully(self):
        report = check_growth_conditions(DriftSpec.constant(0.0), gamma=0.25, probe_horizon=32.0)
        assert not report.condition_i_holds  # division guard, no exception

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            check_growth_conditions(DriftSpec.power(1.0), gamma=0.25, probe_horizon=4.0)
        with pytest.raises(DomainError):
            check_growth_conditions(DriftSpec.power(1.0), gamma=0.7, probe_horizon=32.0)


class TestLaplaceRatio:
    def test_power_beta2(self):
        ratio = laplace_asymptotic_ratio(DriftSpec.power(2.0), 2.0, 10.0)
        assert ratio == pytest.approx(0.5, rel=0.05)

    def test_power_beta1(self):
        ratio = laplace_asymptotic_ratio(DriftSpec.power(1.0), 1.0, 20.0)
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_constant_closed_form(self):
        c, kappa, t = 1.5, 2.0, 4.0
        expected = (1.0 - math.exp(-kappa * c * t)) / kappa
        assert laplace_asymptotic_ratio(DriftSpec.constant(c), kappa, t) == pytest.approx(
            expected, rel=1e-9
        )

    @pytest.mark.parametrize("beta,t", [(1.0, 8.0), (2.0, 4.0), (3.0, 3.0)])
    @pytest.mark.parametrize("kappa", [1.0, 2.0])
    def test_asymptote_where_alpha_t_large(self, beta, t, kappa):
        # alpha(t) * t >= 50 at these probes
        spec = DriftSpec.power(beta)
        assert eval_alpha(spec, t) * t >= 50
        assert kappa * laplace_asymptotic_ratio(spec, kappa, t) == pytest.approx(1.0, rel=0.05)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            laplace_asymptotic_ratio(DriftSpec.power(1.0), 2.0, 0.0)
        with pytest.raises(DomainError):
            laplace_asymptotic_ratio(DriftSpec.power(1.0), 0.0, 1.0)
        with pytest.raises(DomainError):
            laplace_asymptotic_ratio(DriftSpec.constant(0.0), 1.0, 1.0)


class TestDecayIntegral:
    def test_brownian_case_is_plain_length(self):
        assert decay_integral(DriftSpec.constant(0.0), 1.0, 3.0, 2.0) == pytest.approx(2.0, rel=1e-12)

    def test_sharply_concentrated_integrand(self):
        # mass lives within ~1/alpha(t) of t; compare against a reference
        # integration of the same integrand on the concentrated window
        from scipy import integrate as si

        spec = DriftSpec.power(2.0)
        t = 10.0
        a_t = eval_antiderivative(spec, t)
        ref = si.quad(
            lambda u: math.exp(-2.0 * (a_t - eval_antiderivative(spec, u))), 9.5, 10.0,
            epsabs=1e-15, epsrel=1e-13,
        )[0]
        assert decay_integral(spec, 0.0, t, 2.0) == pytest.approx(ref, rel=1e-9)

    def test_steps_table_matches_adaptive_route(self):
        for spec in (DriftSpec.power(0.8), DriftSpec.exponential(1.5), HUMP):
            tmax = 2.5 if spec.family == "tabulated" else 6.0
            times = np.linspace(0.0, tmax, 41)
            steps = decay_integral_steps(spec, times, 2.0)
            for k in (0, 17, 39):
                ref = decay_integral(spec, times[k], times[k + 1], 2.0)
                assert steps[k] == pytest.approx(ref, rel=1e-9, abs=1e-300)

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            decay_integral(DriftSpec.power(1.0), 2.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            decay_integral(DriftSpec.power(1.0), 0.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            decay_integrals(DriftSpec.power(1.0), [0.0, -0.5], [1.0, 1.0], 2.0)
        with pytest.raises(DomainError):
            decay_integrals(DriftSpec.power(1.0), [0.0, math.nan], [1.0, 1.0], 2.0)
        with pytest.raises(ExtrapolationError):
            decay_integrals(HUMP, [0.0, 1.0], [1.0, 3.5], 2.0)


class TestDecayIntegrals:
    def test_batch_of_1e5_is_bit_identical_to_single_calls(self):
        rng = np.random.default_rng(17)
        for spec in (DriftSpec.power(2.0), DriftSpec.exponential(1.2), HUMP):
            tmax = 3.0 if spec.family == "tabulated" else 6.0
            ends = np.sort(rng.uniform(0.0, tmax, (100_000, 2)), axis=1)
            batch = decay_integrals(spec, ends[:, 0], ends[:, 1], 2.0)
            for k in rng.choice(len(ends), 40, replace=False):
                single = decay_integral(spec, ends[k, 0], ends[k, 1], 2.0)
                assert np.float64(single).tobytes() == batch[k].tobytes()

    def test_batch_length_does_not_change_bits(self, monkeypatch):
        times = np.linspace(0.0, 3.0, 700)
        ref = [decay_integral_steps(spec, times, 2.0) for spec in (HUMP, DriftSpec.power(0.8))]
        monkeypatch.setattr(drift, "_BATCH", 7)
        for spec, expected in zip((HUMP, DriftSpec.power(0.8)), ref):
            assert decay_integral_steps(spec, times, 2.0).tobytes() == expected.tobytes()

    def test_broadcasts_and_keeps_shape(self):
        his = np.array([[0.5, 1.0], [2.0, 0.0]])
        out = decay_integrals(DriftSpec.constant(0.0), 0.0, his, 2.0)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, his, rtol=1e-14)

    def test_budget_exhaustion_reports_estimate_and_tolerance(self, monkeypatch):
        # power(2) at hi = 10: one panel on the truncated range is not enough, two are
        spec = DriftSpec.power(2.0)
        full = decay_integral(spec, 0.0, 10.0, 2.0)
        monkeypatch.setattr(drift, "_PANEL_BUDGET", 0)
        with pytest.raises(NumericsError, match=r"10\.0\] within 0 bisections") as info:
            decay_integrals(spec, [0.0, 0.0], [1.0, 10.0], 2.0)
        err = info.value
        assert err.estimate == pytest.approx(full, rel=1e-6)
        assert drift._EPSREL * err.estimate < err.achieved_tol < 1e-5 * err.estimate
