"""Acceptance suite: one test per criterion, each printing its pass/fail line.

The full verification suite runs once per session (same code path as the
`bridgelab verify` CLI command); the criteria below assert its flags at their
stated tolerances, so a green run here is exactly a passing `verify`.
"""

import dataclasses

import numpy as np
import pytest

from bridgelab.config import parse_config
from bridgelab import verification
from bridgelab.errors import ConfigError


def _criterion(report, number, name, flags):
    ok = all(report.pass_flags[f] for f in flags)
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number:2d} ({name})")
    for f in flags:
        assert report.pass_flags[f], f"{name}: flag {f} is false"


def test_criterion_01_law_oracle_agreement(verify_report):
    # exact scheme at T=5: sample variance and 4th moment within 3 SE of quadrature
    _criterion(verify_report, 1, "law-oracle agreement", ["law_var_within_3se", "law_m4_within_3se"])
    assert abs(verify_report.metrics["law_var_z"]) < 3
    assert abs(verify_report.metrics["law_m4_z"]) < 3


def test_criterion_02_laplace_asymptotic(verify_report):
    _criterion(
        verify_report, 2, "Laplace asymptotic", ["laplace_beta2_within_5pct", "laplace_beta1_within_5pct"]
    )
    assert verify_report.metrics["laplace_ratio_beta2_t10"] == pytest.approx(0.5, abs=0.025)


def test_criterion_03_determinant_identity(verify_report):
    _criterion(verify_report, 3, "determinant identity", ["det_identity_below_1e8"])
    assert verify_report.metrics["det_identity_worst_rel"] < 1e-8


def test_criterion_04_determinant_bounds(verify_report):
    _criterion(verify_report, 4, "determinant bounds", ["det_sandwich_holds", "det_bm_equals_upper"])
    assert verify_report.metrics["det_sandwich_violations"] == 0


def test_criterion_05_conditional_variance_sandwich(verify_report):
    _criterion(verify_report, 5, "conditional-variance sandwich", ["cond_var_sandwich_holds"])
    assert verify_report.metrics["cond_var_violations"] == 0


def test_criterion_06_localtime_second_moment(verify_report):
    _criterion(
        verify_report,
        6,
        "local-time second moment",
        ["lt2_quadrature_matches", "lt2_monte_carlo_within_10pct"],
    )
    assert verify_report.metrics["lt2_quadrature"] == pytest.approx(1.0, abs=1e-4)
    assert verify_report.metrics["lt2_monte_carlo"] == pytest.approx(1.0, abs=0.10)
    # 0.0188 is the standard error of the plain mean of L^2 on 5000 paths, which the control variate replaced
    assert verify_report.metrics["lt2_monte_carlo_se"] <= 0.0188
    assert abs(verify_report.metrics["lt2_occupation_z"]) <= 4.0


def test_criterion_07_estimator_consistency(verify_report):
    _criterion(
        verify_report, 7, "estimator consistency", ["estimators_usable", "estimators_agree_10pct"]
    )
    assert verify_report.metrics["consistency_attempts"] <= 5
    assert verify_report.metrics["consistency_worst_rel"] <= 0.10


def test_criterion_08_bridge_decay(verify_report):
    _criterion(
        verify_report,
        8,
        "bridge decay",
        ["decay_strictly_decreasing", "decay_t8_in_band", "decay_constant_flat"],
    )
    assert 0.5 <= verify_report.metrics["decay_ratio_vs_half_inv_alpha"] <= 1.5
    assert 0.8 <= verify_report.metrics["decay_constant_ratio"] <= 1.25


def test_criterion_09_localtime_growth(verify_report):
    _criterion(
        verify_report, 9, "local-time growth", ["growth_strictly_increasing", "growth_exponent_above_0p3"]
    )
    assert verify_report.metrics["growth_exponent"] > 0.3
    # the conjectured half-drift-exponent rate is reported, never asserted
    assert verify_report.metrics["growth_conjectured_rate"] == 1.5


def test_criterion_10_holder_in_time(verify_report):
    _criterion(verify_report, 10, "Hoelder in time", ["holder_time_slope_in_band", "holder_time_c_stable"])
    assert 0.4 <= verify_report.metrics["holder_time_slope"] <= 0.6
    assert 0.5 <= verify_report.metrics["holder_time_c_ratio"] <= 2.0


def test_criterion_11_holder_in_space(verify_report):
    _criterion(
        verify_report, 11, "Hoelder in space", ["holder_space_bridge_in_band", "holder_space_bm_in_band"]
    )
    for name in ("bridge", "bm"):
        assert 0.35 <= verify_report.metrics[f"holder_space_slope_{name}"] <= 0.6


def test_criterion_12_figures_reproduction(verify_report):
    _criterion(
        verify_report,
        12,
        "experiment presets",
        [
            "figure1_params_ok",
            "figure1_tail_ok",
            "figure1_deterministic",
            "figure2_params_ok",
            "figure2_tail_ok",
            "figure2_deterministic",
        ],
    )


def test_verify_exit_contract(verify_report):
    # exit status of the CLI command is 0 exactly when all flags pass
    assert verify_report.all_passed
    assert verify_report.command == "verify"
    assert verify_report.wall_time < 600


def test_sabotaged_variance_flips_law_flag(monkeypatch):
    cfg = parse_config("drift.family = power\ndrift.beta = 0.8\n")
    true_variance = verification.gaussian_law.variance
    monkeypatch.setattr(verification.gaussian_law, "variance", lambda spec, t: 1.1 * true_variance(spec, t))
    bad = verification.run_verify_suite(cfg, only={"law_agreement"})
    assert not bad.pass_flags["law_var_within_3se"]
    assert not bad.all_passed


def test_unknown_check_name_raises_before_any_check_runs(monkeypatch):
    # a misspelt name was skipped silently, and a run of only unknown names passed with no flag
    def never(**kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(verification, "CHECKS", tuple((name, never) for name, _ in verification.CHECKS))
    monkeypatch.setattr(verification, "check_figures_repro", never)
    cfg = parse_config("drift.family = power\ndrift.beta = 0.8\n")
    with pytest.raises(ConfigError, match="^unknown checks figure; choose from law_agreement, .*, figures$"):
        verification.run_verify_suite(cfg, only={"law_agreement", "figure"})


def test_one_sabotaged_stacked_determinant_flips_identity_flag(monkeypatch):
    # batching must not hide one bad row: only the last matrix of each stack is off
    true_lu_det = verification.gaussian_law.lu_det

    def last_matrix_off(matrix):
        dets = np.array(true_lu_det(matrix))
        dets[-1] *= 1 + 1e-6
        return dets

    monkeypatch.setattr(verification.gaussian_law, "lu_det", last_matrix_off)
    metrics, flags = verification.check_determinants(seed=0)
    assert not flags["det_identity_below_1e8"]
    assert metrics["det_identity_worst_rel"] > 1e-7


def test_one_sabotaged_stacked_conditional_variance_flips_sandwich_flag(monkeypatch):
    true_cv = verification.gaussian_law.conditional_variance

    def last_above_gap(spec, s, t):
        cv = np.array(true_cv(spec, s, t))
        cv[-1] = 1.001 * (t[-1] - s[-1])
        return cv

    monkeypatch.setattr(verification.gaussian_law, "conditional_variance", last_above_gap)
    metrics, flags = verification.check_conditional_variance_sandwich(seed=0)
    assert not flags["cond_var_sandwich_holds"]
    assert metrics["cond_var_violations"] == 2.0  # one row per drift


def test_nan_stacked_determinant_fails_identity_flag(monkeypatch):
    # max() started from 0.0 skips NaN; a non-finite determinant must fail the identity, not vanish
    true_lu_det = verification.gaussian_law.lu_det

    def last_matrix_nan(matrix):
        dets = np.array(true_lu_det(matrix))
        dets[-1] = np.nan
        return dets

    monkeypatch.setattr(verification.gaussian_law, "lu_det", last_matrix_nan)
    metrics, flags = verification.check_determinants(seed=0)
    assert not flags["det_identity_below_1e8"]
    assert np.isnan(metrics["det_identity_worst_rel"])
    assert flags["det_bm_equals_upper"]


def test_nan_stacked_det_bounds_fail_identity_and_equality_flags(monkeypatch):
    true_det_bounds = verification.gaussian_law.det_bounds

    def last_grid_nan(spec, times):
        bounds = true_det_bounds(spec, times)
        det = np.array(bounds.det)
        det[-1] = np.nan
        return dataclasses.replace(bounds, det=det)

    monkeypatch.setattr(verification.gaussian_law, "det_bounds", last_grid_nan)
    metrics, flags = verification.check_determinants(seed=0)
    assert not flags["det_identity_below_1e8"]
    assert not flags["det_bm_equals_upper"]
    assert np.isnan(metrics["det_identity_worst_rel"])
    assert np.isnan(metrics["det_bm_equality_worst"])
