"""Non-finite or degenerate arguments are DomainErrors that name the argument."""

import math

import numpy as np
import pytest

from bridgelab import drift, gaussian_law, holder_analysis, local_time, simulate
from bridgelab.errors import DomainError

NAN = math.nan
INF = math.inf
BRIDGE = drift.DriftSpec.power(0.8)
PATH = simulate.euler_path(BRIDGE, T=1.0, h=0.01)
CURVE = local_time.kernel_estimate(PATH, 0.0, 0.01, PATH.times)

CALLS = {
    "grid_T": (lambda: simulate.grid(NAN, 0.1), "T=nan"),
    "grid_h": (lambda: simulate.grid(1.0, NAN), "h=nan"),
    "grid_infinite_T": (lambda: simulate.grid(math.inf, 0.1), "T=inf"),
    "horizon_steps": (lambda: simulate.horizon_steps([1.0, NAN], 0.1), "horizons must be finite"),
    "terminal_values_h": (lambda: simulate.terminal_values(BRIDGE, [1.0], NAN, 4, 0), "h=nan"),
    "batch_terminal_stats_zero_h": (
        lambda: simulate.batch_terminal_stats(BRIDGE, [1.0, 2.0], 0.0, 100, 0),
        "h=0.0",
    ),
    # "need at least 100 paths" and "need at least 500 paths" named no argument
    "batch_terminal_stats_negative_n_paths": (
        lambda: simulate.batch_terminal_stats(BRIDGE, [1.0, 2.0], 0.01, -1, 0),
        "^n_paths must be at least 100 for stable statistics, got -1",
    ),
    "cauchy_diagnostic_zero_n_paths": (
        lambda: local_time.cauchy_diagnostic(BRIDGE, 0.0, 1.0, [1e-2, 1e-3], 0, 0),
        "^n_paths must be at least 500, got 0",
    ),
    "kernel_ensemble_h": (lambda: local_time.kernel_ensemble(BRIDGE, 0.0, [1e-3], [1.0], NAN, 4, 0), "h=nan"),
    "kernel_ensemble_eps": (lambda: local_time.kernel_ensemble(BRIDGE, 0.0, [NAN], [1.0], 1e-3, 4, 0), "eps_list"),
    "cauchy_diagnostic_t": (
        lambda: local_time.cauchy_diagnostic(BRIDGE, 0.0, NAN, [1e-2, 1e-3], 500, 0),
        "t=nan",
    ),
    # both named T, an argument neither takes, from simulate.grid_steps
    "cauchy_diagnostic_h_past_t": (
        lambda: local_time.cauchy_diagnostic(BRIDGE, 0.0, 1e-4, [1e-2, 1e-3], 500, 0),
        r"^need 0 < h <= t < inf, got h=0.001, t=0.0001",
    ),
    "space_modulus_h_past_t": (
        lambda: holder_analysis.space_modulus(BRIDGE, 0.001, np.linspace(-1, 1, 33), 2, 0.01, 0, 1e-3),
        r"^need 0 < h <= t < inf, got h=0.01, t=0.001",
    ),
    "kernel_second_moment_h_past_t": (
        lambda: local_time.kernel_second_moment(BRIDGE, 0.0, 1e-3, 1e-3, 1e-2, 4, 0),
        r"^need 0 < h <= t < inf, got h=0.01, t=0.001",
    ),
    "kernel_second_moment_eps": (
        lambda: local_time.kernel_second_moment(BRIDGE, 0.0, NAN, 1.0, 1e-2, 4, 0),
        "^eps must be positive and finite, got nan",
    ),
    "kernel_second_moment_too_few_paths": (
        lambda: local_time.kernel_second_moment(BRIDGE, 0.0, 1e-3, 1.0, 1e-2, 2, 0),
        "^n_paths must be at least 3, got 2",
    ),
    "kernel_second_moment_fractional_n_paths": (
        lambda: local_time.kernel_second_moment(BRIDGE, 0.0, 1e-3, 1.0, 1e-2, 4.5, 0),
        "^n_paths must be an integer",
    ),
    "growth_probe_h": (lambda: local_time.growth_probe(BRIDGE, 0.0, [1.0, 2.0, 3.0], NAN, 4, 0), "h=nan"),
    "kernel_estimate_checkpoints": (
        lambda: local_time.kernel_estimate(PATH, 0.0, 0.01, [0.5, NAN, 1.0]),
        "checkpoints must be finite",
    ),
    "binned_estimate_checkpoints": (
        lambda: local_time.binned_estimate(PATH, 0.0, 0.1, [0.5, NAN, 1.0]),
        "checkpoints must be finite",
    ),
    # np.rint(nan) would snap a NaN checkpoint to step 0, which reads 0.0
    "tanaka_estimate_checkpoints": (
        lambda: local_time.tanaka_estimate(PATH, BRIDGE, 0.0, [0.5, NAN, 1.0]),
        "checkpoints must be finite",
    ),
    "kernel_estimate_eps": (lambda: local_time.kernel_estimate(PATH, 0.0, NAN, [1.0]), "eps must be positive"),
    "binned_estimate_delta": (lambda: local_time.binned_estimate(PATH, 0.0, NAN, [1.0]), "delta must be positive"),
    "level_sweep_eps": (
        lambda: holder_analysis.level_sweep(PATH.values, PATH.h, np.linspace(-1, 1, 9), NAN),
        "eps must be positive",
    ),
    "space_modulus_eps": (
        lambda: holder_analysis.space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 33), 2, 0.01, 0, NAN),
        "eps must be positive",
    ),
    "time_modulus_scales": (lambda: holder_analysis.time_modulus(CURVE, [NAN, 0.1, 0.05]), "scales must be finite"),
    "time_profile_scales": (
        lambda: holder_analysis.time_profile(BRIDGE, 1.0, 0.01, 1, 0, [0.02, INF, 0.04]),
        "scales must be finite",
    ),
    "time_profile_h": (lambda: holder_analysis.time_profile(BRIDGE, 1.0, NAN, 1, 0, [0.02, 0.04, 0.08]), "h=nan"),
    # polyfit printed LAPACK's DLASCL complaint six times, then raised LinAlgError
    "loglog_slope_nan_scale": (
        lambda: drift.loglog_slope([(0.5, 1.0), (NAN, 1.0), (0.125, 1.0)]),
        "scales must be positive and finite",
    ),
    # an infinite scale returned (nan, nan)
    "loglog_slope_infinite_scale": (
        lambda: drift.loglog_slope([(0.5, 1.0), (INF, 1.0), (0.125, 1.0)]),
        "scales must be positive and finite",
    ),
    # a NaN step returned NaN local times, and a negative one negative local times
    "level_sweep_nan_h": (lambda: holder_analysis.level_sweep(np.zeros(10), NAN, [0.0, 1.0], 1e-2), "h must be positive"),
    "level_sweep_negative_h": (
        lambda: holder_analysis.level_sweep(np.zeros(10), -1.0, [0.0, 1.0], 1e-2),
        "h must be positive",
    ),
    "level_sweep_infinite_h": (
        lambda: holder_analysis.level_sweep(np.zeros(10), INF, [0.0, 1.0], 1e-2),
        "h must be positive",
    ),
    # a non-uniform grid was swept at its own levels by level_sweep and refused only by space_modulus
    "level_sweep_nonuniform_levels": (
        lambda: holder_analysis.level_sweep(np.zeros(10), 0.1, [0.0, 0.5, 2.0], 1e-2),
        "x_grid must be a uniform grid",
    ),
    "level_sweep_one_level": (
        lambda: holder_analysis.level_sweep(np.zeros(10), 0.1, [0.0], 1e-2),
        "x_grid must be a uniform grid",
    ),
    "level_sweep_nan_level": (
        lambda: holder_analysis.level_sweep(np.zeros(10), 0.1, [0.0, NAN, 1.0], 1e-2),
        "x_grid must be a uniform grid",
    ),
    "space_modulus_infinite_level": (
        lambda: holder_analysis.space_modulus(BRIDGE, 1.0, [-1.0, 0.0, INF], 2, 0.01, 0, 1e-3),
        "x_grid must be a uniform grid",
    ),
    # the law oracle reported the kernel's lo and hi, or its rate, or returned NaN
    "variance_nan_t": (lambda: gaussian_law.variance(BRIDGE, NAN), "^t must be nonnegative and finite, got nan"),
    "variance_infinite_t": (lambda: gaussian_law.variance(BRIDGE, INF), "^t must be nonnegative and finite, got inf"),
    "laplace_asymptotic_ratio_kappa": (
        lambda: drift.laplace_asymptotic_ratio(BRIDGE, NAN, 2.0),
        "^kappa must be positive and finite, got nan",
    ),
    "laplace_asymptotic_ratio_t": (
        lambda: drift.laplace_asymptotic_ratio(BRIDGE, 2.0, INF),
        "^t must be positive and finite, got inf",
    ),
    "abs_moment_sigma_sq": (lambda: gaussian_law.abs_moment(NAN, 2), "^sigma_sq must be nonnegative and finite"),
    "abs_moment_infinite_sigma_sq": (
        lambda: gaussian_law.abs_moment(INF, 4),
        "^sigma_sq must be nonnegative and finite",
    ),
    "eval_alpha_t": (lambda: drift.eval_alpha(BRIDGE, NAN), r"alpha\(t\) .*t=nan"),
    "eval_antiderivative_t": (lambda: drift.eval_antiderivative(BRIDGE, [1.0, NAN]), r"A\(t\) .*t=nan"),
    "running_sup_t": (lambda: drift.running_sup(BRIDGE, np.array([NAN])), "running sup .*t=nan"),
    "eval_alpha_infinite_t": (lambda: drift.eval_alpha(BRIDGE, math.inf), r"alpha\(t\) .*t=inf"),
    # an infinite smoothing width would give an all-zero curve
    "kernel_estimate_infinite_eps": (lambda: local_time.kernel_estimate(PATH, 0.0, INF, [1.0]), "eps must be positive"),
    "binned_estimate_infinite_delta": (
        lambda: local_time.binned_estimate(PATH, 0.0, INF, [1.0]),
        "delta must be positive",
    ),
    "kernel_ensemble_infinite_eps": (
        lambda: local_time.kernel_ensemble(BRIDGE, 0.0, [1e-3, INF], [1.0], 1e-3, 4, 0),
        "eps_list",
    ),
    "level_sweep_infinite_eps": (
        lambda: holder_analysis.level_sweep(PATH.values, PATH.h, np.linspace(-1, 1, 9), INF),
        "eps must be positive",
    ),
    "space_modulus_infinite_eps": (
        lambda: holder_analysis.space_modulus(BRIDGE, 1.0, np.linspace(-1, 1, 33), 2, 0.01, 0, INF),
        "eps must be positive",
    ),
    "cauchy_diagnostic_infinite_eps": (
        lambda: local_time.cauchy_diagnostic(BRIDGE, 0.0, 1.0, [INF, 1e-3], 500, 0),
        "eps_ladder",
    ),
    "cauchy_diagnostic_nan_eps": (
        lambda: local_time.cauchy_diagnostic(BRIDGE, 0.0, 1.0, [1e-2, NAN], 500, 0),
        "eps_ladder",
    ),
    # a non-finite drift parameter built a drift whose law calls returned NaN or never converged
    "drift_constant_nan_scale": (lambda: drift.DriftSpec.constant(NAN), "^scale: "),
    "drift_constant_infinite_scale": (lambda: drift.DriftSpec.constant(INF), "^scale: "),
    "drift_power_infinite_beta": (lambda: drift.DriftSpec.power(INF), "^beta: "),
    "drift_power_infinite_scale": (lambda: drift.DriftSpec.power(1.0, scale=INF), "^scale: "),
    "drift_exponential_infinite_scale": (lambda: drift.DriftSpec.exponential(1.0, scale=INF), "^scale: "),
    "drift_exponential_nan_beta": (lambda: drift.DriftSpec.exponential(NAN), "^beta: "),
    "drift_tabulated_nan_alpha": (lambda: drift.DriftSpec.tabulated([0.0, 1.0], [1.0, NAN]), "^table: .*finite"),
    "drift_tabulated_infinite_alpha": (lambda: drift.DriftSpec.tabulated([0.0, 1.0], [INF, 1.0]), "^table: .*finite"),
    # a negative T took sqrt(0) as its growth term and returned a number; NaN and inf named running_sup's t
    "time_modulus_bound_fit_negative_T": (
        lambda: holder_analysis.time_modulus_bound_fit(CURVE, -1.0, BRIDGE),
        "^T must be positive and finite, got -1.0",
    ),
    "time_modulus_bound_fit_nan_T": (
        lambda: holder_analysis.time_modulus_bound_fit(CURVE, NAN, BRIDGE),
        "^T must be positive and finite, got nan",
    ),
    "time_modulus_bound_fit_infinite_T": (
        lambda: holder_analysis.time_modulus_bound_fit(CURVE, INF, BRIDGE),
        "^T must be positive and finite, got inf",
    ),
    "time_bound_fits_zero_horizon": (
        lambda: holder_analysis.time_bound_fits(BRIDGE, [0.0, 1.0], 0.01, 2, 0),
        "horizons must be positive and nondecreasing",
    ),
    # a non-finite time reached the quadrature kernel, which named its own lo and hi
    "build_cov_matrix_nan_time": (
        lambda: gaussian_law.build_cov_matrix(BRIDGE, [1.0, NAN]),
        r"^times must be finite, got \[ 1. nan\]",
    ),
    "build_cov_matrix_infinite_time": (
        lambda: gaussian_law.build_cov_matrix(BRIDGE, [1.0, INF]),
        "^times must be finite",
    ),
    "det_bounds_nan_time": (lambda: gaussian_law.det_bounds(BRIDGE, [1.0, NAN, 3.0]), "^times must be finite"),
    # NaN and inf reached eval_alpha, and inf printed a RuntimeWarning first
    "check_growth_conditions_nan_probe_horizon": (
        lambda: drift.check_growth_conditions(BRIDGE, 0.25, NAN),
        "^probe_horizon must be finite and at least 16, got nan",
    ),
    "check_growth_conditions_infinite_probe_horizon": (
        lambda: drift.check_growth_conditions(BRIDGE, 0.25, INF),
        "^probe_horizon must be finite and at least 16, got inf",
    ),
    # both said "smoothing parameters must be nonnegative"
    "localtime_second_moment_negative_eps": (
        lambda: gaussian_law.localtime_second_moment(BRIDGE, 1.0, -1.0, 0.0),
        "^eps must be nonnegative, got -1.0",
    ),
    "localtime_second_moment_negative_theta": (
        lambda: gaussian_law.localtime_second_moment(BRIDGE, 1.0, 0.0, -1.0),
        "^theta must be nonnegative, got -1.0",
    ),
    "drift_tabulated_infinite_time": (
        lambda: drift.DriftSpec.tabulated([0.0, 1.0, INF], [1.0, 1.0, 1.0]),
        "^table: .*finite",
    ),
    # a fractional seed was a bare TypeError from the stream key's mask; a fractional n_paths or
    # chunk one from range, and a fractional thread count ran
    "terminal_values_fractional_seed": (
        lambda: simulate.terminal_values(BRIDGE, [1.0], 0.01, 4, 1.5),
        "^seed must be an integer, got 1.5",
    ),
    # a T too far for memory was a bare ValueError from simulate.grid's np.arange
    "euler_path_T_past_the_cap": (lambda: simulate.euler_path(BRIDGE, 1e17, 0.01), r"^T=1e\+17 takes 1e\+19 steps"),
    "euler_path_fractional_seed": (lambda: simulate.euler_path(BRIDGE, 1.0, 0.01, seed=1.5), "^seed must be an integer"),
    "terminal_values_fractional_n_paths": (
        lambda: simulate.terminal_values(BRIDGE, [1.0], 0.01, 2.5, 0),
        "^n_paths must be an integer of at least 1, got 2.5",
    ),
    "kernel_ensemble_fractional_n_paths": (
        lambda: local_time.kernel_ensemble(BRIDGE, 0.0, [1e-2], [1.0], 0.01, 2.5, 0),
        "^n_paths must be an integer",
    ),
    "terminal_values_fractional_chunk": (
        lambda: simulate.terminal_values(BRIDGE, [1.0], 0.01, 4, 0, chunk=2.5),
        "^chunk must be an integer of at least 1, got 2.5",
    ),
    "terminal_values_fractional_threads": (
        lambda: simulate.terminal_values(BRIDGE, [10.0], 0.01, 200, 0, threads=2.5),
        "^threads must be an integer of at least 1, got 2.5",
    ),
}

@pytest.mark.parametrize("name", sorted(CALLS))
def test_nonfinite_argument_is_a_domain_error(name):
    call, names_argument = CALLS[name]
    with pytest.raises(DomainError, match=names_argument):
        call()


NAN_LEVEL = {
    "kernel_estimate": lambda: local_time.kernel_estimate(PATH, NAN, 0.1, [1.0]),
    # the band test |X - x| < delta is False at a NaN level, so the binned estimate read 0.0
    "binned_estimate": lambda: local_time.binned_estimate(PATH, NAN, 0.1, [1.0]),
    "tanaka_estimate": lambda: local_time.tanaka_estimate(PATH, BRIDGE, NAN, [1.0]),
}


@pytest.mark.parametrize("name", sorted(NAN_LEVEL))
def test_nan_level_gives_a_nan_local_time(name):
    assert np.isnan(NAN_LEVEL[name]().values).all()


EMPTY_SCALES = {
    "time_modulus": lambda: holder_analysis.time_modulus(CURVE, []),
    "time_profile": lambda: holder_analysis.time_profile(BRIDGE, 1.0, 0.01, 1, 0, []),
}


@pytest.mark.parametrize("name", sorted(EMPTY_SCALES))
def test_empty_scales_are_a_domain_error(name):
    # scales[-1] of an empty array was a bare IndexError
    with pytest.raises(DomainError, match="scales must not be empty"):
        EMPTY_SCALES[name]()


def test_infinite_fit_values_are_dropped_and_counted():
    # an infinite value made the fit return (nan, nan) without a warning
    h = 2.0 ** -np.arange(3, 10)
    with pytest.warns(UserWarning, match="dropping 1 nonpositive and 1 NaN and 2 infinite values"):
        slope, _ = drift.loglog_slope(zip(h, [h[0], INF, 0.0, h[3], NAN, INF, h[6]]))
    assert slope == pytest.approx(1.0, abs=1e-12)
