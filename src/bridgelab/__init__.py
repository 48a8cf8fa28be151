"""bridgelab: simulation and verification laboratory for pinned diffusions.

The process under study is dX_t = -alpha(t) X_t dt + dW_t with X_0 = 0 and
a nonnegative rate alpha growing fast enough that X_t -> 0 almost surely:
an infinite-horizon Brownian bridge.  The package computes its exact
Gaussian law by stable quadrature, simulates paths by Euler and by exact
Gaussian transitions, estimates the local time at a level by three
independent methods, and measures Hoelder moduli of the local time in both
time and level.
"""

from .drift import DriftSpec, GrowthReport, check_growth_conditions, eval_alpha, eval_antiderivative, laplace_asymptotic_ratio, loglog_slope, running_sup
from .gaussian_law import (
    CovarianceMatrix,
    DetBounds,
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
from .holder_analysis import ModulusProfile, level_sweep, space_modulus, time_modulus, time_modulus_bound_fit, time_profile
from .local_time import (
    LocalTimeCurve,
    binned_estimate,
    cauchy_diagnostic,
    growth_probe,
    kernel_estimate,
    kernel_second_moment,
    tanaka_estimate,
)
from .simulate import DecayStats, SamplePath, batch_terminal_stats, chain_variance, euler_path, exact_path

__version__ = "0.1.0"
