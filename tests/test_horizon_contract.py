"""The five ensembles that record at horizons share simulate.horizon_steps' contract.

Each takes horizons, h, n_paths and seed in that order, and refuses a ladder
that horizon_steps refuses, with its message, before any path is walked.  A
ladder of horizon 0 alone records zeros, except in the two fits, which refuse it.
"""

import inspect
import math

import pytest

from bridgelab import holder_analysis, local_time, simulate
from bridgelab.drift import DriftSpec
from bridgelab.errors import DomainError

BRIDGE = DriftSpec.power(0.8)

# name -> (function, a call of it on a horizon ladder at h = 0.01)
ENSEMBLES = {
    "terminal_values": (simulate.terminal_values, lambda hz: simulate.terminal_values(BRIDGE, hz, 0.01, 4, 0)),
    "batch_terminal_stats": (
        simulate.batch_terminal_stats,
        lambda hz: simulate.batch_terminal_stats(BRIDGE, hz, 0.01, 100, 0),
    ),
    "kernel_ensemble": (
        local_time.kernel_ensemble,
        lambda hz: local_time.kernel_ensemble(BRIDGE, 0.0, [1e-2], hz, 0.01, 4, 0),
    ),
    "growth_probe": (local_time.growth_probe, lambda hz: local_time.growth_probe(BRIDGE, 0.0, hz, 0.01, 4, 0)),
    "time_bound_fits": (
        holder_analysis.time_bound_fits,
        lambda hz: holder_analysis.time_bound_fits(BRIDGE, hz, 0.01, 4, 0),
    ),
}

REFUSED = {
    "empty": ([], "^horizons must not be empty$"),
    "nan": ([1.0, math.nan], "^horizons must be finite"),
    "infinite": ([1.0, math.inf], "^horizons must be finite"),
    "negative": ([-1.0, 1.0], "^horizons must be nonnegative and nondecreasing$"),
    "decreasing": ([2.0, 1.0], "^horizons must be nonnegative and nondecreasing$"),
    "off_grid": ([1.0, 1.005], "^horizons must lie on the step grid$"),
    # simulate.grid's np.arange raised a bare "Maximum allowed size exceeded"
    "past_the_cap": ([1.0, 1e17], r"^horizons reach 1e\+19 steps of h=0.01, past the cap of 1e\+08 per path$"),
}


@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_horizons_h_n_paths_seed_come_in_one_order(name):
    params = list(inspect.signature(ENSEMBLES[name][0]).parameters)
    start = params.index("horizons")
    assert params[start : start + 4] == ["horizons", "h", "n_paths", "seed"]


@pytest.mark.parametrize("case", sorted(REFUSED))
@pytest.mark.parametrize("name", sorted(ENSEMBLES))
def test_horizon_steps_refusals_come_before_any_walk(monkeypatch, name, case):
    def refuse_to_build(*args):
        raise AssertionError("the transition table was built")

    monkeypatch.setattr(simulate, "transition_table", refuse_to_build)
    horizons, message = REFUSED[case]
    with pytest.raises(DomainError, match=message):
        ENSEMBLES[name][1](horizons)
    with pytest.raises(DomainError, match=message):
        simulate.horizon_steps(horizons, 0.01)


@pytest.mark.parametrize("name, shape", [("terminal_values", (4, 1)), ("kernel_ensemble", (4, 1, 1))])
def test_horizon_zero_records_zeros(name, shape):
    # kernel_ensemble refused [0.0] with an error naming T, an argument it does not take
    got = ENSEMBLES[name][1]([0.0])
    assert got.shape == shape and not got.any()


def test_horizon_zero_has_zero_statistics():
    stats = ENSEMBLES["batch_terminal_stats"][1]([0.0])
    for column in (stats.mean_abs, stats.mean_sq, stats.std_err_sq):
        assert column.shape == (1,) and not column.any()


@pytest.mark.parametrize("name", ["growth_probe", "time_bound_fits"])
def test_horizon_zero_is_refused_by_the_fits(monkeypatch, name):
    def refuse_to_build(*args):
        raise AssertionError("the transition table was built")

    monkeypatch.setattr(simulate, "transition_table", refuse_to_build)
    with pytest.raises(DomainError, match="^horizons must be positive"):
        ENSEMBLES[name][1]([0.0])
