"""Input that each entry point refuses with ``ValueError`` on one line.

Every case here names the fault instead of returning a wrong answer; no
other test reaches these checks.
"""

import numpy as np
import pytest

import particle_paths as pp
from particle_paths.flux import MonotoneOracle, PiecewiseMonotoneOracle


def burgers_run(data=None):
    """A short burgers run on a unit box, with ``data`` as its record."""
    box = pp.box_data(1.0, 0.0, 1.0)
    state0 = pp.cell_average(box, pp.place_particles(box, 5, "uniform"))
    return pp.simulate(pp.builtin_flux("burgers", u_high=1.0), state0, 0.01, dt_max=0.005, data=data)


def report_over(window):
    """``error_report`` of a short burgers run, with its data record, over ``window``."""
    box = pp.box_data(1.0, 0.0, 1.0)
    return pp.error_report(burgers_run(box), pp.burgers_rarefaction_shock(), 0.01, window=window)


def godunov_in(window):
    """A short burgers Godunov run on a unit box over ``window``."""
    return pp.godunov_reference(pp.builtin_flux("burgers"), pp.box_data(1.0, 0.0, 1.0), 50, 0.1, window=window)


def largest_float_model():
    """A decreasing a(u) = 1 - u / max on [0, max], max the largest float."""
    top = np.finfo(float).max

    def a_of(u):
        return 1.0 - np.asarray(u, dtype=float) / top

    return pp.FluxModel("overflow", lambda u: u * a_of(u), 1.0, 1.0, top,
                        extremum_oracle=MonotoneOracle(a_of, increasing=False))


# two cells of finite mass whose masses sum past the largest float
MASS_OVERFLOWS = pp.ParticleState.from_cells([0.0, 1.0, 2.0], [1e308, np.finfo(float).max])
WINDOW = "window must be two finite numbers lo < hi"
RATE = "rate must be finite and positive"
NODES = "oracle nodes must be strictly increasing from 0"
UNIT_TABLE = {"us": [0.0, 1.0], "fs": [0.0, 1.0]}
REFUSALS = [
    # builtin_flux
    ("burgers_params", lambda: pp.builtin_flux("burgers", v_max=1.0), "burgers flux takes no params"),
    ("lwr_unknown_param", lambda: pp.builtin_flux("lwr", speed=1.0), "unknown lwr params"),
    ("lwr_zero_v_max", lambda: pp.builtin_flux("lwr", v_max=0.0), "positive v_max and u_max"),
    ("tabulated_unknown_param", lambda: pp.builtin_flux("tabulated", top=1.0, **UNIT_TABLE), "unknown tabulated params"),
    ("tabulated_mismatched", lambda: pp.builtin_flux("tabulated", us=[0.0, 1.0], fs=[0.0, 1.0, 2.0]), "matching 1-D"),
    ("tabulated_repeated_us", lambda: pp.builtin_flux("tabulated", us=[0.0, 0.5, 0.5, 1.0], fs=[0.0, 1.0, 1.0, 0.0]),
     "strictly increasing"),
    ("tabulated_u_high_above", lambda: pp.builtin_flux("tabulated", u_high=2.0, **UNIT_TABLE), "exceeds the tabulated"),
    ("tabulated_slope_overflows", lambda: pp.builtin_flux("tabulated", us=[0.0, 1e-300, 1.0], fs=[0.0, 1e300, 1.0]),
     "slope overflows"),
    # simulate: numpy's overflow warning once escaped from the total mass
    ("simulate_total_mass_overflows", lambda: pp.simulate(largest_float_model(), MASS_OVERFLOWS, 10.0, dt_max=10.0),
     "state0's total mass must be finite, got inf"),
    # initial data and placement
    ("cell_average_unordered", lambda: pp.cell_average(pp.box_data(1.0, 0.0, 1.0), [0.0, 0.5, 0.5, 1.0]),
     "positions must be strictly increasing"),
    ("gap_after_time_zero", lambda: pp.initial_approximation_gap(
        pp.box_data(1.0, 0.0, 1.0), pp.ParticleState.from_cells([0.0, 1.0], [1.0], time=0.5)), "initial state only"),
    ("rarefaction_shock_no_margin", lambda: pp.rarefaction_shock_data(0.0), "margin must be positive"),
    # a one-number window once raised IndexError, a traceback from the CLI
    ("riemann_window_one_number", lambda: pp.riemann_data(0.2, 0.8, window=[1.0]), WINDOW),
    ("riemann_window_three_numbers", lambda: pp.riemann_data(0.2, 0.8, window=[-1.0, 0.5, 1.0]), WINDOW),
    ("mass_quantiles_collapse", lambda: pp.place_particles(
        pp.piecewise_constant_data([0.0, 1.0, 1.0 + 1e-15, 2.0], [1e-300, 1.0, 1e-300]), 50, "mass_equidistributed"),
     "mass quantiles are not strictly increasing"),
    # analysis
    ("stability_bound_negative", lambda: pp.stability_error_bound(0.1, -1.0, 0.1), "bound inputs must be nonnegative"),
    ("rate_bound_negative", lambda: pp.explicit_rate_bound(1.0, 1.0, 1.0, 0.1, -1.0), "bound inputs must be nonnegative"),
    ("error_report_without_data", lambda: pp.error_report(burgers_run(), pp.burgers_rarefaction_shock(), 0.01),
     "no initial data record"),
    ("error_report_window_text", lambda: report_over(("a", 1)), WINDOW),
    ("error_report_window_three", lambda: report_over((0, 1, 2)), WINDOW),
    ("error_report_window_infinite", lambda: report_over((0, np.inf)), WINDOW),
    ("error_report_window_nan", lambda: report_over((np.nan, 1)), WINDOW),
    ("fit_resolution_nan", lambda: pp.fit_loglog_slope([0.2, 0.1, np.nan], [1.0, 0.5, 0.2]),
     "resolutions must be finite and positive, got nan"),
    ("fit_resolution_zero", lambda: pp.fit_loglog_slope([0.2, 0.1, 0.0], [1.0, 0.5, 0.2]),
     "resolutions must be finite and positive, got 0.0"),
    ("fit_resolution_infinite", lambda: pp.fit_loglog_slope([np.inf, 0.1, 0.05], [1.0, 0.5, 0.2]),
     "resolutions must be finite and positive, got inf"),
    ("fit_error_nan", lambda: pp.fit_loglog_slope([0.2, 0.1, 0.05], [1.0, np.nan, 0.2]),
     "errors must be finite and nonnegative, got nan"),
    ("fit_error_infinite", lambda: pp.fit_loglog_slope([0.2, 0.1, 0.05], [np.inf, 0.5, 0.2]),
     "errors must be finite and nonnegative, got inf"),
    ("fit_error_negative", lambda: pp.fit_loglog_slope([0.2, 0.1, 0.05], [1.0, 0.5, -0.2]),
     "errors must be finite and nonnegative, got -0.2"),
    ("convergence_two_counts", lambda: pp.convergence_study(
        pp.builtin_flux("burgers", u_high=3.0), pp.rarefaction_shock_data(), pp.burgers_rarefaction_shock(), [9, 17], 0.1),
     "at least three particle counts"),
    ("richardson_rate_zero", lambda: pp.richardson_error_estimate(0.01, 0.0), RATE),
    ("richardson_rate_negative", lambda: pp.richardson_error_estimate(0.01, -1.0), RATE),
    ("richardson_rate_infinite", lambda: pp.richardson_error_estimate(0.01, np.inf), RATE),
    ("richardson_rate_nan", lambda: pp.richardson_error_estimate(0.01, np.nan), RATE),
    ("richardson_distance_nan", lambda: pp.richardson_error_estimate(np.nan, 0.5), "nonnegative, got dist_coarse_fine=nan"),
    # 2**rate rounds to 1, or overflows
    ("richardson_rate_underflows", lambda: pp.richardson_error_estimate(0.01, 1e-300), RATE),
    ("richardson_rate_overflows", lambda: pp.richardson_error_estimate(0.01, 2000.0), RATE),
    # the rest
    ("step_function_nan", lambda: pp.PiecewiseConstantFn([0.0, 1.0], [np.nan]), "non-finite reconstruction"),
    ("residual_one_snapshot", lambda: pp.spacetime_flux_residual(
        pp.Trajectory([burgers_run().snapshots[0]], [], pp.builtin_flux("burgers", u_high=1.0))), "at least two snapshots"),
    ("riemann_negative_state", lambda: pp.riemann_solution(pp.builtin_flux("lwr"), -0.1, 0.5),
     "states must be finite and nonnegative"),
    ("godunov_one_cell", lambda: pp.godunov_reference(pp.builtin_flux("burgers"), pp.box_data(1.0, 0.0, 1.0), 1, 0.1),
     "at least two cells"),
    ("godunov_window_nan", lambda: godunov_in((np.nan, 1.0)), WINDOW),
    ("godunov_window_infinite", lambda: godunov_in((0.0, np.inf)), WINDOW),
    ("godunov_window_inverted", lambda: godunov_in((1.0, 0.0)), WINDOW),
    ("godunov_window_empty", lambda: godunov_in((0.5, 0.5)), WINDOW),
    ("godunov_window_one_number", lambda: godunov_in([0.0]), WINDOW),
    ("godunov_window_bool", lambda: godunov_in((0.0, True)), WINDOW),
    # dt = 1.8e-322 could not advance t = 1: 1 + dt == 1
    ("godunov_step_below_ulp", lambda: pp.godunov_reference(
        pp.builtin_flux("burgers"), pp.box_data(1.0, 0.0, 1.0), 50, 1.0, window=(0.0, 1e-320)),
     r"window \(0.0, 1e-320\) over 50 cells gives dt = 1.779e-322, more than 1e8 steps to T = 1.0"),
    # dt = 1.8e-11 advances t, but T = 1 would take about 5.6e10 steps
    ("godunov_window_too_narrow", lambda: pp.godunov_reference(
        pp.builtin_flux("burgers"), pp.box_data(1.0, 0.0, 1.0), 50, 1.0, window=(0.0, 1e-9)),
     r"window \(0.0, 1e-09\) over 50 cells gives dt = 1.800e-11, more than 1e8 steps to T = 1.0"),
    # an oracle's nodes must be a 1-D run strictly increasing from 0
    ("oracle_nodes_not_from_zero", lambda: PiecewiseMonotoneOracle(np.negative, [0.5, 1.0]), NODES),
    ("oracle_nodes_repeated", lambda: PiecewiseMonotoneOracle(np.negative, [0.0, 0.5, 0.5, 1.0]), NODES),
    ("oracle_nodes_empty", lambda: PiecewiseMonotoneOracle(np.negative, []), NODES),
    ("oracle_nodes_2d", lambda: PiecewiseMonotoneOracle(np.negative, [[0.0, 1.0]]), NODES),
    ("oracle_nodes_nan", lambda: PiecewiseMonotoneOracle(np.negative, [0.0, np.nan, 1.0]), NODES),
    # NaN fails the range guards, and a count must be an integer
    ("stability_bound_nan", lambda: pp.stability_error_bound(np.nan, 1.0, 1.0), "nonnegative, got initial_gap=nan"),
    ("rate_bound_nan", lambda: pp.explicit_rate_bound(1.0, 1.0, 1.0, np.nan, 1.0), "nonnegative, got dx_star=nan"),
    ("velocity_extrema_nan", lambda: pp.velocity_extrema(pp.builtin_flux("burgers"), np.nan, 0.5),
     r"density interval \[nan, 0.5\]"),
    ("place_particles_float_n", lambda: pp.place_particles(pp.box_data(1.0, 0.0, 1.0), 11.0), "n must be an integer"),
    ("godunov_float_cells", lambda: pp.godunov_reference(pp.builtin_flux("burgers"), pp.box_data(1.0, 0.0, 1.0), 100.0, 0.1),
     "cells must be an integer"),
]


@pytest.mark.parametrize("call, match", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS])
def test_refused_with_a_named_fault(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_total_mass_and_working_top_overflow_without_a_warning():
    # the suite turns warnings into errors: the total mass is inf, and the
    # kernel's working top, formed from u_high as a float, is inf too
    assert MASS_OVERFLOWS.total_mass == np.inf
    model = largest_float_model()
    vel = pp.particle_velocities(model, MASS_OVERFLOWS)
    assert model.density_limit == np.inf
    assert np.isfinite(vel).all()
