import numpy as np
import pytest

from conftest import cubic_flux_model, pair_velocities
from particle_paths import builtin_flux, follow_the_leader_deviation, velocity_extrema
from particle_paths.flux import FluxModel, PiecewiseMonotoneOracle


def pair_velocity(model, v_l, v_r) -> float:
    """The kernel's velocity of the one particle between states v_l and v_r."""
    return float(pair_velocities(model, [v_l], [v_r])[0])


def test_burgers_pair():
    m = builtin_flux("burgers", u_high=3.0)
    # grid-scan oracle for min of a over [1, 3]
    ref = np.asarray(m.eval_a(np.linspace(1.0, 3.0, 20001))).min()
    assert pair_velocity(m, 1.0, 3.0) == pytest.approx(ref, abs=1e-12) == 0.5


def test_equal_states_both_branches(burgers3):
    for c in (0.0, 0.4, 1.7, 3.0):
        assert pair_velocity(burgers3, c, c) == pytest.approx(float(burgers3.eval_a(c)))


def test_lwr_decreasing_pair():
    m = builtin_flux("lwr")
    # falling density: max of a over [0.2, 0.8] is attained at the right state
    assert pair_velocity(m, 0.8, 0.2) == pytest.approx(0.8) == pytest.approx(float(m.eval_a(0.2)))


def test_negative_state_rejected(burgers3):
    with pytest.raises(ValueError):
        pair_velocity(burgers3, -0.1, 1.0)
    with pytest.raises(ValueError):
        pair_velocity(burgers3, 1.0, -0.1)


def test_velocity_within_interval_extrema():
    rng = np.random.default_rng(4)
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        for v_l, v_r in rng.uniform(0.0, top, size=(300, 2)):
            v = pair_velocity(m, v_l, v_r)
            ext = velocity_extrema(m, min(v_l, v_r), max(v_l, v_r))
            assert ext.min_value - 1e-12 <= v <= ext.max_value + 1e-12


def test_entropic_ordering_at_extrema():
    # at a local density peak the left interface is no faster than the right;
    # reversed at a trough
    rng = np.random.default_rng(5)
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        for _ in range(300):
            trip = rng.uniform(0.0, top, size=3)
            lo, mid, hi = np.sort(trip)
            # peak: (lo, hi, mid) pattern around center hi
            assert pair_velocity(m, lo, hi) <= pair_velocity(m, hi, mid) + 1e-12
            # trough: center lo
            assert pair_velocity(m, hi, lo) >= pair_velocity(m, lo, mid) - 1e-12


def test_ftl_coincidence_lwr():
    us = np.linspace(0.0, 1.0, 65)
    sampled = builtin_flux("tabulated", us=us, fs=us * (1.0 - us))
    rng = np.random.default_rng(6)
    pairs = rng.uniform(0.0, 1.0, size=(100, 2))
    for m in (builtin_flux("lwr"), sampled):
        assert follow_the_leader_deviation(m, pairs) <= 1e-8
        assert follow_the_leader_deviation(m, [(0.5, 0.5)]) == 0.0


def test_ftl_deviation_of_lwr_is_exactly_zero(lwr1):
    # the kernel's rule for lwr is the oracle's own a(v_r), the value the
    # check compares against, so nothing is left to round
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(0.0, lwr1.u_high, size=(10000, 2))  # criterion 5's pairs
    assert follow_the_leader_deviation(lwr1, pairs) == 0.0
    equal = np.repeat(np.linspace(0.01, 0.99, 99), 2).reshape(-1, 2)
    assert follow_the_leader_deviation(builtin_flux("lwr"), equal) == 0.0


def test_ftl_rejects_increasing_velocity_field(burgers3):
    # the table's a is 0.2 on [0, 0.5] and rises to 0.5 at u = 1
    rising_table = builtin_flux("tabulated", us=[0.0, 0.5, 1.0], fs=[0.0, 0.1, 0.5])
    # a = |u - 1/2| + 1/10 falls to its node u = 1/2 and rises beyond it
    def v_shape(u):
        return np.abs(np.asarray(u, dtype=float) - 0.5) + 0.1

    rising_nodes = FluxModel("v", lambda u: u * v_shape(u), 0.6, 1.1, 1.0,
                             extremum_oracle=PiecewiseMonotoneOracle(v_shape, [0.0, 0.5]))
    for model, message in (
        (burgers3, "not nonincreasing"),
        (rising_table, r"not nonincreasing: a\(0\.5\) = 0\.2 < a\(1\) = 0\.5$"),
        (rising_nodes, r"not nonincreasing: a\(0\.5\) = 0\.1 < a\(1\) = 0\.6$"),
    ):
        with pytest.raises(ValueError, match=message):
            follow_the_leader_deviation(model, [(0.5, 0.5)])


def test_ftl_checks_a_closed_form_field_by_its_nodes():
    # the cubic's a falls on [0, 3/4], and its one node lies beyond 0.7, so
    # 0 and 0.7 decide; the rule there is a(v_r) exactly
    model = cubic_flux_model(0.7)
    pairs = np.random.default_rng(7).uniform(0.0, 0.7, size=(1000, 2))
    assert follow_the_leader_deviation(model, pairs) == 0.0
    assert follow_the_leader_deviation(model, [(0.5, 0.5)]) == 0.0
