import numpy as np
import pytest

from conftest import cubic_flux_model
from particle_paths import builtin_flux, follow_the_leader_deviation, particle_velocity, velocity_extrema


def test_burgers_pair():
    m = builtin_flux("burgers", u_high=3.0)
    # grid-scan oracle for min of a over [1, 3]
    ref = np.asarray(m.eval_a(np.linspace(1.0, 3.0, 20001))).min()
    assert particle_velocity(m, 1.0, 3.0) == pytest.approx(ref, abs=1e-12) == 0.5


def test_equal_states_both_branches(burgers3):
    for c in (0.0, 0.4, 1.7, 3.0):
        assert particle_velocity(burgers3, c, c) == pytest.approx(float(burgers3.eval_a(c)))


def test_lwr_decreasing_pair():
    m = builtin_flux("lwr")
    # falling density: max of a over [0.2, 0.8] is attained at the right state
    assert particle_velocity(m, 0.8, 0.2) == pytest.approx(0.8) == pytest.approx(float(m.eval_a(0.2)))


def test_negative_state_rejected(burgers3):
    with pytest.raises(ValueError):
        particle_velocity(burgers3, -0.1, 1.0)
    with pytest.raises(ValueError):
        particle_velocity(burgers3, 1.0, -0.1)


def test_velocity_within_interval_extrema():
    rng = np.random.default_rng(4)
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        for v_l, v_r in rng.uniform(0.0, top, size=(300, 2)):
            v = particle_velocity(m, v_l, v_r)
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
            assert particle_velocity(m, lo, hi) <= particle_velocity(m, hi, mid) + 1e-12
            # trough: center lo
            assert particle_velocity(m, hi, lo) >= particle_velocity(m, lo, mid) - 1e-12


def test_ftl_coincidence_lwr():
    us = np.linspace(0.0, 1.0, 65)
    sampled = builtin_flux("tabulated", us=us, fs=us * (1.0 - us))
    rng = np.random.default_rng(6)
    pairs = rng.uniform(0.0, 1.0, size=(100, 2))
    for m in (builtin_flux("lwr"), sampled):
        assert follow_the_leader_deviation(m, pairs) <= 1e-8
        assert follow_the_leader_deviation(m, [(0.5, 0.5)]) == 0.0


def test_ftl_rejects_increasing_velocity_field(burgers3):
    # the table's a is 0.2 on [0, 0.5] and rises to 0.5 at u = 1; the cubic
    # model's a falls on [0, 0.7], but its plain-function oracle cannot say so
    rising_table = builtin_flux("tabulated", us=[0.0, 0.5, 1.0], fs=[0.0, 0.1, 0.5])
    for model, message in (
        (burgers3, "not nonincreasing"),
        (rising_table, r"not nonincreasing: a\(0\.5\) = 0\.2 < a\(1\) = 0\.5$"),
        (cubic_flux_model(0.7), r"builtin_flux\('tabulated'\)"),
    ):
        with pytest.raises(ValueError, match=message):
            follow_the_leader_deviation(model, [(0.5, 0.5)])
