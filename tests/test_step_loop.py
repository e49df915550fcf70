"""The array step loop of ``simulate`` against the validated-state reference.

``dynamics_reference.simulate`` builds a ``ParticleState`` after every
step; the loop under test keeps plain arrays and builds one only when it
records a state.  Both must give the same snapshots and events bit for
bit.  The errors a run raises must still carry a valid state.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import ParticleState, SimulationError, dynamics
from dynamics_reference import simulate as reference_simulate

FLUXES = ("burgers", "lwr", "tabulated")
STATE_ARRAYS = ("positions", "densities", "widths", "masses")
EVENT_ARRAYS = ("deleted_particles", "deleted_cells", "survivor_map")


def flux_model(kind, top):
    if kind == "tabulated":
        # non-convex: a(u) = (u - 0.5)^2 - 0.1 falls, then rises
        us = np.linspace(0.0, 1.0, 17)
        return pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1), u_high=top)
    return pp.builtin_flux(kind, u_high=top)


def boxes(heights, widths, gaps):
    """Boxes of the given heights and widths separated by vacuum gaps."""
    bp, vals = [0.0], []
    for i, h in enumerate(heights):
        bp.append(bp[-1] + widths[i])
        vals.append(h)
        if i < len(gaps):
            bp.append(bp[-1] + gaps[i])
            vals.append(0.0)
    return pp.piecewise_constant_data(bp, vals)


def run_both(kind, data, positions, T, dt_ratio, **kw):
    model = flux_model(kind, data.sup_u0 * (1.0 + 1e-12))
    state0 = pp.cell_average(data, positions)
    dt_max = dt_ratio * state0.dx_star
    new = pp.simulate(model, state0, T, dt_max=dt_max, **kw)
    ref = reference_simulate(model, state0, T, dt_max=dt_max, **kw)
    return new, ref


def assert_same_run(new, ref):
    assert [t for t, _ in new.snapshots] == [t for t, _ in ref.snapshots]
    for (_, a), (_, b) in zip(new.snapshots, ref.snapshots):
        assert a.time == b.time
        for name in STATE_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert len(new.events) == len(ref.events)
    for a, b in zip(new.events, ref.events):
        assert (a.time, a.discarded_mass, a.pre_particle_count) == (b.time, b.discarded_mass, b.pre_particle_count)
        for name in EVENT_ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@st.composite
def vacuum_boxes(draw):
    k = draw(st.integers(1, 3))
    heights = draw(st.lists(st.floats(0.3, 0.9), min_size=k, max_size=k))
    widths = draw(st.lists(st.floats(0.2, 0.6), min_size=k, max_size=k))
    gaps = draw(st.lists(st.floats(0.05, 0.3), min_size=k - 1, max_size=k - 1))
    return boxes(heights, widths, gaps)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(FLUXES),
    data=vacuum_boxes(),
    n=st.integers(4, 48),
    grid=st.booleans(),
    T=st.floats(0.05, 0.6),
    dt_ratio=st.floats(0.05, 0.5),
    theta=st.sampled_from([0.1, 0.5]),
    snapshot_count=st.integers(2, 12),
    every_step=st.booleans(),
)
def test_array_loop_equals_reference(kind, data, n, grid, T, dt_ratio, theta, snapshot_count, every_step):
    # an even grid keeps massless vacuum cells and cells straddling jumps
    pos = np.linspace(*data.support_hint, n) if grid else pp.place_particles(data, n, "uniform")
    new, ref = run_both(kind, data, pos, T, dt_ratio, theta=theta, snapshot_count=snapshot_count, every_step=every_step)
    assert_same_run(new, ref)


@pytest.mark.parametrize("every_step", [False, True])
@pytest.mark.parametrize("kind", FLUXES)
def test_vacuum_collisions_equal_reference(kind, every_step):
    # an even grid leaves massless cells in each gap for the sweep to collapse
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    pos = np.linspace(*data.support_hint, 41)
    new, ref = run_both(kind, data, pos, 0.6, 0.2, snapshot_count=9, every_step=every_step)
    assert len(new.events) >= 2
    assert_same_run(new, ref)


def test_paper_profile_equals_reference(burgers3):
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    new = pp.simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    ref = reference_simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    assert_same_run(new, ref)


def test_run_stats_describe_every_step():
    # with every_step, each step records one state, two at a sweep
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    traj, _ = run_both("lwr", data, np.linspace(*data.support_hint, 41), 0.6, 0.2, every_step=True)
    stats = traj.stats
    assert stats.collision_sweeps == len(traj.events) >= 2
    assert len(traj.snapshots) == 1 + stats.steps + stats.collision_sweeps
    assert sum(stats.limited_by.values()) == stats.steps
    assert set(stats.limited_by) == set(dynamics.LIMITERS)
    assert stats.limited_by["landing"] == 1
    assert stats.min_width == min(float(s.widths.min()) for _, s in traj.snapshots)
    times = np.unique(traj.times)
    dts = np.diff(times)
    assert stats.dt_min == pytest.approx(dts.min(), rel=1e-9)
    assert stats.dt_median == pytest.approx(float(np.median(dts)), rel=1e-9)
    assert stats.dt_min <= stats.dt_median <= traj.config["dt_max"]


def test_unbound_steps_are_set_by_dt_max_and_landing(burgers3):
    # a box under burgers only spreads: no pair approaches, so no cap binds
    st0 = ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.full(10, 2.0))
    traj = pp.simulate(burgers3, st0, 0.1, dt_max=0.03, snapshot_count=2)
    assert traj.stats.steps == 4
    assert traj.stats.limited_by == {"dt_max": 3, "crossing": 0, "density": 0, "landing": 1}
    assert traj.stats.dt_min == pytest.approx(0.01)
    assert traj.stats.dt_median == 0.03
    assert traj.stats.collision_sweeps == 0
    assert traj.stats.min_width == pytest.approx(0.1)


def test_squeezed_cell_is_limited_by_the_density_cap(burgers3):
    # the dense cell runs into the light one, which may shrink only to its
    # mass over the initial maximum: 0.1 - 0.1 / 3 at closing speed 1, below
    # the crossing cap 0.9 * 0.1
    st0 = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    traj = pp.simulate(burgers3, st0, 1.0, dt_max=10.0, snapshot_count=2)
    limited = traj.stats.limited_by
    assert limited["dt_max"] == 0
    assert limited["density"] >= 1
    first = pp.simulate(burgers3, st0, 1.0, dt_max=10.0, every_step=True).times[1]
    assert traj.stats.dt_min <= first == pytest.approx(0.2 / 3)


def assert_valid(state, time=None):
    assert isinstance(state, ParticleState)
    dataclasses.replace(state)  # runs __post_init__ again
    if time is not None:
        assert state.time == time


def test_ordering_violation_carries_the_last_valid_state(burgers3, monkeypatch):
    # with no step cap the dense cell overruns the light one on the first step
    monkeypatch.setattr(dynamics, "_timestep_cap", lambda *args: (np.inf, np.inf))
    st0 = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    with pytest.raises(SimulationError, match="ordering violated") as err:
        pp.simulate(burgers3, st0, 1.0, dt_max=1.0, snapshot_count=2)
    assert_valid(err.value.state, time=0.0)
    np.testing.assert_array_equal(err.value.state.positions, st0.positions)


def test_stall_carries_the_last_valid_state(burgers3, monkeypatch):
    monkeypatch.setattr(dynamics, "_timestep_cap", lambda *args: (1e-20, 1e-20))
    st0 = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    with pytest.raises(SimulationError, match="timestep collapsed") as err:
        pp.simulate(burgers3, st0, 1.0, dt_max=1.0, snapshot_count=2)
    assert_valid(err.value.state)
    assert 0.0 < err.value.state.time < 1e-15


def test_nonfinite_state_aborts_with_the_last_valid_state():
    # the right end particle runs past the largest float in one step
    st0 = ParticleState.from_cells([1.7e308, 1.79e308], [1.0])
    model = pp.builtin_flux("burgers", u_high=1.0)
    with np.errstate(over="ignore"), pytest.raises(SimulationError, match="non-finite state") as err:
        pp.simulate(model, st0, 1e307, dt_max=1e307, snapshot_count=2)
    assert_valid(err.value.state, time=0.0)
    np.testing.assert_array_equal(err.value.state.positions, st0.positions)
