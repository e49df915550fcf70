"""The array step loop of ``simulate`` against the validated-state reference.

``dynamics_reference.simulate`` builds a ``ParticleState`` after every
step; the loop under test keeps plain arrays and builds one only when it
records a state.  Both must give the same snapshots and events bit for
bit.  The errors a run raises must still carry a valid state.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import ParticleState, SimulationError, dynamics, velocity
from particle_paths.flux import FluxModel, MonotoneOracle
import dynamics_reference
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


def boxes(heights, widths, gaps, offset=0.0, scale=1.0):
    """Boxes of the given heights and widths separated by vacuum gaps,
    the breakpoints stretched by ``scale`` and moved by ``offset``."""
    bp, vals = [0.0], []
    for i, h in enumerate(heights):
        bp.append(bp[-1] + widths[i])
        vals.append(h)
        if i < len(gaps):
            bp.append(bp[-1] + gaps[i])
            vals.append(0.0)
    return pp.piecewise_constant_data(offset + scale * np.array(bp), vals)


def run_both(kind, data, positions, T, dt_ratio, **kw):
    model = flux_model(kind, data.sup_u0 * (1.0 + 1e-12))
    state0 = pp.cell_average(data, positions)
    dt_max = dt_ratio * state0.dx_star
    new = pp.simulate(model, state0, T, dt_max=dt_max, **kw)
    ref = reference_simulate(model, state0, T, dt_max=dt_max, **kw)
    return new, ref


def assert_same_state(a, b):
    assert a.time == b.time
    for name in STATE_ARRAYS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def assert_same_run(new, ref):
    assert new.times.tolist() == ref.times.tolist()
    for a, b in zip(new.snapshots, ref.snapshots):
        assert_same_state(a, b)
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
    for state in new.snapshots:
        dynamics_reference.revalidated(state)


def far_data(heights, offset, ulps, n):
    """Abutting boxes at ``offset`` whose n - 1 even cells are ``ulps`` position ulps wide.

    Steps on such cells fail the ordering certificate (a width above four
    ulps of the largest position) and check their positions one by one.
    The boxes touch: a massless cell would shrink below the position
    spacing long before the collision threshold and abort both loops.
    """
    scale = ulps * math.ulp(offset) * (n - 1)
    return pp.piecewise_constant_data(offset + scale * np.linspace(0.0, 1.0, len(heights) + 1), heights), scale


def outcome(run, model, state0, T, **kw):
    """The run's trajectory, or the SimulationError it raised."""
    try:
        return run(model, state0, T, **kw)
    except SimulationError as err:
        return err


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(FLUXES),
    heights=st.lists(st.floats(0.3, 0.9), min_size=1, max_size=3),
    offset=st.sampled_from([1e6, 1e12, 1e15]),
    ulps=st.floats(1.0, 6.0).map(lambda e: 2.0**e),
    n=st.integers(4, 48),
    grid=st.booleans(),
    T=st.floats(0.05, 0.6),
    dt_ratio=st.floats(0.05, 0.5),
    theta=st.sampled_from([0.1, 0.5]),
    snapshot_count=st.integers(2, 12),
    every_step=st.booleans(),
)
def test_far_from_the_origin_equals_reference(
    kind, heights, offset, ulps, n, grid, T, dt_ratio, theta, snapshot_count, every_step
):
    # T is in units of the data's length; a run may end in the same
    # SimulationError on both loops, which must then carry the same state
    data, scale = far_data(heights, offset, ulps, n)
    pos = np.linspace(*data.support_hint, n) if grid else pp.place_particles(data, n, "uniform")
    model = flux_model(kind, data.sup_u0 * (1.0 + 1e-12))
    state0 = pp.cell_average(data, pos)
    kw = dict(dt_max=dt_ratio * state0.dx_star, theta=theta, snapshot_count=snapshot_count, every_step=every_step)
    new = outcome(pp.simulate, model, state0, state0.time + T * scale, **kw)
    ref = outcome(reference_simulate, model, state0, state0.time + T * scale, **kw)
    if isinstance(ref, SimulationError):
        assert isinstance(new, SimulationError) and str(new) == str(ref)
        assert_same_state(new.state, ref.state)
    else:
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


@pytest.mark.parametrize("offset, scale", [(1e6, 1.0), (1e12, 1e3)])
@pytest.mark.parametrize("kind", FLUXES)
def test_vacuum_collisions_far_from_the_origin(kind, offset, scale):
    # a closing vacuum cell falls below the float spacing at the offset
    # (1.2e-10 at 1e6) long before 1e-9 of the median width (4e-11 there):
    # the threshold's floor of 160 position ulps sweeps it first, and the
    # run sweeps as often as the same boxes at the origin do
    near = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15], offset, scale)
    at_origin, _ = run_both(kind, near, np.linspace(*near.support_hint, 41), 0.6, 0.2, snapshot_count=9)
    new, ref = run_both(kind, data, np.linspace(*data.support_hint, 41), 0.6 * scale, 0.2, snapshot_count=9)
    assert_same_run(new, ref)
    assert len(new.events) == len(at_origin.events) >= 2
    assert pp.invariant_audit(new).passed
    assert new.config["eps_coll"] == 160.0 * math.ulp(data.support_hint[1])


def test_paper_profile_equals_reference(burgers3):
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    new = pp.simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    ref = reference_simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    assert_same_run(new, ref)


@st.composite
def cell_states(draw):
    """3 to 11 cells at a random left end: about 15% vacuum, 20% slivers
    1e-3 wide, the rest up to 0.5 wide, densities in [0.05, 0.95]."""
    widths, densities = [], []
    for kind in draw(st.lists(st.integers(0, 19), min_size=3, max_size=11)):
        widths.append(1e-3 if 3 <= kind < 7 else draw(st.floats(0.05, 0.5)))
        densities.append(0.0 if kind < 3 else draw(st.floats(0.05, 0.95)))
    x0 = draw(st.floats(-1.0, 1.0))
    return ParticleState.from_cells(x0 + np.concatenate(([0.0], np.cumsum(widths))), densities)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(FLUXES), state=cell_states(), theta=st.sampled_from([0.1, 0.5]), record=st.booleans())
def test_one_step_at_the_cap_keeps_the_state_valid(kind, state, theta, record):
    # one step at the caps, with dt_max = 1 where none binds: widths stay
    # positive, no density rises above the state's maximum, the arguments
    # are untouched and the step has the reference's bits.  TV(rho) is not
    # asserted: at these caps it can rise on a step (ROADMAP item 1)
    model = flux_model(kind, 1.0)
    rho_star = float(np.max(state.densities)) * (1.0 + dynamics.DENSITY_HEADROOM)
    vel = dynamics.particle_velocities(model, state)
    before = [a.tobytes() for a in (state.widths, state.masses, vel)]
    closing = vel[:-1] - vel[1:]
    floor = state.masses / rho_star if rho_star > 0.0 else None
    dt = min(1.0, *dynamics._timestep_cap(state.widths, floor, closing, theta))
    x0, widths, densities, w_min, top, pos = dynamics._advance(
        float(state.positions[0]), state.widths, state.masses, vel, closing, dt, record
    )
    assert w_min == widths.min() > 0.0
    assert top == densities.max()
    assert densities.max() <= np.max(state.densities) * (1.0 + 1e-12)
    assert [a.tobytes() for a in (state.widths, state.masses, vel)] == before
    ref = dynamics_reference._advance(state, vel, dt, state.time + dt)
    assert np.float64(x0).tobytes() == ref.positions[:1].tobytes()
    assert widths.tobytes() == ref.widths.tobytes()
    assert densities.tobytes() == ref.densities.tobytes()
    if record:
        assert pos.tobytes() == ref.positions.tobytes()


def clamped_slack_caps(widths, masses, rho_star, closing, theta):
    """The two caps as the loop took them with masses / rho* formed every
    step and each slack clamped at 0 before the division."""
    approaching = (closing > 0.0).nonzero()[0]
    if approaching.size == 0:
        return np.inf, np.inf
    rate = closing.take(approaching)
    gaps = widths.take(approaching)
    crossing = float(np.minimum.reduce((1.0 - theta) * gaps / rate))
    if rho_star <= 0.0:
        return crossing, np.inf
    slack = np.maximum(gaps - masses.take(approaching) / rho_star, 0.0)
    return crossing, float(np.minimum.reduce(slack / rate))


def bits(values):
    return [np.float64(v).tobytes() for v in values]


# under burgers the sliver (density 0.6) and the cell after it both close
# on the dense cell behind.  Scaled by 1e308, the sliver's slack quotient is
# subnormal, or -0.0 where rho* sits just below its density, while the
# other cell's stays positive; scaled by inf every rate overflows
SQUEEZED = ParticleState.from_cells([0.0, 0.3, 0.3 + 1e-3, 0.6], [0.9, 0.6, 0.2])
HEADROOM = 1.0 + dynamics.DENSITY_HEADROOM


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(FLUXES),
    state=cell_states(),
    theta=st.sampled_from([0.1, 0.5]),
    rho_scale=st.sampled_from([HEADROOM, 0.5, 0.0]),
    rate_scale=st.sampled_from([1.0, 1e305, 1e308]),
)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=1e308)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=0.6 / 0.9 * (1.0 - 1e-15), rate_scale=1e308)
@example(kind="burgers", state=SQUEEZED, theta=0.5, rho_scale=0.5, rate_scale=1.0)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=math.inf)
@example(kind="lwr", state=SQUEEZED, theta=0.1, rho_scale=0.0, rate_scale=1.0)
def test_density_cap_equals_the_clamped_slack(kind, state, theta, rho_scale, rate_scale):
    # the cap from the per-sweep mass floor with one scalar clamp has the
    # bits, signed zeros included, of the slack clamped cell by cell.
    # rho_scale 0.5 puts cells past their floor (a negative slack), 0 turns
    # the density cap off, and rate_scale 1e305 or 1e308 makes the quotients
    # of slivers subnormal; the examples add a -0.0 quotient beside a
    # positive one, and rates that overflow
    vel = dynamics.particle_velocities(flux_model(kind, 1.0), state)
    closing = (vel[:-1] - vel[1:]) * rate_scale
    rho_star = float(np.max(state.densities)) * rho_scale
    floor = state.masses / rho_star if rho_star > 0.0 else None
    caps = dynamics._timestep_cap(state.widths, floor, closing, theta)
    assert bits(caps) == bits(clamped_slack_caps(state.widths, state.masses, rho_star, closing, theta))


def count_builds(monkeypatch):
    """Count the position builds of ``simulate`` from now on."""
    calls = []
    build = dynamics._positions
    monkeypatch.setattr(dynamics, "_positions", lambda x0, widths: calls.append(x0) or build(x0, widths))
    return calls


def test_positions_are_built_only_for_recorded_snapshots(burgers3, monkeypatch):
    # every step of the paper's profile passes both certificates, and no
    # sweep runs, so each snapshot after state0 builds its positions once
    calls = count_builds(monkeypatch)
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    traj = pp.simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    assert not traj.events and traj.stats.steps > 32
    assert len(calls) == len(traj.snapshots) - 1 == 32


def test_far_from_the_origin_builds_positions_on_unrecorded_steps(burgers3, monkeypatch):
    # cells eight position ulps wide fail the ordering certificate on some
    # steps between snapshots, which then build their positions to check them
    data, scale = far_data([0.8, 0.3, 0.7], 1e12, 8.0, 41)
    state0 = pp.cell_average(data, np.linspace(*data.support_hint, 41))
    kw = dict(dt_max=0.2 * state0.dx_star, snapshot_count=9)
    calls = count_builds(monkeypatch)
    traj = pp.simulate(burgers3, state0, state0.time + 0.5 * scale, **kw)
    assert len(calls) > len(traj.snapshots) - 1
    assert_same_run(traj, reference_simulate(burgers3, state0, state0.time + 0.5 * scale, **kw))


def count_checks(monkeypatch):
    """Count the kernel's full range tests and the step's one-by-one ordering passes."""
    counts = {"range": 0, "ordering": 0}
    check, ordering = velocity.check_density_intervals, dynamics._check_positions

    def counted(name, test):
        def run(*args):
            counts[name] += 1
            return test(*args)

        return run

    monkeypatch.setattr(velocity, "check_density_intervals", counted("range", check))
    monkeypatch.setattr(dynamics, "_check_positions", counted("ordering", ordering))
    return counts


@pytest.mark.parametrize("every_step", [False, True])
def test_each_check_runs_once_per_proof(burgers3, monkeypatch, every_step):
    # state0's densities take the kernel's full range test; every later
    # step carries the largest density it proved.  Every step of the
    # paper's profile passes the ordering certificate, recorded ones too,
    # so no step checks its positions one by one
    counts = count_checks(monkeypatch)
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    traj = pp.simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33,
                       every_step=every_step)
    assert not traj.events and len(traj.snapshots) > 32
    assert counts == {"range": 1, "ordering": 0}


@pytest.mark.parametrize("kind", FLUXES)
def test_range_test_runs_at_entry_and_after_each_sweep(kind, monkeypatch):
    # a sweep's state is built by the constructor, not proved by a step
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    model = flux_model(kind, data.sup_u0 * (1.0 + 1e-12))
    state0 = pp.cell_average(data, np.linspace(*data.support_hint, 41))
    counts = count_checks(monkeypatch)
    traj = pp.simulate(model, state0, 0.6, dt_max=0.2 * state0.dx_star, snapshot_count=9)
    assert len(traj.events) >= 2
    assert counts == {"range": 1 + len(traj.events), "ordering": 0}


def test_failed_certificates_check_positions_one_by_one(burgers3, monkeypatch):
    # cells eight position ulps wide fail the ordering certificate
    data, scale = far_data([0.8, 0.3, 0.7], 1e12, 8.0, 41)
    state0 = pp.cell_average(data, np.linspace(*data.support_hint, 41))
    counts = count_checks(monkeypatch)
    traj = pp.simulate(burgers3, state0, state0.time + 0.5 * scale, dt_max=0.2 * state0.dx_star, snapshot_count=9)
    assert counts["ordering"] > 0
    assert counts["range"] == 1 + len(traj.events)


def test_data_above_the_working_interval_raise_the_range_test(burgers3):
    # the kernel's own ValueError, before any step
    st0 = ParticleState.from_cells([0.0, 1.0, 2.0], [0.5, 4.0])
    with pytest.raises(ValueError) as err:
        pp.simulate(burgers3, st0, 1.0, dt_max=0.1, snapshot_count=2)
    assert str(err.value) == f"density 4.0 exceeds working interval [0, {burgers3.u_high}]"


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
    assert stats.min_width == min(float(s.widths.min()) for s in traj.snapshots)
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


def caps_then(cap, k, free):
    """``cap`` for its first k calls, then ``free``: the step caps switched off mid-run."""
    calls = itertools.count()
    return lambda *args: cap(*args) if next(calls) < k else free


def test_ordering_violation_after_unrecorded_steps_carries_the_last_valid_state(monkeypatch):
    # three capped steps close the vacuum gaps, then one uncapped step to T
    # closes them past zero.  No state was recorded after state0, so the
    # carried state's positions are built from the left end and the widths,
    # with the reference's bits
    monkeypatch.setattr(dynamics, "_timestep_cap", caps_then(dynamics._timestep_cap, 3, (np.inf, np.inf)))
    monkeypatch.setattr(dynamics_reference, "_timestep_cap", caps_then(dynamics_reference._timestep_cap, 3, np.inf))
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    model = flux_model("burgers", data.sup_u0 * (1.0 + 1e-12))
    st0 = pp.cell_average(data, np.linspace(*data.support_hint, 41))
    errors = []
    for run in (pp.simulate, reference_simulate):
        with pytest.raises(SimulationError, match="ordering violated") as err:
            run(model, st0, 0.6, dt_max=np.inf, snapshot_count=2)
        errors.append(err.value.state)
    state, ref = errors
    assert_valid(state)
    assert state.time > 0.0 and state.n_particles == st0.n_particles
    assert_same_state(state, ref)


def test_lost_float_resolution_is_named_and_carries_the_last_valid_state():
    # every cell stays 0.1 wide, but one step moves the box to about
    # 2.5e15, where floats are 0.5 apart: the positions, not the cap, fail
    st0 = ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.full(10, 0.5))
    with pytest.raises(SimulationError) as err:
        pp.simulate(pp.builtin_flux("lwr"), st0, 1e16, dt_max=2.5e15, snapshot_count=2)
    assert str(err.value) == (
        "particle positions lost float resolution after dt=2.500e+15: every cell is at least "
        "1.000e-01 wide, but floats near |x| = 2.500e+15 are 5.000e-01 apart"
    )
    assert_valid(err.value.state, time=0.0)
    np.testing.assert_array_equal(err.value.state.positions, st0.positions)


def test_stall_carries_the_last_valid_state(burgers3, monkeypatch):
    monkeypatch.setattr(dynamics, "_timestep_cap", lambda *args: (1e-20, 1e-20))
    st0 = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    with pytest.raises(SimulationError, match="timestep collapsed") as err:
        pp.simulate(burgers3, st0, 1.0, dt_max=1.0, snapshot_count=2)
    assert_valid(err.value.state)
    assert 0.0 < err.value.state.time < 1e-15


@pytest.mark.parametrize(
    "T, kw",
    [(2.5e-14, {"dt_max": 1e-17}), (1e-13, {"dt_max": 1.0, "snapshot_count": 3000})],
    ids=["dt_max", "landings"],
)
def test_tiny_steps_no_cap_set_run_to_T(T, kw):
    # about 2500 steps of dt_max = 1e-17, or landings 3.3e-17 apart: each
    # step is below the stall size 1e-16, but no cap set it, so the run is
    # not stuck.  The stall guard once counted them and stopped these runs
    # at t = 2e-14 and 6.67e-14
    st0 = ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.full(10, 0.5))
    model = pp.builtin_flux("burgers")
    traj = pp.simulate(model, st0, T, **kw)
    assert traj.times[-1] == T
    assert traj.stats.steps > 2000 and traj.stats.limited_by["crossing"] == traj.stats.limited_by["density"] == 0
    assert_same_run(traj, reference_simulate(model, st0, T, **kw))


def test_nonfinite_state_aborts_with_the_last_valid_state():
    # the right end particle runs past the largest float in one step
    st0 = ParticleState.from_cells([1.7e308, 1.79e308], [1.0])
    model = pp.builtin_flux("burgers", u_high=1.0)
    with np.errstate(over="ignore"), pytest.raises(SimulationError, match="non-finite state") as err:
        pp.simulate(model, st0, 1e307, dt_max=1e307, snapshot_count=2)
    assert_valid(err.value.state, time=0.0)
    np.testing.assert_array_equal(err.value.state.positions, st0.positions)


def test_overflowing_density_aborts_with_the_last_valid_state():
    # the largest initial density is the largest float, so the density cap
    # rho* = top * (1 + 1e-13) overflows to inf and leaves every cell
    # without a floor (the dense cell is narrow, so the total mass stays
    # finite).  Under a decreasing a the light cell closes on the dense
    # one, and the crossing cap lets it shrink to a tenth of its width,
    # which takes its density past the float range
    top = np.finfo(float).max

    def a_of(u):
        return 1.0 - np.asarray(u, dtype=float) / top

    oracle = MonotoneOracle(a_of, increasing=False)
    model = FluxModel("overflow", lambda u: u * a_of(u), 1.0, 1.0, top, extremum_oracle=oracle)
    st0 = ParticleState.from_cells([0.0, 1.0, 1.00001], [1e308, top])
    with pytest.raises(SimulationError, match="non-finite state") as err:
        pp.simulate(model, st0, 10.0, dt_max=10.0, snapshot_count=2)
    assert_valid(err.value.state, time=0.0)
    np.testing.assert_array_equal(err.value.state.densities, st0.densities)


def test_nan_velocity_carries_the_last_valid_state():
    # a(u) = u except NaN on (0, 0.5).  The density cap keeps every cell at
    # or below the initial maximum, so the band lies below it: the box's
    # left cell spreads behind its resting left end and enters the band
    # once its density falls below 0.5, after several steps
    def a_of(u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 0.0) & (u < 0.5), np.nan, u)

    oracle = MonotoneOracle(a_of, increasing=True)
    model = FluxModel("nan band", lambda u: u * a_of(u), 0.0, 1.0, 1.0, extremum_oracle=oracle)
    st0 = ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.ones(10))
    errors = []
    for run in (pp.simulate, reference_simulate):
        with pytest.raises(SimulationError, match="non-finite particle velocity") as err:
            run(model, st0, 1.0, dt_max=0.01, snapshot_count=2)
        errors.append(err.value.state)
    state, ref = errors
    assert_valid(state)
    assert state.time > 0.05 and 0.0 < state.densities[0] < 0.5
    assert_same_state(state, ref)


def test_overflowing_closing_sum_falls_back_to_the_velocities():
    # a jumps from -c to c at u = 0.5, so on alternating densities every
    # velocity and every closing rate (0 or +-2c) is finite, while the
    # rates' sum overflows: numpy adds every eighth rate in one partial
    # sum, all of one sign here.  The loop then tests the velocities one
    # by one and steps on, as the reference does, to the same end
    c = 0.6e308

    def a_of(u):
        return np.where(np.asarray(u, dtype=float) < 0.5, -c, c)

    oracle = MonotoneOracle(a_of, increasing=True)
    model = FluxModel("jump", lambda u: u * a_of(u), 0.0, 2 * c, 1.0, extremum_oracle=oracle)
    st0 = ParticleState.from_cells(np.linspace(0.0, 1.0, 25), np.tile([0.2, 0.8], 12))
    vel = dynamics.particle_velocities(model, st0)
    closing = vel[:-1] - vel[1:]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isfinite(closing).all() and not math.isfinite(np.add.reduce(closing))
    new = outcome(pp.simulate, model, st0, 1.0, dt_max=0.01, snapshot_count=3)
    ref = outcome(reference_simulate, model, st0, 1.0, dt_max=0.01, snapshot_count=3)
    assert type(new) is type(ref)
    if isinstance(ref, SimulationError):
        assert str(new) == str(ref)
        assert_same_state(new.state, ref.state)
        assert new.state.time > 0.0
    else:
        assert_same_run(new, ref)


def overflowing_density_case():
    """The model and state of ``test_overflowing_density_aborts_with_the_last_valid_state``."""
    top = np.finfo(float).max

    def a_of(u):
        return 1.0 - np.asarray(u, dtype=float) / top

    model = FluxModel("overflow", lambda u: u * a_of(u), 1.0, 1.0, top,
                      extremum_oracle=MonotoneOracle(a_of, increasing=False))
    return model, ParticleState.from_cells([0.0, 1.0, 1.00001], [1e308, top]), 10.0, 10.0


def nan_velocity_case():
    """The model and state of ``test_nan_velocity_carries_the_last_valid_state``."""
    def a_of(u):
        u = np.asarray(u, dtype=float)
        return np.where((u > 0.0) & (u < 0.5), np.nan, u)

    model = FluxModel("nan band", lambda u: u * a_of(u), 0.0, 1.0, 1.0,
                      extremum_oracle=MonotoneOracle(a_of, increasing=True))
    return model, ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.ones(10)), 1.0, 0.01


@pytest.mark.parametrize("case", [overflowing_density_case, nan_velocity_case])
def test_aborted_runs_equal_reference(case):
    # both loops raise the same error, with the same message, carrying the
    # same state from before the failing step
    model, st0, T, dt_max = case()
    new = outcome(pp.simulate, model, st0, T, dt_max=dt_max, snapshot_count=2)
    ref = outcome(reference_simulate, model, st0, T, dt_max=dt_max, snapshot_count=2)
    assert type(new) is type(ref) is SimulationError
    assert str(new) == str(ref)
    assert_same_state(new.state, ref.state)


# scales of the closing rates: rounding-level, subnormal quotients on
# slivers, products that overflow, and rates that are inf (or NaN where 0)
RATE_SCALES = [1.0, 1e305, 1e308, math.inf]
# at one ulp above the crossing cap of the first state (without floors)
# and the density cap of the second, rate * bound rounds down onto the
# cap's numerator: a certificate comparing with >= and without the 2**-48
# margin passes there, though the cap lies below the bound
ROUNDS_ONTO_CROSSING = ParticleState.from_cells([0.0, 0.165, 0.165 + 0.147], [0.74, 0.11])
ROUNDS_ONTO_DENSITY = ParticleState.from_cells([0.0, 0.244, 0.244 + 0.227, 0.244 + 0.227 + 0.375], [0.95, 0.9, 0.54])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(FLUXES),
    state=cell_states(),
    theta=st.sampled_from([0.1, 0.5]),
    rho_scale=st.sampled_from([HEADROOM, 0.5, 0.0]),
    rate_scale=st.sampled_from(RATE_SCALES),
    which=st.sampled_from([0, 1]),
    scale=st.sampled_from([1.0, 1.0 - 2.0**-47, 1.0 - 1e-9, 0.5, 2.0]),
    ulps=st.integers(-2, 2),
)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=1.0, which=0, scale=1.0, ulps=0)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=1.0, which=0, scale=1.0, ulps=-1)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=1.0, which=0, scale=1.0, ulps=1)
@example(kind="burgers", state=SQUEEZED, theta=0.5, rho_scale=HEADROOM, rate_scale=1.0, which=1, scale=1.0, ulps=0)
@example(kind="burgers", state=SQUEEZED, theta=0.5, rho_scale=HEADROOM, rate_scale=1.0, which=1, scale=1.0, ulps=-1)
@example(kind="burgers", state=SQUEEZED, theta=0.5, rho_scale=HEADROOM, rate_scale=1.0, which=1, scale=1.0, ulps=1)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=1e308, which=1, scale=1.0, ulps=-1)
@example(kind="burgers", state=ROUNDS_ONTO_CROSSING, theta=0.1, rho_scale=0.0, rate_scale=1.0, which=0, scale=1.0, ulps=1)
@example(kind="burgers", state=ROUNDS_ONTO_DENSITY, theta=0.1, rho_scale=HEADROOM, rate_scale=1.0, which=1, scale=1.0, ulps=1)
@example(kind="burgers", state=SQUEEZED, theta=0.1, rho_scale=HEADROOM, rate_scale=math.inf, which=0, scale=0.5, ulps=0)
def test_caps_certificate_never_passes_above_a_cap(kind, state, theta, rho_scale, rate_scale, which, scale, ulps):
    # bound is drawn around one of the exact caps (around 1 where both are
    # inf): at it, a few ulps either side, just below and well away.  A
    # certificate that passes proves min(dt_max, caps) >= bound with
    # dt_max = bound, so the loop's step is the one the caps give
    vel = dynamics.particle_velocities(flux_model(kind, 1.0), state)
    rho_star = float(np.max(state.densities)) * rho_scale
    floor = state.masses / rho_star if rho_star > 0.0 else None
    w_min = float(np.min(state.widths))
    with np.errstate(over="ignore", invalid="ignore"):
        closing = (vel[:-1] - vel[1:]) * rate_scale
        caps = dynamics._timestep_cap(state.widths, floor, closing, theta)
        finite = [cap for cap in caps if math.isfinite(cap)] or [1.0]
        bound = finite[which % len(finite)] * scale
        for _ in range(abs(ulps)):
            bound = math.nextafter(bound, math.copysign(math.inf, ulps))
        bound = max(bound, 0.0)
        if dynamics._caps_clear(bound, state.widths, w_min, floor, closing, theta):
            assert min(bound, *caps) >= bound


def count_caps(monkeypatch):
    """Count the calls of ``_timestep_cap`` from now on."""
    calls = []
    cap = dynamics._timestep_cap
    monkeypatch.setattr(dynamics, "_timestep_cap", lambda *args: calls.append(1) or cap(*args))
    return calls


def test_caps_are_taken_only_where_the_certificate_fails(burgers3, monkeypatch):
    # on the paper's profile neither cap ever binds, and the certificate
    # proves it on every step; on boxes in vacuum the closing gaps set
    # some steps, and each such step took its caps
    calls = count_caps(monkeypatch)
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    traj = pp.simulate(burgers3, state0, 0.25, dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33)
    assert traj.stats.steps > 32 and calls == []
    data = boxes([0.8, 0.5, 0.7], [0.5, 0.4, 0.3], [0.2, 0.15])
    state0 = pp.cell_average(data, np.linspace(*data.support_hint, 41))
    traj = pp.simulate(flux_model("lwr", data.sup_u0 * (1.0 + 1e-12)), state0, 0.6, dt_max=0.2 * state0.dx_star,
                       snapshot_count=9)
    capped = traj.stats.limited_by["crossing"] + traj.stats.limited_by["density"]
    assert capped > 0 and len(calls) >= capped
    assert len(calls) < traj.stats.steps
