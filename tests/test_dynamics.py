import numpy as np
import pytest

import particle_paths as pp
from particle_paths import ParticleState, SimulationError
from particle_paths.dynamics import resolve_collisions


def grid_min_a(model, lo, hi):
    return float(np.asarray(model.eval_a(np.linspace(lo, hi, 20001))).min())


def grid_max_a(model, lo, hi):
    return float(np.asarray(model.eval_a(np.linspace(lo, hi, 20001))).max())


def one_step(model, st, dt, **kw):
    """State after one simulate step of exactly dt (the run lands on T)."""
    traj = pp.simulate(model, st, st.time + dt, dt_max=dt, snapshot_count=2, **kw)
    assert traj.stats.steps == 1
    return traj.final_state


def test_constant_region_translates_rigidly(burgers3):
    # all interior interfaces of a constant region move at a(c); only the
    # cells touching the vacuum ends deform
    c = 1.3
    st = ParticleState.from_cells([0.0, 1.0, 2.0, 3.0, 4.0], [c, c, c, c])
    vel = pp.particle_velocities(burgers3, st)
    a_c = float(burgers3.eval_a(c))
    np.testing.assert_allclose(vel[1:-1], a_c)
    st2 = one_step(burgers3, st, 0.25)
    np.testing.assert_allclose(st2.densities[1:-1], c)
    np.testing.assert_allclose(np.diff(st2.positions)[1:-1], 1.0)


def test_step_worked_example(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    vel = pp.particle_velocities(burgers3, st)
    # oracle: dense grid extrema of a over the jump intervals
    np.testing.assert_allclose(
        vel,
        [grid_min_a(burgers3, 0, 3), grid_max_a(burgers3, 1, 3), grid_max_a(burgers3, 0, 1)],
        atol=1e-10,
    )
    np.testing.assert_allclose(vel, [0.0, 1.5, 0.5])
    st2 = one_step(burgers3, st, 0.1)
    np.testing.assert_allclose(st2.positions, [0.0, 1.15, 2.05])
    np.testing.assert_allclose(st2.densities, [3.0 / 1.15, 1.0 / 0.9])
    # mass is untouched by stepping
    np.testing.assert_array_equal(st2.masses, st.masses)
    assert st2.time == pytest.approx(0.1)


def test_step_matches_fine_reference(burgers3):
    # one coarse step against a hundred fine steps over the same time
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    coarse = one_step(burgers3, st, 0.01)
    fine = pp.simulate(burgers3, st, 0.01, dt_max=0.0001, snapshot_count=2)
    assert fine.stats.steps >= 100
    np.testing.assert_allclose(coarse.positions, fine.final_state.positions, atol=5e-4)


def test_zero_density_cell_keeps_interface_still(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [0.0, 2.0])
    vel = pp.particle_velocities(burgers3, st)
    # left neighbor of x^2 is vacuum: velocity min a over [0, 2] = a(0) = 0
    assert vel[1] == 0.0
    st2 = one_step(burgers3, st, 0.1)
    assert st2.positions[1] == 1.0
    assert st2.densities[0] == 0.0


def test_stable_timestep_rigid(burgers3):
    # nothing approaches: the first step is the full dt_max, the second lands
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [1.0, 1.0])
    traj = pp.simulate(burgers3, st, 1.0, dt_max=0.7, every_step=True)
    assert traj.times[1] == 0.7
    assert traj.stats.limited_by == {"dt_max": 1, "crossing": 0, "density": 0, "landing": 1}


def test_stable_timestep_crossing_formula(burgers3):
    # pair with gap 0.1 closing at relative speed 1, theta = 0.5 -> dt = 0.05,
    # below the density cap 0.1 - 0.1 / 3
    st = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    vel = pp.particle_velocities(burgers3, st)
    assert vel[1] - vel[2] == pytest.approx(1.0)
    traj = pp.simulate(burgers3, st, 0.06, dt_max=10.0, theta=0.5, every_step=True)
    assert traj.times[1] == pytest.approx(0.05)
    assert traj.stats.limited_by["crossing"] >= 1 and traj.stats.limited_by["dt_max"] == 0


def test_stable_timestep_never_allows_crossing(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    traj = pp.simulate(burgers3, st, 1.0, dt_max=10.0, theta=0.1, every_step=True)  # must not raise
    dt = traj.times[1]
    vel = pp.particle_velocities(burgers3, st)
    closing = vel[:-1] - vel[1:]
    assert np.all(dt * closing <= (1 - 0.1) * st.widths + 1e-15)
    assert all(np.all(np.diff(s.positions) > 0) for s in traj.snapshots)


def test_resolve_no_cluster():
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [1.0, 2.0])
    out, event = resolve_collisions(st, 1e-12)
    assert out is st and event is None


def test_resolve_single_pair():
    st = ParticleState.from_cells([0.0, 1e-13, 1.0], [0.0, 2.0])
    out, event = resolve_collisions(st, 1e-12)
    np.testing.assert_array_equal(out.positions, [1e-13, 1.0])
    np.testing.assert_array_equal(out.densities, [2.0])
    np.testing.assert_array_equal(event.deleted_particles, [0])
    np.testing.assert_array_equal(event.deleted_cells, [0])
    np.testing.assert_array_equal(event.survivor_map, [-1, 0, 1])
    assert event.discarded_mass == 0.0


def test_resolve_triple_cluster():
    eps = 1e-10
    st = ParticleState.from_cells([0.0, eps / 2, eps, 5.0], [0.0, 0.0, 2.0])
    out, event = resolve_collisions(st, eps)
    np.testing.assert_array_equal(out.positions, [eps, 5.0])
    np.testing.assert_array_equal(event.deleted_particles, [0, 1])
    # the surviving cell keeps its mass
    assert out.masses[0] == st.masses[2]
    assert np.all(np.diff(out.positions) > 0)


def test_resolve_cell_takes_over_deleted_widths():
    eps = 1e-10
    st = ParticleState.from_cells([0.0, 1.0, 1.0 + eps / 2, 1.0 + eps, 2.0], [1.0, 0.0, 0.0, 1.0])
    out, event = resolve_collisions(st, eps)
    np.testing.assert_array_equal(event.deleted_cells, [1, 2])
    np.testing.assert_array_equal(out.positions, [0.0, 1.0 + eps, 2.0])
    # the left neighbour of the deleted cells absorbs them
    np.testing.assert_array_equal(out.widths, [st.widths[0] + st.widths[1] + st.widths[2], st.widths[3]])
    np.testing.assert_array_equal(out.densities, out.masses / out.widths)


def test_resolve_rejects_massive_cell():
    # a near-zero gap carrying real mass means the threshold fired early
    st = ParticleState.from_cells([0.0, 1e-13, 1.0], [1e12, 2.0])
    with pytest.raises(SimulationError, match="discard"):
        resolve_collisions(st, 1e-12)


def test_run_single_cell_stretching_ode(burgers3):
    # single cell of mass 2 between vacuum: the left end is static (min of a
    # over [0, v] is a(0) = 0), the right end obeys w' = a(m/w) = 1/w, so
    # w(t) = sqrt(1 + 2t) in closed form
    st = ParticleState.from_cells([0.0, 1.0], [2.0])
    traj = pp.simulate(burgers3, st, 1.0, dt_max=1e-3)
    assert not traj.events
    assert traj.final_state.positions[0] == 0.0
    assert traj.final_state.positions[1] == pytest.approx(np.sqrt(3.0), rel=1e-3)


def test_run_demo_profile_has_no_collisions(rarefaction_shock_run):
    assert len(rarefaction_shock_run.events) == 0
    # all interior densities started at 1 or above; nothing can collide
    assert all(np.all(s.densities >= 0.19) for s in rarefaction_shock_run.snapshots)


def test_run_snapshot_schedule(rarefaction_shock_run):
    times = rarefaction_shock_run.times
    assert times[0] == 0.0 and times[-1] == 0.25
    assert len(times) == 64
    assert np.all(np.diff(times) > 0)


def test_engineered_vacuum_collision(burgers3):
    data = pp.piecewise_constant_data([0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0])
    state0 = pp.cell_average(data, pp.place_particles(data, 4, "uniform"))
    traj = pp.simulate(burgers3, state0, 2.0, dt_max=1e-3, data=data)
    assert len(traj.events) == 1
    ev = traj.events[0]
    assert ev.discarded_mass <= 1e-8 * state0.total_mass
    # post-collision mass equals pre-collision mass
    assert traj.final_state.total_mass == pytest.approx(state0.total_mass, rel=1e-12)
    assert pp.invariant_audit(traj).passed
    # fine-dt confirmation: same single event, nearby time
    fine = pp.simulate(burgers3, state0, 2.0, dt_max=2e-4, data=data)
    assert len(fine.events) == 1
    assert fine.events[0].time == pytest.approx(ev.time, abs=5e-3)


def test_event_snapshots_bracket_collision(burgers3):
    data = pp.piecewise_constant_data([0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0])
    state0 = pp.cell_average(data, pp.place_particles(data, 4, "uniform"))
    traj = pp.simulate(burgers3, state0, 2.0, dt_max=1e-3, data=data)
    t_ev = traj.events[0].time
    pairs = [s for s in traj.snapshots if s.time == t_ev]
    assert len(pairs) == 2
    pre, post = pairs
    assert pre.n_particles == post.n_particles + 1


def test_mass_conserved_between_events(rarefaction_shock_run):
    masses = [s.total_mass for s in rarefaction_shock_run.snapshots]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]


def test_determinism(burgers3):
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    t1 = pp.simulate(burgers3, st, 0.1, dt_max=1e-3, data=data)
    t2 = pp.simulate(burgers3, st, 0.1, dt_max=1e-3, data=data)
    assert t1.fingerprint == t2.fingerprint
    for sa, sb in zip(t1.snapshots, t2.snapshots):
        assert sa.time == sb.time
        np.testing.assert_array_equal(sa.positions, sb.positions)
        np.testing.assert_array_equal(sa.densities, sb.densities)


def test_nonfinite_velocity_aborts():
    from particle_paths.flux import FluxModel, MonotoneOracle

    def nan_of(u):
        return np.full_like(np.asarray(u, dtype=float), np.nan)

    bad = FluxModel("bad", nan_of, 0.0, 1.0, 10.0, extremum_oracle=MonotoneOracle(nan_of, increasing=True))
    st = ParticleState.from_cells([0.0, 1.0], [1.0])
    with pytest.raises(SimulationError):
        pp.simulate(bad, st, 1.0, dt_max=0.1)


def test_plateau_density_stays_exact():
    # interior particles of a constant region all move at a(3): the widths,
    # and so the densities, of cells the vacuum-edge fan has not reached
    # stay exactly 3 (positions as the state let them creep by ~7e-13)
    st = ParticleState.from_cells(np.linspace(1.0, 4.0, 1601), np.full(1600, 3.0))
    model = pp.builtin_flux("burgers", u_high=3.0 * (1 + 1e-12))
    traj = pp.simulate(model, st, 0.05, dt_max=1e-4)
    assert np.all(traj.final_state.densities[600:] == 3.0)


def test_paper_profile_at_1601_particles_completes():
    # the density cap's 1e-13 headroom used to run out on the plateau here,
    # stalling the run with "timestep collapsed"
    data = pp.rarefaction_shock_data()
    model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1 + 1e-12))
    st = pp.cell_average(data, pp.place_particles(data, 1601, "uniform"))
    traj = pp.simulate(model, st, 0.25, dt_max=0.2 * float(np.max(st.widths)), snapshot_count=33, data=data)
    assert traj.times[-1] == 0.25
    assert pp.invariant_audit(traj).passed


@pytest.fixture(scope="module")
def step_run_inputs():
    data = pp.riemann_data(0.8, 0.2)
    model = pp.builtin_flux("burgers", u_high=0.8 * (1 + 1e-12))
    return model, pp.cell_average(data, pp.place_particles(data, 21, "uniform"))


@pytest.mark.parametrize(
    "args, message",
    [
        ({"T": np.nan}, "T must be finite, got nan"),
        ({"T": np.inf}, "T must be finite, got inf"),
        ({"T": 0.0}, "T must exceed the initial time"),
        ({"dt_max": -0.01}, "dt_max must be positive, got -0.01"),
        ({"dt_max": 0.0}, "dt_max must be positive, got 0.0"),
        ({"dt_max": np.nan}, "dt_max must be positive, got nan"),
        ({"theta": np.nan}, r"theta must lie in \(0, 1\), got nan"),
        ({"theta": 1.5}, r"theta must lie in \(0, 1\), got 1.5"),
        ({"theta": 1.0}, r"theta must lie in \(0, 1\), got 1.0"),
        ({"theta": 0.0}, r"theta must lie in \(0, 1\), got 0.0"),
        ({"snapshot_count": 0}, "snapshot_count must be an int of at least 2, got 0"),
        ({"snapshot_count": -5}, "snapshot_count must be an int of at least 2, got -5"),
        ({"snapshot_count": 1}, "snapshot_count must be an int of at least 2, got 1"),
        ({"snapshot_count": True}, "snapshot_count must be an int of at least 2, got True"),
        ({"snapshot_count": 2.5}, "snapshot_count must be an int of at least 2, got 2.5"),
        ({"dt_max": 1e-17}, "dt_max 1e-17 is below the float spacing of the run's times, so no step could advance t"),
    ],
)
def test_invalid_run_arguments_are_refused_at_entry(step_run_inputs, args, message):
    # each of these once ran without its step cap, or failed late with
    # another message (a density outside the working interval, an empty min);
    # a bad snapshot_count ran with two snapshots and was written into the
    # run's config, or raised numpy's TypeError
    model, state0 = step_run_inputs
    kw = {"T": 0.5, "dt_max": 0.01, "theta": 0.1, **args}
    with pytest.raises(ValueError, match=f"^{message}$"):
        pp.simulate(model, state0, kw.pop("T"), **kw)


def test_infinite_dt_max_leaves_the_step_to_the_caps(step_run_inputs):
    model, state0 = step_run_inputs
    stats = pp.simulate(model, state0, 0.5, dt_max=np.inf).stats
    assert stats.limited_by["dt_max"] == 0 and stats.steps > 0
