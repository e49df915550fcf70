import numpy as np
import pytest

import particle_paths as pp
from particle_paths import ParticleState, SimulationError
from particle_paths.dynamics import resolve_collisions


def grid_min_a(model, lo, hi):
    return float(np.asarray(model.eval_a(np.linspace(lo, hi, 20001))).min())


def grid_max_a(model, lo, hi):
    return float(np.asarray(model.eval_a(np.linspace(lo, hi, 20001))).max())


def test_constant_region_translates_rigidly(burgers3):
    # all interior interfaces of a constant region move at a(c); only the
    # cells touching the vacuum ends deform
    c = 1.3
    st = ParticleState.from_cells([0.0, 1.0, 2.0, 3.0, 4.0], [c, c, c, c])
    vel = pp.particle_velocities(burgers3, st)
    a_c = float(burgers3.eval_a(c))
    np.testing.assert_allclose(vel[1:-1], a_c)
    st2 = pp.step(burgers3, st, 0.25)
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
    st2 = pp.step(burgers3, st, 0.1)
    np.testing.assert_allclose(st2.positions, [0.0, 1.15, 2.05])
    np.testing.assert_allclose(st2.densities, [3.0 / 1.15, 1.0 / 0.9])
    # mass is untouched by stepping
    np.testing.assert_array_equal(st2.masses, st.masses)
    assert st2.time == pytest.approx(0.1)


def test_step_matches_fine_reference(burgers3):
    # one coarse step against many fine steps of the same frozen-velocity map
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    coarse = pp.step(burgers3, st, 0.01)
    fine = st
    for _ in range(100):
        fine = pp.step(burgers3, fine, 0.0001)
    np.testing.assert_allclose(coarse.positions, fine.positions, atol=5e-4)


def test_zero_density_cell_keeps_interface_still(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [0.0, 2.0])
    vel = pp.particle_velocities(burgers3, st)
    # left neighbor of x^2 is vacuum: velocity min a over [0, 2] = a(0) = 0
    assert vel[1] == 0.0
    st2 = pp.step(burgers3, st, 0.1)
    assert st2.positions[1] == 1.0
    assert st2.densities[0] == 0.0


def test_stable_timestep_rigid(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [1.0, 1.0])
    assert pp.stable_timestep(burgers3, st, 0.7) == 0.7


def test_stable_timestep_crossing_formula(burgers3):
    # pair with gap 0.1 closing at relative speed 1, theta = 0.5 -> dt = 0.05
    st = ParticleState.from_cells([-5.0, 0.0, 0.1], [3.0, 1.0])
    vel = pp.particle_velocities(burgers3, st)
    assert vel[1] - vel[2] == pytest.approx(1.0)
    assert pp.stable_timestep(burgers3, st, 10.0, theta=0.5) == pytest.approx(0.05)


def test_stable_timestep_never_allows_crossing(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    dt = pp.stable_timestep(burgers3, st, 10.0, theta=0.1)
    vel = pp.particle_velocities(burgers3, st)
    closing = vel[:-1] - vel[1:]
    assert np.all(dt * closing <= (1 - 0.1) * st.widths + 1e-15)
    stepped = pp.step(burgers3, st, dt)  # must not raise
    assert np.all(np.diff(stepped.positions) > 0)


def test_step_rejects_crossing_dt(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 1.2], [3.0, 1.0])
    with pytest.raises(SimulationError):
        pp.step(burgers3, st, 5.0)


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
    assert all(np.all(s.densities >= 0.19) for _, s in rarefaction_shock_run.snapshots)


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
    pairs = [(t, s) for t, s in traj.snapshots if t == t_ev]
    assert len(pairs) == 2
    pre, post = pairs[0][1], pairs[1][1]
    assert pre.n_particles == post.n_particles + 1


def test_mass_conserved_between_events(rarefaction_shock_run):
    masses = [s.total_mass for _, s in rarefaction_shock_run.snapshots]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-12 * masses[0]


def test_determinism(burgers3):
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    t1 = pp.simulate(burgers3, st, 0.1, dt_max=1e-3, data=data)
    t2 = pp.simulate(burgers3, st, 0.1, dt_max=1e-3, data=data)
    assert t1.fingerprint == t2.fingerprint
    for (ta, sa), (tb, sb) in zip(t1.snapshots, t2.snapshots):
        assert ta == tb
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
