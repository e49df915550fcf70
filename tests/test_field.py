import dataclasses

import numpy as np
import pytest

import particle_paths as pp
from particle_paths import ParticleState, PiecewiseConstantFn
from particle_paths.initial import total_variation


def test_reconstruction_step_function():
    st = ParticleState.from_cells([0.0, 1.0], [2.0])
    v = pp.reconstruct_density(st)
    assert v(0.5) == 2.0
    assert v(-0.1) == 0.0 and v(1.1) == 0.0
    assert v.integral() == 2.0


def test_reconstruction_demo_initial_state():
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, [-1.0, 0.0, 1.0, 2.0])
    v = pp.reconstruct_density(st)
    np.testing.assert_allclose([v(-0.5), v(0.5), v(1.5)], [1.0, 3.0, 1.0])
    assert total_variation(v.values) == pytest.approx(6.0)


def test_reconstruction_zero_everywhere():
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [0.0, 0.0])
    v = pp.reconstruct_density(st)
    xs = np.linspace(-1, 3, 41)
    assert np.all(np.asarray(v(xs)) == 0.0)


def test_integral_equals_total_mass(rarefaction_shock_run):
    for s in rarefaction_shock_run.snapshots[::8]:
        v = pp.reconstruct_density(s)
        assert v.integral() == pytest.approx(s.total_mass, abs=1e-12 * s.total_mass)


def test_l1_distance_exact_merge():
    f = PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([1.0]))
    g = PiecewiseConstantFn(np.array([0.5, 2.0]), np.array([2.0]))
    # |1-0| on (0,0.5), |1-2| on (0.5,1), |0-2| on (1,2)
    assert f.l1_distance(g) == pytest.approx(0.5 + 0.5 + 2.0)
    assert f.l1_distance(f) == 0.0
    with pytest.raises(ValueError, match="inverted window"):
        f.l1_distance(g, (1.0, 0.5))


def tracer_speed(traj, j, x):
    """Speed of a tracer started at x at snapshot j, over the interval after it."""
    ts, xs = pp.trace_characteristic(traj, x, float(traj.times[j]))
    return (xs[1] - xs[0]) / (ts[1] - ts[0])


def held_state(model, st):
    """One unit of time with the velocity field of ``st``."""
    return pp.Trajectory(snapshots=[st, dataclasses.replace(st, time=1.0)], events=[], model=model)


def test_velocity_interpolant_constant_region(burgers3):
    c = 2.0
    st = ParticleState.from_cells([0.0, 1.0, 2.0, 3.0], [c, c, c])
    assert tracer_speed(held_state(burgers3, st), 0, 1.5) == pytest.approx(float(burgers3.eval_a(c)))


def test_velocity_interpolant_demo_state(burgers3):
    st = ParticleState.from_cells([0.0, 1.0, 2.0], [3.0, 1.0])
    np.testing.assert_allclose(pp.particle_velocities(burgers3, st), [0.0, 1.5, 0.5])
    traj = held_state(burgers3, st)
    assert tracer_speed(traj, 0, 0.5) == pytest.approx(0.75)  # linear between the first two nodes
    # a tracer outside the particle range moves with the end particle
    assert tracer_speed(traj, 0, -5.0) == 0.0 and tracer_speed(traj, 0, 10.0) == 0.5


def test_interpolant_matches_particle_velocities(burgers3, rarefaction_shock_run):
    j = 10
    st = rarefaction_shock_run.snapshots[j]
    speeds = [tracer_speed(rarefaction_shock_run, j, float(x)) for x in st.positions]
    np.testing.assert_allclose(speeds, pp.particle_velocities(burgers3, st), rtol=1e-10, atol=1e-10)


def test_residual_zero_for_internally_constant_state(burgers3):
    # interior cells of a constant block satisfy A v = f(v) exactly
    c = 2.0
    st = ParticleState.from_cells(np.arange(6.0), [c] * 5)
    from particle_paths.initial import integrate

    vel = pp.particle_velocities(burgers3, st)
    inner = 0.0
    for i in range(1, 4):
        g_l = vel[i] * c - float(burgers3.eval_f(c))
        g_r = vel[i + 1] * c - float(burgers3.eval_f(c))
        inner += integrate(g_l, g_r, 1.0)
    assert inner == 0.0


def test_residual_single_cell_closed_form(burgers3):
    # nodes (0, 0.5) over one unit cell of density 1: integral of
    # |0.5 x - 0.5| over (0,1) is 0.25; Riemann-sum cross-check
    st = ParticleState.from_cells([0.0, 1.0], [1.0])
    got = pp.flux_residual_l1(burgers3, st)
    xs = np.linspace(0, 1, 2000001)
    mids = 0.5 * (xs[1:] + xs[:-1])
    A = np.interp(mids, st.positions, pp.particle_velocities(burgers3, st))
    oracle = float(np.sum(np.abs(A * 1.0 - 0.5)) * (xs[1] - xs[0]))
    assert got == pytest.approx(0.25, abs=1e-12)
    assert got == pytest.approx(oracle, abs=1e-6)


def test_residual_bounded_by_spacing_estimate(burgers3, rarefaction_shock_run):
    data = pp.rarefaction_shock_data()
    state0 = rarefaction_shock_run.snapshots[0]
    bound = 0.5 * burgers3.lip_fprime * data.sup_u0 * float(np.max(state0.widths)) * data.tv_u0
    for s in rarefaction_shock_run.snapshots[::4]:
        assert pp.flux_residual_l1(burgers3, s) <= bound * 1.01


def test_time_integrated_residual_halves_with_spacing(burgers3):
    data = pp.rarefaction_shock_data()
    values = {}
    for n in (51, 101):
        st = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
        traj = pp.simulate(burgers3, st, 0.25, dt_max=2e-4, data=data)
        values[n], _ = pp.spacetime_flux_residual(traj)
    ratio = values[101] / values[51]
    assert 0.3 <= ratio <= 0.7


def test_time_integrated_residual_zero_for_steady_interior(burgers3):
    # constant single-cell run never moves its left particle and the
    # residual stays strictly positive only near the vacuum edges
    st = ParticleState.from_cells([0.0, 1.0], [1.0])
    traj = pp.simulate(burgers3, st, 0.1, dt_max=1e-3)
    value, resolution = pp.spacetime_flux_residual(traj)
    assert value > 0.0
    assert resolution <= 0.1 / 63 * 1.001


def test_tracer_follows_particles(burgers3):
    data = pp.box_data(1.0, 0.0, 1.0)
    m = pp.builtin_flux("burgers", u_high=1.0 + 1e-9)
    st = pp.cell_average(data, pp.place_particles(data, 21, "uniform"))
    traj = pp.simulate(m, st, 0.5, dt_max=1e-3, every_step=True, data=data)
    i = 7
    ts, xs = pp.trace_characteristic(traj, float(st.positions[i]), 0.0)
    assert xs[-1] == pytest.approx(traj.final_state.positions[i], abs=1e-12)


def test_tracer_straight_line_in_constant_region(burgers3):
    # far from the vacuum ends the region is undisturbed and the path is a
    # straight characteristic of slope a(c)
    st = ParticleState.from_cells(np.linspace(0, 20, 21), [2.0] * 20)
    traj = pp.simulate(burgers3, st, 0.2, dt_max=1e-2, every_step=True)
    ts, xs = pp.trace_characteristic(traj, 10.0, 0.0)
    a_c = float(burgers3.eval_a(2.0))
    np.testing.assert_allclose(xs, 10.0 + a_c * ts, atol=1e-10)


def test_tracers_never_cross(burgers3):
    data = pp.box_data(1.0, 0.0, 1.0)
    m = pp.builtin_flux("burgers", u_high=1.0 + 1e-9)
    st = pp.cell_average(data, pp.place_particles(data, 21, "uniform"))
    traj = pp.simulate(m, st, 0.5, dt_max=1e-3, every_step=True, data=data)
    rng = np.random.default_rng(11)
    starts = np.sort(rng.uniform(-0.2, 1.2, size=10))
    ends = [pp.trace_characteristic(traj, float(x0), 0.0)[1][-1] for x0 in starts]
    assert np.all(np.diff(ends) >= -1e-12)


def test_tracer_start_time_validation(rarefaction_shock_run):
    with pytest.raises(ValueError):
        pp.trace_characteristic(rarefaction_shock_run, 0.0, -1.0)
    with pytest.raises(ValueError):
        pp.trace_characteristic(rarefaction_shock_run, 0.0, 5.0)


def test_pushforward_mass_between_tracers():
    data = pp.box_data(1.0, 0.0, 1.0)
    m = pp.builtin_flux("burgers", u_high=1.0 + 1e-9)
    st = pp.cell_average(data, pp.place_particles(data, 41, "uniform"))
    traj = pp.simulate(m, st, 0.5, dt_max=1e-3, every_step=True, data=data)
    _, xa = pp.trace_characteristic(traj, 0.3, 0.0)
    _, xb = pp.trace_characteristic(traj, 0.7, 0.0)
    v0 = pp.reconstruct_density(st)
    vT = pp.reconstruct_density(traj.final_state)
    assert vT.integral((xa[-1], xb[-1])) == pytest.approx(v0.integral((0.3, 0.7)), abs=1e-6)


def test_temporal_modulus(rarefaction_shock_run):
    assert pp.temporal_modulus_margin(rarefaction_shock_run) <= 1.05


def test_piecewise_constant_validation():
    with pytest.raises(ValueError):
        PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        PiecewiseConstantFn(np.array([0.0, 0.0]), np.array([1.0]))


def _residual_cell_loop(model, state):
    """Per-cell reference for ``flux_residual_l1``: (value, sum of |terms|)."""
    vel = pp.particle_velocities(model, state)
    total = 0.0
    for i in range(state.n_cells):
        v_i = float(state.densities[i])
        if v_i == 0.0:
            continue
        f_i = float(model.eval_f(v_i))
        g_l, g_r, w = vel[i] * v_i - f_i, vel[i + 1] * v_i - f_i, float(state.widths[i])
        if g_l * g_r >= 0.0:
            total += 0.5 * abs(g_l + g_r) * w
        else:
            total += 0.5 * w * (g_l * g_l + g_r * g_r) / abs(g_l - g_r)
    return total


def test_residual_matches_cell_loop(burgers3, lwr1, rarefaction_shock_run, lwr_riemann_run):
    # the terms are nonnegative, so only the summation order differs; with a
    # monotone a one end of every cell has A v = f(v), so the non-convex
    # flux on random cells is what exercises the sign-change split
    cases = [(burgers3, s) for s in rarefaction_shock_run.snapshots[::8]]
    cases += [(lwr1, s) for s in lwr_riemann_run.snapshots[::8]]
    us = np.linspace(0.0, 1.0, 65)
    tab = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    rng = np.random.default_rng(12)
    for _ in range(5):
        pos = np.cumsum(rng.uniform(0.01, 0.1, size=60))
        cases.append((tab, ParticleState.from_cells(pos, rng.uniform(0.0, 1.0, size=59))))
    for model, s in cases:
        want = _residual_cell_loop(model, s)
        assert pp.flux_residual_l1(model, s) == pytest.approx(want, rel=1e-12, abs=1e-300)
