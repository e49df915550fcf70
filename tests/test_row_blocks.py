"""The audit and the flux residual on row blocks against the snapshot loops.

``invariant_audit`` and ``spacetime_flux_residual`` read a trajectory a
row block at a time; ``analysis_reference`` keeps the loops that took one
snapshot at a time.  Reports and residuals must match those bit for bit
on runs with collisions, every-step recording, a tabulated flux and
trajectories loaded from disk, for any block cap, and the kernel must
run once per block.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import analysis, dynamics, exports, field
from particle_paths.initial import ParticleState

import analysis_reference as reference

TABLE = np.linspace(0.0, 1.0, 65)


def assert_same_as_reference(traj):
    # repr tells -0.0 from 0.0 and a numpy scalar from a float
    assert repr(pp.invariant_audit(traj)) == repr(reference.invariant_audit(traj))
    assert repr(pp.spacetime_flux_residual(traj)) == repr(reference.spacetime_flux_residual(traj))


def vacuum_run(n, left, right, every_step=False):
    """LWR boxes across a vacuum gap: the gap's cell collapses."""
    data = pp.piecewise_constant_data([0.0, 0.3, 0.4, 0.7], [left, 0.0, right])
    state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
    return pp.simulate(pp.builtin_flux("lwr"), state0, 0.5, dt_max=0.002, snapshot_count=9, every_step=every_step)


@st.composite
def runs(draw):
    kind = draw(st.sampled_from(["vacuum", "burgers", "tabulated"]))
    n = draw(st.integers(5, 40))
    every_step = draw(st.booleans())
    if kind == "vacuum":
        return vacuum_run(n, draw(st.floats(0.2, 0.9)), draw(st.floats(0.2, 0.9)), every_step)
    if kind == "burgers":
        data, model = pp.rarefaction_shock_data(), pp.builtin_flux("burgers", u_high=3.0)
    else:
        xs = np.linspace(0.0, 1.0, 9)
        us = np.asarray(draw(st.lists(st.floats(0.0, 0.9), min_size=9, max_size=9)))
        us[0] = us[-1] = 0.0
        data = pp.sampled_data(xs, us)
        model = pp.builtin_flux("tabulated", us=TABLE, fs=TABLE * ((TABLE - 0.5) ** 2 - 0.1))
    state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
    count = draw(st.integers(2, 20))
    return pp.simulate(model, state0, 0.1, dt_max=0.01, snapshot_count=count, every_step=every_step)


@settings(max_examples=40, deadline=None)
@given(traj=runs(), cap=st.sampled_from([1, 2, 3, 7, 40, dynamics.BLOCK_CELLS]), from_disk=st.booleans())
def test_blocks_match_the_snapshot_loops(tmp_path_factory, traj, cap, from_disk):
    if from_disk:
        out = tmp_path_factory.mktemp("run")
        exports.write_trajectory_csv(traj, out / "trajectory.csv")
        exports.write_events_json(traj, out / "events.json")
        traj = exports.load_trajectory_dir(out, traj.model)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "BLOCK_CELLS", cap)
        assert_same_as_reference(traj)


def test_vacuum_run_has_blocks_broken_at_the_sweep():
    traj = vacuum_run(29, 0.6, 0.8, every_step=True)
    assert traj.events
    blocks = list(traj.blocks())
    counts = [state.n_cells for state in traj.snapshots]
    # the blocks tile the snapshots in order, each with one cell count
    assert [b.start for b in blocks] == [0] + np.cumsum([b.times.size for b in blocks])[:-1].tolist()
    assert sum(b.times.size for b in blocks) == len(counts)
    for b in blocks:
        assert b.densities.flags.c_contiguous
        assert b.densities.size <= dynamics.BLOCK_CELLS
        assert len(set(counts[b.start : b.start + b.times.size])) == 1
    assert_same_as_reference(traj)


def test_real_cap_edges():
    # 1000 cells give four snapshots per block, so 11 snapshots end on a
    # partial block; 4200 cells exceed the cap, one snapshot per block
    model = pp.builtin_flux("burgers", u_high=1.0)
    data = pp.box_data(1.0, 0.0, 1.0)
    for n, count, rows in ((1001, 11, [4, 4, 3]), (4201, 3, [1, 1, 1])):
        state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
        traj = pp.simulate(model, state0, 2e-4, dt_max=1e-4, snapshot_count=count)
        assert [b.times.size for b in traj.blocks()] == rows
        assert_same_as_reference(traj)


def test_kernel_runs_once_per_block(monkeypatch):
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 51, "uniform"))
    traj = pp.simulate(pp.builtin_flux("burgers", u_high=3.0), state0, 0.25, dt_max=0.2 * state0.dx_star, snapshot_count=33)
    assert len(traj.snapshots) == 33 and len(list(traj.blocks())) == 1
    calls = {"analysis": 0, "field": 0}

    def counting(name):
        def counted(model, cells):
            calls[name] += 1
            return dynamics.particle_velocities(model, cells)
        return counted

    monkeypatch.setattr(analysis, "particle_velocities", counting("analysis"))
    monkeypatch.setattr(field, "particle_velocities", counting("field"))
    pp.invariant_audit(traj)
    pp.spacetime_flux_residual(traj)
    assert calls == {"analysis": 1, "field": 1}


def test_density_out_of_range_is_a_velocity_violation(rarefaction_shock_run):
    # a density above the working interval makes the kernel raise for its
    # whole block; the audit reports -inf instead of aborting
    traj = rarefaction_shock_run
    j = len(traj.snapshots) // 2
    s = traj.snapshots[j]
    dens = s.densities.copy()
    dens[np.argmax(dens)] = 2.0 * traj.model.u_high
    snaps = list(traj.snapshots)
    snaps[j] = ParticleState(s.positions, dens, dens * s.widths, s.time, s.widths)
    broken = dataclasses.replace(traj, snapshots=snaps)
    check = pp.invariant_audit(broken).checks["velocity_bounds"]
    assert not check.ok and check.margin == -np.inf
    assert repr(pp.invariant_audit(broken)) == repr(reference.invariant_audit(broken))


def test_an_event_inside_a_block_is_passed_snapshot_by_snapshot():
    # a trajectory built by hand may hold an event that deletes nothing, so
    # the event log can step inside a block: the mass it discards counts
    # from the snapshot it falls before, not from the block's start
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 21, "uniform"))
    traj = pp.simulate(pp.builtin_flux("burgers", u_high=3.0), state0, 0.25, dt_max=0.01, snapshot_count=9)
    assert len(list(traj.blocks())) == 1
    t_mid = float(traj.times[4]) - 1e-3
    event = dynamics.CollisionEvent(t_mid, np.array([], dtype=int), np.array([], dtype=int), np.arange(21), 1e-3, 21)
    with_event = dataclasses.replace(traj, events=[event])
    assert not pp.invariant_audit(with_event).checks["mass_drift"].ok
    assert_same_as_reference(with_event)
