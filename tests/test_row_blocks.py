"""The audit and the flux residual on row blocks against the snapshot loops.

``invariant_audit`` and ``spacetime_flux_residual`` read a trajectory a
row block at a time; ``analysis_reference`` keeps the loops that took one
snapshot at a time.  Reports and residuals must match those bit for bit
on runs with collisions, every-step recording, a tabulated flux and
trajectories loaded from disk, for any block cap, and the kernel must
run once per block, in them and in ``entropy_defect``.
``temporal_modulus_margin`` pairs only snapshots at adjacent times; on
the same runs it must equal the loop over every pair, up to rounding
where the ratios tie.  ``Trajectory`` refuses an event log that does not
match its runs, from whichever source it is built.
"""

import dataclasses
import functools

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
        exports.write_trajectory_npy(traj, out / "trajectory.npy")
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
    # the pairing too, with its bump's time profile over a dozen snapshots
    bump = pp.SpaceTimeBump(1.0, 0.5, 0.1, 0.05)
    pp.entropy_defect(traj, 1.0, bump, (-1.0, 2.0))
    assert calls == {"analysis": 2, "field": 1}
    # and once per block where the cap splits the run into five
    monkeypatch.setattr(dynamics, "BLOCK_CELLS", 7 * state0.n_cells)
    assert [b.times.size for b in traj.blocks()] == [7, 7, 7, 7, 5]
    pp.entropy_defect(traj, 1.0, bump, (-1.0, 2.0))
    assert calls == {"analysis": 7, "field": 1}


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


def test_an_event_inside_a_run_is_refused():
    # an event that deletes nothing would step inside a run of one cell
    # count, between two sweeps: the trajectory refuses it when it is built
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 21, "uniform"))
    traj = pp.simulate(pp.builtin_flux("burgers", u_high=3.0), state0, 0.25, dt_max=0.01, snapshot_count=9)
    assert len(traj.snapshots.runs) == 1
    t_mid = float(traj.times[4]) - 1e-3
    event = dynamics.CollisionEvent(t_mid, np.array([], dtype=int), 1e-3)
    with pytest.raises(ValueError, match="event log"):
        dataclasses.replace(traj, events=[event])


def assert_modulus_of_every_pair(traj):
    got = pp.temporal_modulus_margin(traj)
    # on a run without mass the all-pairs loop divides 0 by 0 (TV(v0) is
    # 0), and its max keeps 0.0; the package skips pairs at distance 0
    with np.errstate(invalid="ignore"):
        want = reference.temporal_modulus_margin(traj)
    # the adjacent pairs are among all pairs, computed the same way, so
    # the package never reads higher; where the ratios tie in exact
    # arithmetic (a shock and a fan that both move at constant speed) a
    # pair further apart can round a few ulps above every adjacent one
    assert got <= want <= got * (1.0 + 1e-12)


@settings(max_examples=15, deadline=None)
@given(traj=runs())
def test_temporal_modulus_matches_every_pair(traj):
    assert_modulus_of_every_pair(traj)


def test_temporal_modulus_pairs_each_state_of_a_sweep():
    # at theta 0.9 a gap closes by a tenth per step, so the sweep moves the
    # box edges further than the step before it did: the snapshot before
    # the sweep against the post-sweep state is the largest ratio, and
    # consecutive snapshots alone (pre- and post-sweep skipped) miss it
    data = pp.piecewise_constant_data([0.0, 0.3, 0.4, 0.7], [0.6, 0.0, 0.8])
    state0 = pp.cell_average(data, pp.place_particles(data, 29, "uniform"))
    traj = pp.simulate(pp.builtin_flux("lwr"), state0, 0.5, dt_max=0.002, theta=0.9, every_step=True)
    (event,) = traj.events
    j = int(np.flatnonzero(traj.times == event.time)[0])
    near = dataclasses.replace(traj, snapshots=traj.snapshots[j - 20 : j + 20])
    assert_modulus_of_every_pair(near)
    recons = [pp.reconstruct_density(s) for s in near.snapshots]
    rate = 4.0 * near.model.lip_f * pp.initial.total_variation(recons[0].values)
    consecutive = max(
        a.l1_distance(b) / (rate * dt) for a, b, dt in zip(recons, recons[1:], np.diff(near.times)) if dt > 0
    )
    assert pp.temporal_modulus_margin(near) > 1.5 * consecutive


def test_temporal_modulus_of_a_run_without_mass_is_zero():
    # TV(v0) is 0 and no state moves: every pair once divided 0 by 0
    data = pp.sampled_data(np.linspace(0.0, 1.0, 9), np.zeros(9))
    model = pp.builtin_flux("tabulated", us=TABLE, fs=TABLE * ((TABLE - 0.5) ** 2 - 0.1))
    state0 = pp.cell_average(data, pp.place_particles(data, 9, "uniform"))
    traj = pp.simulate(model, state0, 0.1, dt_max=0.01, snapshot_count=5)
    assert pp.temporal_modulus_margin(traj) == 0.0


def test_blocks_are_views_of_the_stacked_runs(monkeypatch):
    # the runs are stacked once, when the trajectory is built; every call
    # of blocks() slices them, and a snapshot's state reads the same rows
    traj = vacuum_run(29, 0.6, 0.8, every_step=True)
    monkeypatch.setattr(dynamics, "BLOCK_CELLS", 7 * 28)
    runs = traj.snapshots.runs
    assert len(runs) == len(traj.events) + 1
    first, second = list(traj.blocks()), list(traj.blocks())
    assert len(first) > len(runs)
    for a, b in zip(first, second):
        (run,) = [r for r in runs if r.start <= a.start < r.start + r.times.size]
        for name in ("times", "positions", "densities", "widths", "masses"):
            assert np.shares_memory(getattr(a, name), getattr(b, name)), name
            assert np.shares_memory(getattr(a, name), getattr(run, name)), name
            assert not getattr(a, name).flags.writeable, name
        assert a.top == run.top == run.densities.max()
        assert np.shares_memory(traj.snapshots[a.start].densities, run.densities)


@pytest.mark.parametrize("from_disk", [False, True])
def test_row_blocks_carry_their_run_top_to_the_kernel(tmp_path, monkeypatch, from_disk):
    # every density of a stacked run was proved finite and nonnegative, so
    # no pass over the blocks runs the kernel's full range test; the one
    # call is the audit's scalar velocity bounds over [0, rho*]
    traj = vacuum_run(29, 0.6, 0.8)
    if from_disk:
        exports.write_trajectory_npy(traj, tmp_path / "trajectory.npy")
        exports.write_events_json(traj, tmp_path / "events.json")
        traj = exports.load_trajectory_dir(tmp_path, traj.model)
    calls = []
    check = pp.velocity.check_density_intervals
    monkeypatch.setattr(pp.velocity, "check_density_intervals", lambda *args: calls.append(args) or check(*args))
    pp.invariant_audit(traj)
    pp.spacetime_flux_residual(traj)
    pp.entropy_defect(traj, 0.3, pp.SpaceTimeBump(0.35, 0.3, 0.25, 0.2), (0.0, 0.7))
    assert calls == [(traj.model, 0.0, float(traj.snapshots[0].densities.max()))]


def test_simulate_and_the_loader_build_no_state_per_snapshot(tmp_path, monkeypatch):
    # they hand the trajectory plain records; only a sweep builds states,
    # the one before it and the one after
    data = pp.piecewise_constant_data([0.0, 0.3, 0.4, 0.7], [0.6, 0.0, 0.8])
    state0 = pp.cell_average(data, pp.place_particles(data, 29, "uniform"))
    built = []
    check = ParticleState.__post_init__
    monkeypatch.setattr(ParticleState, "__post_init__", lambda self: built.append(self) or check(self))
    traj = pp.simulate(pp.builtin_flux("lwr"), state0, 0.5, dt_max=0.002, every_step=True)
    assert traj.events and len(traj.snapshots) > 100
    assert len(built) == 2 * len(traj.events)
    exports.write_trajectory_npy(traj, tmp_path / "trajectory.npy")
    exports.write_events_json(traj, tmp_path / "events.json")
    exports.load_trajectory_dir(tmp_path, traj.model)
    assert len(built) == 2 * len(traj.events)


def vacuum_boxes_model(kind):
    """Three boxes across two vacuum gaps, 41 grid particles, and the flux ``kind``."""
    data = pp.piecewise_constant_data([0.0, 0.5, 0.7, 1.1, 1.25, 1.55], [0.8, 0.0, 0.5, 0.0, 0.7])
    if kind == "tabulated":
        model = pp.builtin_flux("tabulated", us=TABLE, fs=TABLE * ((TABLE - 0.5) ** 2 - 0.1))
    else:
        model = pp.builtin_flux(kind, u_high=data.sup_u0 * (1.0 + 1e-12))
    return model, pp.cell_average(data, np.linspace(*data.support_hint, 41))


@pytest.mark.parametrize("every_step", [False, True])
@pytest.mark.parametrize("kind", ["burgers", "lwr", "tabulated"])
def test_runs_are_recorded_into_stacks_of_exactly_their_rows(tmp_path, monkeypatch, kind, every_step):
    # simulate writes each run's rows into its own arrays, cut to its rows
    # when a sweep ends it, and the loader reshapes each stretch of its
    # columns with one cell count: neither stacks a list of states, and no
    # run array is a view of a larger buffer
    stacked = []
    stack = dynamics._stack
    monkeypatch.setattr(dynamics, "_stack", lambda records: stacked.append(1) or stack(records))
    model, state0 = vacuum_boxes_model(kind)
    traj = pp.simulate(model, state0, 0.6, dt_max=0.2 * state0.dx_star, snapshot_count=9, every_step=every_step)
    assert len(traj.events) >= 2
    exports.write_trajectory_npy(traj, tmp_path / "trajectory.npy")
    exports.write_events_json(traj, tmp_path / "events.json")
    loaded = exports.load_trajectory_dir(tmp_path, model)
    assert stacked == []
    assert len(traj.snapshots.runs) == len(loaded.snapshots.runs) == len(traj.events) + 1
    for live, disk in zip(traj.snapshots.runs, loaded.snapshots.runs):
        assert (live.start, live.n_particles, live.top) == (disk.start, disk.n_particles, disk.top)
        rows = live.times.size
        for a, b in zip(live[1:6], disk[1:6]):
            assert a.tobytes() == b.tobytes() and a.shape == b.shape and a.shape[0] == rows
            for arr in (a, b):
                assert not arr.flags.writeable and arr.flags.c_contiguous
                assert arr.base is None or arr.base.shape[0] == rows


def test_hand_built_trajectories_are_stacked_from_their_states(monkeypatch):
    # a list of states, from a run's snapshots, goes through the stacking
    # helper once and gives the same runs
    stacked = []
    stack = dynamics._stack
    monkeypatch.setattr(dynamics, "_stack", lambda records: stacked.append(1) or stack(records))
    traj = vacuum_run(29, 0.6, 0.8)
    rebuilt = dataclasses.replace(traj, snapshots=list(traj.snapshots))
    assert len(stacked) == 1
    for a, b in zip(traj.snapshots.runs, rebuilt.snapshots.runs):
        assert a.start == b.start and a.top == b.top
        assert all(x.tobytes() == y.tobytes() and x.shape == y.shape for x, y in zip(a[1:6], b[1:6]))


@functools.cache
def swept_run():
    """LWR boxes across two vacuum gaps, recorded at 9 times: a run with sweeps."""
    model, state0 = vacuum_boxes_model("lwr")
    traj = pp.simulate(model, state0, 0.6, dt_max=0.2 * state0.dx_star, snapshot_count=9)
    assert len(traj.events) >= 2
    return traj


@settings(max_examples=40, deadline=None)
@given(edit=st.sampled_from([None, "drop", "append", "delay", "out of range"]), from_states=st.booleans(),
       data=st.data())
def test_the_trajectory_refuses_an_event_log_that_does_not_match_its_runs(edit, from_states, data):
    # the rule lives in Trajectory, so a run and a list of states meet it
    # when they are built, as the loader's runs do (test_exports); the
    # audit then reads the runs and events as paired, as the snapshot
    # loop does
    traj = swept_run()
    runs, events = traj.snapshots.runs, list(traj.events)
    r = data.draw(st.integers(0, len(events) - 1), label="event")
    if edit == "drop":
        del events[r]
    elif edit == "append":
        # an event that deletes nothing
        events.append(dynamics.CollisionEvent(runs[-1].times[-1].item(), np.array([], dtype=int), 0.0))
    elif edit == "delay":
        late = runs[r + 1].times[0].item() + data.draw(st.floats(1e-9, 1.0), label="delay")
        events[r] = dataclasses.replace(events[r], time=late)
    elif edit == "out of range":
        n, cells = runs[r].densities.shape[1], events[r].deleted_cells.copy()
        j = data.draw(st.integers(0, cells.size - 1), label="entry")
        cells[j] = data.draw(st.one_of(st.integers(n, 10 * n), st.integers(-10 * n, -1)), label="cell")
        events[r] = dataclasses.replace(events[r], deleted_cells=cells)
    snapshots = list(traj.snapshots) if from_states else traj.snapshots
    if edit is None:
        rebuilt = dataclasses.replace(traj, snapshots=snapshots, events=events)
        assert repr(pp.invariant_audit(rebuilt)) == repr(reference.invariant_audit(traj))
        return
    with pytest.raises(ValueError, match="event log"):
        dataclasses.replace(traj, snapshots=snapshots, events=events)
