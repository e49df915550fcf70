"""Trajectory writers and loader.

``write_trajectory_csv`` and ``write_trajectory_npy`` must give the bytes
of the csv-module row loop and of ``np.save`` on the stacked rows below.
``load_trajectory_dir`` reads ``trajectory.npy`` and ``events.json``, so
a loaded run must equal the live run bit for bit and audit as it does.
Malformed inputs must raise ``ValueError`` and make audit mode exit 2,
as must malformed config values.
"""

import csv
import dataclasses
import json
import re
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particle_paths import cli, exports, fit_loglog_slope, invariant_audit, simulate, velocity_extrema
from particle_paths.cli import run_cli
from particle_paths.dynamics import CollisionEvent, Trajectory
from particle_paths.initial import ParticleState

from test_golden import BURGERS, LWR


def reference_write_trajectory_csv(traj, path):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "x_left", "x_right", "v"])
        for state in traj.snapshots:
            pos = state.positions
            for i in range(state.n_cells):
                writer.writerow(
                    [repr(float(state.time)), i, repr(float(pos[i])), repr(float(pos[i + 1])), repr(float(state.densities[i]))]
                )


def reference_write_trajectory_npy(traj, path):
    rows = [
        np.column_stack(
            [np.full(s.n_cells, s.time), np.arange(s.n_cells), s.positions[:-1], s.positions[1:], s.densities, s.widths, s.masses]
        )
        for s in traj.snapshots
    ]
    np.save(path, np.concatenate(rows), allow_pickle=False)


STATE_FIELDS = ("positions", "densities", "masses", "time", "widths")
EVENT_FIELDS = ("time", "deleted_particles", "deleted_cells", "survivor_map", "discarded_mass", "pre_particle_count")


def assert_same_trajectory(got, want):
    assert len(got.snapshots) == len(want.snapshots)
    for s_got, s_want in zip(got.snapshots, want.snapshots):
        for name in STATE_FIELDS:
            a, b = getattr(s_got, name), getattr(s_want, name)
            assert np.array_equal(a, b), name
            assert np.asarray(a).dtype == np.asarray(b).dtype, name
    assert len(got.events) == len(want.events)
    for e_got, e_want in zip(got.events, want.events):
        for name in EVENT_FIELDS:
            assert np.array_equal(getattr(e_got, name), getattr(e_want, name)), name
    assert got.config == want.config
    assert got.fingerprint == want.fingerprint


# any finite float, subnormals included, so parsing must be exact
# everywhere; magnitudes of 1e16 and up and below 1e-4 reach repr's
# exponent forms
coord = st.one_of(st.floats(-1e6, 1e6), st.floats(-1e20, 1e20), st.floats(-1e-4, 1e-4))
density = st.one_of(st.floats(0.0, 1e20), st.floats(0.0, 1e-4), st.sampled_from([0.0, 5e-324, 1.0, 0.1]))


@st.composite
def trajectories(draw):
    """A consistent trajectory: cells are only ever removed by a recorded event,
    and the survivors keep the masses of snapshot 0, as in a run."""
    n_cells = draw(st.integers(1, 12))
    times = sorted(draw(st.lists(coord, min_size=1, max_size=6)))
    snapshots, events, masses = [], [], None
    for t in times:
        if snapshots and n_cells > 1 and draw(st.booleans()):
            deleted = np.asarray(sorted(draw(st.sets(st.integers(0, n_cells - 1), min_size=1, max_size=n_cells - 1))))
            survivors = np.ones(n_cells + 1, dtype=bool)
            survivors[deleted + 1] = False
            events.append(
                CollisionEvent(
                    time=t,
                    deleted_particles=deleted + 1,
                    deleted_cells=deleted,
                    survivor_map=np.where(survivors, np.cumsum(survivors) - 1, -1),
                    discarded_mass=draw(st.floats(0.0, 1.0)),
                    pre_particle_count=n_cells + 1,
                )
            )
            n_cells -= deleted.size
            masses = np.delete(masses, deleted)
        pos = np.sort(draw(st.lists(coord, min_size=n_cells + 1, max_size=n_cells + 1, unique=True)))
        dens = np.asarray(draw(st.lists(density, min_size=n_cells, max_size=n_cells)))
        if masses is None:
            masses = dens * np.diff(pos)
        snapshots.append(ParticleState(positions=pos, densities=dens, masses=masses, time=t))
    return Trajectory(snapshots=snapshots, events=events, model=None, config={"seed": 3})


@settings(max_examples=80, deadline=None)
@given(traj=trajectories())
def test_writer_matches_csv_module_and_roundtrips(tmp_path_factory, traj):
    out = tmp_path_factory.mktemp("traj")
    reference_write_trajectory_csv(traj, out / "reference.csv")
    reference_write_trajectory_npy(traj, out / "reference.npy")
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_trajectory_npy(traj, out / "trajectory.npy")
    exports.write_events_json(traj, out / "events.json")
    assert (out / "trajectory.csv").read_bytes() == (out / "reference.csv").read_bytes()
    assert (out / "trajectory.npy").read_bytes() == (out / "reference.npy").read_bytes()
    assert_same_trajectory(exports.load_trajectory_dir(out, None), traj)


def live_run(config, tmp_path, monkeypatch):
    """Run simulate mode on ``config``; the trajectory it wrote and its directory."""
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kw: runs.append(simulate(*args, **kw)) or runs[-1])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli([str(path), "--out", str(tmp_path / "out")]) == 0
    assert len(runs) == 1
    return runs[0], tmp_path / "out"


@pytest.fixture(scope="module", params=["burgers", "lwr"])
def golden_run(request, tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        return live_run({"burgers": BURGERS, "lwr": LWR}[request.param], tmp_path_factory.mktemp(request.param), mp)


def test_loader_matches_row_loader_on_golden_runs(golden_run):
    # the loaded run is the live run bit for bit: positions, densities,
    # widths, masses, times, events and config
    live, out = golden_run
    loaded = exports.load_trajectory_dir(out, live.model)
    assert_same_trajectory(loaded, live)
    assert len(loaded.snapshots) >= 17


@pytest.mark.filterwarnings("error")
def test_rate_csv_of_a_degenerate_fit_writes_nan_without_a_warning(tmp_path):
    exports.write_rate_csv(fit_loglog_slope([0.1, 0.05, 0.025], [1e-3, 0.0, 0.0]), tmp_path / "rate.csv")
    assert (tmp_path / "rate.csv").read_bytes() == b"dx,error,slope_so_far\r\n0.1,0.001,\r\n0.05,0.0,nan\r\n0.025,0.0,nan\r\n"


# two boxes in vacuum: the gap collapses, so events.json is not empty
VACUUM = {
    "mode": "simulate",
    "flux": {"kind": "lwr", "params": {}},
    "initial_data": {"kind": "piecewise_constant", "params": {"breakpoints": [0.0, 0.3, 0.4, 0.7], "values": [0.6, 0.0, 0.8]}},
    "placement": {"strategy": "uniform", "n": 29},
    "time_horizon": 0.5,
    "integrator": {"dt_max": 0.002, "theta": 0.1},
    "snapshots": 4,
    "seed": 0,
}


def _edit_bytes(edit):
    def corrupt(out):
        path = out / "trajectory.npy"
        path.write_bytes(edit(path.read_bytes()))
    return corrupt


def _edit_array(edit, allow_pickle=False):
    """Save ``edit`` of the trajectory array in its place; ``edit`` changes it in place or returns a new one."""
    def corrupt(out):
        path = out / "trajectory.npy"
        table = np.load(path)
        edited = edit(table)
        np.save(path, table if edited is None else edited, allow_pickle=allow_pickle)
    return corrupt


def _edit_events(edit):
    def corrupt(out):
        path = out / "events.json"
        path.write_text(edit(path.read_text()))
    return corrupt


def _drop_first_event(text):
    payload = json.loads(text)
    payload["events"].pop(0)
    return json.dumps(payload)


def _append_empty_event(text):
    # a sweep always deletes cells, so this event matches no cell count change
    payload = json.loads(text)
    payload["events"].append(dict(payload["events"][-1], deleted_particles=[], deleted_cells=[], discarded_mass=0.0))
    return json.dumps(payload)


def _set_first_event(key, value):
    def edit(text):
        payload = json.loads(text)
        payload["events"][0][key] = value
        return json.dumps(payload)
    return edit


def _map_first_event(key, entry):
    """Replace each entry of the first event's ``key`` list by ``entry(value)``."""
    def edit(text):
        payload = json.loads(text)
        payload["events"][0][key] = [entry(v) for v in payload["events"][0][key]]
        return json.dumps(payload)
    return edit


def _set(row, column, value):
    def edit(table):
        table[row, column] = value
    return edit


def _last_time(value):
    """Give the last snapshot's rows the time ``value``."""
    def edit(table):
        table[np.flatnonzero(table[:, 1] == 0)[-1] :, 0] = value
    return edit


def _nudge_x_right(table):
    table[1, 3] += 1e-3


def _reversed_cell(table):
    # cell 1 runs backwards, yet each x_right is still the next x_left
    table[0, 3] = table[1, 2] = table[1, 3] + 1e-3


def _ragged(table):
    # rows of different lengths can only be saved as a pickled object array
    return np.array([table[0].tolist(), table[1, :-1].tolist()], dtype=object)


MALFORMED = {
    "missing directory": shutil.rmtree,
    "missing trajectory.npy": lambda out: (out / "trajectory.npy").unlink(),
    "empty file": _edit_bytes(lambda data: b""),
    "bad header": _edit_bytes(lambda data: data.replace(b"'shape': (", b"'shape': [", 1)),
    "header only": _edit_bytes(lambda data: data[: data.index(b"\n") + 1]),
    # the header's length field now ends the header inside its dict
    "header length short": _edit_bytes(lambda data: data[:8] + bytes([32, 0]) + data[10:]),
    "truncated data": _edit_bytes(lambda data: data[:-8]),
    "blank body": _edit_array(lambda table: table[:0]),
    "every row short": _edit_array(lambda table: table[:, :-1]),
    "not 2-D": _edit_array(lambda table: table.ravel()),
    "not float64": _edit_array(lambda table: table.astype(np.float32)),
    "non-numeric row": _edit_array(lambda table: table.astype(str)),
    "ragged row": _edit_array(_ragged, allow_pickle=True),
    "first row not cell 0": _edit_array(lambda table: table[1:]),
    "non-integral cell index": _edit_array(_set(1, 1, 1.5)),
    "two times in one snapshot": _edit_array(_set(1, 0, 0.001)),
    "cell index skipped": _edit_array(_set(1, 1, 2.0)),
    "x_right is not the next x_left": _edit_array(_nudge_x_right),
    "snapshot times decrease": _edit_array(_last_time(0.0)),
    "snapshot time infinite": _edit_array(_last_time(np.inf)),
    "width zero": _edit_array(_set(1, 5, 0.0)),
    "width NaN": _edit_array(_set(1, 5, np.nan)),
    "density negative": _edit_array(_set(1, 4, -0.1)),
    "density NaN": _edit_array(_set(1, 4, np.nan)),
    "density infinite": _edit_array(_set(1, 4, np.inf)),
    "mass negative": _edit_array(_set(1, 6, -1e-3)),
    "mass NaN": _edit_array(_set(1, 6, np.nan)),
    "x_left above x_right": _edit_array(_reversed_cell),
    "x_left NaN": _edit_array(_set(0, 2, np.nan)),
    "missing events.json": lambda out: (out / "events.json").unlink(),
    "events.json not JSON": _edit_events(lambda text: text[: len(text) // 2]),
    "events.json without events": _edit_events(lambda text: json.dumps({"config": {}})),
    "event log too short": _edit_events(_drop_first_event),
    "event log too long": _edit_events(_append_empty_event),
    "event time not a number": _edit_events(_set_first_event("time", "abc")),
    "discarded mass not a number": _edit_events(_set_first_event("discarded_mass", "abc")),
    # a NaN discarded mass once turned the drift NaN, and the audit passed
    "discarded mass NaN": _edit_events(_set_first_event("discarded_mass", float("nan"))),
    "discarded mass negative": _edit_events(_set_first_event("discarded_mass", -1e-12)),
    "event time infinite": _edit_events(_set_first_event("time", float("inf"))),
    "particle count not a number": _edit_events(_set_first_event("pre_particle_count", "abc")),
    "particle count not integral": _edit_events(_set_first_event("pre_particle_count", 3.5)),
    "particle count infinite": _edit_events(_set_first_event("pre_particle_count", float("inf"))),
    # each of these once loaded as a nearby integer, and the audit passed
    "deleted cell index fractional": _edit_events(_map_first_event("deleted_cells", lambda j: j + 0.5)),
    "deleted particle index a string": _edit_events(_map_first_event("deleted_particles", str)),
    "deleted cell index a bool": _edit_events(_map_first_event("deleted_cells", lambda j: True)),
    "survivor map fractional": _edit_events(_map_first_event("survivor_map", lambda j: 0.25)),
    "events.json config not an object": _edit_events(lambda text: json.dumps(dict(json.loads(text), config=[1, 2]))),
}


@pytest.fixture
def vacuum_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VACUUM))
    out = tmp_path / "out"
    run_cli([str(config), "--out", str(out)])
    assert json.loads((out / "events.json").read_text())["events"]
    return config, out


@pytest.mark.filterwarnings("error")  # a refusal is the ValueError, never a numpy warning
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_value_error_and_audit_exit_2(case, vacuum_run, capsys):
    config, out = vacuum_run
    assert run_cli([str(config), "--mode", "audit", "--set", f"input={out}"]) in (0, 3)
    MALFORMED[case](out)
    with pytest.raises(ValueError):
        exports.load_trajectory_dir(out, None)
    capsys.readouterr()
    assert run_cli([str(config), "--mode", "audit", "--set", f"input={out}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at input: ") and len(err.strip().splitlines()) == 1


MALFORMED_SETTINGS = [
    ('time_horizon="abc"', "time_horizon"),
    ("time_horizon=-1", "time_horizon"),
    ("time_horizon=1e400", "time_horizon"),  # JSON reads it as inf
    ('placement.n="x"', "placement.n"),
    ("placement.n=true", "placement.n"),
    ("placement.n=30.0", "placement.n"),
    ('placement.n_list=[9, 17, "x"]', "placement.n_list[2]"),
    ("placement.strategy=3", "placement.strategy"),
    ('integrator.dt_max="fast"', "integrator.dt_max"),
    ("integrator.theta=1.0", "integrator.theta"),
    ("integrator.theta=true", "integrator.theta"),
    ('snapshots="x"', "snapshots"),
    ("snapshots=1", "snapshots"),
    ("seed=-1", "seed"),
    ("seed=false", "seed"),
    ("integrator=3", "integrator"),
    ("out=5", "out"),
    ("out=null", "out"),
    ("mode=[1]", "mode"),
    ("input=5", "input"),
    ("flux=3", "flux"),
    ('flux.params="x"', "flux.params"),
    ('initial_data=["box"]', "initial_data"),
    ("initial_data.kind=[1]", "initial_data.kind"),
    ("initial_data.params=3", "initial_data.params"),
]


@pytest.mark.parametrize("setting, path", MALFORMED_SETTINGS)
def test_malformed_config_types_exit_2(setting, path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VACUUM))
    assert run_cli([str(config), "--out", str(tmp_path / "out"), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


def test_every_rule_has_a_malformed_row():
    # a rule added to the table without a row above fails here
    covered = {re.sub(r"\[\d+\]", "[]", path) for _, path in MALFORMED_SETTINGS}
    assert {path for path, _, _ in cli._RULES} <= covered


def with_snapshot(traj, j, densities):
    """``traj`` with snapshot j given new densities (masses to match)."""
    snaps = list(traj.snapshots)
    s = snaps[j]
    snaps[j] = ParticleState(s.positions, densities, densities * s.widths, s.time, s.widths)
    return dataclasses.replace(traj, snapshots=snaps)


@pytest.mark.parametrize("config", [VACUUM, LWR], ids=["vacuum", "lwr"])
def test_audit_of_loaded_run_matches_live_run(config, tmp_path, monkeypatch):
    live, out = live_run(config, tmp_path, monkeypatch)
    assert live.events
    loaded = exports.load_trajectory_dir(out, live.model)
    assert invariant_audit(loaded) == invariant_audit(live)


def test_audit_follows_each_cell_to_its_creation(tmp_path, monkeypatch):
    # an independent route to each cell's creation data: its index in
    # snapshot 0, carried through the events' survivor maps
    live, _ = live_run(VACUUM, tmp_path, monkeypatch)
    assert live.events
    state0 = live.snapshots[0]
    ext = velocity_extrema(live.model, 0.0, state0.densities.max())
    spread = ext.max_value - ext.min_value
    ids, events, margin = np.arange(state0.n_cells), iter(live.events), np.inf
    for s in live.snapshots:
        if ids.size != s.n_cells:
            ids = ids[next(events).survivor_map[:-1] >= 0]
        np.testing.assert_array_equal(s.masses, state0.masses[ids])  # fixed at creation
        w0, d0 = state0.widths[ids], state0.densities[ids]
        margin = min(margin, float(np.min(s.densities - w0 * d0 / (w0 + s.time * spread))))
    assert next(events, None) is None
    assert invariant_audit(live).checks["density_lower_bound"].margin == margin


def test_audit_catches_corruption_after_a_collision(tmp_path, monkeypatch):
    live, _ = live_run(VACUUM, tmp_path, monkeypatch)
    assert live.events
    report = invariant_audit(live)
    assert report.checks["max_principle"].ok and report.checks["density_lower_bound"].ok
    first = live.events[0]
    # the first snapshot after the post-collision one
    j = next(j for j, s in enumerate(live.snapshots) if s.n_particles < first.pre_particle_count) + 1
    densities = live.snapshots[j].densities
    rho_star = live.snapshots[0].densities.max()
    above = densities.copy()
    above[np.argmax(densities)] = 1.5 * rho_star
    assert "max_principle" in invariant_audit(with_snapshot(live, j, above)).failures()
    # a surviving cell that started with mass cannot fall to zero density
    emptied = densities.copy()
    emptied[np.argmax(densities)] = 0.0
    assert "density_lower_bound" in invariant_audit(with_snapshot(live, j, emptied)).failures()


def _delay_first_event(text):
    payload = json.loads(text)
    payload["events"][0]["time"] = 1e9
    return json.dumps(payload)


def test_event_log_out_of_step_with_snapshots_exits_2(vacuum_run, lwr1, capsys):
    # the cell counts still match the event sizes, but the first event now
    # falls after every snapshot, so no snapshot can drop its cells
    config, out = vacuum_run
    _edit_events(_delay_first_event)(out)
    loaded = exports.load_trajectory_dir(out, lwr1)
    with pytest.raises(ValueError, match="event log"):
        invariant_audit(loaded)
    capsys.readouterr()
    assert run_cli([str(config), "--mode", "audit", "--set", f"input={out}"]) == 2
    assert capsys.readouterr().err.startswith("config error at input: ")
