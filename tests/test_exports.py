"""Trajectory CSV writer and loader against the row-at-a-time references.

The references below are the csv-module row loops the exporters used
before they worked one snapshot at a time; the per-snapshot code must
give the same bytes and the same arrays.  Malformed inputs must raise
``ValueError`` and make audit mode exit 2, as must malformed config
values.  The invariant audit takes each cell's creation data from the
first snapshot and the event log, so it must judge a loaded run as it
judges the live one.
"""

import csv
import dataclasses
import json
import shutil
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particle_paths import cli, exports, invariant_audit, simulate, velocity_extrema
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


def reference_load_trajectory_dir(directory, model):
    rows: List[Tuple[float, int, float, float, float]] = []
    with (directory / "trajectory.csv").open() as fh:
        reader = csv.reader(fh)
        assert next(reader) == ["t", "i", "x_left", "x_right", "v"]
        for raw in reader:
            rows.append((float(raw[0]), int(raw[1]), float(raw[2]), float(raw[3]), float(raw[4])))
    payload = json.loads((directory / "events.json").read_text())
    events = [
        CollisionEvent(
            time=ev["time"],
            deleted_particles=np.asarray(ev["deleted_particles"], dtype=int),
            deleted_cells=np.asarray(ev["deleted_cells"], dtype=int),
            survivor_map=np.asarray(ev["survivor_map"], dtype=int),
            discarded_mass=ev["discarded_mass"],
            pre_particle_count=ev["pre_particle_count"],
        )
        for ev in payload["events"]
    ]
    groups: List[list] = []
    for row in rows:
        if row[1] == 0:
            groups.append([])
        groups[-1].append(row)
    snapshots = []
    pending = iter(events)
    for g in groups:
        t = g[0][0]
        pos = np.array([r[2] for r in g] + [g[-1][3]])
        dens = np.array([r[4] for r in g])
        if not snapshots:
            masses = dens * np.diff(pos)
        elif dens.size != masses.size:
            deleted = set(next(pending).deleted_cells.tolist())
            masses = np.array([m for i, m in enumerate(masses) if i not in deleted])
        snapshots.append(ParticleState(positions=pos, densities=dens, masses=masses, time=t))
    return Trajectory(
        snapshots=snapshots,
        events=events,
        model=model,
        config=payload.get("config", {}),
    )


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
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_events_json(traj, out / "events.json")
    assert (out / "trajectory.csv").read_bytes() == (out / "reference.csv").read_bytes()
    assert_same_trajectory(exports.load_trajectory_dir(out, None), traj)


@pytest.fixture(scope="module", params=["burgers", "lwr"])
def golden_run(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    config = out / "config.json"
    config.write_text(json.dumps({"burgers": BURGERS, "lwr": LWR}[request.param]))
    assert run_cli([str(config), "--out", str(out)]) == 0
    return out


def test_loader_matches_row_loader_on_golden_runs(golden_run):
    loaded = exports.load_trajectory_dir(golden_run, None)
    assert_same_trajectory(loaded, reference_load_trajectory_dir(golden_run, None))
    assert len(loaded.snapshots) >= 17


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


def _edit_rows(edit):
    def corrupt(out):
        path = out / "trajectory.csv"
        path.write_bytes(edit(path.read_bytes().split(b"\r\n")))
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


def _set_field(rows, k, field, value):
    """``rows`` with field ``field`` of row ``k`` set to ``value``."""
    fields = rows[k].split(b",")
    fields[field] = value
    return rows[:k] + [b",".join(fields)] + rows[k + 1 :]


def _last_time(value):
    """Give the last snapshot's rows (the body ends with an empty line) the time ``value``."""
    def edit(rows):
        last = max(k for k, row in enumerate(rows[1:-1], 1) if row.split(b",")[1] == b"0")
        for k in range(last, len(rows) - 1):
            rows = _set_field(rows, k, 0, value)
        return b"\r\n".join(rows)
    return edit


MALFORMED = {
    "missing directory": shutil.rmtree,
    "bad header": _edit_rows(lambda rows: b"\r\n".join([b"t,i,x_l,x_r,v"] + rows[1:])),
    "header only": _edit_rows(lambda rows: rows[0] + b"\r\n"),
    "blank body": _edit_rows(lambda rows: rows[0] + b"\r\n\r\n\r\n"),
    "first row not cell 0": _edit_rows(lambda rows: b"\r\n".join(rows[:1] + rows[2:])),
    "non-integral cell index": _edit_rows(lambda rows: b"\r\n".join(rows[:2] + [rows[2].replace(b",1,", b",1.5,", 1)] + rows[3:])),
    "ragged row": _edit_rows(lambda rows: b"\r\n".join(rows[:3] + [rows[3].rsplit(b",", 1)[0]] + rows[4:])),
    "every row short": _edit_rows(lambda rows: b"\r\n".join(rows[:1] + [r.rsplit(b",", 1)[0] for r in rows[1:-1]]) + b"\r\n"),
    "non-numeric row": _edit_rows(lambda rows: b"\r\n".join(rows[:3] + [rows[3].replace(b",", b",x", 1)] + rows[4:])),
    "two times in one snapshot": _edit_rows(lambda rows: b"\r\n".join(_set_field(rows, 2, 0, b"0.001"))),
    "cell index skipped": _edit_rows(lambda rows: b"\r\n".join(_set_field(rows, 2, 1, b"2"))),
    "x_right is not the next x_left": _edit_rows(
        lambda rows: b"\r\n".join(_set_field(rows, 2, 3, repr(float(rows[2].split(b",")[3]) + 1e-3).encode()))
    ),
    "snapshot times decrease": _edit_rows(_last_time(b"0.0")),
    "snapshot time infinite": _edit_rows(_last_time(b"inf")),
    "missing events.json": lambda out: (out / "events.json").unlink(),
    "events.json not JSON": _edit_events(lambda text: text[: len(text) // 2]),
    "events.json without events": _edit_events(lambda text: json.dumps({"config": {}})),
    "event log too short": _edit_events(_drop_first_event),
    "event log too long": _edit_events(_append_empty_event),
    "event time not a number": _edit_events(_set_first_event("time", "abc")),
    "discarded mass not a number": _edit_events(_set_first_event("discarded_mass", "abc")),
    "particle count not a number": _edit_events(_set_first_event("pre_particle_count", "abc")),
    "particle count not integral": _edit_events(_set_first_event("pre_particle_count", 3.5)),
    "particle count infinite": _edit_events(_set_first_event("pre_particle_count", float("inf"))),
    # each of these once loaded as a nearby integer, and the audit passed
    "deleted cell index fractional": _edit_events(_map_first_event("deleted_cells", lambda j: j + 0.5)),
    "deleted particle index a string": _edit_events(_map_first_event("deleted_particles", str)),
    "deleted cell index a bool": _edit_events(_map_first_event("deleted_cells", lambda j: True)),
    "survivor map fractional": _edit_events(_map_first_event("survivor_map", lambda j: 0.25)),
}


@pytest.fixture
def vacuum_run(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VACUUM))
    out = tmp_path / "out"
    run_cli([str(config), "--out", str(out)])
    assert json.loads((out / "events.json").read_text())["events"]
    return config, out


@pytest.mark.filterwarnings("error")  # an empty body must not reach np.loadtxt's "no data" warning
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


@pytest.mark.parametrize(
    "setting, path",
    [
        ('time_horizon="abc"', "time_horizon"),
        ("time_horizon=-1", "time_horizon"),
        ('placement.n="x"', "placement.n"),
        ("placement.n=true", "placement.n"),
        ("placement.n=30.0", "placement.n"),
        ('placement.n_list=[9, 17, "x"]', "placement.n_list[2]"),
        ('integrator.dt_max="fast"', "integrator.dt_max"),
        ("integrator.theta=1.0", "integrator.theta"),
        ('snapshots="x"', "snapshots"),
        ("seed=-1", "seed"),
        ("seed=false", "seed"),
        ("integrator=3", "integrator"),
    ],
)
def test_malformed_config_types_exit_2(setting, path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VACUUM))
    assert run_cli([str(config), "--out", str(tmp_path / "out"), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


def live_run(config, tmp_path, monkeypatch):
    """Run simulate mode on ``config``; the trajectory it wrote and its directory."""
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kw: runs.append(simulate(*args, **kw)) or runs[-1])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    run_cli([str(path), "--out", str(tmp_path / "out")])
    assert len(runs) == 1 and runs[0].events
    return runs[0], tmp_path / "out"


def with_snapshot(traj, j, densities):
    """``traj`` with snapshot j given new densities (masses to match)."""
    snaps = list(traj.snapshots)
    s = snaps[j]
    snaps[j] = ParticleState(s.positions, densities, densities * s.widths, s.time, s.widths)
    return dataclasses.replace(traj, snapshots=snaps)


@pytest.mark.parametrize("config", [VACUUM, LWR], ids=["vacuum", "lwr"])
def test_audit_of_loaded_run_matches_live_run(config, tmp_path, monkeypatch):
    live, out = live_run(config, tmp_path, monkeypatch)
    loaded = exports.load_trajectory_dir(out, live.model)
    # the files keep positions and densities; the loader carries snapshot
    # 0's masses through the event log, as the run does, and rebuilds the
    # widths from the positions
    for s_loaded, s_live in zip(loaded.snapshots, live.snapshots):
        np.testing.assert_array_equal(s_loaded.masses, s_live.masses)
    as_written = dataclasses.replace(
        live,
        snapshots=[ParticleState(s.positions, s.densities, s.masses, s.time) for s in live.snapshots],
    )
    assert invariant_audit(loaded) == invariant_audit(as_written)
    # checks that read only densities, masses and creation data agree with the live run
    got, want = invariant_audit(loaded).checks, invariant_audit(live).checks
    for name in ("mass_drift", "max_principle", "density_lower_bound", "tv_diminishing", "velocity_bounds"):
        assert got[name] == want[name], name


def test_audit_follows_each_cell_to_its_creation(tmp_path, monkeypatch):
    # an independent route to each cell's creation data: its index in
    # snapshot 0, carried through the events' survivor maps
    live, _ = live_run(VACUUM, tmp_path, monkeypatch)
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
