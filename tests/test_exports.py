"""Trajectory CSV writer and loader against the row-at-a-time references.

The references below are the csv-module row loops the exporters used
before they worked one snapshot at a time; the per-snapshot code must
give the same bytes and the same arrays.  Malformed inputs must raise
``ValueError`` and make audit mode exit 2, as must malformed config
values.
"""

import csv
import json
import shutil
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from particle_paths import exports
from particle_paths.cli import run_cli
from particle_paths.dynamics import CollisionEvent, Trajectory
from particle_paths.initial import ParticleState

from test_golden import BURGERS, LWR


def reference_write_trajectory_csv(traj, path):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "i", "x_left", "x_right", "v"])
        for t, state in traj.snapshots:
            pos = state.positions
            for i in range(state.n_cells):
                writer.writerow(
                    [repr(float(t)), i, repr(float(pos[i])), repr(float(pos[i + 1])), repr(float(state.densities[i]))]
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
    width0: Optional[np.ndarray] = None
    density0: Optional[np.ndarray] = None
    rho_star = 0.0
    pending = list(events)
    for g in groups:
        t = g[0][0]
        pos = np.array([r[2] for r in g] + [g[-1][3]])
        dens = np.array([r[4] for r in g])
        if width0 is None:
            width0 = np.diff(pos)
            density0 = dens.copy()
            rho_star = float(np.max(dens, initial=0.0))
        elif width0.size != dens.size:
            keep = np.ones(width0.size, dtype=bool)
            keep[pending.pop(0).deleted_cells] = False
            width0 = width0[keep]
            density0 = density0[keep]
        state = ParticleState(
            positions=pos,
            densities=dens,
            masses=dens * np.diff(pos),
            width0=width0.copy(),
            density0=density0.copy(),
            density0_max=rho_star,
            time=t,
        )
        snapshots.append((t, state))
    return Trajectory(
        snapshots=snapshots,
        events=events,
        model=model,
        config=payload.get("config", {}),
        fingerprint=payload.get("fingerprint", ""),
    )


STATE_FIELDS = ("positions", "densities", "masses", "width0", "density0", "density0_max", "time", "pos_carry")
EVENT_FIELDS = ("time", "deleted_particles", "deleted_cells", "survivor_map", "discarded_mass", "pre_particle_count")


def assert_same_trajectory(got, want):
    assert len(got.snapshots) == len(want.snapshots)
    for (t_got, s_got), (t_want, s_want) in zip(got.snapshots, want.snapshots):
        assert t_got == t_want
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


# any finite float, subnormals included, so parsing must be exact everywhere
coord = st.floats(-1e6, 1e6, allow_nan=False)
density = st.one_of(st.floats(0.0, 1e6), st.sampled_from([0.0, 5e-324, 1.0, 0.1]))


@st.composite
def trajectories(draw):
    """A consistent trajectory: cells are only ever removed by a recorded event."""
    n_cells = draw(st.integers(1, 7))
    times = sorted(draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6)))
    snapshots, events = [], []
    width0 = density0 = None
    for t in times:
        if width0 is not None and n_cells > 1 and draw(st.booleans()):
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
            keep = np.ones(n_cells, dtype=bool)
            keep[deleted] = False
            width0, density0 = width0[keep], density0[keep]
            n_cells -= deleted.size
        pos = np.sort(draw(st.lists(coord, min_size=n_cells + 1, max_size=n_cells + 1, unique=True)))
        dens = np.asarray(draw(st.lists(density, min_size=n_cells, max_size=n_cells)))
        if width0 is None:
            width0, density0 = np.diff(pos), dens.copy()
        state = ParticleState(
            positions=pos,
            densities=dens,
            masses=dens * np.diff(pos),
            width0=width0.copy(),
            density0=density0.copy(),
            density0_max=float(np.max(snapshots[0][1].densities if snapshots else dens)),
            time=t,
        )
        snapshots.append((t, state))
    return Trajectory(snapshots=snapshots, events=events, model=None, config={"seed": 3}, fingerprint="fp")


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
    "integrator": {"dt_max": 0.002, "theta": 0.1, "eps_coll": None},
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
    "missing events.json": lambda out: (out / "events.json").unlink(),
    "events.json not JSON": _edit_events(lambda text: text[: len(text) // 2]),
    "events.json without events": _edit_events(lambda text: json.dumps({"config": {}})),
    "event log too short": _edit_events(_drop_first_event),
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
        ("ftl.pairs=0.5", "ftl.pairs"),
        ("ftl.tol=NaN", "ftl.tol"),
        ("integrator=3", "integrator"),
    ],
)
def test_malformed_config_types_exit_2(setting, path, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(VACUUM))
    assert run_cli([str(config), "--out", str(tmp_path / "out"), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()
