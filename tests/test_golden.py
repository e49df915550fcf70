"""Golden output digests for three fixed CLI runs.

The digests were recorded with the scalar per-particle velocity loop; the
array interface-velocity kernel must reproduce its output byte for byte.
Floats are written in shortest round-trip form, so any change in a
trajectory's arithmetic shows up here.

The LWR digests were re-recorded when cell averages became closed forms:
adaptive Simpson quadrature had given 0.6000000000000001 and
0.7999999999999999 in five cells whose exact averages are 0.6 and 0.8.
The earlier code, given the exact initial densities, wrote the same
bytes as those digests.

Both were re-recorded again when the cell widths became the evolved
state.  Positions are now rebuilt from cumulative widths, so they move
by rounding: the burgers run keeps its 512 steps and 17 snapshot times,
with positions within 4e-15 and densities within 3e-14 relative of the
position-state run, and its plateau no longer rises 2.7e-14 above the
initial maximum.  The LWR run kept its 34 collision events with the
same deleted particles, deleted cells and survivor maps; event times and
positions moved by at most 1.8e-11, and it takes 776 steps instead of 774.

The ``stats.json`` digests were recorded before ``exports.write_json``
became the one JSON writer; it writes the same bytes.

The LWR digests were re-recorded when ``uniform`` placement put a
particle on every breakpoint and made each vacuum gap one cell: 141
particles became 108 and 34 collision events became 2.  The earlier
code, given the new positions in place of its own, wrote the same
``trajectory.csv``, ``events.json``, ``stats.json`` and ``summary.txt``.
The burgers run's positions are unchanged: its jumps already sat on the
grid and it has no vacuum.

The tabulated run pins the node-table path, which neither of the others
reaches: the particle velocities come from ``flux.entropic_row`` over the
``_RangeExtrema`` sparse table of a non-convex 17-node table.  It runs the
LWR boxes in vacuum with seed 2: 108 particles, 1 collision event and
519 steps, and its audit passes.  Its digests were recorded before range
queries read their level arithmetic from tables indexed by span.

The ``trajectory.npy`` and ``summary.txt`` digests of all three runs were
recorded while ``Trajectory`` still held one ``ParticleState`` per
snapshot and both writers looped over them; the writers now read the
stacked runs and must give the same bytes.

The LWR and tabulated ``events.json`` digests were re-recorded when an
event became its time, deleted cells and discarded mass: each earlier
file, with its ``deleted_particles``, ``survivor_map`` and
``pre_particle_count`` keys dropped and written again by
``exports.write_json``, gives the new bytes.  The burgers run has no
event, and its ``events.json`` did not move.
"""

import hashlib
import json

import numpy as np
import pytest

from dynamics_reference import revalidated
from particle_paths import cli
from particle_paths.cli import run_cli
from particle_paths.dynamics import simulate

BURGERS = {
    "mode": "simulate",
    "flux": {"kind": "burgers", "params": {}},
    "initial_data": {"kind": "paper_example", "params": {}},
    "placement": {"strategy": "uniform", "n": 201},
    "time_horizon": 0.25,
    "integrator": {"dt_max": 0.0005, "theta": 0.1},
    "snapshots": 17,
    "seed": 0,
}

# three boxes in vacuum: 2 collision events, one per vacuum gap
LWR = {
    "mode": "simulate",
    "flux": {"kind": "lwr", "params": {"v_max": 1.0, "u_max": 1.0}},
    "initial_data": {
        "kind": "piecewise_constant",
        "params": {"breakpoints": [0.0, 0.3, 0.45, 0.8, 1.0, 1.4], "values": [0.6, 0.0, 0.8, 0.0, 0.5]},
    },
    "placement": {"strategy": "uniform", "n": 141},
    "time_horizon": 1.0,
    "integrator": {"dt_max": 0.002, "theta": 0.1},
    "snapshots": 17,
    "seed": 1,
}

# the same boxes under a non-convex 17-node table
TABLE_US = np.linspace(0.0, 1.0, 17)
TABLE = {"us": TABLE_US.tolist(), "fs": (TABLE_US * ((TABLE_US - 0.5) ** 2 - 0.1)).tolist()}
TABULATED = {**LWR, "flux": {"kind": "tabulated", "params": TABLE}, "seed": 2}

GOLDEN = {
    "burgers": (
        BURGERS,
        "76b8cca506c183e2c0d0cd4af9c8df615cbf6cbf10aaab353404e0b87405a5de",
        "11b1718f23d8e07860eacc669ef48f42c3464759d6cec265f49351f66d30e945",
        "07e402c1b73c81a68e1f76b66d45f98e358ec1e2fea0247136fde95185ae8a2e",
        "3dc11341a368859c590142401bfd34f403b2e824a2e464a810fabdf89523513d",
        "f0390d92a0bc136b7eb351d2fc580e762d9bca74b62f4b9ed4078d40ea3eec16",
    ),
    "lwr": (
        LWR,
        "75f815f145ff875b3dfefa1efaa5de71b870e627e4dcca600cb5d4b7669a8679",
        "7757a28e30e57a0aec1e2d315911438494896a18a57022acaddba43ef33cb1ff",
        "e8cd73468e382f03481c0a2b0bb7385f314f051347f77398e0dcd7156df3fcf6",
        "2c57c6dbf55109142e502afdb2e9de04f26ac0dcfb68211bac37b91b4309de40",
        "4d8369f4d29d680aefee72222e0617945c76b4c68ead63971468b844fbff1e93",
    ),
    "tabulated": (
        TABULATED,
        "53af0a6326b0b2f1faaba0506d9e801aa756042a2259405229446f8dda7f93e7",
        "789fdc1f1961571023cd59b5ea3610d7c1c272b916f264eee9feb5fb8fe946d9",
        "d5833c903ad1ce3649210abced815b23beddc67c39bd3e00ad8f0b2038a125cf",
        "3e4c44d0754cf2bd174751f86481e551795f4648590d92efacc049936dd710a7",
        "688d0aeffffbc8de62596f130232987ca598243cf27e77af6486cd81b218925a",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_output_matches_golden_digest(name, tmp_path, monkeypatch):
    config, trajectory_sha, events_sha, stats_sha, npy_sha, summary_sha = GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *args, **kw: runs.append(simulate(*args, **kw)) or runs[-1])
    assert run_cli([str(path), "--out", str(tmp_path / "out")]) == 0
    want = {
        "trajectory.csv": trajectory_sha,
        "events.json": events_sha,
        "stats.json": stats_sha,
        "trajectory.npy": npy_sha,
        "summary.txt": summary_sha,
    }
    assert {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in want} == want
    # every recorded state passes the checks of the constructor
    (traj,) = runs
    for state in traj.snapshots:
        revalidated(state)
