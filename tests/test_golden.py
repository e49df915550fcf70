"""Golden output digests for two fixed CLI runs.

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
initial maximum.  The LWR run keeps its 34 collision events with the
same deleted particles, deleted cells and survivor maps; event times and
positions moved by at most 1.8e-11, and it takes 776 steps instead of 774.

The ``stats.json`` digests were recorded before ``exports.write_json``
became the one JSON writer; it writes the same bytes.
"""

import hashlib
import json

import pytest

from particle_paths.cli import run_cli

BURGERS = {
    "mode": "simulate",
    "flux": {"kind": "burgers", "params": {}},
    "initial_data": {"kind": "paper_example", "params": {}},
    "placement": {"strategy": "uniform", "n": 201},
    "time_horizon": 0.25,
    "integrator": {"dt_max": 0.0005, "theta": 0.1, "eps_coll": None},
    "snapshots": 17,
    "seed": 0,
}

# three boxes in vacuum: 34 collision events
LWR = {
    "mode": "simulate",
    "flux": {"kind": "lwr", "params": {"v_max": 1.0, "u_max": 1.0}},
    "initial_data": {
        "kind": "piecewise_constant",
        "params": {"breakpoints": [0.0, 0.3, 0.45, 0.8, 1.0, 1.4], "values": [0.6, 0.0, 0.8, 0.0, 0.5]},
    },
    "placement": {"strategy": "uniform", "n": 141},
    "time_horizon": 1.0,
    "integrator": {"dt_max": 0.002, "theta": 0.1, "eps_coll": None},
    "snapshots": 17,
    "seed": 1,
}

GOLDEN = {
    "burgers": (
        BURGERS,
        "76b8cca506c183e2c0d0cd4af9c8df615cbf6cbf10aaab353404e0b87405a5de",
        "11b1718f23d8e07860eacc669ef48f42c3464759d6cec265f49351f66d30e945",
        "07e402c1b73c81a68e1f76b66d45f98e358ec1e2fea0247136fde95185ae8a2e",
    ),
    "lwr": (
        LWR,
        "ab94a4a7fb861f7120b90abf34722e84f65ab4e5f88687ea242dd2b8f613c539",
        "b58479328a085e789c75076e03268e0ae06e40253174f459b7464c8f031bb6c4",
        "2c7083af995bf296efe6d5b833b74a26e5067b977e34d4ed328361ae925e1750",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_output_matches_golden_digest(name, tmp_path):
    config, trajectory_sha, events_sha, stats_sha = GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli([str(path), "--out", str(tmp_path / "out")]) == 0
    want = {"trajectory.csv": trajectory_sha, "events.json": events_sha, "stats.json": stats_sha}
    assert {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in want} == want
