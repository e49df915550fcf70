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
        "75f815f145ff875b3dfefa1efaa5de71b870e627e4dcca600cb5d4b7669a8679",
        "19c7a085b14b9a3507cfdc0e995a73861690431bc65ae7f7723967fb1897a70d",
        "e8cd73468e382f03481c0a2b0bb7385f314f051347f77398e0dcd7156df3fcf6",
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
