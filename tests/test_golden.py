"""Golden output digests for two fixed CLI runs.

The digests were recorded with the scalar per-particle velocity loop; the
array interface-velocity kernel must reproduce its output byte for byte.
Floats are written in shortest round-trip form, so any change in a
trajectory's arithmetic shows up here.
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
        "7a62eabd3f9b7cfc710f3e94b92c9a796a662cdba28b1e76ddb2f8104d42f2ab",
        "11b1718f23d8e07860eacc669ef48f42c3464759d6cec265f49351f66d30e945",
    ),
    "lwr": (
        LWR,
        "17528a6d9a509392fca34cbbd75db254a1eca99f7746f5c7449ac08745811091",
        "6d232f4785df84413e5f1c68b687132decab3bf499227fb9fb2d0d8f3b42d445",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_simulate_output_matches_golden_digest(name, tmp_path):
    config, trajectory_sha, events_sha = GOLDEN[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli([str(path), "--out", str(tmp_path / "out")]) == 0
    digest = {f: hashlib.sha256((tmp_path / "out" / f).read_bytes()).hexdigest() for f in ("trajectory.csv", "events.json")}
    assert digest == {"trajectory.csv": trajectory_sha, "events.json": events_sha}
