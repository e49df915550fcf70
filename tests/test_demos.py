"""Demos 01, 02 and 04 run and write byte-identical outputs.

Each demo is copied into a temporary directory and run there, so its
``output/`` directory lands beside the copy and nothing is written under
``demos/``.  The digests pin the bytes of every CSV and JSON writer:
``write_function_csv`` (exact_T, scheme_T), ``write_rate_csv`` (rate),
``write_trajectory_csv`` and ``write_events_json``.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

DEMOS = {
    "01_rarefaction_shock.py": {
        "exact_T.csv": "43914e06204ff3541d3e84c61def87c78d9b937a6c0511ff84ba1301b6cec546",
        "scheme_T.csv": "b2c9677425784876abf7883f842f01da94608e6224a7706aecbc7776079e30f0",
        "trajectory.csv": "d91586b5302ed3a5033613d3e0cd125f9a08a62ff046a6142b1659cf57c9cdc2",
    },
    "02_convergence_rate.py": {
        "rate.csv": "8919938cca299efde32f825c6194c28d33fb1f57f3d54789b8efd5bb064bd821",
    },
    "04_vacuum_collision.py": {
        "collision_trajectory.csv": "20960e9f990607ede66f6412603e860d3acbe98212b692742e2a7bdb36e0c491",
        "collision_events.json": "d982f8f3f314b905b985c14b95d3e626bb44b24570eed4c6e5257ff95030fef8",
    },
}


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_outputs_match_pinned_digests(demo, tmp_path):
    shutil.copy(REPO / "demos" / demo, tmp_path / demo)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = {name: hashlib.sha256((tmp_path / "output" / name).read_bytes()).hexdigest() for name in DEMOS[demo]}
    assert digests == DEMOS[demo]
