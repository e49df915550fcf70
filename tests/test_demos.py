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
        "scheme_T.csv": "e64644a9f6e1880caf775e68c47e9a0bc823ef4fa7eab163a3a2f23ef18dc425",
        "trajectory.csv": "fe4debc79497970adb187908c842c949b673539424d26ba1639991d196240e28",
    },
    "02_convergence_rate.py": {
        "rate.csv": "55791ab2fdb306fac6431e453c0f309d853f41d4b0741cb1f84d0edb5b6ca61e",
    },
    "04_vacuum_collision.py": {
        "collision_trajectory.csv": "82dbf4bad099aaff800cf358782e03882eb0a3eb1bbb90dcc3d2a5daed9ddbc9",
        "collision_events.json": "afe087e2b30d5007388e7a5122deb211fef15a452bd5226ee4b6695ed96bfa47",
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
