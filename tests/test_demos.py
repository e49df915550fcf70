"""Demos 01, 02 and 04 run and write byte-identical outputs; 03, 05, 06 run.

Each demo is copied into a temporary directory and run there, so its
``output/`` directory lands beside the copy and nothing is written under
``demos/``.  The digests pin the bytes of every CSV and JSON writer:
``write_function_csv`` (exact_T, scheme_T), ``write_rate_csv`` (rate),
``write_trajectory_csv`` and ``write_events_json``.  Demos 03, 05 and 06
write no file, so only their exit codes and printouts are checked.
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
        "collision_events.json": "8d7c6a9ec7b4e7b25df6f295c50134ad6e04e3ed4a27f61d606582194d68014c",
    },
}


def run_demo(demo, tmp_path):
    shutil.copy(REPO / "demos" / demo, tmp_path / demo)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", sorted(DEMOS))
def test_demo_outputs_match_pinned_digests(demo, tmp_path):
    run_demo(demo, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / "output" / name).read_bytes()).hexdigest() for name in DEMOS[demo]}
    assert digests == DEMOS[demo]


def test_traffic_demo_runs_against_its_riemann_reference(tmp_path):
    lines = run_demo("03_traffic_follow_the_leader.py", tmp_path).splitlines()
    assert "invariant audit:        PASS" in lines
    assert any(line.startswith("reference: shock 0.2 -> 0.8") for line in lines)


CLOSING_LINES = {
    "05_entropy_check.py": "both quantities shrink linearly with the time step.",
    "06_characteristics.py": "ordering preserved: True",
}


@pytest.mark.parametrize("demo", sorted(CLOSING_LINES))
def test_analysis_demo_runs_to_its_closing_line(demo, tmp_path):
    assert run_demo(demo, tmp_path).splitlines()[-1] == CLOSING_LINES[demo]
