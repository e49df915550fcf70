"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest perfbench/test_perfbench.py

Takes a few minutes: each workload's round runs twice under the tracer.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTS = (
    "dynamics.steps",
    "dynamics.particle_steps",
    "velocity.particles",
    "flux.extrema_calls",
    "reference.godunov_cell_steps",
    "exports.bytes_written",
)


def _traced_round(name, work_dir):
    workload = workloads.make(name, work_dir)
    inputs = workload.build(0)
    tracer = tracing.Tracer()
    with tracer:
        rnd = workload.run_round(inputs, tracer.case)
    seconds = sum(c.seconds for c in rnd.cases)
    sizes = {c.label: c.n for c in rnd.cases if c.completed and c.n}
    return rnd, tracing.layer_metrics(tracer, sizes, seconds, seconds)


@pytest.mark.parametrize("name", ["convergence_burgers", "nonconvex_tabulated", "cli_vacuum_lwr"])
def test_counts_repeat_exactly(name, tmp_path):
    first, m1 = _traced_round(name, tmp_path / "a")
    second, m2 = _traced_round(name, tmp_path / "b")
    for key in EXACT_COUNTS:
        assert m1[key] == m2[key], key
    assert first.fingerprint == second.fingerprint
    assert m1["velocity.particles"][0] > 0 and m1["flux.extrema_calls"][0] > 0
    # the case spans cover the round
    assert m1["trace.coverage_ratio"][0] > 0.99


def test_tracer_restores_every_name():
    import particle_paths
    from particle_paths import dynamics, velocity

    before = (particle_paths.simulate, dynamics.particle_velocities, velocity.velocity_extrema)
    with tracing.Tracer():
        assert dynamics.particle_velocities is not before[1]
    assert (particle_paths.simulate, dynamics.particle_velocities, velocity.velocity_extrema) == before


def test_godunov_cell_steps_matches_the_solver():
    import dataclasses

    import particle_paths as pp

    data = pp.box_data(1.0, 0.0, 1.0)
    model = pp.builtin_flux("burgers", u_high=1.0)
    calls = []

    def counting_f(u):
        calls.append(1)
        return model.eval_f(u)

    # burgers is nondecreasing on [0, 1]: the solver classifies the flux with
    # one call, then calls f once per time step
    pp.godunov_reference(dataclasses.replace(model, eval_f=counting_f), data, 100, 0.5)
    assert tracing.godunov_cell_steps(model, data, 100, 0.5) == 100 * (len(calls) - 1)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        cmd + ["--workload", "cli_vacuum_lwr", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
