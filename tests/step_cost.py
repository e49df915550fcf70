"""Cost per step of ``simulate`` and of Godunov's reference, for one source tree or two side by side.

    python tests/step_cost.py [SRC [SRC2]] [--rounds R] [--repeats K]

Runs each tree (default: this checkout's ``src``) ``R`` times, alternating
between the trees, each time in a fresh interpreter pinned to one CPU.  A
run times each case, best of ``K`` calls, and prints, per tree and case,
the steps, the median over the rounds of the microseconds per step, and,
for ``simulate``, the share of steps whose caps the caps certificate
settled (steps minus calls of ``dynamics._timestep_cap``, counted in a
separate untimed call).  The ``simulate`` cases are the paper's
rarefaction-shock profile under burgers at N = 201 ... 6401 (33
snapshots, T = 0.25, dt_max = 0.2 dx* with dx* the widest initial cell),
the LWR boxes in vacuum of the benchmark's cli_vacuum_lwr workload at
seed 0, and the nonconvex_tabulated workload's seed-0 scheme runs (its
65-node non-convex table, N = 51 and 101 placed by
``mass_equidistributed``, dt_max = T/32, 33 snapshots), whose velocities
come from ``flux.entropic_row``.  The Godunov cases time
``godunov_reference`` on that workload's profile at 500 and 1000 cells,
one ``entropic_row`` call per step, whose calls give the step count.
The audit cases time ``invariant_audit`` on the trajectories of the
paper cases at N = 201 and 1601 and of the cli_vacuum_lwr case, best of
``20 K`` calls, and print the snapshots and the microseconds per audit.
Beside them, the record cases time ``exports.write_events_json`` and
``exports.load_trajectory_dir`` (``trajectory.npy`` and ``events.json``)
on the cli_vacuum_lwr trajectory, best of ``20 K`` calls.
Uses only the standard library and numpy; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIZES = (201, 401, 801, 1601, 3201, 6401)
NONCONVEX_SIZES = (51, 101)
GODUNOV_CELLS = (500, 1000)
NONCONVEX_T = 0.25
AUDITED = ("paper N=201", "paper N=1601", "cli_vacuum_lwr seed 0")
RECORDED = "cli_vacuum_lwr seed 0"


def _vacuum_boxes(pp, np):
    """cli_vacuum_lwr's seed-0 config: five LWR boxes across vacuum gaps, N = 301."""
    rng = np.random.default_rng(0)
    widths = 0.2 + 0.6 * rng.dirichlet(np.ones(5))
    gaps = 0.15 + 0.3 * rng.dirichlet(np.ones(4))
    heights = rng.uniform(0.4, 0.9, 5)
    bp, vals = [0.0], []
    for i in range(5):
        bp.append(bp[-1] + float(widths[i]))
        vals.append(float(heights[i]))
        if i < 4:
            bp.append(bp[-1] + float(gaps[i]))
            vals.append(0.0)
    data = pp.piecewise_constant_data(bp, vals)
    state0 = pp.cell_average(data, pp.place_particles(data, 301, "uniform"))
    model = pp.builtin_flux("lwr", v_max=1.0, u_max=1.0)
    return model, state0, 1.0, dict(dt_max=0.2 * (bp[-1] - bp[0]) / 300, theta=0.1, snapshot_count=64)


def _nonconvex_table(pp, np):
    """nonconvex_tabulated's seed-0 profile, two waves sampled at 17 points, and its 65-node table."""
    phase = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, size=2)
    xs = np.linspace(0.0, 1.0, 17)
    us = 0.5 + 0.25 * np.sin(4.0 * np.pi * xs + phase[0]) + 0.1 * np.sin(10.0 * np.pi * xs + phase[1])
    us[0] = us[-1] = 0.0
    us *= 0.85 / us.max()
    data = pp.sampled_data(xs, us)
    table = np.linspace(0.0, 1.0, 65)
    fs = table * ((table - 0.5) ** 2 - 0.1)
    return pp.builtin_flux("tabulated", us=table, fs=fs, u_high=data.sup_u0 * (1.0 + 1e-12)), data


def _cases(pp, np):
    data = pp.rarefaction_shock_data()
    model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1.0 + 1e-12))
    for n in SIZES:
        state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
        yield f"paper N={n}", (model, state0, 0.25, dict(dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33))
    yield "cli_vacuum_lwr seed 0", _vacuum_boxes(pp, np)
    model, data = _nonconvex_table(pp, np)
    for n in NONCONVEX_SIZES:
        state0 = pp.cell_average(data, pp.place_particles(data, n, "mass_equidistributed"))
        kw = dict(dt_max=NONCONVEX_T / 32, snapshot_count=33, data=data)
        yield f"nonconvex N={n}", (model, state0, NONCONVEX_T, kw)


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best


@contextlib.contextmanager
def _calls_of(module, name: str):
    """Count the calls of ``module.name`` inside the block."""
    calls = []
    fn = getattr(module, name)
    setattr(module, name, lambda *args: calls.append(1) or fn(*args))
    try:
        yield calls
    finally:
        setattr(module, name, fn)


def _child(src: str, repeats: int) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, src)
    import numpy as np

    import particle_paths as pp
    from particle_paths import dynamics, exports, reference

    out = {}
    for label, (model, state0, T, kw) in _cases(pp, np):
        best = _best_of(repeats, lambda: pp.simulate(model, state0, T, **kw))
        with _calls_of(dynamics, "_timestep_cap") as calls:
            traj = pp.simulate(model, state0, T, **kw)
        steps = traj.stats.steps
        out[label] = {"steps": steps, "us_per_step": 1e6 * best / steps, "cleared": 1.0 - len(calls) / steps}
        if label in AUDITED:
            best = _best_of(20 * repeats, lambda: pp.invariant_audit(traj))
            out[f"audit {label}"] = {"snapshots": len(traj.snapshots), "us": 1e6 * best}
        if label == RECORDED:
            with tempfile.TemporaryDirectory() as tmp:
                exports.write_trajectory_npy(traj, Path(tmp) / "trajectory.npy")
                best = _best_of(20 * repeats, lambda: exports.write_events_json(traj, Path(tmp) / "events.json"))
                out["write_events_json cli seed 0"] = {"snapshots": len(traj.snapshots), "us": 1e6 * best}
                best = _best_of(20 * repeats, lambda: exports.load_trajectory_dir(tmp, model))
                out["load_trajectory_dir cli seed 0"] = {"snapshots": len(traj.snapshots), "us": 1e6 * best}
    model, data = _nonconvex_table(pp, np)
    for cells in GODUNOV_CELLS:
        best = _best_of(repeats, lambda: pp.godunov_reference(model, data, cells, NONCONVEX_T))
        with _calls_of(reference, "entropic_row") as calls:
            pp.godunov_reference(model, data, cells, NONCONVEX_T)
        out[f"godunov cells={cells}"] = {"steps": len(calls), "us_per_step": 1e6 * best / len(calls), "cleared": None}
    print(json.dumps(out))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", help="src directories (default: this checkout's)")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child(args.child, args.repeats)
        return
    trees = [str(Path(t).resolve()) for t in args.trees] or [str(Path(__file__).resolve().parent.parent / "src")]
    if len(trees) > 2:
        parser.error("give one or two source trees")
    results = {tree: [] for tree in trees}
    for r in range(args.rounds):
        # alternate which tree goes first, so drift over time hits both alike
        for tree in trees if r % 2 == 0 else trees[::-1]:
            cmd = [sys.executable, __file__, "--child", tree, "--repeats", str(args.repeats)]
            proc = subprocess.run(cmd, check=True, capture_output=True, text=True)
            results[tree].append(json.loads(proc.stdout.splitlines()[-1]))
    for tree, runs in results.items():
        print(tree)
        print(f"  {'case':<30}{'steps':>7}{'us/step':>10}{'cleared':>9}")
        for label, first in runs[0].items():
            if "steps" in first:
                us = statistics.median(run[label]["us_per_step"] for run in runs)
                cleared = "-" if first["cleared"] is None else f"{first['cleared']:.1%}"
                print(f"  {label:<30}{first['steps']:>7}{us:>10.1f}{cleared:>9}")
        print(f"  {'case':<30}{'snaps':>7}{'us/call':>10}")
        for label, first in runs[0].items():
            if "snapshots" in first:
                us = statistics.median(run[label]["us"] for run in runs)
                print(f"  {label:<30}{first['snapshots']:>7}{us:>10.1f}")


if __name__ == "__main__":
    main()
