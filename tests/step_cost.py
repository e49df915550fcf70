"""Cost per step of ``simulate``, for one source tree or two side by side.

    python tests/step_cost.py [SRC [SRC2]] [--rounds R] [--repeats K]

Runs each tree (default: this checkout's ``src``) ``R`` times, alternating
between the trees, each time in a fresh interpreter pinned to one CPU.  A
run times ``simulate`` on each case, best of ``K`` calls, and prints, per
tree and case, the steps, the median over the rounds of the microseconds
per step, and the share of steps whose caps the caps certificate settled
(steps minus calls of ``dynamics._timestep_cap``, counted in a separate
untimed call).  The cases are the paper's rarefaction-shock profile under
burgers at N = 201 ... 6401 (33 snapshots, T = 0.25, dt_max = 0.2 dx*
with dx* the widest initial cell), and the LWR boxes in vacuum of the
benchmark's cli_vacuum_lwr workload at seed 0.  Uses only the standard
library and numpy; pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIZES = (201, 401, 801, 1601, 3201, 6401)


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


def _cases(pp, np):
    data = pp.rarefaction_shock_data()
    model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1.0 + 1e-12))
    for n in SIZES:
        state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
        yield f"paper N={n}", (model, state0, 0.25, dict(dt_max=0.2 * float(np.max(state0.widths)), snapshot_count=33))
    yield "cli_vacuum_lwr seed 0", _vacuum_boxes(pp, np)


def _child(src: str, repeats: int) -> None:
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    sys.path.insert(0, src)
    import numpy as np

    import particle_paths as pp
    from particle_paths import dynamics

    out = {}
    for label, (model, state0, T, kw) in _cases(pp, np):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            traj = pp.simulate(model, state0, T, **kw)
            best = min(best, time.perf_counter() - t0)
        calls = []
        cap = dynamics._timestep_cap
        dynamics._timestep_cap = lambda *args: calls.append(1) or cap(*args)
        try:
            steps = pp.simulate(model, state0, T, **kw).stats.steps
        finally:
            dynamics._timestep_cap = cap
        out[label] = {"steps": traj.stats.steps, "us_per_step": 1e6 * best / steps, "cleared": 1.0 - len(calls) / steps}
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
        print(f"  {'case':<24}{'steps':>7}{'us/step':>10}{'cleared':>9}")
        for label, first in runs[0].items():
            us = statistics.median(run[label]["us_per_step"] for run in runs)
            print(f"  {label:<24}{first['steps']:>7}{us:>10.1f}{first['cleared']:>9.1%}")


if __name__ == "__main__":
    main()
