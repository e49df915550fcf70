"""Benchmark of the particle-paths package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory (nothing is installed).  The workload's inputs come from the
seed.  Set-up (``import particle_paths`` timed in a fresh interpreter,
plus building the workload's flux models, profiles and exact solutions)
is repeated and its median reported as ``setup_s``.

``--trace 0`` repeats the workload's round of cases for about S seconds
(at least one round) and reports the end-to-end metrics
``time_to_result_s`` (median round time), ``setup_s`` and ``peak_rss_mb``.
Both times are wall times rescaled to a reference machine speed that a
probe measures during the timed region (see ``speed.py``); the raw wall
times are printed and saved next to them.  ``--trace 1`` runs one
untraced and one traced round and reports the per-layer metrics of the
traced one (raw wall times), with the tracing overhead.

Every case is checked; failed cases count in ``failed``, and ``correct``
is false when a cross-case check fails or two rounds of one seed
disagree.  The last line of standard output is the JSON result.  Details
and spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 11
WORKLOADS = ("convergence_burgers", "nonconvex_tabulated", "cli_vacuum_lwr")


def _fresh_import_s():
    """Wall time of ``import particle_paths`` timed inside a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
            "import particle_paths; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True, capture_output=True, text=True)
    return float(proc.stdout)


def _setup(workload, seed):
    """Median set-up time (wall, and at the reference speed) over several repeats, and the inputs."""
    wall, adjusted = [], []
    inputs = None
    for _ in range(SETUP_REPEATS):
        before = speed.scale()
        t_import = _fresh_import_s()
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        wall.append(t_import + time.perf_counter() - t0)
        adjusted.append(wall[-1] * 0.5 * (before + speed.scale()))
    return statistics.median(wall), statistics.median(adjusted), inputs


def _timed_round(workload, inputs, *case_span):
    t0 = time.perf_counter()
    rnd = workload.run_round(inputs, *case_span)
    return rnd, time.perf_counter() - t0


def _report(rounds, name, seed):
    first = rounds[0]
    for c in first.cases:
        print(f"case {c.label}: {'PASS' if c.ok else 'FAIL'} ({c.seconds:.3f} s) {c.detail}")
    for key, (ok, detail) in first.checks.items():
        print(f"check {key}: {'PASS' if ok else 'FAIL'} {detail}")
    for key in first.figures:
        values = [r.figures[key][0] for r in rounds if key in r.figures]
        print(f"figure {name}.{key} = {statistics.median(values):.6g} {first.figures[key][1]}")
    attempted = sum(len(r.cases) for r in rounds)
    failed = sum(1 for r in rounds for c in r.cases if not c.ok)
    checks_ok = all(ok for r in rounds for ok, _ in r.checks.values())
    repeatable = len({r.fingerprint for r in rounds}) == 1
    if not repeatable:
        print("check repeat_rounds: FAIL rounds of one seed gave different results")
    print(f"figure {name}.failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} cases, seed {seed})")
    return attempted, failed, checks_ok and repeatable


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one CPU for the whole run, set-up children included: migrations
    # between the two CPUs of the reference machine made imports ~1.5x slower
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "particle_paths" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'particle_paths'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import particle_paths

    if Path(particle_paths.__file__).resolve().parent != (SRC / "particle_paths").resolve():
        print(f"perfbench: imported {particle_paths.__file__}, not the checkout's source", file=sys.stderr)
        return 2
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}"
    workload = workloads.make(args.workload, work_dir)
    try:
        setup_wall_s, setup_s, inputs = _setup(workload, args.seed)
        if args.trace:
            base, untraced_s = _timed_round(workload, inputs)
            tracer = tracing.Tracer()
            with tracer:
                rnd, traced_s = _timed_round(workload, inputs, tracer.case)
            rounds = [base, rnd]
            sizes = {c.label: c.n for c in rnd.cases if c.completed and c.n}
            layer = tracing.layer_metrics(tracer, sizes, traced_s, untraced_s)
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            rounds, times, adjusted = [], [], []
            deadline = time.perf_counter() + args.seconds
            while True:
                with speed.Probe() as probe:
                    rounds.append(workload.run_round(inputs))
                times.append(probe.wall_s)
                adjusted.append(probe.adjusted())
                if time.perf_counter() + probe.wall_s > deadline:
                    break
            metrics = {
                "time_to_result_s": {"value": statistics.median(adjusted), "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed, correct = _report(rounds, args.workload, args.seed)
    wall = {"wall_setup_s": setup_wall_s}
    if args.trace:
        print(tracing.WAIT_NOTE)
    else:
        wall["wall_time_to_result_s"] = statistics.median(times)
    for key, value in wall.items():
        print(f"figure {args.workload}.{key} = {value:.6g} s (raw wall time)")
    for key, m in metrics.items():
        print(f"metric {key} = {m['value']:.6g} {m['unit']}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "rounds": len(rounds), "wall": wall,
        "cases": [vars(c) for c in rounds[0].cases],
        "checks": {k: list(v) for k, v in rounds[0].checks.items()},
        "figures": {k: list(v) for k, v in rounds[0].figures.items()},
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
