"""Record the benchmark's baseline with its provenance.

    python3 perfbench/baseline.py [--seed N]

Runs every workload of ``BENCHMARK.json`` once untraced and once traced
with one seed, and writes ``perfbench/baseline.json``: the git commit,
Python and numpy versions, CPU count, seed and rerun command, and per
workload the reason it was chosen, its metrics, figures and the
diagnostics of every failed case.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _git_sha():
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description="record perfbench/baseline.json")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = str(spec["run_seconds"])
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True, check=True
    ).stdout.strip()
    out = {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "rerun": " ".join(spec["command"] + ["--workload", "<name>", "--seed", str(args.seed),
                                             "--seconds", seconds, "--trace", "<0|1>"]),
        "workloads": {},
    }
    for wl in spec["workloads"]:
        name = wl["name"]
        entry = {"why": wl["why"]}
        for trace in ("0", "1"):
            cmd = spec["command"] + ["--workload", name, "--seed", str(args.seed), "--seconds", seconds, "--trace", trace]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            detail = json.loads((ROOT / ".perfbench" / f"result-{name}-seed{args.seed}-trace{trace}.json").read_text())
            metrics = {k: [m["value"], m["unit"]] for k, m in result["metrics"].items()}
            if trace == "0":
                entry.update(
                    correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                    failed_ratio=result["failed"] / result["attempted"], end_to_end=metrics,
                    wall=detail["wall"], figures=detail["figures"], checks=detail["checks"],
                    failures=[{"case": c["label"], "diagnostic": c["detail"]} for c in detail["cases"] if not c["ok"]],
                )
            else:
                entry.update(per_layer=metrics, traced_correct=result["correct"])
            print(f"{name} trace={trace}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  flush=True)
        out["workloads"][name] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
