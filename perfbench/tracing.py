"""In-memory spans around the package's public functions.

Spans are installed from here, not from inside the package: each public
name is wrapped where the calling module looks it up, so a call from
``dynamics`` and a call from ``analysis`` to ``particle_velocities`` each
go through their own wrapper.  A span records (name, start, end, parent)
plus one integer of work (particles, bytes, snapshots, ...) taken from the
call's arguments or result.

``velocity_extrema`` runs once per particle per step (millions of calls on
the largest case), so it is not a span: its calls and time are summed into
the enclosing span, which keeps self times exact without storing a record
per call.

Self time is a span's duration minus what its child spans and summed
extremum calls cover.  The package runs on one thread, so no layer waits
on another and there is no waiting time to report.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from pathlib import Path

import numpy as np

import particle_paths as pp
from particle_paths import analysis, cli, dynamics, exports, field, initial, velocity

NAME, START, END, PARENT, WORK, LEAF_S = range(6)

WAIT_NOTE = "wait: none to report; the package runs single-threaded, so no layer waits on another"


def _state_particles(args, kwargs, result):
    return int(args[1].n_particles)


def _snapshots(args, kwargs, result):
    return len(result.snapshots)


def _swept(args, kwargs, result):
    return int(result[1] is not None)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _dir_bytes(args, kwargs, result):
    return sum(os.path.getsize(Path(args[0]) / f) for f in ("trajectory.csv", "events.json"))


def _ftl_pairs(args, kwargs, result):
    return len(args[1])


def _cli_mode(args, kwargs, result):
    argv = list(args[0])
    return ("simulate", "audit", "ftl-check").index(argv[argv.index("--mode") + 1])


def godunov_cell_steps(model, data, cells, T, dt=None, window=None, cfl=0.9):
    """Cells times time steps of one ``godunov_reference`` call.

    Replays the step-size arithmetic of the reference solver's time loop
    (same window, dx, dt and stopping rule), so the count is exact.
    """
    if window is None:
        pad = T * model.lip_f + 1e-9
        window = (data.support_hint[0] - pad, data.support_hint[1] + pad)
    dx = (window[1] - window[0]) / cells
    if dt is None:
        dt = cfl * dx / max(model.lip_f, 1e-300)
    t, steps = 0.0, 0
    while t < T - 1e-15 * max(1.0, T):
        t += min(dt, T - t)
        steps += 1
    return cells * steps


def _godunov_work(args, kwargs, result):
    return godunov_cell_steps(*args, **kwargs)


# (module, public name, span name, work extractor)
SPANS = [
    (pp, "place_particles", "initial.place", None),
    (pp, "cell_average", "initial.cell_average", None),
    (pp, "initial_approximation_gap", "initial.gap", None),
    (pp, "simulate", "dynamics.simulate", _snapshots),
    (pp, "error_report", "analysis.error_report", None),
    (pp, "invariant_audit", "analysis.audit", None),
    (pp, "spacetime_flux_residual", "field.residual", None),
    (pp, "reconstruct_density", "field.reconstruct", None),
    (pp, "godunov_reference", "reference.godunov", _godunov_work),
    (dynamics, "particle_velocities", "velocity.particle_velocities", _state_particles),
    (dynamics, "resolve_collisions", "dynamics.resolve_collisions", _swept),
    (field, "particle_velocities", "velocity.particle_velocities", _state_particles),
    (analysis, "particle_velocities", "velocity.particle_velocities", _state_particles),
    (analysis, "reconstruct_density", "field.reconstruct", None),
    (analysis, "spacetime_flux_residual", "field.residual", None),
    (analysis, "invariant_audit", "analysis.audit", None),
    (analysis, "initial_approximation_gap", "initial.gap", None),
    (analysis, "l1_error_against", "analysis.l1_error", None),
    (analysis, "integrate", "quadrature.integrate", None),
    (initial, "integrate", "quadrature.integrate", None),
    (cli, "run_cli", "cli.run_cli", _cli_mode),
    (cli, "place_particles", "initial.place", None),
    (cli, "cell_average", "initial.cell_average", None),
    (cli, "simulate", "dynamics.simulate", _snapshots),
    (cli, "invariant_audit", "analysis.audit", None),
    (cli, "follow_the_leader_deviation", "velocity.ftl_deviation", _ftl_pairs),
    (exports, "write_trajectory_csv", "exports.write", _file_bytes),
    (exports, "write_events_json", "exports.write", _file_bytes),
    (exports, "load_trajectory_dir", "exports.load", _dir_bytes),
]

# the per-particle extremum oracle, looked up by the velocity rule and the audit
LEAVES = [(velocity, "velocity_extrema"), (analysis, "velocity_extrema")]


class Tracer:
    """Records spans while installed; ``case`` opens a root span per case."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaf_calls = 0
        self.leaf_s = 0.0
        self._saved = []

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, 0, 0.0])
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def case(self, label):
        rec = self._open("case:" + label)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name, work):
        tracer = self

        def wrapped(*args, **kwargs):
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if work is not None:
                rec[WORK] = work(args, kwargs, result)
            return result

        return wrapped

    def _wrap_leaf(self, fn):
        tracer = self
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                tracer.leaf_calls += 1
                tracer.leaf_s += dt
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][LEAF_S] += dt

        return wrapped

    def install(self):
        for module, attr, name, work in SPANS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, work))
        for module, attr in LEAVES:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap_leaf(fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------ analysis

    def self_times(self):
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - child[i] - rec[LEAF_S] for i, rec in enumerate(self.spans)]

    def roots(self):
        """Index of the root (case) span of every span."""
        root = []
        for i, rec in enumerate(self.spans):
            root.append(i if rec[PARENT] < 0 else root[rec[PARENT]])
        return root

    def dump(self, path):
        fields = ["name", "start", "end", "parent", "work", "leaf_s"]
        Path(path).write_text(json.dumps({"fields": fields, "spans": self.spans}))


def _fit_exponent(ns, seconds):
    """Least-squares slope of log(seconds) against log(n); 0 with < 2 sizes."""
    pairs = [(n, s) for n, s in zip(ns, seconds) if s > 0]
    if len({n for n, _ in pairs}) < 2:
        return 0.0
    x = np.log([n for n, _ in pairs])
    y = np.log([s for _, s in pairs])
    return float(np.polyfit(x, y, 1)[0])


def layer_metrics(tracer, case_sizes, traced_s, untraced_s):
    """Per-layer metrics of one traced round.

    ``case_sizes`` maps a completed case label to its particle count; the
    N-scaling exponents are fitted over those cases only.
    """
    spans = tracer.spans
    self_s = tracer.self_times()
    root = tracer.roots()
    tot = {}
    cnt = {}
    work = {}
    for i, rec in enumerate(spans):
        name = rec[NAME]
        tot[name] = tot.get(name, 0.0) + self_s[i]
        cnt[name] = cnt.get(name, 0) + 1
        work[name] = work.get(name, 0) + rec[WORK]

    def s(*names):
        return sum(tot.get(n, 0.0) for n in names)

    sim_total = sum(r[END] - r[START] for r in spans if r[NAME] == "dynamics.simulate")
    steps = [r for r in spans if r[NAME] == "velocity.particle_velocities" and r[PARENT] >= 0
             and spans[r[PARENT]][NAME] == "dynamics.simulate"]
    particle_steps = sum(r[WORK] for r in steps)
    particles = work.get("velocity.particle_velocities", 0) + work.get("velocity.ftl_deviation", 0)
    vel_s = s("velocity.particle_velocities", "velocity.ftl_deviation")
    cli_s = [0.0, 0.0, 0.0]
    for i, rec in enumerate(spans):
        if rec[NAME] == "cli.run_cli":
            cli_s[rec[WORK]] += self_s[i]
    roots_s = sum(r[END] - r[START] for r in spans if r[PARENT] < 0)

    # N-scaling: velocity self time and dynamics self time per completed case
    per_case = {}
    for i, rec in enumerate(spans):
        label = spans[root[i]][NAME][len("case:"):]
        if label in case_sizes:
            acc = per_case.setdefault(label, [0.0, 0.0])
            if rec[NAME] in ("velocity.particle_velocities", "velocity.ftl_deviation"):
                acc[0] += self_s[i]
            elif rec[NAME] == "dynamics.simulate":
                acc[1] += self_s[i]
    labels = sorted(per_case)
    ns = [case_sizes[k] for k in labels]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    m = {
        "velocity.s": (vel_s, "s"),
        "velocity.calls": (cnt.get("velocity.particle_velocities", 0), "count"),
        "velocity.particles": (particles, "count"),
        "velocity.ns_per_particle": (ratio(vel_s, particles, 1e9), "ns"),
        "velocity.n_exponent": (_fit_exponent(ns, [per_case[k][0] for k in labels]), "1"),
        "flux.extrema_s": (tracer.leaf_s, "s"),
        "flux.extrema_calls": (tracer.leaf_calls, "count"),
        "flux.us_per_extremum": (ratio(tracer.leaf_s, tracer.leaf_calls, 1e6), "us"),
        "dynamics.simulate_s": (sim_total, "s"),
        "dynamics.self_s": (s("dynamics.simulate"), "s"),
        "dynamics.self_n_exponent": (_fit_exponent(ns, [per_case[k][1] for k in labels]), "1"),
        "dynamics.steps": (len(steps), "count"),
        "dynamics.particle_steps": (particle_steps, "count"),
        "dynamics.self_ns_per_particle_step": (ratio(s("dynamics.simulate"), particle_steps, 1e9), "ns"),
        "dynamics.collision_sweeps": (work.get("dynamics.resolve_collisions", 0), "count"),
        "dynamics.resolve_collisions_s": (s("dynamics.resolve_collisions"), "s"),
        "dynamics.snapshots": (work.get("dynamics.simulate", 0), "count"),
        "initial.place_s": (s("initial.place"), "s"),
        "initial.cell_average_s": (s("initial.cell_average"), "s"),
        "initial.gap_s": (s("initial.gap"), "s"),
        "quadrature.integrate_s": (s("quadrature.integrate"), "s"),
        "quadrature.integrate_calls": (cnt.get("quadrature.integrate", 0), "count"),
        "field.residual_s": (s("field.residual"), "s"),
        "field.reconstruct_s": (s("field.reconstruct"), "s"),
        "reference.godunov_s": (s("reference.godunov"), "s"),
        "reference.godunov_cell_steps": (work.get("reference.godunov", 0), "count"),
        "analysis.error_report_s": (s("analysis.error_report"), "s"),
        "analysis.l1_error_s": (s("analysis.l1_error"), "s"),
        "analysis.audit_s": (s("analysis.audit"), "s"),
        "exports.write_s": (s("exports.write"), "s"),
        "exports.bytes_written": (work.get("exports.write", 0), "bytes"),
        "exports.load_s": (s("exports.load"), "s"),
        "exports.bytes_read": (work.get("exports.load", 0), "bytes"),
        "cli.simulate_s": (cli_s[0], "s"),
        "cli.audit_s": (cli_s[1], "s"),
        "cli.ftl_check_s": (cli_s[2], "s"),
        "trace.overhead_ratio": (ratio(traced_s, untraced_s), "ratio"),
        "trace.coverage_ratio": (ratio(roots_s, traced_s), "ratio"),
    }
    for value, _ in m.values():
        if not math.isfinite(value):
            raise ValueError("non-finite per-layer metric")
    return m
