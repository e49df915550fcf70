"""The benchmark's workloads.

Each workload builds its inputs from a seed (``build``: every flux model,
initial profile and exact solution it uses) and then runs one round
(``run_round``): a fixed list of cases, each checked for correctness.  A
case fails if it raises, fails its check, or a CLI mode exits non-zero.
Cross-case checks (rate fit, byte-identical repeats) go
into ``Round.checks``.  Every call into the package goes through a module
attribute (``pp.simulate``, ``cli.run_cli``) so the tracer can wrap it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import particle_paths as pp
from particle_paths import cli


@dataclass
class Case:
    label: str
    ok: bool
    detail: str
    seconds: float
    n: Optional[int] = None
    completed: bool = True  # False when the case raised


@dataclass
class Round:
    cases: List[Case] = field(default_factory=list)
    checks: Dict[str, Tuple[bool, str]] = field(default_factory=dict)
    figures: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    fingerprint: str = ""

    def run(self, case_span, label, fn, n=None):
        """Run one case inside its root span; record failure instead of raising."""
        t0 = time.perf_counter()
        completed = True
        with case_span(label):
            try:
                ok, detail, value = fn()
            except Exception as exc:  # a raising case is a failed case, with its diagnostic
                ok, detail, value, completed = False, f"{type(exc).__name__}: {exc}", None, False
        self.cases.append(Case(label, bool(ok), detail, time.perf_counter() - t0, n, completed))
        return value


def _no_span(label):
    return contextlib.nullcontext()


def _max_spacing(state):
    return float(np.max(state.widths))


# --------------------------------------------------------------------------
# convergence_burgers


class ConvergenceBurgers:
    sizes = (201, 401, 801, 1601)
    T = 0.25
    dt_ratio = 0.2  # the CLI convergence default: dt_max = 0.2 * dx*
    theta = 0.1
    snapshots = 33

    def build(self, seed):
        data = pp.rarefaction_shock_data()
        model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1.0 + 1e-12))
        exact = pp.burgers_rarefaction_shock()
        # the experiment is fixed by the paper; the seed only sets the case order
        order = [int(n) for n in np.random.default_rng(seed).permutation(self.sizes)]
        return {"data": data, "model": model, "exact": exact, "order": order}

    def run_round(self, inp, case_span=_no_span):
        rnd = Round()
        data, model, exact = inp["data"], inp["model"], inp["exact"]
        reports = {}

        def one(n):
            state0 = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
            dt = self.dt_ratio * _max_spacing(state0)
            traj = pp.simulate(model, state0, self.T, dt_max=dt, theta=self.theta,
                               snapshot_count=self.snapshots, data=data)
            rep = pp.error_report(traj, exact, self.T)
            ok = rep.audit_passed and rep.l1_error_at_T <= rep.stability_bound and rep.l1_error_at_T <= rep.rate_bound
            detail = (f"audit {'PASS' if rep.audit_passed else 'FAIL'}, l1 {rep.l1_error_at_T:.5g} <= "
                      f"stability {rep.stability_bound:.5g}, <= rate {rep.rate_bound:.5g}")
            return ok, detail, rep

        for n in inp["order"]:
            rep = rnd.run(case_span, f"N={n}", lambda: one(n), n)
            if rep is not None:
                reports[n] = rep
        done = sorted(reports)
        if len(done) >= 3:
            fit = pp.fit_loglog_slope([reports[n].dx0_star for n in done], [reports[n].l1_error_at_T for n in done])
            rnd.checks["rate_slope"] = (fit.slope >= 0.45, f"fitted slope {fit.slope:.4f} >= 0.45 over N={done}")
            rnd.figures["rate_slope"] = (fit.slope, "1")
        else:
            rnd.checks["rate_slope"] = (False, f"only {len(done)} sizes completed; need 3 for the rate fit")
        timed = {c.n: c.seconds for c in rnd.cases if c.completed}
        if len(timed) >= 2:
            ns = sorted(timed)
            slope = np.polyfit(np.log(ns), np.log([timed[n] for n in ns]), 1)[0]
            rnd.figures["cost_exponent_N"] = (float(slope), "1")
        if done:
            rnd.figures["l1_error"] = (reports[done[-1]].l1_error_at_T, "L1")
            rnd.figures["l1_error_N"] = (done[-1], "count")
        rnd.fingerprint = json.dumps({n: reports[n].l1_error_at_T for n in done})
        return rnd


# --------------------------------------------------------------------------
# nonconvex_tabulated


class NonconvexTabulated:
    nodes = 65
    sizes = (51, 101)  # a dyadic pair for the Richardson estimate
    cells = (500, 1000)
    T = 0.25
    snapshots = 33
    # dt_max is the snapshot spacing, below every crossing cap these
    # profiles reach, so every seed takes the same number of steps (with
    # 0.2 * dx* the count doubled whenever dx* fell below 0.039)
    dt_max = T / (snapshots - 1)

    def build(self, seed):
        # two waves with random phases, sampled at 17 nodes and scaled to a
        # fixed maximum: every seed gives a different profile with the same
        # slope statistics and the same sup u0, so the extremum scans and the
        # Godunov step count cost about the same for every seed
        phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=2)
        xs = np.linspace(0.0, 1.0, 17)
        us = 0.5 + 0.25 * np.sin(4.0 * np.pi * xs + phase[0]) + 0.1 * np.sin(10.0 * np.pi * xs + phase[1])
        us[0] = us[-1] = 0.0
        us *= 0.85 / us.max()
        data = pp.sampled_data(xs, us)
        table = np.linspace(0.0, 1.0, self.nodes)
        model = pp.builtin_flux("tabulated", us=table, fs=table * ((table - 0.5) ** 2 - 0.1),
                                u_high=data.sup_u0 * (1.0 + 1e-12))
        mass0 = float(np.sum(0.5 * (us[1:] + us[:-1]) * np.diff(xs)))
        return {"data": data, "model": model, "mass0": mass0}

    def run_round(self, inp, case_span=_no_span):
        rnd = Round()
        data, model, mass0 = inp["data"], inp["model"], inp["mass0"]

        def scheme(n):
            state0 = pp.cell_average(data, pp.place_particles(data, n, "mass_equidistributed"))
            traj = pp.simulate(model, state0, self.T, dt_max=self.dt_max, snapshot_count=self.snapshots, data=data)
            audit = pp.invariant_audit(traj)
            residual, _ = pp.spacetime_flux_residual(traj)
            gap, tail = pp.initial_approximation_gap(data, state0)
            bound = pp.stability_error_bound(gap + tail, data.tv_u0, residual)
            ok = audit.passed and math.isfinite(bound)
            fails = "; ".join(f"{k}: {audit.checks[k].detail}" for k in audit.failures())
            detail = f"audit {'PASS' if audit.passed else 'FAIL ' + fails}, residual {residual:.4g}, stability bound {bound:.4g}"
            return ok, detail, pp.reconstruct_density(traj.final_state)

        def godunov(cells):
            # monotone scheme: values stay in [0, sup u0]; the mass matches the
            # profile's up to the solver's cell-centre sampling of u0
            g = pp.godunov_reference(model, data, cells, self.T)
            lo, hi = float(np.min(g.values)), float(np.max(g.values))
            drift = abs(g.integral() - mass0) / mass0
            ok = lo >= -1e-12 and hi <= data.sup_u0 * (1.0 + 1e-12) and drift <= 1e-3
            return ok, f"range [{lo:.3g}, {hi:.4g}] within [0, {data.sup_u0:.4g}], mass drift {drift:.2e} <= 1e-3", g

        v = {n: rnd.run(case_span, f"scheme N={n}", lambda: scheme(n), n) for n in self.sizes}
        g = {c: rnd.run(case_span, f"godunov cells={c}", lambda: godunov(c)) for c in self.cells}

        def cross():
            (n0, n1), (c0, c1) = self.sizes, self.cells
            est_scheme = pp.richardson_error_estimate(v[n1].l1_distance(v[n0]), 0.5)
            est_oracle = pp.richardson_error_estimate(g[c1].l1_distance(g[c0]), 0.5)
            dist = v[n1].l1_distance(g[c1])
            rnd.figures["oracle_l1_gap"] = (dist, "L1")
            return dist <= est_scheme + est_oracle, (
                f"scheme-vs-oracle L1 {dist:.4g} <= est_scheme {est_scheme:.4g} + est_oracle {est_oracle:.4g}"), dist

        rnd.run(case_span, "cross-check", cross)
        rnd.fingerprint = json.dumps(rnd.figures.get("oracle_l1_gap", (None,))[0])
        return rnd


# --------------------------------------------------------------------------
# cli_vacuum_lwr


class CliVacuumLwr:
    n = 301
    boxes = 5
    T = 1.0
    snapshots = 64

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def build(self, seed):
        # random box widths, gaps and heights; the widths and the gaps each
        # add up to a fixed total, so every seed has the same span, time step
        # and number of vacuum cells to collapse
        rng = np.random.default_rng(seed)
        widths = 0.2 + 0.6 * rng.dirichlet(np.ones(self.boxes))
        gaps = 0.15 + 0.3 * rng.dirichlet(np.ones(self.boxes - 1))
        heights = rng.uniform(0.4, 0.9, self.boxes)
        bp, vals = [0.0], []
        for i in range(self.boxes):
            bp.append(bp[-1] + float(widths[i]))
            vals.append(float(heights[i]))
            if i < self.boxes - 1:
                bp.append(bp[-1] + float(gaps[i]))
                vals.append(0.0)
        pp.piecewise_constant_data(bp, vals)  # rejects a malformed profile before the CLI sees it
        dx = (bp[-1] - bp[0]) / (self.n - 1)
        config = {
            "mode": "simulate",
            "flux": {"kind": "lwr", "params": {"v_max": 1.0, "u_max": 1.0}},
            "initial_data": {"kind": "piecewise_constant", "params": {"breakpoints": bp, "values": vals}},
            "placement": {"strategy": "uniform", "n": self.n},
            "time_horizon": self.T,
            "integrator": {"dt_max": 0.2 * dx, "theta": 0.1},
            "snapshots": self.snapshots,
            "seed": int(seed),
        }
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / "config.json"
        path.write_text(json.dumps(config))
        return {"config": path}

    def _cli(self, inp, mode, out):
        buf_out, buf_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf_out), contextlib.redirect_stderr(buf_err):
            code = cli.run_cli([str(inp["config"]), "--mode", mode, "--out", str(out)])
        lines = (buf_out.getvalue() + buf_err.getvalue()).strip().splitlines()
        shown = [ln for ln in lines if "FAIL" in ln or "failure" in ln] or lines[-1:]
        return code == 0, f"exit {code}" + "".join(f"; {ln}" for ln in shown), code

    def run_round(self, inp, case_span=_no_span):
        rnd = Round()
        runs = [self.work_dir / "out-a", self.work_dir / "out-b"]
        for out in runs:
            shutil.rmtree(out, ignore_errors=True)
        digests = []

        def simulate(out):
            ok, detail, code = self._cli(inp, "simulate", out)
            csv = out / "trajectory.csv"
            digest = hashlib.sha256(csv.read_bytes()).hexdigest() if csv.exists() else ""
            digests.append(digest)
            return ok, detail, code

        rnd.run(case_span, "simulate", lambda: simulate(runs[0]), self.n)
        rnd.run(case_span, "simulate repeat", lambda: simulate(runs[1]), self.n)
        rnd.run(case_span, "audit", lambda: self._cli(inp, "audit", runs[0]))
        rnd.run(case_span, "ftl-check", lambda: self._cli(inp, "ftl-check", runs[0]))
        same = len(digests) == 2 and digests[0] == digests[1] and digests[0] != ""
        rnd.checks["repeat_bytes"] = (same, "trajectory.csv sha256 identical across repeats" if same
                                      else f"trajectory.csv digests differ or missing: {digests}")
        if (runs[0] / "events.json").exists():
            rnd.figures["collision_events"] = (len(json.loads((runs[0] / "events.json").read_text())["events"]), "count")
            rnd.figures["trajectory_mb"] = ((runs[0] / "trajectory.csv").stat().st_size / 2**20, "MB")
        rnd.fingerprint = digests[0] if digests else ""
        return rnd


def make(name: str, work_dir: Path):
    """The workload called ``name``; ``work_dir`` holds the CLI's files."""
    if name == "cli_vacuum_lwr":
        return CliVacuumLwr(work_dir)
    return {"convergence_burgers": ConvergenceBurgers, "nonconvex_tabulated": NonconvexTabulated}[name]()
