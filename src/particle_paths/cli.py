"""Experiment driver.

One JSON config file describes an experiment; flags only override
top-level fields.  Modes:

* ``simulate``    run once, write trajectory.npy / trajectory.csv / events.json /
                  stats.json / summary.txt; needs ``placement.n`` and
                  ``integrator.dt_max``
* ``convergence`` run a particle-count family, write rate.csv / rate.json;
                  needs ``placement.n_list``
* ``audit``       re-check invariants on a previously written output dir, read
                  from its trajectory.npy and events.json
* ``ftl-check``   report the deviation from the follow-the-leader rule on
                  ``FTL_PAIRS`` seeded pairs, against ``FTL_TOL``

Exit codes: 0 success, 2 config error, 3 invariant failure, 4 runtime
failure.  Outputs are deterministic for a fixed config (fixed seed, floats
written in shortest round-trip form).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from . import exports
from .analysis import StudyError, convergence_study, invariant_audit
from .dynamics import THETA_DEFAULT, SimulationError, simulate
from .flux import FluxModel, builtin_flux
from .initial import (
    InitialData,
    box_data,
    cell_average,
    piecewise_constant_data,
    place_particles,
    rarefaction_shock_data,
    riemann_data,
    sampled_data,
)
from .reference import burgers_rarefaction_shock, riemann_solution
from .velocity import follow_the_leader_deviation

__all__ = ["ExperimentConfig", "ConfigError", "run_cli", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_RUNTIME = 4

# ftl-check draws this many seeded pairs and passes when the largest
# deviation is at most FTL_TOL
FTL_PAIRS = 10000
FTL_TOL = 1e-8


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


@dataclass
class ExperimentConfig:
    mode: str = "simulate"
    flux: dict = field(default_factory=lambda: {"kind": "burgers", "params": {}})
    initial_data: dict = field(default_factory=lambda: {"kind": "paper_example", "params": {}})
    placement: dict = field(default_factory=lambda: {"strategy": "uniform", "n": 101})
    time_horizon: float = 0.25
    integrator: dict = field(default_factory=lambda: {"dt_max": 1e-3, "theta": THETA_DEFAULT})
    snapshots: int = 64
    seed: int = 0
    out: str = "results"
    input: Optional[str] = None


_STRATEGIES = ("uniform", "mass_equidistributed")
_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _read_config(path) -> ExperimentConfig:
    """Config with the top-level fields of the file at ``path``, not yet validated."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    cfg = ExperimentConfig()
    for key, value in raw.items():
        if key not in _FIELDS:
            raise ConfigError(key, "unknown key")
        setattr(cfg, key, value)
    return cfg


# Scalar fields that validation and the modes read: dot path (``[]`` marks
# every item of a list), numeric type, the range the value must lie in, and
# the message when it does not.  A float field also takes an int; bool is
# rejected where a number is expected.
_SCALARS = (
    ("time_horizon", float, lambda v: v > 0, "must be positive"),
    ("placement.n", int, lambda v: v >= 2, "need at least two particles"),
    ("placement.n_list[]", int, lambda v: v >= 2, "need >= 3 counts, each >= 2"),
    ("integrator.dt_max", float, lambda v: v > 0, "must be positive"),
    ("integrator.theta", float, lambda v: 0 < v < 1, "must lie in (0, 1)"),
    ("snapshots", int, lambda v: v >= 2, "need at least two"),
    ("seed", int, lambda v: v >= 0, "must be nonnegative"),
)


def _holder(cfg: ExperimentConfig, path: str) -> Tuple[dict, str]:
    """The dict holding the last key of the dot path ``path`` (the config's
    fields outermost), and that key; an unknown field, or a prefix that is
    no object, is a ``ConfigError``."""
    head, *keys = path.split(".")
    if head not in _FIELDS:
        raise ConfigError(head, "unknown key")
    target, leaf = vars(cfg), head
    for depth, part in enumerate(keys):
        target, leaf = target.get(leaf), part
        if not isinstance(target, dict):
            raise ConfigError(".".join([head, *keys[:depth]]), "must be an object")
    return target, leaf


def _scalar_values(cfg: ExperimentConfig, path: str) -> List[tuple]:
    """(dot path, value) for each value present at ``path``; an absent last key gives none."""
    target, key = _holder(cfg, path.removesuffix("[]"))
    if key not in target:
        return []
    value = target[key]
    if not path.endswith("[]"):
        return [(path, value)]
    if not isinstance(value, list):
        raise ConfigError(path[:-2], "must be a list")
    return [(f"{path[:-2]}[{j}]", item) for j, item in enumerate(value)]


def _check_scalars(cfg: ExperimentConfig) -> None:
    for path, kind, in_range, rule in _SCALARS:
        for name, value in _scalar_values(cfg, path):
            if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else int):
                raise ConfigError(name, f"must be {'a number' if kind is float else 'an integer'}, got {value!r}")
            if not ((isinstance(value, int) or math.isfinite(value)) and in_range(value)):
                raise ConfigError(name, f"{rule}, got {value!r}")


def _validate(cfg: ExperimentConfig) -> None:
    if not (isinstance(cfg.mode, str) and cfg.mode in _MODES):
        raise ConfigError("mode", f"must be one of {tuple(_MODES)}, got {cfg.mode!r}")
    if not isinstance(cfg.out, str):
        raise ConfigError("out", f"must be a path string, got {cfg.out!r}")
    if not (cfg.input is None or isinstance(cfg.input, str)):
        raise ConfigError("input", f"must be a path string or null, got {cfg.input!r}")
    for key in ("flux", "initial_data"):
        record = getattr(cfg, key)
        if not isinstance(record, dict) or "kind" not in record:
            raise ConfigError(key, "need a tagged record {kind, params}")
        if not isinstance(record.get("params", {}), dict):
            raise ConfigError(f"{key}.params", f"must be an object, got {record['params']!r}")
    _check_scalars(cfg)
    place = cfg.placement
    if place.get("strategy", "uniform") not in _STRATEGIES:
        raise ConfigError("placement.strategy", f"must be one of {_STRATEGIES}, got {place['strategy']!r}")
    # only simulate and convergence place particles, and only simulate reads dt_max
    needed = {"simulate": "n", "convergence": "n_list"}.get(cfg.mode)
    if needed is not None:
        if "n" not in place and "n_list" not in place:
            raise ConfigError("placement", "need n or n_list")
        if needed not in place:
            raise ConfigError(f"placement.{needed}", f"required in {cfg.mode} mode")
    if "n_list" in place:
        n_list = place["n_list"]
        if len(n_list) < 3:
            raise ConfigError("placement.n_list", "need >= 3 counts, each >= 2")
        if any(later <= earlier for earlier, later in zip(n_list, n_list[1:])):
            raise ConfigError("placement.n_list", f"counts must be strictly increasing, got {n_list!r}")
    if cfg.mode == "simulate" and "dt_max" not in cfg.integrator:
        raise ConfigError("integrator.dt_max", "required")
    for key in cfg.integrator:
        if key not in ("dt_max", "theta"):
            raise ConfigError(f"integrator.{key}", "unknown key")


def _read_table(path, where: str) -> np.ndarray:
    """Two-column CSV samples below a header row; a file without them is
    reported here, not by np.loadtxt's "no data" warning."""
    try:
        lines = Path(path).read_text().splitlines()[1:]
    except OSError as exc:
        raise ConfigError(where, str(exc))
    rows = [line for line in lines if line.split("#", 1)[0].strip()]  # as np.loadtxt skips
    if not rows:
        raise ConfigError(where, f"no data rows in {path}")
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    if table.shape[1] < 2:
        raise ConfigError(where, f"need two columns in {path}")
    return table


def _build_data(cfg: ExperimentConfig) -> InitialData:
    kind = cfg.initial_data["kind"]
    params = dict(cfg.initial_data.get("params", {}))
    try:
        if kind == "riemann":
            return riemann_data(**params)
        if kind in ("paper_example", "rarefaction_shock"):
            return rarefaction_shock_data(**params)
        if kind == "box":
            return box_data(**params)
        if kind == "piecewise_constant":
            return piecewise_constant_data(**params)
        if kind == "sampled":
            csv_path = params.pop("path", None)
            if csv_path is not None:
                table = _read_table(csv_path, "initial_data.params.path")
                return sampled_data(table[:, 0], table[:, 1], **params)
            return sampled_data(**params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("initial_data.params", str(exc))
    raise ConfigError("initial_data.kind", f"unknown kind {kind!r}")


def _build_model(cfg: ExperimentConfig, data: InitialData) -> FluxModel:
    kind = cfg.flux["kind"]
    params = dict(cfg.flux.get("params", {}))
    u_high = data.sup_u0 * (1.0 + 1e-12)
    try:
        if kind == "tabulated" and "path" in params:
            table = _read_table(params.pop("path"), "flux.params.path")
            model = builtin_flux("tabulated", us=table[:, 0], fs=table[:, 1], **params)
            # the table keeps its own top, and with it its lip_f, so data above it is refused here
            if data.sup_u0 > model.u_high:
                raise ConfigError(
                    "flux.params.path", f"data reach u = {data.sup_u0}, above the table's top u = {model.u_high}"
                )
            return model
        return builtin_flux(kind, u_high=u_high, **params)
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError("flux", str(exc))


def _reference_for(cfg: ExperimentConfig, model: FluxModel):
    kind = cfg.initial_data["kind"]
    if kind in ("paper_example", "rarefaction_shock"):
        if cfg.flux["kind"] != "burgers":
            raise ConfigError("flux.kind", "the rarefaction-shock reference needs the burgers flux")
        return burgers_rarefaction_shock()
    if kind == "riemann":
        params = cfg.initial_data.get("params", {})
        return riemann_solution(model, params["u_l"], params["u_r"], params.get("x0", 0.0))
    raise ConfigError("initial_data.kind", f"no closed-form reference for {kind!r}")


def _place(cfg: ExperimentConfig, data: InitialData, n: int) -> np.ndarray:
    """Initial positions; a strategy the data cannot support is a config error."""
    try:
        return place_particles(data, n, cfg.placement.get("strategy", "uniform"))
    except ValueError as exc:
        raise ConfigError("placement.strategy", str(exc)) from exc


def _mode_simulate(cfg: ExperimentConfig, data: InitialData, model: FluxModel, out: Path) -> int:
    pos = _place(cfg, data, int(cfg.placement["n"]))
    state0 = cell_average(data, pos)
    traj = simulate(
        model,
        state0,
        float(cfg.time_horizon),
        dt_max=float(cfg.integrator["dt_max"]),
        theta=float(cfg.integrator.get("theta", THETA_DEFAULT)),
        snapshot_count=int(cfg.snapshots),
        data=data,
        config={"seed": cfg.seed},
    )
    audit = invariant_audit(traj)
    out.mkdir(parents=True, exist_ok=True)
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_trajectory_npy(traj, out / "trajectory.npy")
    exports.write_events_json(traj, out / "events.json")
    exports.write_json(traj.stats, out / "stats.json")
    mass0 = traj.snapshots[0].total_mass
    massT = traj.final_state.total_mass + sum(ev.discarded_mass for ev in traj.events)
    lines = [
        f"mode: simulate ({data.description}; flux {model.name})",
        f"particles: {state0.n_particles}  horizon: {cfg.time_horizon}  dt_max: {cfg.integrator['dt_max']}",
        f"collision events: {len(traj.events)}",
        f"mass drift: {abs(massT - mass0) / max(mass0, 1e-300):.3e}",
        f"tv margin (nonincrease): {audit.checks['tv_diminishing'].margin:.3e}",
        f"audit: {'PASS' if audit.passed else 'FAIL ' + ','.join(audit.failures())}",
    ]
    if data.measure_window:
        lines.append(f"measure window: {data.measure_window}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if audit.passed else EXIT_INVARIANT


def _mode_convergence(cfg: ExperimentConfig, data: InitialData, model: FluxModel, out: Path) -> int:
    exact = _reference_for(cfg, model)
    T = float(cfg.time_horizon)
    try:
        exact.at(T)  # the reference must hold at T, checked before any run
    except ValueError as exc:
        raise ConfigError("time_horizon", str(exc)) from exc
    n_list = [int(n) for n in cfg.placement["n_list"]]
    # a placement the data cannot support, or a dx* that does not fall as n
    # grows (the rate fit needs strictly finer runs), fails before any run
    dx_star = [cell_average(data, _place(cfg, data, n)).dx_star for n in n_list]
    if any(later >= earlier for earlier, later in zip(dx_star, dx_star[1:])):
        pairs = ", ".join(f"n = {n}: {dx:.6g}" for n, dx in zip(n_list, dx_star))
        raise ConfigError("placement.n_list", f"dx* must fall as n grows, got {pairs}")
    fit, reports = convergence_study(
        model,
        data,
        exact,
        n_list,
        T,
        strategy=cfg.placement.get("strategy", "uniform"),
        theta=float(cfg.integrator.get("theta", THETA_DEFAULT)),
    )
    out.mkdir(parents=True, exist_ok=True)
    exports.write_rate_csv(fit, out / "rate.csv")
    exports.write_json({"fit": fit, "reports": reports}, out / "rate.json")
    print(f"fitted slope: {fit.slope:.4f} (three finest: {fit.slope_tail:.4f})")
    return EXIT_OK


def _mode_audit(cfg: ExperimentConfig, data: InitialData, model: FluxModel, out: Path) -> int:
    src = Path(cfg.input) if cfg.input else out
    try:
        audit = invariant_audit(exports.load_trajectory_dir(src, model))
    except ValueError as exc:
        raise ConfigError("input", str(exc)) from exc
    for name, check in sorted(audit.checks.items()):
        print(f"{'PASS' if check.ok else 'FAIL'} {name}: {check.detail}")
    return EXIT_OK if audit.passed else EXIT_INVARIANT


def _mode_ftl_check(cfg: ExperimentConfig, data: InitialData, model: FluxModel, out: Path) -> int:
    rng = np.random.default_rng(cfg.seed)
    pairs = rng.uniform(0.0, model.u_high, size=(FTL_PAIRS, 2))
    try:
        deviation = follow_the_leader_deviation(model, pairs)
    except ValueError as exc:
        print(f"precondition failed: {exc}")
        return EXIT_INVARIANT
    out.mkdir(parents=True, exist_ok=True)
    exports.write_json({"pairs": FTL_PAIRS, "max_deviation": deviation, "tol": FTL_TOL}, out / "ftl_check.json")
    print(f"max |V(v_l, v_r) - a(v_r)| over {FTL_PAIRS} pairs: {deviation:.3e}")
    return EXIT_OK if deviation <= FTL_TOL else EXIT_INVARIANT


_MODES = {"simulate": _mode_simulate, "convergence": _mode_convergence, "audit": _mode_audit, "ftl-check": _mode_ftl_check}


def _apply_overrides(cfg: ExperimentConfig, sets: List[str]) -> None:
    for item in sets:
        if "=" not in item:
            raise ConfigError(item, "--set expects key=value")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        target, leaf = _holder(cfg, key)
        target[leaf] = value


def run_cli(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="particle-paths", description="particle scheme experiment driver"
    )
    parser.add_argument("config", help="path to a JSON experiment config")
    parser.add_argument("--mode", choices=tuple(_MODES), help="override the config mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config field (dot paths allowed)")
    args = parser.parse_args(argv)

    try:
        # validated once, after the flags: which keys are required depends on the mode
        cfg = _read_config(args.config)
        if args.mode:
            cfg.mode = args.mode
        if args.out:
            cfg.out = args.out
        _apply_overrides(cfg, args.set)
        _validate(cfg)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG

    out = Path(cfg.out)
    try:
        data = _build_data(cfg)
        return _MODES[cfg.mode](cfg, data, _build_model(cfg, data), out)
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except StudyError as exc:  # a convergence run failed its audit
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SimulationError as exc:
        out.mkdir(parents=True, exist_ok=True)
        diag = {"error": str(exc)}
        if exc.state is not None:
            diag["state"] = {
                "time": exc.state.time,
                "positions": [float(x) for x in exc.state.positions],
                "densities": [float(v) for v in exc.state.densities],
            }
        exports.write_json(diag, out / "diagnostic.json")
        print(f"runtime failure: {exc} (diagnostic written to {out / 'diagnostic.json'})", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(run_cli())
