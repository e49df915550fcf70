"""Experiment driver.

One JSON config file describes an experiment, read as ``DEFAULTS``
updated with its top-level keys; flags only override fields.  Modes:

* ``simulate``    run once, write trajectory.npy / trajectory.csv / events.json /
                  stats.json / summary.txt; needs ``placement.n`` and
                  ``integrator.dt_max``
* ``convergence`` run a particle-count family, write rate.csv / rate.json;
                  needs ``placement.n_list``
* ``audit``       re-check invariants on a previously written output dir, read
                  from its trajectory.npy and events.json
* ``ftl-check``   report the deviation from the follow-the-leader rule on
                  ``FTL_PAIRS`` seeded pairs, against ``FTL_TOL``

Each value a mode reads is checked by one row of ``_RULES``.  A writing
mode makes the output directory once its checks pass, before any write.
Exit codes: 0 success, 2 config error, 3 invariant failure, 4 runtime
failure.  Outputs are deterministic for a fixed config (fixed seed, floats
written in shortest round-trip form).  Run as ``particle-paths`` or
``python -m particle_paths``.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

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

__all__ = ["DEFAULTS", "ConfigError", "run_cli", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_RUNTIME = 4

# ftl-check draws this many seeded pairs and passes when the largest
# deviation is at most FTL_TOL
FTL_PAIRS = 10000
FTL_TOL = 1e-8

# every top-level config key, with the value a file that omits it gets
DEFAULTS = {
    "mode": "simulate",
    "flux": {"kind": "burgers", "params": {}},
    "initial_data": {"kind": "paper_example", "params": {}},
    "placement": {"strategy": "uniform", "n": 101},
    "time_horizon": 0.25,
    "integrator": {"dt_max": 1e-3, "theta": THETA_DEFAULT},
    "snapshots": 64,
    "seed": 0,
    "out": "results",
    "input": None,
}


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"config error at {path}: {message}")
        self.path = path


def _read_config(path) -> dict:
    """``DEFAULTS`` with the top-level keys of the file at ``path``, not yet validated."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(str(path), "file not found")
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "top level must be a JSON object")
    for key in raw:
        if key not in DEFAULTS:
            raise ConfigError(key, "unknown key")
    return {**copy.deepcopy(DEFAULTS), **raw}


def _holder(cfg: dict, path: str) -> tuple[dict, str]:
    """The dict holding the last key of the dot path ``path``, and that key;
    an unknown top-level key, or a prefix that is no object, is a ``ConfigError``."""
    head, *keys = path.split(".")
    if head not in DEFAULTS:
        raise ConfigError(head, "unknown key")
    target, leaf = cfg, head
    for depth, part in enumerate(keys):
        target, leaf = target.get(leaf), part
        if not isinstance(target, dict):
            raise ConfigError(".".join([head, *keys[:depth]]), "must be an object")
    return target, leaf


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
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ConfigError(where, f"{path}: {exc}")
    if table.shape[1] < 2:
        raise ConfigError(where, f"need two columns in {path}")
    return table


def _paper_reference(model: FluxModel, params: dict):
    if model.name != "burgers":
        raise ConfigError("flux.kind", "the rarefaction-shock reference needs the burgers flux")
    return burgers_rarefaction_shock()


# initial_data kind: the function building its data from the params, and
# the closed-form reference convergence mode measures against, if any
_DATA_KINDS = {
    "riemann": (riemann_data, lambda model, p: riemann_solution(model, p["u_l"], p["u_r"], p.get("x0", 0.0))),
    "paper_example": (rarefaction_shock_data, _paper_reference),
    "box": (box_data, None),
    "piecewise_constant": (piecewise_constant_data, None),
    "sampled": (sampled_data, None),
}
_DATA_KINDS["rarefaction_shock"] = _DATA_KINDS["paper_example"]


def _build_data(cfg: dict) -> InitialData:
    kind, params = cfg["initial_data"]["kind"], dict(cfg["initial_data"].get("params", {}))
    samples = ()
    try:
        if kind == "sampled" and "path" in params:
            table = _read_table(params.pop("path"), "initial_data.params.path")
            samples = (table[:, 0], table[:, 1])
        return _DATA_KINDS[kind][0](*samples, **params)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError("initial_data.params", str(exc))


def _build_model(cfg: dict, data: InitialData) -> FluxModel:
    kind = cfg["flux"]["kind"]
    params = dict(cfg["flux"].get("params", {}))
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


def _place(cfg: dict, data: InitialData, n: int) -> np.ndarray:
    """Initial positions; a strategy the data cannot support is a config error."""
    try:
        return place_particles(data, n, cfg["placement"].get("strategy", "uniform"))
    except ValueError as exc:
        raise ConfigError("placement.strategy", str(exc)) from exc


def _make_out(cfg: dict) -> Path:
    """The output directory; one that cannot be made, such as a file's path, is a config error."""
    out = Path(cfg["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("out", str(exc)) from exc
    return out


def _mode_simulate(cfg: dict, data: InitialData, model: FluxModel) -> int:
    state0 = cell_average(data, _place(cfg, data, cfg["placement"]["n"]))
    out = _make_out(cfg)
    traj = simulate(
        model,
        state0,
        float(cfg["time_horizon"]),
        dt_max=float(cfg["integrator"]["dt_max"]),
        theta=float(cfg["integrator"].get("theta", THETA_DEFAULT)),
        snapshot_count=int(cfg["snapshots"]),
        data=data,
        config={"seed": cfg["seed"]},
    )
    audit = invariant_audit(traj)
    exports.write_trajectory_csv(traj, out / "trajectory.csv")
    exports.write_trajectory_npy(traj, out / "trajectory.npy")
    exports.write_events_json(traj, out / "events.json")
    exports.write_json(traj.stats, out / "stats.json")
    mass0 = traj.snapshots[0].total_mass
    massT = traj.final_state.total_mass + sum(ev.discarded_mass for ev in traj.events)
    lines = [
        f"mode: simulate ({data.description}; flux {model.name})",
        f"particles: {state0.n_particles}  horizon: {cfg['time_horizon']}  dt_max: {cfg['integrator']['dt_max']}",
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


def _mode_convergence(cfg: dict, data: InitialData, model: FluxModel) -> int:
    kind = cfg["initial_data"]["kind"]
    reference = _DATA_KINDS[kind][1]
    if reference is None:
        raise ConfigError("initial_data.kind", f"no closed-form reference for {kind!r}")
    exact = reference(model, cfg["initial_data"].get("params", {}))
    T = float(cfg["time_horizon"])
    try:
        exact.at(T)  # the reference must hold at T, checked before any run
    except ValueError as exc:
        raise ConfigError("time_horizon", str(exc)) from exc
    n_list = cfg["placement"]["n_list"]
    # a placement the data cannot support, or a dx* that does not fall as n
    # grows (the rate fit needs strictly finer runs), fails before any run
    dx_star = [cell_average(data, _place(cfg, data, n)).dx_star for n in n_list]
    if any(later >= earlier for earlier, later in zip(dx_star, dx_star[1:])):
        pairs = ", ".join(f"n = {n}: {dx:.6g}" for n, dx in zip(n_list, dx_star))
        raise ConfigError("placement.n_list", f"dx* must fall as n grows, got {pairs}")
    out = _make_out(cfg)
    fit, reports = convergence_study(
        model,
        data,
        exact,
        n_list,
        T,
        strategy=cfg["placement"].get("strategy", "uniform"),
        theta=float(cfg["integrator"].get("theta", THETA_DEFAULT)),
    )
    exports.write_rate_csv(fit, out / "rate.csv")
    exports.write_json({"fit": fit, "reports": reports}, out / "rate.json")
    print(f"fitted slope: {fit.slope:.4f} (three finest: {fit.slope_tail:.4f})")
    return EXIT_OK


def _mode_audit(cfg: dict, data: InitialData, model: FluxModel) -> int:
    try:
        audit = invariant_audit(exports.load_trajectory_dir(cfg["input"] or cfg["out"], model))
    except ValueError as exc:
        raise ConfigError("input", str(exc)) from exc
    for name, check in sorted(audit.checks.items()):
        print(f"{'PASS' if check.ok else 'FAIL'} {name}: {check.detail}")
    return EXIT_OK if audit.passed else EXIT_INVARIANT


def _mode_ftl_check(cfg: dict, data: InitialData, model: FluxModel) -> int:
    rng = np.random.default_rng(cfg["seed"])
    pairs = rng.uniform(0.0, model.u_high, size=(FTL_PAIRS, 2))
    try:
        deviation = follow_the_leader_deviation(model, pairs)
    except ValueError as exc:
        print(f"precondition failed: {exc}")
        return EXIT_INVARIANT
    out = _make_out(cfg)
    exports.write_json({"pairs": FTL_PAIRS, "max_deviation": deviation, "tol": FTL_TOL}, out / "ftl_check.json")
    print(f"max |V(v_l, v_r) - a(v_r)| over {FTL_PAIRS} pairs: {deviation:.3e}")
    return EXIT_OK if deviation <= FTL_TOL else EXIT_INVARIANT


_MODES = {"simulate": _mode_simulate, "convergence": _mode_convergence, "audit": _mode_audit, "ftl-check": _mode_ftl_check}
_STRATEGIES = ("uniform", "mass_equidistributed")


# Each value the modes read: dot path (``[]`` marks every item of a list),
# the test it must pass, and the message when it does not.  An absent value
# passes: the modes fall back to a default, or _validate requires it.  The
# tests compare type(v), not isinstance, so a bool is no number; the bound
# at the largest float refuses inf, NaN and an int that float() overflows.
_RULES = (
    ("mode", lambda v: isinstance(v, str) and v in _MODES, f"must be one of {tuple(_MODES)}"),
    ("out", lambda v: isinstance(v, str), "must be a path string"),
    ("input", lambda v: v is None or isinstance(v, str), "must be a path string or null"),
    ("flux", lambda v: isinstance(v, dict) and "kind" in v, "need a tagged record {kind, params}"),
    ("flux.params", lambda v: isinstance(v, dict), "must be an object"),
    ("initial_data", lambda v: isinstance(v, dict) and "kind" in v, "need a tagged record {kind, params}"),
    ("initial_data.kind", lambda v: isinstance(v, str) and v in _DATA_KINDS, f"must be one of {tuple(_DATA_KINDS)}"),
    ("initial_data.params", lambda v: isinstance(v, dict), "must be an object"),
    ("placement.strategy", lambda v: v in _STRATEGIES, f"must be one of {_STRATEGIES}"),
    ("time_horizon", lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max, "must be a positive number"),
    ("placement.n", lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
    ("placement.n_list[]", lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
    ("integrator.dt_max", lambda v: type(v) in (int, float) and 0 < v <= sys.float_info.max, "must be a positive number"),
    ("integrator.theta", lambda v: type(v) in (int, float) and 0 < v < 1, "must be a number in (0, 1)"),
    ("snapshots", lambda v: type(v) is int and v >= 2, "must be an integer >= 2"),
    ("seed", lambda v: type(v) is int and v >= 0, "must be a nonnegative integer"),
)


def _rule_values(cfg: dict, path: str) -> list[tuple]:
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


def _validate(cfg: dict) -> None:
    for path, test, message in _RULES:
        for name, value in _rule_values(cfg, path):
            if not test(value):
                raise ConfigError(name, f"{message}, got {value!r}")
    place = cfg["placement"]
    # only simulate and convergence place particles, and only simulate reads dt_max
    needed = {"simulate": "n", "convergence": "n_list"}.get(cfg["mode"])
    if needed is not None:
        if "n" not in place and "n_list" not in place:
            raise ConfigError("placement", "need n or n_list")
        if needed not in place:
            raise ConfigError(f"placement.{needed}", f"required in {cfg['mode']} mode")
    if "n_list" in place:
        n_list = place["n_list"]
        if len(n_list) < 3:
            raise ConfigError("placement.n_list", "need >= 3 counts, each >= 2")
        if any(later <= earlier for earlier, later in zip(n_list, n_list[1:])):
            raise ConfigError("placement.n_list", f"counts must be strictly increasing, got {n_list!r}")
    if cfg["mode"] == "simulate" and "dt_max" not in cfg["integrator"]:
        raise ConfigError("integrator.dt_max", "required")
    for key in cfg["integrator"]:
        if key not in ("dt_max", "theta"):
            raise ConfigError(f"integrator.{key}", "unknown key")


def _apply_overrides(cfg: dict, sets: list[str]) -> None:
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


def run_cli(argv: list[str] | None = None) -> int:
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
            cfg["mode"] = args.mode
        if args.out:
            cfg["out"] = args.out
        _apply_overrides(cfg, args.set)
        _validate(cfg)
        data = _build_data(cfg)
        return _MODES[cfg["mode"]](cfg, data, _build_model(cfg, data))
    except ConfigError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CONFIG
    except StudyError as exc:  # a convergence run failed its audit
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except SimulationError as exc:
        # simulate and convergence made the output directory before their runs
        out = Path(cfg["out"])
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


if __name__ == "__main__":
    main()
