import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import particle_paths
from particle_paths import analysis, cell_average, cli, place_particles, riemann_data
from particle_paths.analysis import AuditReport, CheckResult
from particle_paths.cli import run_cli

README = Path(__file__).resolve().parents[1] / "README.md"


def base_config(tmp_path, **overrides):
    cfg = {
        "mode": "simulate",
        "flux": {"kind": "burgers", "params": {}},
        "initial_data": {"kind": "paper_example", "params": {}},
        "placement": {"strategy": "uniform", "n": 31},
        "time_horizon": 0.1,
        "integrator": {"dt_max": 0.001, "theta": 0.1},
        "snapshots": 8,
        "seed": 0,
        "out": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli([str(missing)]) == 2
    assert capsys.readouterr().err == f"config error at {missing}: file not found\n"
    broken = tmp_path / "broken.json"
    broken.write_text('{"mode": "simulate",')
    assert run_cli([str(broken)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {broken}: invalid JSON: ")
    cases = [
        ({"mode": "never"}, "config error at mode: must be one of"),
        ({"placement": {}}, "config error at placement: need n or n_list"),
        ({"modes": "simulate"}, "config error at modes: unknown key"),
    ]
    for overrides, message in cases:
        assert run_cli([str(base_config(tmp_path, **overrides))]) == 2
        assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


def test_simulate_writes_outputs(tmp_path):
    path = base_config(tmp_path)
    assert run_cli([str(path)]) == 0
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory.npy").exists()
    assert (out / "events.json").exists()
    summary = (out / "summary.txt").read_text()
    assert "mass drift: 0.000e+00" in summary
    assert "audit: PASS" in summary
    stats = json.loads((out / "stats.json").read_text())
    assert stats["steps"] == sum(stats["limited_by"].values()) >= 100
    assert stats["collision_sweeps"] == len(json.loads((out / "events.json").read_text())["events"])
    assert 0.0 < stats["dt_min"] <= stats["dt_median"] <= 0.001


def test_simulate_deterministic_bytes(tmp_path):
    path = base_config(tmp_path)
    assert run_cli([str(path), "--out", str(tmp_path / "a")]) == 0
    assert run_cli([str(path), "--out", str(tmp_path / "b")]) == 0
    # no digest of trajectory.npy is pinned: its header follows the numpy version
    for name in ("trajectory.csv", "trajectory.npy", "events.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_audit_roundtrip(tmp_path):
    path = base_config(tmp_path)
    assert run_cli([str(path)]) == 0
    assert run_cli([str(path), "--mode", "audit", "--set", f"input={tmp_path / 'out'}"]) == 0


def test_audit_flags_tampered_file(tmp_path):
    path = base_config(tmp_path)
    assert run_cli([str(path)]) == 0
    npy_path = tmp_path / "out" / "trajectory.npy"
    table = np.load(npy_path)
    table[39, 4] *= 10  # density punched above the maximum
    np.save(npy_path, table)
    assert run_cli([str(path), "--mode", "audit", "--set", f"input={tmp_path / 'out'}"]) == 3


def test_convergence_mode(tmp_path):
    path = base_config(
        tmp_path,
        mode="convergence",
        placement={"strategy": "uniform", "n_list": [9, 17, 33]},
        time_horizon=0.1,
    )
    assert run_cli([str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "rate.json").read_text())
    assert payload["fit"]["slope"] > 0.3
    assert (tmp_path / "out" / "rate.csv").read_text().startswith("dx,error,slope_so_far")


def test_ftl_check_mode(tmp_path):
    path = base_config(
        tmp_path,
        mode="ftl-check",
        flux={"kind": "lwr", "params": {}},
        initial_data={"kind": "riemann", "params": {"u_l": 0.2, "u_r": 0.8, "x0": 0.0, "window": [-1, 1]}},
    )
    assert run_cli([str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "ftl_check.json").read_text())
    assert payload["max_deviation"] <= 1e-8
    assert (payload["pairs"], payload["tol"]) == (10000, 1e-8)


def test_ftl_check_rejects_rising_velocity_field(tmp_path):
    path = base_config(tmp_path, mode="ftl-check")  # burgers: a increases
    assert run_cli([str(path)]) == 3


@pytest.mark.parametrize(
    "fs, code",
    [
        ([0.0, 0.1875, 0.25, 0.1875, 0.0], 0),  # u (1 - u): a falls
        ([0.0, 0.05, 0.1, 0.3, 0.5], 3),  # a rises from u = 0.5
    ],
    ids=["falling", "rising"],
)
def test_ftl_check_on_a_tabulated_flux(fs, code, tmp_path, capsys):
    # the table takes the kernel's two-sided path, lwr (above) its one-sided one
    path = base_config(
        tmp_path,
        mode="ftl-check",
        flux={"kind": "tabulated", "params": {"us": [0.0, 0.25, 0.5, 0.75, 1.0], "fs": fs}},
        initial_data={"kind": "riemann", "params": {"u_l": 0.2, "u_r": 0.8, "x0": 0.0, "window": [-1, 1]}},
    )
    assert run_cli([str(path)]) == code
    out = capsys.readouterr().out
    if code == 0:
        payload = json.loads((tmp_path / "out" / "ftl_check.json").read_text())
        assert payload["max_deviation"] <= 1e-15
    else:
        assert out.startswith("precondition failed: velocity field is not nonincreasing: a(0.5) = 0.2 < a(0.75)")
        assert not (tmp_path / "out").exists()


def test_unknown_config_key_is_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "simulate", "bogus": 1}))
    assert run_cli([str(path)]) == 2


@pytest.mark.parametrize("top", [[1, 2], 3, "simulate", None])
def test_non_object_config_is_exit_2(top, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(top))
    assert run_cli([str(path)]) == 2
    assert capsys.readouterr().err.strip() == f"config error at {path}: top level must be a JSON object"


def test_csv_inputs_for_flux_and_data(tmp_path):
    import numpy as np

    us = np.linspace(0.0, 2.0, 401)
    flux_csv = tmp_path / "flux.csv"
    flux_csv.write_text("u,f\n" + "\n".join(f"{float(u)!r},{float(0.5 * u * u)!r}" for u in us))
    xs = np.linspace(-1.0, 2.0, 301)
    prof = np.where((xs > 0) & (xs < 1), 1.5, 0.0)
    data_csv = tmp_path / "profile.csv"
    data_csv.write_text("x,u\n" + "\n".join(f"{float(x)!r},{float(u)!r}" for x, u in zip(xs, prof)))
    path = base_config(
        tmp_path,
        flux={"kind": "tabulated", "params": {"path": str(flux_csv)}},
        initial_data={"kind": "sampled", "params": {"path": str(data_csv)}},
        placement={"strategy": "uniform", "n": 21},
    )
    assert run_cli([str(path)]) == 0
    assert "audit: PASS" in (tmp_path / "out" / "summary.txt").read_text()


def test_sampled_data_at_large_scale_simulates(tmp_path):
    # exact sampled data near 1e6 once failed a fixed affinity tolerance
    path = base_config(
        tmp_path,
        flux={"kind": "lwr", "params": {"u_max": 3e6}},
        initial_data={"kind": "sampled", "params": {"xs": [0.0, 0.25, 0.5, 0.75, 1.0], "us": [1e6, 2.3e6, 1.7e6, 2.9e6, 1.1e6]}},
        placement={"strategy": "uniform", "n": 101},
    )
    assert run_cli([str(path)]) == 0
    assert "audit: PASS" in (tmp_path / "out" / "summary.txt").read_text()


def test_function_csv_export(tmp_path):
    import numpy as np

    import particle_paths as pp

    fn = pp.PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([2.0]))
    out = tmp_path / "fn.csv"
    pp.exports.write_function_csv(fn, out, -1.0, 2.0, 7)
    rows = out.read_text().splitlines()
    assert rows[0] == "x,value"
    assert len(rows) == 8
    x, v = rows[3].split(",")
    assert fn(float(x)) == float(v)


def test_set_overrides(tmp_path):
    path = base_config(tmp_path)
    out = tmp_path / "o2"
    assert run_cli([str(path), "--set", "placement.n=11", "--set", f"out={out}"]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    # 8 snapshots of 10 cells plus header
    assert len(rows) == 1 + 8 * 10


@pytest.mark.parametrize(
    "mode, placement, path",
    [
        ("simulate", {"strategy": "uniform", "n_list": [9, 17, 33]}, "placement.n"),
        ("convergence", {"strategy": "uniform", "n": 9}, "placement.n_list"),
    ],
)
def test_placement_key_of_the_mode_is_required(mode, placement, path, tmp_path, capsys):
    config = base_config(tmp_path, mode=mode, placement=placement)
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("n_list", [[33, 17, 9], [9, 9, 17]])
def test_counts_that_do_not_increase_are_exit_2(n_list, tmp_path, capsys):
    # the rate fit needs strictly finer runs; refused before any run
    config = base_config(tmp_path, mode="convergence", placement={"strategy": "uniform", "n_list": n_list})
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error at placement.n_list: ")
    assert not (tmp_path / "out").exists()


def test_placement_key_is_checked_after_the_mode_flag(tmp_path):
    # the file's mode needs n, the flag's mode needs n_list
    config = base_config(tmp_path, placement={"strategy": "uniform", "n_list": [9, 17, 33]})
    assert run_cli([str(config), "--mode", "convergence"]) == 0
    assert (tmp_path / "out" / "rate.json").exists()


@pytest.mark.parametrize(
    "setting, path",
    [
        ("placement.n.x=3", "placement.n"),
        ("nosuch.x=1", "nosuch"),
        ("nosuch=1", "nosuch"),
        ("flux.nosuch.x=1", "flux.nosuch"),
        ("to_dict=1", "to_dict"),
        ("placement.n", "placement.n"),  # no '='
    ],
)
def test_bad_override_path_is_exit_2(setting, path, tmp_path, capsys):
    config = base_config(tmp_path)
    assert run_cli([str(config), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "overrides, path",
    [
        ({"initial_data": {"kind": "sampled", "params": {"path": "missing.csv"}}}, "initial_data.params.path"),
        ({"flux": {"kind": "tabulated", "params": {"path": "missing.csv"}}}, "flux.params.path"),
        ({"flux": {"kind": "tabulated", "params": {"path": "one_column.csv"}}}, "flux.params.path"),
        ({"flux": {"kind": "burgers", "params": [1, 2]}}, "flux.params"),
        ({"initial_data": {"kind": "paper_example", "params": 3}}, "initial_data.params"),
        ({"placement": {"strategy": "zigzag", "n": 31}}, "placement.strategy"),
        # a measure window that is not two finite numbers lo < hi (JSON reads
        # -1e400 as -inf) once crashed convergence mode or gave it a NaN
        # slope, and was printed into simulate mode's summary
        *(
            (
                {
                    "mode": mode,
                    "initial_data": {"kind": "riemann", "params": {"u_l": 0.8, "u_r": 0.2, "window": [-2, 2], "measure_window": window}},
                    "placement": {"strategy": "uniform", "n": 31, "n_list": [37, 73, 145]},
                },
                "initial_data.params",
            )
            for mode in ("simulate", "convergence")
            for window in ("ab", [0, 1, 2], [1, -1], [0, "x"], [-float("inf"), 1], [0.5, 0.5], [True, 2])
        ),
        # a header with no rows once gave np.loadtxt's "no data" warning and
        # then "need two columns"
        ({"flux": {"kind": "tabulated", "params": {"path": "header_only.csv"}}}, "flux.params.path"),
        ({"initial_data": {"kind": "sampled", "params": {"path": "header_only.csv"}}}, "initial_data.params.path"),
        # the paper profile's reference holds for t < 1; the study once ran
        # its first count and then ended in a traceback
        (
            {"mode": "convergence", "time_horizon": 1.5, "placement": {"strategy": "uniform", "n_list": [26, 51, 101]}},
            "time_horizon",
        ),
        ({"mode": "convergence", "placement": {"strategy": "uniform", "n_list": 9}}, "placement.n_list"),
        ({"mode": "convergence", "placement": {"strategy": "uniform", "n_list": [9, 17]}}, "placement.n_list"),
        ({"flux": {"params": {}}}, "flux"),
        ({"initial_data": {"kind": "zigzag", "params": {}}}, "initial_data.kind"),
        # the paper profile's closed form is burgers', and sampled data have none
        (
            {"mode": "convergence", "flux": {"kind": "lwr", "params": {}}, "placement": {"strategy": "uniform", "n_list": [9, 17, 33]}},
            "flux.kind",
        ),
        (
            {
                "mode": "convergence",
                "initial_data": {"kind": "sampled", "params": {"xs": [0.0, 0.5, 1.0], "us": [0.0, 1.0, 0.0]}},
                "placement": {"strategy": "uniform", "n_list": [9, 17, 33]},
            },
            "initial_data.kind",
        ),
        # a cell that is not a number was once reported at flux or at initial_data.params
        ({"flux": {"kind": "tabulated", "params": {"path": "non_numeric.csv"}}}, "flux.params.path"),
        ({"initial_data": {"kind": "sampled", "params": {"path": "non_numeric.csv"}}}, "initial_data.params.path"),
    ],
)
def test_bad_input_file_or_params_is_exit_2(overrides, path, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "one_column.csv").write_text("u\n0.0\n1.0\n")
    (tmp_path / "header_only.csv").write_text("x,u\n")
    (tmp_path / "non_numeric.csv").write_text("u,f\nabc,1\n")
    config = base_config(tmp_path, **overrides)
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mode, key, value, path",
    [
        # the collision threshold is no option: eps_coll is an unknown key
        ("simulate", "integrator", {"dt_max": 0.001, "eps_coll": 1e-9}, "integrator.eps_coll"),
        ("simulate", "integrator", {"dt_max": 0.001, "eps_coll": None}, "integrator.eps_coll"),
    ],
)
def test_bad_step_parameter_is_exit_2(mode, key, value, path, tmp_path, capsys):
    placement = {"strategy": "uniform", "n": 31, "n_list": [9, 17, 33]}
    config = base_config(tmp_path, mode=mode, placement=placement, **{key: value})
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "mode, initial_data, placement",
    [
        ("simulate", {"kind": "box", "params": {"height": 0, "a": 0, "b": 1}}, {"n": 31}),
        ("convergence", {"kind": "riemann", "params": {"u_l": 0, "u_r": 0}}, {"n_list": [9, 17, 33]}),
    ],
)
def test_zero_mass_data_cannot_be_mass_equidistributed(mode, initial_data, placement, tmp_path, capsys):
    placement = {"strategy": "mass_equidistributed", **placement}
    config = base_config(tmp_path, mode=mode, initial_data=initial_data, placement=placement)
    assert run_cli([str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at placement.strategy: ")
    assert "positive total mass" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("ftl", {"pairs": 500}), ("convergence", {"dt_max_ratio": 0.2})])
def test_removed_config_values_are_unknown_keys(key, value, tmp_path, capsys):
    # ftl-check's pair count and tolerance and the convergence step ratio are constants
    assert run_cli([str(base_config(tmp_path, **{key: value}))]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {key}: unknown key")
    assert run_cli([str(base_config(tmp_path)), "--set", f"{key}.x=1"]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {key}: unknown key")
    assert not (tmp_path / "out").exists()


def test_simulate_still_requires_dt_max(tmp_path, capsys):
    assert run_cli([str(base_config(tmp_path, integrator={"theta": 0.1}))]) == 2
    assert capsys.readouterr().err == "config error at integrator.dt_max: required\n"
    assert not (tmp_path / "out").exists()


def test_convergence_mode_needs_no_dt_max(tmp_path):
    # its step is 0.2 dx* of each run
    path = base_config(
        tmp_path,
        mode="convergence",
        placement={"strategy": "uniform", "n_list": [9, 17, 33]},
        integrator={"theta": 0.1},
    )
    assert run_cli([str(path)]) == 0
    assert (tmp_path / "out" / "rate.json").exists()


@pytest.mark.parametrize("mode", ["audit", "ftl-check"])
@pytest.mark.parametrize("setting", ["integrator={}", "placement={}"])
def test_audit_and_ftl_check_need_no_dt_max_or_placement(mode, setting, tmp_path):
    path = base_config(
        tmp_path,
        flux={"kind": "lwr", "params": {}},
        initial_data={"kind": "riemann", "params": {"u_l": 0.2, "u_r": 0.8, "x0": 0.0, "window": [-1, 1]}},
    )
    assert run_cli([str(path)]) == 0
    assert run_cli([str(path), "--mode", mode, "--set", setting]) == 0


def test_integrator_takes_only_dt_max_and_theta(tmp_path, capsys):
    for key in ("eps_coll", "dt"):
        assert run_cli([str(base_config(tmp_path, integrator={"dt_max": 0.001, key: None}))]) == 2
        assert capsys.readouterr().err.startswith(f"config error at integrator.{key}: unknown key")
    for integrator in ({"dt_max": 0.001}, {"dt_max": 0.001, "theta": 0.2}):
        assert run_cli([str(base_config(tmp_path, integrator=integrator))]) == 0


def box(height):
    return {"kind": "box", "params": {"height": height, "a": 0.0, "b": 1.0}}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flux, initial_data, path",
    [
        ("lwr", {"kind": "piecewise_constant", "params": {"breakpoints": [0.0, 1.0, 2.0], "values": [1.7976931348623157e308, 1e308]}}, "initial_data.params"),
        ("lwr", box(1e200), "flux"),
        ("burgers", box(1e200), "flux"),
        ("tabulated", box(0.5), "flux"),
    ],
    ids=["piecewise_constant", "box_lwr", "box_burgers", "tabulated"],
)
def test_data_or_flux_that_overflows_is_exit_2(flux, initial_data, path, tmp_path, capsys):
    # these used to pass validation and fail only at the first step (exit 4)
    params = {"us": [0.0, 0.5, 1.0], "fs": [0.0, 1e308, float("inf")]} if flux == "tabulated" else {}
    config = base_config(tmp_path, flux={"kind": flux, "params": params}, initial_data=initial_data)
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


def test_runtime_failure_is_exit_4_with_a_diagnostic(tmp_path, capsys):
    # the first step's positions overflow: numpy once warned there, and
    # under an error filter the warning escaped run_cli with no diagnostic
    config = base_config(
        tmp_path,
        initial_data={"kind": "piecewise_constant", "params": {"breakpoints": [1.7e308, 1.79e308], "values": [1.0]}},
        placement={"strategy": "uniform", "n": 2},
        time_horizon=1e307,
        integrator={"dt_max": 1e307},
        snapshots=2,
    )
    assert run_cli([str(config)]) == 4
    assert capsys.readouterr().err.startswith("runtime failure: ")
    diag = json.loads((tmp_path / "out" / "diagnostic.json").read_text())
    assert diag == {
        "error": "non-finite state encountered",
        "state": {"time": 0.0, "positions": [1.7e308, 1.79e308], "densities": [1.0]},
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["simulate", "convergence"])
def test_data_above_a_csv_flux_table_is_exit_2(mode, tmp_path, capsys):
    # this used to end in a traceback (exit 1) at the first velocity call or
    # in the Riemann reference
    flux_csv = tmp_path / "flux.csv"
    flux_csv.write_text("u,f\n0,0\n0.5,0.2\n1,0.1\n")
    config = base_config(
        tmp_path,
        mode=mode,
        flux={"kind": "tabulated", "params": {"path": str(flux_csv)}},
        initial_data={"kind": "riemann", "params": {"u_l": 0.1, "u_r": 2.0, "window": [-1, 1]}},
        placement={"strategy": "uniform", "n": 31, "n_list": [9, 17, 33]},
    )
    assert run_cli([str(config)]) == 2
    assert capsys.readouterr().err.startswith("config error at flux.params.path: data reach u = 2.0")
    assert not (tmp_path / "out").exists()


RIEMANN_CONVERGENCE = {
    "mode": "convergence",
    "placement": {"strategy": "uniform", "n_list": [37, 73, 145]},
    "time_horizon": 0.5,
}


# every run of this step failed tv_diminishing (a TV rise of a few 1e-3)
# while a cell straddled its jump
STEP = {"u_l": 0.084, "u_r": 0.833, "x0": 0.1723, "window": [-2, 2], "measure_window": [-1, 1]}


@pytest.mark.filterwarnings("error")
def test_failed_audit_in_convergence_mode_is_exit_3(tmp_path, capsys, monkeypatch):
    failed = AuditReport({"tv_diminishing": CheckResult(False, -1.0)}, passed=False)
    monkeypatch.setattr(analysis, "invariant_audit", lambda traj: failed)
    config = base_config(
        tmp_path,
        flux={"kind": "lwr", "params": {}},
        initial_data={"kind": "riemann", "params": STEP},
        **RIEMANN_CONVERGENCE,
    )
    assert run_cli([str(config)]) == 3
    assert "run with n = 37 failed the invariant audit" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_step_with_a_particle_on_its_jump_passes_every_audit(tmp_path):
    config = base_config(
        tmp_path,
        flux={"kind": "lwr", "params": {}},
        initial_data={"kind": "riemann", "params": STEP},
        **RIEMANN_CONVERGENCE,
    )
    assert run_cli([str(config)]) == 0
    reports = json.loads((tmp_path / "out" / "rate.json").read_text())["reports"]
    assert [r["audit_passed"] for r in reports] == [True] * 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flux, u_l, u_r", [("lwr", 0.0, 0.8), ("burgers", 0.0, 0.8), ("lwr", 0.8, 0.0)])
def test_dx_star_is_the_widest_cell_with_mass(flux, u_l, u_r, tmp_path):
    # the vacuum half of the window is one cell, wider than any cell with mass
    step = {"u_l": u_l, "u_r": u_r}
    config = base_config(
        tmp_path,
        flux={"kind": flux, "params": {}},
        initial_data={"kind": "riemann", "params": step},
        **RIEMANN_CONVERGENCE,
    )
    assert run_cli([str(config)]) == 0
    reports = json.loads((tmp_path / "out" / "rate.json").read_text())["reports"]
    data = riemann_data(**step)
    for n, report in zip(RIEMANN_CONVERGENCE["placement"]["n_list"], reports):
        state = cell_average(data, place_particles(data, n, "uniform"))
        assert report["dx0_star"] == np.max(np.diff(state.positions)[state.densities > 0.0]) < 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_list, code", [([21, 22, 23], 2), ([37, 73, 145], 0)])
def test_dx_star_that_does_not_fall_is_exit_2(n_list, code, tmp_path, capsys):
    # a particle on the jump leaves cells between dx/2 and 2 dx wide, so close
    # counts can give a wider dx*: here 0.2277 at n = 21 and 0.2675 at n = 22
    step = {"u_l": 0.2, "u_r": 0.9, "x0": 0.1723, "window": [-2, 2]}
    config = base_config(
        tmp_path,
        mode="convergence",
        flux={"kind": "lwr", "params": {}},
        initial_data={"kind": "riemann", "params": step},
        placement={"strategy": "uniform", "n_list": n_list},
        time_horizon=0.5,
    )
    assert run_cli([str(config)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("config error at placement.n_list: dx* must fall as n grows")
        assert "n = 21: 0.2277, n = 22: 0.267538" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_convergence_mode_on_a_nonconvex_tabulated_flux(tmp_path):
    # the reference is the flux's envelope fan, once refused as neither convex nor concave
    table = {"us": [0.0, 0.25, 0.5, 0.75, 1.0], "fs": [0.0, 0.2, 0.1, 0.3, 0.15]}
    step = {"u_l": 0.1, "u_r": 0.9, "window": [-2, 2], "measure_window": [-1, 1]}
    config = base_config(
        tmp_path,
        flux={"kind": "tabulated", "params": table},
        initial_data={"kind": "riemann", "params": step},
        **RIEMANN_CONVERGENCE,
    )
    assert run_cli([str(config)]) == 0
    reports = json.loads((tmp_path / "out" / "rate.json").read_text())["reports"]
    assert [r["audit_passed"] for r in reports] == [True] * 3
    assert all(r["l1_error_at_T"] <= r["stability_bound"] for r in reports)


@pytest.mark.parametrize("key", ["time_horizon", "integrator.dt_max"])
def test_integer_beyond_the_float_range_is_exit_2(key, tmp_path, capsys):
    # JSON reads it as an int; it once passed validation and ended in
    # float()'s OverflowError, a traceback after the output directory was made
    assert run_cli([str(base_config(tmp_path)), "--set", f"{key}={10**309}"]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {key}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("module", ["particle_paths", "particle_paths.cli"])
def test_python_dash_m_runs_the_cli(module, tmp_path):
    # the source tree on PYTHONPATH, as in a checkout without pip install
    src = str(Path(particle_paths.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    good = base_config(tmp_path, placement={"strategy": "uniform", "n": 11}, snapshots=2)
    run = subprocess.run([sys.executable, "-m", module, str(good)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "audit: PASS" in (tmp_path / "out" / "summary.txt").read_text()
    bad = base_config(tmp_path, seed=-1)
    run = subprocess.run([sys.executable, "-m", module, str(bad)], env=env, capture_output=True, text=True)
    assert run.returncode == 2
    assert run.stderr.startswith("config error at seed: ")


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"mode": "convergence", "placement": {"strategy": "uniform", "n_list": [9, 17, 33]}},
        {
            "mode": "ftl-check",
            "flux": {"kind": "lwr", "params": {}},
            "initial_data": {"kind": "riemann", "params": {"u_l": 0.2, "u_r": 0.8, "window": [-1, 1]}},
        },
    ],
    ids=["simulate", "convergence", "ftl-check"],
)
def test_out_at_an_existing_file_is_exit_2(overrides, tmp_path, capsys, monkeypatch):
    # out is made before the run: a file's path once ended in a traceback after it
    def no_run(*args, **kwargs):
        raise AssertionError("ran before the output directory was made")

    monkeypatch.setattr(cli, "simulate", no_run)
    monkeypatch.setattr(cli, "convergence_study", no_run)
    taken = tmp_path / "taken"
    taken.write_text("a file\n")
    assert run_cli([str(base_config(tmp_path, **overrides)), "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at out: ") and len(err.splitlines()) == 1
    assert taken.read_text() == "a file\n"


def test_readme_example_config_has_the_default_keys_and_validates():
    section = README.read_text().split("\n## CLI\n", 1)[1]
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert example.keys() == cli.DEFAULTS.keys()
    cli._validate(example)
