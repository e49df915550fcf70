"""The benchmark's tracer wraps package functions by (module, name).

``perfbench/tracing.py`` and ``perfbench/workloads.py`` are loaded
unchanged.  A name the tracer wraps that the package no longer has, or no
longer calls through its module, or an argument a workload passes that the
package no longer takes, would otherwise show only as a broken or silent
benchmark run.  One round of the CLI workload runs here too, so a case
that fails in the benchmark fails in the test suite.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import particle_paths as pp

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _load("tracing")
    names = [(module, attr) for module, attr, *_ in tracing.SPANS] + list(tracing.LEAVES)
    missing = [f"{module.__name__}.{attr}" for module, attr in names if not callable(getattr(module, attr, None))]
    assert missing == []


def test_workload_calls_bind_to_the_package():
    # one round at seed 0; a case that raised did not complete (the CLI
    # workload only calls run_cli, which test_cli covers)
    workloads = _load("workloads")
    for workload in (workloads.ConvergenceBurgers(), workloads.NonconvexTabulated()):
        rnd = workload.run_round(workload.build(0))
        assert [(c.label, c.detail) for c in rnd.cases if not c.completed] == []


def test_initial_integrals_run_through_the_traced_names():
    tracing = _load("tracing")
    data = pp.box_data(1.0, 0.0, 1.0)
    pos = np.linspace(-0.25, 1.25, 7)
    with tracing.Tracer() as tracer:
        state = pp.cell_average(data, pos)
        pp.initial_approximation_gap(data, state)
    names = [rec[tracing.NAME] for rec in tracer.spans]
    assert names.count("initial.cell_average") == 1
    assert names.count("initial.gap") == 1
    assert names.count("quadrature.integrate") >= 1
    assert np.isfinite(tracer.self_times()).all()


def test_l1_error_integrates_through_the_traced_name(rarefaction_shock_run):
    tracing = _load("tracing")
    with tracing.Tracer() as tracer:
        pp.error_report(rarefaction_shock_run, pp.burgers_rarefaction_shock(), 0.25)
    spans = tracer.spans
    l1 = [i for i, rec in enumerate(spans) if rec[tracing.NAME] == "analysis.l1_error"]
    assert len(l1) == 1
    children = [rec[tracing.NAME] for rec in spans if rec[tracing.PARENT] == l1[0]]
    assert children == ["quadrature.integrate"]


@pytest.mark.parametrize("kind", ["burgers", "tabulated"])
def test_kernel_and_audit_extrema_run_through_the_traced_names(kind):
    # the velocity layer is the kernel's span inside simulate; the flux
    # extremum layer is the audit's leaf call to velocity_extrema
    tracing = _load("tracing")
    data = pp.box_data(1.0, 0.0, 1.0)
    if kind == "burgers":
        model = pp.builtin_flux("burgers", u_high=1.0)
    else:
        us = np.linspace(0.0, 1.0, 65)
        model = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    state0 = pp.cell_average(data, pp.place_particles(data, 21, "uniform"))
    with tracing.Tracer() as tracer:
        traj = pp.simulate(model, state0, 0.1, dt_max=0.01, data=data)
        calls = tracer.leaf_calls
        pp.invariant_audit(traj)
    spans = tracer.spans
    names = [rec[tracing.NAME] for rec in spans]
    sim = names.index("dynamics.simulate")
    kernel = [rec for rec in spans if rec[tracing.NAME] == "velocity.particle_velocities" and rec[tracing.PARENT] == sim]
    assert len(kernel) >= 10 and all(rec[tracing.WORK] > 0 for rec in kernel)
    audit = names.index("analysis.audit")
    assert tracer.leaf_calls > calls
    assert spans[audit][tracing.LEAF_S] > 0.0


@pytest.mark.parametrize("seed", [0, 15, 28])
def test_cli_workload_round_passes_every_case(seed, tmp_path):
    # the workload's boxes in vacuum under uniform placement: every CLI mode
    # exits 0 and the repeated simulate writes the same trajectory.csv
    workload = _load("workloads").CliVacuumLwr(tmp_path)
    rnd = workload.run_round(workload.build(seed))
    assert [(c.label, c.detail) for c in rnd.cases if not c.ok] == []
    assert rnd.checks["repeat_bytes"][0]
