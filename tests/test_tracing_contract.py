"""The benchmark's tracer wraps package functions by (module, name).

``perfbench/tracing.py`` is loaded unchanged.  A name it wraps that the
package no longer has, or no longer calls through its module, would
otherwise show only as a broken or silent traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import particle_paths as pp

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    names = [(module, attr) for module, attr, *_ in tracing.SPANS] + list(tracing.LEAVES)
    missing = [f"{module.__name__}.{attr}" for module, attr in names if not callable(getattr(module, attr, None))]
    assert missing == []


def test_initial_integrals_run_through_the_traced_names():
    tracing = _tracing()
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
    tracing = _tracing()
    with tracing.Tracer() as tracer:
        pp.error_report(rarefaction_shock_run, pp.burgers_rarefaction_shock(), 0.25)
    spans = tracer.spans
    l1 = [i for i, rec in enumerate(spans) if rec[tracing.NAME] == "analysis.l1_error"]
    assert len(l1) == 1
    children = [rec[tracing.NAME] for rec in spans if rec[tracing.PARENT] == l1[0]]
    assert children == ["quadrature.integrate"]
