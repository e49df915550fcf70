import numpy as np
import pytest

import particle_paths as pp
from particle_paths import FluxModel, ParticleState, builtin_flux, velocity_extrema

from conftest import pair_velocities

ANALYTIC_TOL = 1e-10


def grid_scan(model, lo, hi, n=20001):
    """Independent brute-force oracle: dense grid scan of a."""
    vals = np.asarray(model.eval_a(np.linspace(lo, hi, n)))
    return vals.min(), vals.max()


def test_burgers_extrema_affine():
    m = builtin_flux("burgers", u_high=3.0)
    res = velocity_extrema(m, 1.0, 3.0)
    ref = grid_scan(m, 1.0, 3.0)
    assert res.min_value == pytest.approx(ref[0], abs=1e-12) == 0.5
    assert res.max_value == pytest.approx(ref[1], abs=1e-12) == 1.5


def test_lwr_extrema():
    m = builtin_flux("lwr")
    res = velocity_extrema(m, 0.2, 0.8)
    ref = grid_scan(m, 0.2, 0.8)
    assert res.min_value == pytest.approx(ref[0], abs=1e-12) == pytest.approx(0.2)
    assert res.max_value == pytest.approx(ref[1], abs=1e-12) == pytest.approx(0.8)


def test_degenerate_interval():
    # the oracle's closed form a = u/2, not eval_a's f(u)/u
    m = builtin_flux("burgers", u_high=3.0)
    res = velocity_extrema(m, 1.7, 1.7)
    assert res == tuple(map(float, m.extremum_oracle(1.7, 1.7))) == (0.85, 0.85)


def test_domain_violations():
    m = builtin_flux("burgers", u_high=1.0)
    with pytest.raises(ValueError):
        velocity_extrema(m, 0.5, 0.2)
    with pytest.raises(ValueError):
        velocity_extrema(m, -0.1, 0.2)
    with pytest.raises(ValueError):
        velocity_extrema(m, 0.0, 5.0)


def test_builtin_values():
    b = builtin_flux("burgers")
    assert float(b.eval_f(1.0)) == 0.5
    assert float(b.eval_a(1.0)) == 0.5
    assert b.fprime0 == 0.0
    lwr = builtin_flux("lwr", v_max=1.0, u_max=1.0)
    assert float(lwr.eval_f(0.5)) == pytest.approx(0.25)
    assert float(lwr.eval_a(0.5)) == pytest.approx(0.5)
    assert float(lwr.eval_a(0.0)) == 1.0


def test_unknown_flux_and_bad_params():
    with pytest.raises(ValueError):
        builtin_flux("upwind")
    with pytest.raises(ValueError):
        builtin_flux("tabulated", us=[0.0, 1.0], fs=[0.5, 1.0])  # f(0) != 0
    with pytest.raises(ValueError):
        builtin_flux("tabulated", us=[0.5, 1.0], fs=[0.0, 1.0])  # u0 != 0


def test_extrema_bracket_random_pairs():
    rng = np.random.default_rng(0)
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        pairs = np.sort(rng.uniform(0.0, top, size=(1000, 2)), axis=1)
        for lo, hi in pairs:
            res = velocity_extrema(m, lo, hi)
            samples = np.asarray(m.eval_a(np.linspace(lo, hi, 100)))
            assert np.all(samples >= res.min_value - 1e-10)
            assert np.all(samples <= res.max_value + 1e-10)


def test_model_without_an_oracle_is_rejected_at_construction():
    def f(u):
        return 0.5 * np.asarray(u, dtype=float) ** 2

    with pytest.raises(ValueError, match="tabulated"):
        FluxModel("plain", f, 0.0, 1.0, 1.0, extremum_oracle=None)
    with pytest.raises(TypeError, match="extremum_oracle"):
        FluxModel("plain", f, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("kind, params", [("burgers", {}), ("lwr", {}), ("tabulated", {"us": [0.0, 1.0], "fs": [0.0, 1.0]})])
def test_builtin_flux_refuses_a_negative_top(kind, params):
    # burgers once took u_high = -1 as lip_f = -1, and Godunov then lost the data's mass
    with pytest.raises(ValueError, match="u_high must be nonnegative"):
        builtin_flux(kind, u_high=-1.0, **params)
    assert builtin_flux(kind, u_high=0.0, **params).u_high == 0.0  # zero-mass data give a zero top


@pytest.mark.parametrize("field", ["u_high", "lip_f", "lip_fprime"])
@pytest.mark.parametrize("value", [-1.0, np.nan])
def test_model_refuses_a_negative_or_nan_constant(field, value):
    def f(u):
        return 0.5 * np.asarray(u, dtype=float) ** 2

    constants = {"u_high": 1.0, "lip_f": 1.0, "lip_fprime": 1.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be nonnegative"):
        FluxModel("custom", f, 0.0, extremum_oracle=builtin_flux("burgers").extremum_oracle, **constants)


def test_min_monotone_under_interval_inclusion():
    rng = np.random.default_rng(2)
    m = builtin_flux("lwr")
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(0.0, 1.0, size=2))
        if hi - lo < 1e-3:
            continue
        lo2, hi2 = np.sort(rng.uniform(lo, hi, size=2))
        outer = velocity_extrema(m, lo, hi)
        inner = velocity_extrema(m, lo2, hi2)
        assert outer.min_value <= inner.min_value + 1e-12
        assert outer.max_value >= inner.max_value - 1e-12


def test_tabulated_flux_tracks_its_source():
    us = np.linspace(0.0, 1.0, 2001)
    src = builtin_flux("burgers", u_high=1.0)
    tab = builtin_flux("tabulated", us=us, fs=np.asarray(src.eval_f(us)))
    rng = np.random.default_rng(3)
    for lo, hi in np.sort(rng.uniform(0.05, 1.0, size=(20, 2)), axis=1):
        got = velocity_extrema(tab, lo, hi)
        scan = grid_scan(tab, lo, hi)
        assert got.min_value == pytest.approx(scan[0], abs=ANALYTIC_TOL)
        assert got.max_value == pytest.approx(scan[1], abs=ANALYTIC_TOL)
        want = velocity_extrema(src, lo, hi)
        assert got.min_value == pytest.approx(want.min_value, abs=1e-6)
        assert got.max_value == pytest.approx(want.max_value, abs=1e-6)


def test_velocity_bounded_by_lip():
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        us = np.linspace(0.0, top, 500)
        assert np.all(np.abs(np.asarray(m.eval_a(us))) <= m.lip_f + 1e-12)


def test_a_at_zero_matches_limit():
    for name, top in (("burgers", 3.0), ("lwr", 1.0)):
        m = builtin_flux(name, u_high=top)
        u = 1e-9
        assert float(m.eval_a(0.0)) == pytest.approx(float(m.eval_f(u)) / u, abs=1e-6)


def test_tabulated_velocity_at_zero_is_the_first_slope():
    # the first piece is thinner than a finite-difference step would be: a = 1
    # exactly on (0, 1e-9], so a(0) = 1 and not a slope mixed across pieces
    tab = builtin_flux("tabulated", us=[0.0, 1e-9, 1.0], fs=[0.0, 1e-9, 0.5])
    assert tab.fprime0 == 1.0
    assert pair_velocities(tab, [0.0, 1e-9], [1e-9, 0.0]).tolist() == [1.0, 1.0]
    # the vacuum beside a state takes the same a(0)
    assert pp.particle_velocities(tab, ParticleState.from_cells([0.0, 1.0], [1e-9])).tolist() == [1.0, 1.0]
