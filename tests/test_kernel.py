"""The array interface-velocity kernel against the scalar rule and brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import ParticleState, builtin_flux, interface_velocities, particle_velocity, velocity_extrema
from particle_paths.flux import _RangeExtrema

from conftest import cubic_flux_model

ANALYTIC_TOL = 1e-10

# subnormal densities are left out: there f(u)/u itself is not computed
# to working precision, so no scan is a reference
unit = st.floats(0.0, 1.0, allow_subnormal=False)


def pair_arrays(size=40):
    """Random (v_l, v_r) fractions of the working interval, with ties and ends."""
    frac = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    return st.lists(st.tuples(frac, frac), min_size=1, max_size=size)


def dense_velocity(model, v_l, v_r, nodes=(), n=2001):
    """Brute-force interface velocity: scan of a over a dense grid plus given nodes."""
    if v_l == v_r:
        return float(model.eval_a(v_l))
    lo, hi = min(v_l, v_r), max(v_l, v_r)
    nodes = np.asarray(nodes, dtype=float)
    grid = np.union1d(np.linspace(lo, hi, n), nodes[(nodes > lo) & (nodes < hi)])
    vals = np.asarray(model.eval_a(grid))
    return float(vals.min() if v_l <= v_r else vals.max())


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["burgers", "lwr"]), top=st.floats(0.1, 4.0), fracs=pair_arrays())
def test_kernel_equals_scalar_rule_bitwise_on_monotone_fluxes(kind, top, fracs):
    model = builtin_flux(kind, u_high=top) if kind == "burgers" else builtin_flux("lwr", u_max=top)
    pairs = np.asarray(fracs) * model.u_high
    got = interface_velocities(model, pairs[:, 0], pairs[:, 1])
    want = [particle_velocity(model, float(l), float(r)) for l, r in pairs]
    assert got.tolist() == want


@st.composite
def nonconvex_tables(draw):
    nodes = draw(st.integers(3, 30))
    steps = draw(st.lists(st.floats(0.02, 1.0), min_size=nodes - 1, max_size=nodes - 1))
    fs = draw(st.lists(st.floats(-2.0, 2.0), min_size=nodes - 1, max_size=nodes - 1))
    return np.concatenate(([0.0], np.cumsum(steps))), np.concatenate(([0.0], fs))


@settings(max_examples=60, deadline=None)
@given(table=nonconvex_tables(), fracs=pair_arrays())
def test_kernel_exact_on_random_tabulated_flux(table, fracs):
    us, fs = table
    model = builtin_flux("tabulated", us=us, fs=fs)
    pairs = np.asarray(fracs) * model.u_high
    got = interface_velocities(model, pairs[:, 0], pairs[:, 1])
    for (v_l, v_r), v in zip(pairs, got):
        assert v == particle_velocity(model, float(v_l), float(v_r))
        assert v == pytest.approx(dense_velocity(model, v_l, v_r, us), abs=ANALYTIC_TOL)
        # the Godunov interface flux uses the same node search over f
        lo, hi = min(v_l, v_r), max(v_l, v_r)
        ext = model.extremum_oracle.flux_extrema(lo, hi)
        grid = np.union1d(np.linspace(lo, hi, 2001), us[(us > lo) & (us < hi)])
        f_vals = np.asarray(model.eval_f(grid))
        assert float(ext.min_value) == pytest.approx(f_vals.min(), abs=ANALYTIC_TOL)
        assert float(ext.max_value) == pytest.approx(f_vals.max(), abs=ANALYTIC_TOL)


@settings(max_examples=30, deadline=None)
@given(fracs=pair_arrays(size=8))
def test_kernel_on_custom_oracle_matches_dense_scan(fracs):
    # a'' = 2/3, so a 2**16-interval grid misses the interior minimum by
    # at most h**2/12 < 5e-11
    model = cubic_flux_model(1.5)
    pairs = np.asarray(fracs) * model.u_high
    got = interface_velocities(model, pairs[:, 0], pairs[:, 1])
    for (v_l, v_r), v in zip(pairs, got):
        assert v == particle_velocity(model, float(v_l), float(v_r))
        assert v == pytest.approx(dense_velocity(model, v_l, v_r, n=2**16 + 1), abs=ANALYTIC_TOL)


def test_custom_oracle_finds_the_interior_minimum():
    # a = u^2/3 - u/2 + 1/2 has its minimum 5/16 at u = 3/4
    model = cubic_flux_model(1.5)
    vel = interface_velocities(model, [0.0, 1.5], [1.5, 0.0])
    assert vel[0] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert vel[0] == pytest.approx(dense_velocity(model, 0.0, 1.5, n=2**16 + 1), abs=ANALYTIC_TOL)
    assert vel[1] == 0.5


def test_tabulated_scalar_extrema_are_attained():
    # each extremum is a at lo, at hi or at a node inside, and the best of them
    us = np.linspace(0.0, 1.0, 65)
    model = builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    rng = np.random.default_rng(7)
    for lo, hi in np.sort(rng.uniform(0.0, 1.0, size=(200, 2)), axis=1):
        res = velocity_extrema(model, lo, hi)
        candidates = model.eval_a(np.concatenate(([lo, hi], us[(us > lo) & (us < hi)])))
        assert res.min_value == candidates.min()
        assert res.max_value == candidates.max()


def test_range_table_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in range(1, 66):
        values = rng.integers(0, 5, size=n).astype(float)  # many ties
        table = _RangeExtrema(values)
        i0 = rng.integers(0, n, size=300)
        i1 = i0 + (rng.integers(0, n, size=300) % (n - i0))
        got_min, got_max = table.query(i0, i1)
        for a, b, lo, hi in zip(i0, i1, got_min, got_max):
            assert lo == values[a : b + 1].min()
            assert hi == values[a : b + 1].max()


def test_kernel_rejects_densities_outside_the_working_interval():
    model = builtin_flux("burgers", u_high=1.0)
    with pytest.raises(ValueError, match="negative"):
        interface_velocities(model, [0.0, 0.5], [0.5, -0.1])
    with pytest.raises(ValueError, match="exceeds"):
        pp.particle_velocities(model, ParticleState.from_cells([0.0, 1.0, 2.0], [0.5, 2.0]))


def test_kernel_broadcasts_scalars_on_both_paths():
    for model in (builtin_flux("burgers", u_high=1.5), cubic_flux_model(1.5)):
        assert float(interface_velocities(model, 0.2, 1.5)) == particle_velocity(model, 0.2, 1.5)
        got = interface_velocities(model, [0.1, 0.2, 0.3], 0.2)
        assert got.tolist() == [particle_velocity(model, v, 0.2) for v in (0.1, 0.2, 0.3)]
