"""Closed-form integrals: cell averages, mass placement, the initial gap and the L1 error at T.

The adaptive Simpson rule in ``simpson_reference`` is the independent
reference the closed forms are compared against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import ExactSolution, InitialData, PiecewiseConstantFn
from simpson_reference import integrate


@st.composite
def profiles(draw, linear):
    """A random nonnegative piecewise constant or sampled (piecewise linear) profile."""
    k = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.1, 1.0), min_size=k, max_size=k))
    bp = draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(widths)])
    value = st.one_of(st.just(0.0), st.floats(0.5, 2.0))
    if linear:
        return pp.sampled_data(bp, draw(st.lists(value, min_size=k + 1, max_size=k + 1)))
    return pp.piecewise_constant_data(bp, draw(st.lists(value, min_size=k, max_size=k)))


@st.composite
def positions(draw, data):
    """Random increasing positions around the hint, some of them on breakpoints."""
    lo, hi = data.support_hint
    inner = draw(st.lists(st.floats(lo - 0.3, hi + 0.3), min_size=2, max_size=60))
    on_bp = draw(st.lists(st.sampled_from(data.breakpoints), max_size=4))
    pos = np.unique(np.asarray(inner + on_bp, dtype=float))
    return pos if pos.size >= 2 else np.array([lo, hi])


def step_function(data):
    """The piecewise constant profile as a ``PiecewiseConstantFn``."""
    bp = np.asarray(data.breakpoints)
    return PiecewiseConstantFn(bp, data.eval_u0(0.5 * (bp[:-1] + bp[1:])))


@settings(max_examples=50, deadline=None)
@given(data=st.data(), linear=st.booleans())
def test_cell_average_matches_adaptive_quadrature(data, linear):
    prof = data.draw(profiles(linear=linear))
    pos = data.draw(positions(prof))
    state = pp.cell_average(prof, pos)
    reference = [
        integrate(lambda x: float(prof.eval_u0(x)), a, b, tol=1e-10, breakpoints=prof.breakpoints)
        for a, b in zip(pos[:-1], pos[1:])
    ]
    np.testing.assert_allclose(state.masses, reference, rtol=0.0, atol=1e-10 * (1.0 + prof.sup_u0))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_cell_inside_one_constant_piece_gets_its_value(data):
    prof = data.draw(profiles(linear=False))
    pos = data.draw(positions(prof))
    dens = pp.cell_average(prof, pos).densities
    edges = np.concatenate([[-np.inf], prof.breakpoints, [np.inf]])
    vals = np.concatenate([[0.0], step_function(prof).values, [0.0]])
    for i in range(pos.size - 1):
        j = np.searchsorted(edges, pos[i], side="right") - 1
        if pos[i + 1] <= edges[j + 1]:
            assert dens[i] == vals[j]


@settings(max_examples=80, deadline=None)
@given(data=st.data(), linear=st.booleans(), n=st.integers(3, 64))
def test_mass_equidistributed_cells_carry_equal_mass(data, linear, n):
    prof = data.draw(profiles(linear=linear))
    if prof.sup_u0 == 0.0:
        with pytest.raises(ValueError, match="positive total mass"):
            pp.place_particles(prof, n, "mass_equidistributed")
        return
    pos = pp.place_particles(prof, n, "mass_equidistributed")
    masses = pp.cell_average(prof, pos).masses
    target = masses.sum() / (n - 1)
    # a position rounded to one ulp moves at most sup u0 * ulp of mass
    # across each cell end
    moved = prof.sup_u0 * (np.spacing(np.abs(pos[:-1])) + np.spacing(np.abs(pos[1:])))
    assert np.all(np.abs(masses - target) <= 1e-12 * target + moved)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_gap_plus_tail_is_the_l1_distance_for_step_data(data):
    prof = data.draw(profiles(linear=False))
    pos = data.draw(positions(prof))
    dens = data.draw(st.lists(st.floats(0.0, 3.0), min_size=pos.size - 1, max_size=pos.size - 1))
    state = pp.ParticleState.from_cells(pos, dens)
    dist = pp.reconstruct_density(state).l1_distance(step_function(prof))
    gap, tail = pp.initial_approximation_gap(prof, state)
    assert gap + tail == pytest.approx(dist, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), linear=st.booleans(), side=st.sampled_from([-np.inf, np.inf]))
def test_one_ulp_sliver_piece_is_not_an_error(data, linear, side):
    prof = data.draw(profiles(linear=linear))
    bp = data.draw(st.sampled_from(prof.breakpoints))
    lo, hi = prof.support_hint
    pos = np.unique([lo - 0.5, np.nextafter(bp, side), hi + 0.5])
    state = pp.cell_average(prof, pos)
    gap, tail = pp.initial_approximation_gap(prof, state)
    bps = np.asarray(prof.breakpoints)
    mass0 = float(np.sum(np.diff(bps) * prof.eval_u0(0.5 * (bps[:-1] + bps[1:]))))
    assert state.total_mass == pytest.approx(mass0, rel=1e-12, abs=1e-300)
    assert gap >= 0.0 and tail == 0.0


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 5000))
def test_curved_profile_without_breakpoints_is_an_error(n):
    curved = InitialData(lambda x: 1.0 + np.sin(np.asarray(x, dtype=float)), (0.0, 3.0), tv_u0=2.0, sup_u0=2.0)
    pos = np.linspace(0.0, 3.0, n)
    with pytest.raises(ValueError, match="not affine"):
        pp.cell_average(curved, pos)
    with pytest.raises(ValueError, match="not affine"):
        pp.place_particles(curved, n, "mass_equidistributed")
    state = pp.ParticleState.from_cells(pos, np.ones(n - 1))
    with pytest.raises(ValueError, match="not affine"):
        pp.initial_approximation_gap(curved, state)


def test_unlisted_kink_is_named():
    tent = InitialData(lambda x: 1.0 - np.abs(np.asarray(x, dtype=float)), (-1.0, 1.0), tv_u0=2.0, sup_u0=1.0)
    with pytest.raises(ValueError, match=r"not affine on \[-0.5, 0.5\]"):
        pp.cell_average(tent, [-1.0, -0.5, 0.5, 1.0])
    listed = InitialData(tent.eval_u0, (-1.0, 1.0), tv_u0=2.0, sup_u0=1.0, breakpoints=(0.0,))
    np.testing.assert_array_equal(pp.cell_average(listed, [-1.0, -0.5, 0.5, 1.0]).densities, [0.25, 0.75, 0.25])


def simpson_l1(recon, exact, T, window):
    """|v - u(., T)| over the window by adaptive Simpson, split at both functions' breakpoints."""
    lo, hi = window
    cuts = [float(b) for b in recon.breakpoints if lo < b < hi]
    cuts.extend(float(b) for b in exact.breakpoints_at(T) if lo < b < hi)
    return integrate(lambda x: abs(float(recon(x)) - float(exact(x, T))), lo, hi, tol=1e-10, breakpoints=cuts)


@st.composite
def reconstructions(draw, lo, hi, top):
    """A random step function over [lo, hi], values in [0, top], zeros included."""
    bp = np.unique(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=30)))
    if bp.size < 2:
        bp = np.array([lo, hi])
    value = st.one_of(st.just(0.0), st.floats(0.0, top))
    return PiecewiseConstantFn(bp, np.asarray(draw(st.lists(value, min_size=bp.size - 1, max_size=bp.size - 1))))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), T=st.floats(1e-3, 0.999), window=st.tuples(st.floats(-2.0, 0.5), st.floats(0.6, 3.0)))
def test_l1_error_matches_simpson_on_the_paper_solution(data, T, window):
    exact = pp.burgers_rarefaction_shock()
    recon = data.draw(reconstructions(-2.5, 3.5, 4.0))
    assert pp.l1_error_against(recon, exact, T, window) == pytest.approx(simpson_l1(recon, exact, T, window), rel=0.0, abs=1e-9)


@settings(max_examples=12, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["burgers", "lwr"]),
    states=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    T=st.floats(1e-3, 0.999),
)
def test_l1_error_matches_simpson_on_riemann_solutions(data, name, states, T):
    exact = pp.riemann_solution(pp.builtin_flux(name, u_high=1.0), *states)
    recon = data.draw(reconstructions(-2.0, 2.0, 1.0))
    window = (-1.5, 1.5)
    assert pp.l1_error_against(recon, exact, T, window) == pytest.approx(simpson_l1(recon, exact, T, window), rel=0.0, abs=1e-9)


def test_l1_error_rejects_a_reference_that_is_not_affine():
    smooth = ExactSolution(lambda x, t: 1.0 + np.sin(np.asarray(x, dtype=float)), "1 + sin x", (0.0, 1.0))
    recon = PiecewiseConstantFn(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError, match="not affine"):
        pp.l1_error_against(recon, smooth, 0.5, (-1.0, 2.0))
