"""Closed-form integrals: cell averages, mass placement, the initial gap and the L1 error at T.

The adaptive Simpson rule in ``simpson_reference`` is the independent
reference the closed forms are compared against.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import PiecewiseAffineFn, PiecewiseConstantFn
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
    on_bp = draw(st.lists(st.sampled_from(data.u0.x), max_size=4))
    pos = np.unique(np.asarray(inner + on_bp, dtype=float))
    return pos if pos.size >= 2 else np.array([lo, hi])


@settings(max_examples=50, deadline=None)
@given(data=st.data(), linear=st.booleans())
def test_cell_average_matches_adaptive_quadrature(data, linear):
    prof = data.draw(profiles(linear=linear))
    pos = data.draw(positions(prof))
    state = pp.cell_average(prof, pos)
    reference = [
        integrate(lambda x: float(prof.u0(x)), a, b, tol=1e-10, breakpoints=prof.u0.x)
        for a, b in zip(pos[:-1], pos[1:])
    ]
    np.testing.assert_allclose(state.masses, reference, rtol=0.0, atol=1e-10 * (1.0 + prof.sup_u0))


@st.composite
def step_profiles_with_positions(draw):
    prof = draw(profiles(linear=False))
    return prof, draw(positions(prof))


@settings(max_examples=80, deadline=None)
@given(case=step_profiles_with_positions())
# one-ulp cells whose midpoint rounds onto a jump: at an interior
# breakpoint, and at the hint edge where u0 is 0 exactly
@example(case=(pp.piecewise_constant_data([0.0, 1.0, 2.0], [1.0, 3.0]), np.array([0.0, np.nextafter(1.0, 0.0), 1.0, 2.0])))
@example(case=(pp.piecewise_constant_data([0.0, 1.0], [1.0]), np.array([0.0, 5e-324])))
def test_cell_inside_one_constant_piece_gets_its_value(case):
    prof, pos = case
    dens = pp.cell_average(prof, pos).densities
    edges = np.concatenate([[-np.inf], prof.u0.x, [np.inf]])
    vals = np.concatenate([[0.0], prof.u0.left, [0.0]])
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
    dist = pp.reconstruct_density(state).l1_distance(prof.u0)
    gap, tail = pp.initial_approximation_gap(prof, state)
    assert gap + tail == pytest.approx(dist, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), linear=st.booleans(), side=st.sampled_from([-np.inf, np.inf]))
def test_one_ulp_sliver_piece_is_not_an_error(data, linear, side):
    prof = data.draw(profiles(linear=linear))
    bp = data.draw(st.sampled_from(prof.u0.x))
    lo, hi = prof.support_hint
    pos = np.unique([lo - 0.5, np.nextafter(bp, side), hi + 0.5])
    state = pp.cell_average(prof, pos)
    gap, tail = pp.initial_approximation_gap(prof, state)
    bps = np.asarray(prof.u0.x)
    mass0 = float(np.sum(np.diff(bps) * prof.u0(0.5 * (bps[:-1] + bps[1:]))))
    assert state.total_mass == pytest.approx(mass0, rel=1e-12, abs=1e-300)
    assert gap >= 0.0 and tail == 0.0


def test_listed_tent_is_averaged_exactly():
    tent = pp.sampled_data([-1.0, 0.0, 1.0], [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(pp.cell_average(tent, [-1.0, -0.5, 0.5, 1.0]).densities, [0.25, 0.75, 0.25])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(-12, 12))
def test_sampled_mass_survives_any_scale(data, k):
    # the trapezoid mass of the samples, through cell averages, at values
    # from 1e-12 to 1e12: exactness may not hang on an absolute tolerance
    unit = data.draw(profiles(linear=True))
    xs = np.asarray(unit.u0.x)
    us = 10.0**k * np.append(unit.u0.left, unit.u0.right[-1])
    prof = pp.sampled_data(xs, us)
    pos = np.union1d(data.draw(positions(prof)), xs[[0, -1]])
    trapezoid = float(np.sum(np.diff(xs) * (0.5 * us[:-1] + 0.5 * us[1:])))
    assert pp.cell_average(prof, pos).total_mass == pytest.approx(trapezoid, rel=1e-12, abs=1e-300)


def test_a_piece_steeper_than_the_float_range_stays_finite():
    prof = pp.sampled_data([0.0, 1e-310, 1.0], [0.0, 1.0, 1.0])
    assert prof.u0(0.5e-310) == pytest.approx(0.5, rel=1e-3)
    state = pp.cell_average(prof, [0.0, 0.5e-310, 1.0])
    assert np.all(np.isfinite(state.densities))
    assert state.total_mass == pytest.approx(1.0 - 0.5e-310, rel=1e-15)


def simpson_l1(recon, exact, T, window):
    """|v - u(., T)| over the window by adaptive Simpson, split at both functions' breakpoints."""
    lo, hi = window
    cuts = [float(b) for b in recon.breakpoints if lo < b < hi]
    cuts.extend(float(b) for b in exact.at(T).x if lo < b < hi)
    return integrate(lambda x: abs(float(recon(x)) - float(exact.at(T)(x))), lo, hi, tol=1e-10, breakpoints=cuts)


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


@st.composite
def tabulated_fluxes(draw):
    """A random tabulated flux on [0, 1]: 2 to 30 nodes, f of either sign."""
    inner = draw(st.lists(st.floats(0.01, 0.99), max_size=28, unique=True))
    us = np.concatenate([[0.0], np.sort(inner), [1.0]])
    fs = [0.0, *draw(st.lists(st.floats(-1.0, 1.0), min_size=us.size - 1, max_size=us.size - 1))]
    return pp.builtin_flux("tabulated", us=us, fs=fs)


@settings(max_examples=18, deadline=None)
@given(
    data=st.data(),
    name=st.sampled_from(["burgers", "lwr", "tabulated"]),
    states=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    T=st.floats(1e-3, 0.999),
)
def test_l1_error_matches_simpson_on_riemann_solutions(data, name, states, T):
    model = data.draw(tabulated_fluxes()) if name == "tabulated" else pp.builtin_flux(name, u_high=1.0)
    exact = pp.riemann_solution(model, *states)
    recon = data.draw(reconstructions(-2.0, 2.0, 1.0))
    window = (-1.5, 1.5)
    assert pp.l1_error_against(recon, exact, T, window) == pytest.approx(simpson_l1(recon, exact, T, window), rel=0.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(model=tabulated_fluxes(), states=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), T=st.floats(1e-3, 2.0))
# two nodes one ulp apart make lip_f = 5.76e17, where 1 + lip_f*T rounds onto the fastest front
@example(
    model=pp.builtin_flux("tabulated", us=[0.0, 0.01, np.nextafter(0.01, 1.0), 1.0], fs=[0.0, 0.0, 1.0, 0.0]),
    states=(1.0, 0.01),
    T=1.0,
)
def test_riemann_fan_of_a_tabulated_flux_is_its_envelope(model, states, T):
    u_l, u_r = states
    sol = pp.riemann_solution(model, u_l, u_r)
    fronts = sol.at(T).x
    assert np.all(np.diff(fronts) >= 0.0)
    # every front is strictly inside [-reach, reach], so the outer pieces have
    # width; u0 is u_l left of 0 and u_r right of it
    reach = 2.0 * max(1.0 + model.lip_f * T, float(np.max(np.abs(fronts), initial=0.0)))
    cuts = np.concatenate([[-reach], fronts, [reach]])
    widths = np.diff(cuts)
    values = np.asarray(sol.at(T)(0.5 * (cuts[:-1] + cuts[1:])))
    gained = np.sum(widths * values) - reach * (u_l + u_r)
    tol = 1e-12 * (2.0 + model.lip_f * T)
    assert gained == pytest.approx(T * (model.eval_f(u_l) - model.eval_f(u_r)), rel=0.0, abs=tol)
    fan = values[widths > 0.0]
    assert fan[0] == u_l and fan[-1] == u_r
    table = model.extremum_oracle.nodes
    assert np.all(np.isin(fan, np.concatenate([[u_l, u_r], table])))
    # Oleinik: the polygon through the fan states lies below f for u_l < u_r, above it otherwise
    nodes = table[(table >= min(states)) & (table <= max(states))]
    order = np.argsort(fan)
    chords = np.interp(nodes, fan[order], model.eval_f(fan[order]))
    assert np.all(np.sign(u_r - u_l) * (model.eval_f(nodes) - chords) >= -1e-12)


def test_l1_error_of_a_fan_scales_with_its_states():
    # the burgers fan 1e6 -> 2e6 at t = 7e-7 is the unit fan at t = 0.7
    # scaled by 1e6 in u, measured against the Riemann data on 301 breakpoints
    bp = np.linspace(-0.5, 1.5, 301)
    step = np.where(0.5 * bp[:-1] + 0.5 * bp[1:] < 0.0, 1.0, 2.0)
    unit = pp.l1_error_against(
        PiecewiseConstantFn(bp, step), pp.riemann_solution(pp.builtin_flux("burgers", u_high=3.0), 1.0, 2.0), 0.7, (-0.5, 1.5)
    )
    big = pp.riemann_solution(pp.builtin_flux("burgers", u_high=3e6), 1e6, 2e6)
    assert pp.l1_error_against(PiecewiseConstantFn(bp, 1e6 * step), big, 7e-7, (-0.5, 1.5)) == pytest.approx(1e6 * unit, rel=1e-12)


def test_a_point_on_a_breakpoint_takes_the_value_to_its_right():
    u = PiecewiseAffineFn([0.0, 1.0, 2.0], [1.0, 4.0], [3.0, 4.0], below=0.5, above=7.0)
    np.testing.assert_array_equal(u([-5.0, 0.0, 0.5, 1.0, 1.5, 2.0, 9.0]), [0.5, 1.0, 2.0, 4.0, 4.0, 7.0, 7.0])
    assert u(-np.inf) == 0.5 and u(np.inf) == 7.0


def test_zero_width_pieces_are_never_read():
    # at t = 0 the fan's edges coincide: u_l left of x0, u_r from x0 on
    burgers = pp.builtin_flux("burgers", u_high=2.0)
    u = pp.riemann_solution(burgers, 0.5, 2.0, x0=0.25).at(0.0)
    np.testing.assert_array_equal(u([-1.0, np.nextafter(0.25, 0.0), 0.25, 1.0]), [0.5, 0.5, 2.0, 2.0])
    w, um, u_l, u_r = u.split(np.array([-1.0, 0.25, 1.0]))
    np.testing.assert_array_equal(np.stack([w, um, u_l, u_r]), [[1.25, 0.75], [0.5, 2.0], [0.5, 2.0], [0.5, 2.0]])


@st.composite
def sampled_profiles_with_positions(draw):
    prof = draw(profiles(linear=True))
    return prof, draw(positions(prof))


@settings(max_examples=60, deadline=None)
@given(case=sampled_profiles_with_positions())
# one-ulp intervals in a tail whose midpoints round onto the first and the
# last sample: split reads the tail's 0, np.interp the sample's value
@example(case=(pp.sampled_data([0.0, 1.0], [1.0, 0.0]), np.array([-5e-324, 0.0])))
@example(case=(pp.sampled_data([0.0, 1.0], [1.0, 1.0]), np.array([1.0, np.nextafter(1.0, 2.0)])))
def test_split_of_sampled_data_is_np_interp(case):
    # bit for bit at the midpoints of intervals inside the samples, which
    # keeps cell averages as they were, 0 on intervals in a tail, and the
    # samples themselves at ends on a sample
    prof, pos = case
    cuts = np.union1d(prof.u0.x, pos)
    xs = np.asarray(prof.u0.x)
    us = np.append(prof.u0.left, prof.u0.right[-1])
    _, um, u_l, u_r = prof.u0.split(cuts)
    mid = 0.5 * cuts[:-1] + 0.5 * cuts[1:]
    tail = (cuts[1:] <= xs[0]) | (cuts[:-1] >= xs[-1])
    assert um.tobytes() == np.where(tail, 0.0, np.interp(mid, xs, us, left=0.0, right=0.0)).tobytes()
    # an interval starting on a sample other than the last, or ending on one
    # other than the first, lies inside the samples
    for ends, values, samples in ((cuts[:-1], u_l, xs[:-1]), (cuts[1:], u_r, xs[1:])):
        on = np.isin(ends, samples)
        assert values[on].tobytes() == np.interp(ends[on], xs, us).tobytes()


@pytest.mark.parametrize("lo, hi", [(1.7e308, 1.79e308), (-1.79e308, -1.7e308), (-1.7e308, 1.7e308)])
def test_constant_pieces_are_exact_near_the_largest_float(lo, hi):
    u = PiecewiseAffineFn([lo, hi], [2.0], [2.0])
    _, *values = u.split(np.array([lo, 0.5 * lo + 0.5 * hi, hi]))
    np.testing.assert_array_equal(values, np.full((3, 2), 2.0))


@st.composite
def affine_fns(draw):
    """A random ``PiecewiseAffineFn`` with breakpoints in [-2, 2]: end values
    of either sign, so pieces change sign inside, repeated breakpoints
    (zero-width pieces) and nonzero tails."""
    k = draw(st.integers(1, 6))
    x = draw(st.lists(st.floats(-2.0, 2.0), min_size=k + 1, max_size=k + 1))
    x = np.sort(x + draw(st.lists(st.sampled_from(x), max_size=2)))
    value = st.floats(-2.0, 2.0)
    ends = draw(st.lists(value, min_size=2 * x.size - 2, max_size=2 * x.size - 2))
    return PiecewiseAffineFn(x, ends[: x.size - 1], ends[x.size - 1 :], draw(value), draw(value))


def simpson(f, window, *fns):
    """``f`` integrated over ``window`` by adaptive Simpson, split at the breakpoints of ``fns``."""
    return integrate(f, *window, tol=1e-10, breakpoints=np.concatenate([g.x for g in fns]))


@settings(max_examples=100, deadline=None)
@given(
    f=affine_fns(),
    g=affine_fns(),
    window=st.one_of(st.none(), st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2).map(sorted)),
)
def test_l1_distance_and_integral_match_simpson(f, g, window):
    # no window: between the outermost breakpoints; a window may reach past
    # both breakpoint sets, into the tails
    span = window or (min(f.x[0], g.x[0]), max(f.x[-1], g.x[-1]))
    dist = f.l1_distance(g, window)
    assert dist == pytest.approx(simpson(lambda p: abs(f(p) - g(p)), span, f, g), rel=0.0, abs=1e-9)
    assert g.l1_distance(f, window) == dist
    assert f.l1_distance(f, window) == 0.0
    own = window or (f.x[0], f.x[-1])
    assert f.integral(window) == pytest.approx(simpson(f, own, f), rel=0.0, abs=1e-9)
