import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from particle_paths import (
    InitialData,
    ParticleState,
    PiecewiseAffineFn,
    box_data,
    cell_average,
    initial_approximation_gap,
    piecewise_constant_data,
    place_particles,
    rarefaction_shock_data,
    riemann_data,
    sampled_data,
)
from particle_paths.initial import total_variation


def test_uniform_placement_covers_hint():
    # the grid points nearest the jumps at 0 and 1 move onto them
    data = rarefaction_shock_data(margin=0.0001)
    pos = place_particles(data, 4, "uniform")
    lo, hi = data.support_hint
    dx = (hi - lo) / 3
    assert pos[0] == lo and pos[-1] == hi
    np.testing.assert_array_equal(pos[1:3], [0.0, 1.0])
    assert np.all(np.abs(pos - np.linspace(lo, hi, 4)) <= dx / 2)


@pytest.mark.parametrize("n", [201, 401, 801, 1601, 3201])
def test_uniform_placement_of_the_paper_profile_is_the_even_grid(n):
    # its jumps at 0 and 1 are grid points and it has no vacuum
    data = rarefaction_shock_data()
    assert place_particles(data, n, "uniform").tobytes() == np.linspace(*data.support_hint, n).tobytes()


@pytest.mark.parametrize(
    "data, n, want",
    [
        (piecewise_constant_data([0.0, 0.5, 1.0], [0.5, 0.0]), 5, [0.0, 0.25, 0.5, 1.0]),
        (piecewise_constant_data([0.0, 0.5, 1.0], [0.0, 0.5]), 5, [0.0, 0.5, 0.75, 1.0]),
        (piecewise_constant_data([0.0, 0.5, 1.0, 2.0], [1.0, 0.0, 0.0]), 9, [0.0, 0.25, 0.5, 2.0]),
        (box_data(0.0, 0.0, 1.0), 5, [0.0, 1.0]),
        # breakpoints exactly dx apart at half-grid points take distinct particles
        (piecewise_constant_data([0.0, 0.375, 0.625, 1.0], [1.0, 2.0, 1.0]), 5, [0.0, 0.25, 0.375, 0.625, 1.0]),
        # 2.5 lies within dx/2 of the hint end; it may not take 1.5's particle
        (piecewise_constant_data([0.0, 0.5, 1.5, 2.5, 2.75], [0.0, 1.0, 0.0, 1.0]), 4, [0.0, 0.5, 1.5, 2.75]),
    ],
)
def test_uniform_placement_examples(data, n, want):
    pos = place_particles(data, n, "uniform")
    np.testing.assert_array_equal(pos, want)
    assert cell_average(data, pos).n_particles == len(want)


@st.composite
def step_data(draw):
    """Step profile with vacuum pieces anywhere, including at the ends, and
    possibly zero throughout."""
    k = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    values = draw(st.lists(st.sampled_from([0.0]) | st.floats(0.1, 2.0), min_size=k, max_size=k))
    left = draw(st.floats(-2.0, 2.0))
    return piecewise_constant_data(left + np.concatenate([[0.0], np.cumsum(widths)]), values), np.asarray(values)


@settings(max_examples=300, deadline=None)
@given(profile=step_data(), n=st.integers(2, 400))
def test_uniform_placement_contract(profile, n):
    data, values = profile
    pos = place_particles(data, n, "uniform")
    lo, hi = data.support_hint
    dx = (hi - lo) / (n - 1)
    assert pos[0] == lo and pos[-1] == hi and 2 <= pos.size <= n
    assert np.all(np.diff(pos) > 0.0)

    # every jump at least dx (beyond rounding) from the other jumps is a
    # particle; a breakpoint between equal values, vacuum or not, is no jump
    bp = np.asarray(data.u0.x)
    jumps = bp[np.concatenate([[True], values[:-1] != values[1:], [True]])]
    gaps = np.diff(jumps)
    apart = np.minimum(np.concatenate([[np.inf], gaps]), np.concatenate([gaps, [np.inf]])) >= dx * (1 + 1e-9)
    assert np.isin(jumps[apart], pos).all()

    st0 = cell_average(data, pos)
    massless = st0.masses == 0.0
    assert not np.any(massless[:-1] & massless[1:])
    if apart.all():
        held = st0.widths[~massless]
        assert np.all((dx / 2 * (1 - 1e-9) <= held) & (held <= 2 * dx * (1 + 1e-9)))
    assert st0.total_mass == pytest.approx(float(np.sum(np.diff(bp) * values)), rel=1e-12, abs=1e-300)


def test_uniform_placement_of_dense_samples_is_the_even_grid():
    # sampled data are continuous between their ends: no grid point moves
    # onto a sample, however close the samples lie
    rng = np.random.default_rng(1)
    data = sampled_data(np.sort(rng.uniform(0.0, 1.0, 301)), rng.uniform(0.5, 2.0, 301))
    pos = place_particles(data, 101, "uniform")
    assert pos.tobytes() == np.linspace(*data.support_hint, 101).tobytes()


def test_uniform_placement_keeps_vacuum_ends_of_sampled_data():
    # u0 meets its vacuum piece continuously at 1; the run still ends on a
    # particle, so no cell with mass spans the vacuum
    data = sampled_data([0.0, 1.0, 2.0], [0.0, 0.0, 1.0])
    np.testing.assert_array_equal(place_particles(data, 6, "uniform"), [0.0, 1.0, *np.linspace(0.0, 2.0, 6)[4:]])


def test_mass_placement_uniform_density_is_even():
    pos = place_particles(box_data(1.0, 0.0, 1.0), 5, "mass_equidistributed")
    np.testing.assert_allclose(pos, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)


def test_mass_placement_two_level_profile():
    # cumulative mass of 2 on (0,1) plus 1 on (1,2) is 3; thirds sit at
    # x = 0.5 and x = 1.0 (oracle: invert the trapezoid CDF on a fine grid)
    data = piecewise_constant_data([0.0, 1.0, 2.0], [2.0, 1.0])
    grid = np.linspace(0, 2, 400001)
    mids = 0.5 * (grid[1:] + grid[:-1])
    cdf = np.concatenate([[0.0], np.cumsum(data.u0(mids) * np.diff(grid))])
    expect = [np.interp(m, cdf, grid) for m in (1.0, 2.0)]
    pos = place_particles(data, 4, "mass_equidistributed")
    np.testing.assert_allclose(pos, [0.0, expect[0], expect[1], 2.0], atol=1e-6)
    np.testing.assert_allclose(pos, [0.0, 0.5, 1.0, 2.0], atol=1e-6)


def test_placement_rejects_bad_input():
    data = box_data(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        place_particles(data, 1, "uniform")
    with pytest.raises(ValueError):
        place_particles(data, 4, "sobol")


def test_cell_average_constant_region():
    data = rarefaction_shock_data()
    st = cell_average(data, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(st.densities, [3.0, 3.0])


def test_cell_average_half_box():
    st = cell_average(box_data(1.0, 0.0, 1.0), [-1.0, 1.0])
    np.testing.assert_allclose(st.densities, [0.5])


def test_cell_average_demo_profile():
    st = cell_average(rarefaction_shock_data(), [-1.0, 0.0, 1.0, 2.0])
    np.testing.assert_allclose(st.densities, [1.0, 3.0, 1.0])
    np.testing.assert_allclose(st.masses, [1.0, 3.0, 1.0])
    assert st.time == 0.0 and st.densities.max() == 3.0


def test_profile_is_zero_outside_the_hint():
    # the step's natural tails (0.2 and 0.8) lie outside the window
    data = riemann_data(0.2, 0.8, window=(-1, 1))
    st = cell_average(data, [-2.0, -1.0, 1.0, 2.0])
    np.testing.assert_array_equal(st.densities, [0.0, 0.5, 0.0])
    gap, tail = initial_approximation_gap(data, st)
    assert gap == pytest.approx(0.6, rel=1e-15) and tail == 0.0
    inner = cell_average(data, [-0.5, 0.5])
    gap, tail = initial_approximation_gap(data, inner)
    assert gap == pytest.approx(0.3, rel=1e-15) and tail == pytest.approx(0.2 * 0.5 + 0.8 * 0.5, rel=1e-15)


def test_gap_zero_for_aligned_piecewise_constant():
    data = piecewise_constant_data([0.0, 1.0, 2.0], [2.0, 1.0])
    st = cell_average(data, [0.0, 0.5, 1.0, 2.0])
    gap, tail = initial_approximation_gap(data, st)
    assert gap <= 1e-9 and tail == 0.0


def test_gap_half_box():
    # |1 - 1/2| on (0,1) plus |0 - 1/2| on (-1,0); fine Riemann-sum oracle
    data = box_data(1.0, 0.0, 1.0)
    st = ParticleState.from_cells([-1.0, 1.0], [0.5])
    xs = np.linspace(-1, 1, 2000001)
    mids = 0.5 * (xs[1:] + xs[:-1])
    oracle = float(np.sum(np.abs(data.u0(mids) - 0.5)) * (xs[1] - xs[0]))
    gap, tail = initial_approximation_gap(data, st)
    assert gap == pytest.approx(oracle, abs=1e-5)
    assert gap == pytest.approx(1.0, abs=1e-9)


def test_gap_bounded_by_spacing_times_variation():
    data = rarefaction_shock_data()
    rng = np.random.default_rng(8)
    for n in (7, 23, 61):
        jitter = rng.uniform(-0.3, 0.3, size=n) * (5.0 / n)
        pos = np.sort(place_particles(data, n, "uniform") + np.concatenate([[0], jitter[1:-1], [0]]))
        st = cell_average(data, pos)
        gap, tail = initial_approximation_gap(data, st)
        dx_star = float(np.max(np.diff(pos)))
        assert gap <= dx_star * data.tv_u0 + tail + 1e-9


def test_mass_sum_matches_integral():
    data = rarefaction_shock_data()
    st = cell_average(data, place_particles(data, 31, "uniform"))
    # integral of u0 over the hint: 1*1 + 3*1 + 1*3 for the window [-2, 3]
    assert st.total_mass == pytest.approx(7.0, abs=1e-8)


def test_averaging_does_not_increase_variation():
    data = rarefaction_shock_data()
    for n in (5, 17, 101):
        st = cell_average(data, place_particles(data, n, "uniform"))
        assert total_variation(st.densities) <= data.tv_u0 + 1e-10


def test_riemann_data_profile():
    data = riemann_data(0.2, 0.8, x0=0.25, window=(-1.0, 1.0))
    assert float(data.u0(0.0)) == 0.2
    assert float(data.u0(0.5)) == 0.8
    assert data.tv_u0 == pytest.approx(0.2 + 0.6 + 0.8)


def test_sampled_data_interpolates():
    data = sampled_data([0.0, 1.0, 2.0], [0.0, 2.0, 0.0])
    assert float(data.u0(0.5)) == pytest.approx(1.0)
    assert float(data.u0(5.0)) == 0.0
    assert data.sup_u0 == 2.0


def test_variation_and_supremum_are_worked_out_from_u0():
    # values 1, 2, 3, 3 along x, then the zero tail: 1 + 1 + 1 + 3
    data = InitialData(PiecewiseAffineFn([0.0, 1.0, 2.0], [1.0, 3.0], [2.0, 3.0]))
    assert (data.tv_u0, data.sup_u0) == (6.0, 3.0)
    with pytest.raises(TypeError, match="tv_u0"):
        InitialData(data.u0, tv_u0=6.0)
    # the builders' own sums, bit for bit, where no value repeats
    rng = np.random.default_rng(5)
    for _ in range(20):
        vals = rng.uniform(0.0, 3.0, size=int(rng.integers(2, 40)))
        bp = np.cumsum(rng.uniform(0.1, 1.0, size=vals.size + 1))
        assert piecewise_constant_data(bp, vals).tv_u0 == total_variation(vals)
        assert sampled_data(bp[:-1], vals).tv_u0 == total_variation(vals)
        assert piecewise_constant_data(bp, vals).sup_u0 == sampled_data(bp[:-1], vals).sup_u0 == vals.max()


@pytest.mark.parametrize(
    "u0",
    [
        PiecewiseAffineFn([0.0], [], []),
        PiecewiseAffineFn([0.0, 1.0], [1.0, 2.0], [1.0]),
        PiecewiseAffineFn([0.0, 0.0, 1.0], [1.0, 1.0], [1.0, 1.0]),
        PiecewiseAffineFn([0.0, np.inf], [1.0], [1.0]),
        PiecewiseAffineFn([0.0, 1.0], [-1.0], [1.0]),
        PiecewiseAffineFn([0.0, 1.0], [1.0], [np.nan]),
        PiecewiseAffineFn([0.0, 1.0], [1.0], [1.0], above=1.0),
    ],
    ids=["one_breakpoint", "lengths", "zero_width", "infinite_breakpoint", "negative", "nan", "tail"],
)
def test_initial_data_checks_its_pieces(u0):
    with pytest.raises(ValueError, match="u0"):
        InitialData(u0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: riemann_data(-0.1, 0.5),
        lambda: riemann_data(0.1, 0.5, x0=2.0),
        lambda: box_data(1.0, 1.0, 0.0),
        lambda: piecewise_constant_data([0.0, 1.0], [1.0, 2.0]),
        lambda: sampled_data([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]),
        lambda: sampled_data([0.0, 1.0], [1.0, 2.0, 3.0]),
    ],
    ids=["negative_state", "jump_outside", "reversed_box", "lengths", "repeated_sample", "sample_lengths"],
)
def test_builders_reject_bad_profiles(build):
    with pytest.raises(ValueError):
        build()


def test_state_validation():
    with pytest.raises(ValueError):
        ParticleState.from_cells([0.0, 0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ParticleState.from_cells([0.0], [])
    with pytest.raises(ValueError):
        ParticleState.from_cells([0.0, 1.0], [-0.5])
    for masses in ([1.0, -1.0], [1.0, np.inf], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="cell masses must be finite and nonnegative"):
            ParticleState(positions=[0.0, 1.0, 2.0], densities=[1.0, 1.0], masses=masses)


@pytest.mark.parametrize("time", [-np.inf, np.nan])
def test_state_refuses_a_non_finite_time(time):
    # unchecked, simulate from time -inf never returns (its snapshot
    # targets are NaN), and from NaN it fails inside numpy
    state0 = ParticleState.from_cells([0.0, 0.5, 1.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="state time must be finite"):
        dataclasses.replace(state0, time=time)


def test_state_from_lists_holds_float_arrays():
    st = ParticleState(positions=[0, 1, 3], densities=[1.0, 2], masses=[1.0, 4])
    for name in ("positions", "densities", "masses", "widths"):
        assert getattr(st, name).dtype == np.float64, name
    assert (st.n_particles, st.n_cells, st.dx_star, st.total_mass) == (3, 2, 2.0, 5.0)
    # a float array is kept as given, not copied
    pos, dens = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0])
    widths = np.diff(pos)
    st = ParticleState(positions=pos, densities=dens, masses=dens * widths, widths=widths)
    assert st.positions is pos and st.densities is dens and st.widths is widths


@pytest.mark.parametrize("window", ["ab", [0, 1, 2], [1, -1], [0, "x"], [-np.inf, 1], [0.5, 0.5], [0, np.nan], [True, 2]])
def test_malformed_measure_window_is_refused(window):
    with pytest.raises(ValueError, match="measure_window must be two finite numbers lo < hi"):
        riemann_data(0.8, 0.2, window=(-2.0, 2.0), measure_window=window)


def test_measure_window_is_a_float_pair():
    data = riemann_data(0.8, 0.2, window=(-2.0, 2.0), measure_window=[-1, np.float32(1.5)])
    assert data.measure_window == (-1.0, 1.5) and all(type(v) is float for v in data.measure_window)
    assert riemann_data(0.8, 0.2).measure_window is None


def reference_state_checks(positions, densities, masses, widths):
    """``ParticleState``'s checks one at a time, each over every element,
    in the order that names the first fault."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 1 or pos.size < 2:
        raise ValueError("need at least two particles")
    if not np.all(np.isfinite(pos)):
        raise ValueError("non-finite particle position")
    if np.any(np.diff(pos) <= 0.0):
        raise ValueError("particle positions must be strictly increasing")
    n_cells = pos.size - 1
    if widths is None:
        widths = np.diff(pos)
    for name, arr in (("densities", densities), ("masses", masses), ("widths", widths)):
        if np.asarray(arr).shape != (n_cells,):
            raise ValueError(f"{name} must have length {n_cells}")
    if not np.all(np.isfinite(densities)):
        raise ValueError("non-finite cell density")
    if np.any(np.asarray(densities) < 0.0):
        raise ValueError("negative cell density")
    if not np.all(np.isfinite(masses)) or np.any(np.asarray(masses) < 0.0):
        raise ValueError("cell masses must be finite and nonnegative")


# NaN, both infinities, both zeros and subnormals; cells also take the
# largest float, which in a position could overflow a width
EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.0]
CELL_EDGES = EDGES + [1.7976931348623157e308]


@st.composite
def state_arrays(draw):
    """Positions, densities, masses and widths: mostly a valid state, with
    an edge value, a tie or a wrong shape dropped in here and there.
    Finite positions stay within 1e300, so no width overflows."""

    def spoil(arr, edges=CELL_EDGES, tie=False):
        if arr.size and draw(st.booleans()):
            # the ends, where a finiteness test may look, as often as the rest
            k = draw(st.one_of(st.sampled_from([0, arr.size - 1]), st.integers(0, arr.size - 1)))
            arr[k] = arr[k - 1] if tie and draw(st.booleans()) else draw(st.sampled_from(edges))
        if draw(st.integers(0, 11)) == 0:
            return draw(st.sampled_from([arr[:-1], np.append(arr, 1.0), arr.reshape(1, -1), np.float64(1.0)]))
        return arr

    n = draw(st.integers(0, 6))
    pos = np.sort(draw(st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n, unique=True)))
    cells = st.lists(st.floats(0.0, 1e300), min_size=max(n - 1, 0), max_size=max(n - 1, 0)).map(np.array)
    widths = spoil(draw(cells)) if draw(st.booleans()) else None
    return spoil(pos, EDGES, tie=True), spoil(draw(cells)), spoil(draw(cells)), widths


def _outcome(build):
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(args=state_arrays())
@example(args=(np.array([0.0, np.inf]), np.ones(1), np.ones(1), None))
@example(args=(np.array([-np.inf, 0.0]), np.ones(1), np.ones(1), None))
@example(args=(np.array([0.0, np.nan, 1.0]), np.ones(2), np.ones(2), None))
@example(args=(np.array([0.0, 1.0]), np.array([-0.0]), np.array([np.nan]), None))
def test_state_checks_match_the_reference(args):
    pos, dens, masses, widths = args
    want = _outcome(lambda: reference_state_checks(pos, dens, masses, widths))
    got = _outcome(lambda: ParticleState(positions=pos, densities=dens, masses=masses, widths=widths))
    assert got == want


def test_cell_average_near_the_largest_float():
    # the ends of the box sum past the float range; their midpoint does not
    data = box_data(1.0, 1.7e308, 1.79e308)
    st = cell_average(data, place_particles(data, 2, "uniform"))
    np.testing.assert_array_equal(st.densities, [1.0])
