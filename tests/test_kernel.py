"""The velocity kernel against the scalar rule, the two-sided rule and brute force.

Pairs run through ``particle_velocities`` as (pairs, 2) blocks: each pair
is the two cells around one particle (``conftest.pair_velocities``).
"""

import dataclasses
import functools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import particle_paths as pp
from particle_paths import ParticleState, builtin_flux, velocity, velocity_extrema
from particle_paths.dynamics import SnapshotBlock
from particle_paths.flux import FluxModel, MonotoneOracle, PiecewiseMonotoneOracle, _RangeExtrema, entropic_row
from particle_paths.velocity import _Cells

from conftest import cubic_flux_model, pair_velocities
from dynamics_reference import interval_extrema, particle_velocity, two_sided_velocities

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


MONOTONE = ("burgers", "lwr", "rising", "falling")


def monotone_model(kind):
    """burgers, lwr, or a custom ``MonotoneOracle`` in either direction, on [0, 2]."""
    if kind == "burgers":
        return builtin_flux("burgers", u_high=2.0)
    if kind == "lwr":
        return builtin_flux("lwr", u_max=2.0)
    if kind == "rising":
        # a = sqrt(u) + 1/4, so f' = 1.5 sqrt(u) + 1/4
        def a(u):
            return np.sqrt(np.asarray(u, dtype=float)) + 0.25

        lip_f, fprime0 = 1.5 * np.sqrt(2.0) + 0.25, 0.25
    else:
        # a = 1 / (1 + u), so f' = 1 / (1 + u)**2
        def a(u):
            return 1.0 / (1.0 + np.asarray(u, dtype=float))

        lip_f, fprime0 = 1.0, 1.0

    def f(u):
        u = np.asarray(u, dtype=float)
        return u * a(u)

    oracle = MonotoneOracle(a, increasing=kind == "rising")
    return FluxModel(kind, f, fprime0, lip_f, 2.0, extremum_oracle=oracle)


def cells(dens):
    """A state's or a row block's densities; the kernels read nothing else."""
    return SimpleNamespace(densities=np.asarray(dens, dtype=float))


def assert_pairs_take_the_rule(model, pairs):
    """Kernel pair velocities, equal bit for bit to the scalar and the two-sided rule."""
    pairs = np.asarray(pairs, dtype=float)
    got = pair_velocities(model, pairs[:, 0], pairs[:, 1])
    assert got.tolist() == [particle_velocity(model, float(l), float(r)) for l, r in pairs]
    assert got.tobytes() == two_sided_velocities(model, cells(pairs))[:, 1].tobytes()
    return got


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(MONOTONE), top=st.floats(0.1, 4.0), fracs=pair_arrays())
def test_kernel_equals_scalar_rule_bitwise_on_monotone_fluxes(kind, top, fracs):
    if kind == "burgers":
        model = builtin_flux("burgers", u_high=top)
    elif kind == "lwr":
        model = builtin_flux("lwr", u_max=top)
    else:
        model = monotone_model(kind)  # on [0, 2]
    assert_pairs_take_the_rule(model, np.asarray(fracs) * model.u_high)


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
    got = assert_pairs_take_the_rule(model, pairs)
    f_nodes = _RangeExtrema(np.asarray(model.eval_f(us), dtype=float))
    for (v_l, v_r), v in zip(pairs, got):
        assert v == pytest.approx(dense_velocity(model, v_l, v_r, us), abs=ANALYTIC_TOL)
        # the Godunov interface flux runs the same kernel over f: its min
        # from the row [lo, hi], its max from [hi, lo]
        lo, hi = min(v_l, v_r), max(v_l, v_r)
        f_min, f_max = entropic_row(model.eval_f, us, f_nodes, [[lo, hi], [hi, lo]])[:, 0]
        grid = np.union1d(np.linspace(lo, hi, 2001), us[(us > lo) & (us < hi)])
        f_vals = np.asarray(model.eval_f(grid))
        assert float(f_min) == pytest.approx(f_vals.min(), abs=ANALYTIC_TOL)
        assert float(f_max) == pytest.approx(f_vals.max(), abs=ANALYTIC_TOL)


def entropic_extremum(extrema, left, right):
    """Min of g over [left, right] where left <= right, else max over [right, left],
    from ``extrema(lo, hi)``, g's extrema over arrays of intervals."""
    ext = extrema(np.minimum(left, right), np.maximum(left, right))
    return np.where(left <= right, ext.min_value, ext.max_value)


@st.composite
def node_rows(draw):
    """Nodes, g monotone between them, and a row or row block of entries.

    g is a table through the nodes (flat beyond them), with values tied
    often and signed zeros among them; a line through the origin, which
    keeps the sign of a zero; or, for one node, Godunov's turning point,
    a parabola.  The entries come from a small pool, so equal neighbours
    are common, with the nodes themselves, points below the first node and
    above the last, both zeros and NaN.
    """
    nodes = np.unique(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)))
    value = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0]))
    values = np.asarray(draw(st.lists(value, min_size=nodes.size, max_size=nodes.size)))
    kind = draw(st.sampled_from(["table", "line"] + (["turn"] if nodes.size == 1 else [])))
    if kind == "line":
        slope = draw(st.sampled_from([1.0, -0.5]))
        g = lambda u: slope * np.asarray(u, dtype=float)
    elif kind == "turn":
        sign = draw(st.sampled_from([1.0, -1.0]))
        g = lambda u: values[0] + sign * (np.asarray(u, dtype=float) - nodes[0]) ** 2
    else:
        g = lambda u: np.interp(np.asarray(u, dtype=float), nodes, values)
    extra = [0.0, -0.0, np.nan, nodes[0] - 0.25, nodes[-1] + 0.25]
    pool = draw(st.lists(st.one_of(st.sampled_from([*nodes, *extra]), st.floats(-0.5, 1.5)), min_size=1, max_size=6))
    rows = draw(st.integers(0, 3))
    size = draw(st.integers(1, 12))
    picks = draw(st.lists(st.sampled_from(pool), min_size=max(rows, 1) * size, max_size=max(rows, 1) * size))
    row = np.asarray(picks).reshape((rows, size) if rows else (size,))
    return g, nodes, np.asarray(g(nodes), dtype=float), row


def line_case(row):
    nodes = np.array([0.0, 0.5])
    return lambda u: -0.5 * np.asarray(u, dtype=float), nodes, -0.5 * nodes, np.asarray(row)


def signed_zero_table(row):
    nodes, values = np.array([0.25, 0.5, 0.75]), np.array([0.0, -0.0, 0.0])
    return lambda u: np.interp(np.asarray(u, dtype=float), nodes, values), nodes, values, np.asarray(row)


def dip_hump_table(row):
    nodes, values = np.array([0.2, 0.4, 0.6, 0.8]), np.array([0.0, -1.0, 1.0, 0.0])
    return lambda u: np.interp(np.asarray(u, dtype=float), nodes, values), nodes, values, np.asarray(row)


@settings(max_examples=200, deadline=None)
@given(case=node_rows())
# a tie between signed zeros takes g of the right entry; a node value that
# ties with an end value keeps the argument order of the interval search
@example(case=line_case([0.0, -0.0, -0.0, 0.0, 0.5, np.nan, 0.2, 0.2]))
@example(case=signed_zero_table([0.25, 0.5, 0.75, 0.5, 0.25, 1.0, -0.0, 0.5]))
@example(case=signed_zero_table([[0.0, 1.0, 0.25, 0.75], [0.75, 0.25, 1.0, 0.0]]))
# the kernel reads the nodes in (lower, upper]: a node at the upper entry
# ties an inner node of the other signed zero (0.75 rising and falling),
# or is the other signed zero of g(upper) (-0.0 on the node 0.0), and the
# end value wins either tie
@example(case=signed_zero_table([0.3, 0.75, 0.3]))
@example(case=line_case([-0.25, -0.0, -0.25]))
# inner interfaces are found in the raveled mask of a row block: the
# second row's dip and hump sit after a first row with none
@example(case=dip_hump_table([[0.5, 0.5, 0.5, 0.5], [0.3, 0.7, 0.3, 0.6]]))
def test_entropic_row_equals_the_interval_rule_bytewise(case):
    # one search per entry gives the bits of two searches per interval,
    # signed zeros and NaN included
    g, nodes, values, row = case
    table = _RangeExtrema(values)
    want = entropic_extremum(functools.partial(interval_extrema, g, nodes, table), row[..., :-1], row[..., 1:])
    got = entropic_row(g, nodes, table, row)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(table=nonconvex_tables(), data=st.data())
def test_tabulated_oracle_equals_the_interval_search_bytewise(table, data):
    # velocity_extrema takes its min from the row [lo, hi] and its max from [hi, lo]
    us, fs = table
    model = builtin_flux("tabulated", us=us, fs=fs)
    oracle = model.extremum_oracle
    frac = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    pick = st.one_of(frac.map(lambda x: x * us[-1]), st.sampled_from(us.tolist()))
    ends = np.sort(np.asarray(data.draw(st.lists(st.tuples(pick, pick), min_size=1, max_size=30))), axis=1)
    want = interval_extrema(oracle.a_of, us, _RangeExtrema(oracle.a_of(us)), ends[:, 0], ends[:, 1])
    for (lo, hi), want_min, want_max in zip(ends, want.min_value, want.max_value):
        got = velocity_extrema(model, lo, hi)
        assert np.float64(got.min_value).tobytes() == want_min.tobytes()
        assert np.float64(got.max_value).tobytes() == want_max.tobytes()


def test_tabulated_velocities_evaluate_a_once_per_call(monkeypatch):
    # one call of a, on the padded row block: the interval search asked
    # for a at both ends of every interface
    us = np.linspace(0.0, 1.0, 17)
    model = builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    oracle = model.extremum_oracle
    calls = []
    a_of = oracle.a_of
    monkeypatch.setattr(oracle, "a_of", lambda u: calls.append(np.shape(u)) or a_of(u))
    dens = np.stack([np.linspace(0.0, 1.0, 11), us[3:14], np.full(11, 0.5)])
    vel = pp.particle_velocities(model, cells(dens))
    assert calls == [(3, 13)]
    assert vel.tobytes() == two_sided_velocities(model, cells(dens)).tobytes()


@settings(max_examples=30, deadline=None)
@given(fracs=pair_arrays(size=8))
def test_kernel_on_custom_oracle_matches_dense_scan(fracs):
    # a'' = 2/3, so a 2**16-interval grid misses the interior minimum by
    # at most h**2/12 < 5e-11
    model = cubic_flux_model(1.5)
    pairs = np.asarray(fracs) * model.u_high
    got = assert_pairs_take_the_rule(model, pairs)
    for (v_l, v_r), v in zip(pairs, got):
        assert v == pytest.approx(dense_velocity(model, v_l, v_r, n=2**16 + 1), abs=ANALYTIC_TOL)


def test_custom_oracle_finds_the_interior_minimum():
    # a = u^2/3 - u/2 + 1/2 has its minimum 5/16 at u = 3/4
    model = cubic_flux_model(1.5)
    vel = pair_velocities(model, [0.0, 1.5], [1.5, 0.0])
    assert vel[0] == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert vel[0] == pytest.approx(dense_velocity(model, 0.0, 1.5, n=2**16 + 1), abs=ANALYTIC_TOL)
    assert vel[1] == 0.5


@st.composite
def turning_cubics(draw):
    """A closed-form cubic a on [0, top] whose critical points, inside, are its nodes.

    a' = k (u - r1)(u - r2), so a is monotone between 0, r1, r2 and top.
    a is evaluated in Horner's form, elementwise, so its bits do not depend
    on the shape of the array it is evaluated on.
    """
    top = draw(st.floats(0.5, 4.0))
    r1, r2 = top * np.sort(draw(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=2)))
    k = draw(st.floats(0.1, 3.0)) * draw(st.sampled_from([1.0, -1.0]))
    c0 = draw(st.floats(-1.0, 1.0))
    c1, c2, c3 = k * r1 * r2, -k * (r1 + r2) / 2.0, k / 3.0

    def a(u):
        u = np.asarray(u, dtype=float)
        return c0 + u * (c1 + u * (c2 + u * c3))

    def f(u):
        return np.asarray(u, dtype=float) * a(u)

    lip_f = abs(c0) + 2.0 * abs(c1) * top + 3.0 * abs(c2) * top**2 + 4.0 * abs(c3) * top**3
    oracle = PiecewiseMonotoneOracle(a, np.unique([0.0, r1, r2]))
    return FluxModel("turning cubic", f, c0, lip_f, top, extremum_oracle=oracle)


@settings(max_examples=60, deadline=None)
@given(model=turning_cubics(), rows=st.integers(0, 3), n_cells=st.integers(1, 12), data=st.data())
def test_kernel_on_a_turning_closed_form_field_takes_the_interval_rule(model, rows, n_cells, data):
    # the bytes of the interval rule, one padded interval at a time, over a
    # at both ends and at the nodes strictly inside; densities land on the
    # turning points often
    oracle = model.extremum_oracle
    nodes = oracle.nodes
    pick = st.one_of(unit.map(lambda x: x * model.u_high), st.sampled_from([*nodes, model.u_high]))
    size = max(rows, 1) * n_cells
    dens = np.asarray(data.draw(st.lists(pick, min_size=size, max_size=size)))
    dens = dens.reshape((rows, n_cells) if rows else (n_cells,))
    padded = np.zeros((*dens.shape[:-1], n_cells + 2))
    padded[..., 1:-1] = dens
    extrema = functools.partial(interval_extrema, oracle.a_of, nodes, _RangeExtrema(oracle.a_of(nodes)))
    want = entropic_extremum(extrema, padded[..., :-1], padded[..., 1:])
    got = pp.particle_velocities(model, cells(dens))
    assert got.tobytes() == want.tobytes()
    row = padded.reshape(-1, n_cells + 2)[0]
    for v_l, v_r, v in zip(row[:-1], row[1:], got.reshape(-1, n_cells + 1)[0]):
        assert v == pytest.approx(dense_velocity(model, v_l, v_r, nodes), abs=ANALYTIC_TOL)


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


@pytest.mark.parametrize("kind", ["burgers", "lwr", "tabulated", "cubic"])
def test_degenerate_interval_takes_the_oracles_own_value(kind):
    # the kernel and the scalar rule both read a(v) from the oracle; for
    # burgers that is u/2, so a(0.2) is 0.1 where f(0.2)/0.2 rounds above it
    if kind == "tabulated":
        us = np.linspace(0.0, 1.0, 17)
        model = builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    elif kind == "cubic":
        model = cubic_flux_model(1.0)
    else:
        model = builtin_flux(kind)
    vs = np.array([0.0, 0.2, 0.3, 0.5, 0.7, 1.0])
    own = np.asarray(model.extremum_oracle.a_of(vs), dtype=float)
    assert pair_velocities(model, vs, vs).tobytes() == own.tobytes()
    assert [velocity_extrema(model, v, v) for v in vs] == [(a, a) for a in own]
    if kind == "burgers":
        assert own[1] == 0.1 != float(model.eval_a(0.2))
    if kind == "tabulated":
        assert own.tobytes() == np.asarray(model.eval_a(vs), dtype=float).tobytes()


@pytest.mark.parametrize("kind", ["burgers", "lwr"])
def test_plateau_velocities_never_evaluate_the_flux(kind):
    # a monotone oracle answers every interface in closed form, degenerate
    # ones on the plateau included, so f itself is never called
    base = builtin_flux(kind)
    calls = []

    def counting(u):
        calls.append(u)
        return base.eval_f(u)

    model = dataclasses.replace(base, eval_f=counting)
    state = ParticleState.from_cells(np.linspace(0.0, 1.0, 11), np.full(10, 0.5))
    vel = pp.particle_velocities(model, state)
    assert vel.tobytes() == pp.particle_velocities(base, state).tobytes()
    assert calls == []


def test_range_table_matches_brute_force():
    rng = np.random.default_rng(11)
    for n in range(1, 66):
        values = rng.integers(0, 5, size=n).astype(float)  # many ties
        table = _RangeExtrema(values)
        i0 = rng.integers(0, n, size=300)
        i1 = i0 + (rng.integers(0, n, size=300) % (n - i0))
        if n <= 17 or n >= 64:
            # every pair as well: every span on both sides of each power of two
            every = np.triu_indices(n)
            i0, i1 = np.concatenate([i0, every[0]]), np.concatenate([i1, every[1]])
        got_min, got_max = table.query(i0, i1)
        for a, b, lo, hi in zip(i0, i1, got_min, got_max):
            assert lo == values[a : b + 1].min()
            assert hi == values[a : b + 1].max()


def test_kernel_rejects_densities_outside_the_working_interval():
    model = builtin_flux("burgers", u_high=1.0)
    with pytest.raises(ValueError, match="negative"):
        pair_velocities(model, [0.0, 0.5], [0.5, -0.1])
    with pytest.raises(ValueError, match="exceeds"):
        pp.particle_velocities(model, ParticleState.from_cells([0.0, 1.0, 2.0], [0.5, 2.0]))


PAIR_KINDS = (*MONOTONE, "tabulated", "cubic")


def pair_model(kind):
    """A model of each oracle kind on [0, 2]: monotone, a non-convex table, or the custom cubic."""
    if kind == "tabulated":
        us = np.linspace(0.0, 2.0, 17)
        return builtin_flux("tabulated", us=us, fs=us * ((us - 1.0) ** 2 - 0.2))
    if kind == "cubic":
        return cubic_flux_model(2.0)
    return monotone_model(kind)


@pytest.mark.parametrize("kind", PAIR_KINDS)
def test_vacuum_and_degenerate_pairs_take_the_rule(kind):
    # every ordered pair of vacuum, inner states and the top: ties, both
    # directions, and vacuum on either side
    vs = [0.0, 0.3, 1.0, 2.0]
    assert_pairs_take_the_rule(pair_model(kind), [(v_l, v_r) for v_l in vs for v_r in vs])


@pytest.mark.parametrize("kind", PAIR_KINDS)
@pytest.mark.parametrize(
    "pairs, message",
    [
        ([[0.5, -0.1]], "negative density -0.1"),
        ([[0.5, 2.5]], "density 2.5 exceeds working interval [0, 2.0]"),
        ([[np.nan, -0.3], [0.5, 0.2]], "negative density -0.3"),
        ([[np.nan, 0.5], [2.5, 0.2]], "density 2.5 exceeds working interval [0, 2.0]"),
    ],
    ids=["negative", "above", "nan-negative", "nan-above"],
)
def test_out_of_range_pairs_raise_the_range_check(kind, pairs, message):
    # a NaN passes the check, so the message names the offending density beside it
    model = pair_model(kind)
    pairs = np.asarray(pairs)
    with pytest.raises(ValueError) as want:
        two_sided_velocities(model, cells(pairs))
    with pytest.raises(ValueError) as got:
        pair_velocities(model, pairs[:, 0], pairs[:, 1])
    assert str(got.value) == str(want.value) == message


def _row_block_model(kind, draw):
    if kind == "tabulated":
        us, fs = draw(nonconvex_tables())
        return builtin_flux("tabulated", us=us, fs=fs)
    if kind == "cubic":
        return cubic_flux_model(1.5)
    return builtin_flux(kind, u_high=2.0) if kind == "burgers" else builtin_flux("lwr", u_max=2.0)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["burgers", "lwr", "tabulated", "cubic"]),
    rows=st.integers(1, 6),
    cells=st.integers(1, 12),
    data=st.data(),
)
def test_kernel_on_a_row_block_equals_per_row_calls(kind, rows, cells, data):
    # every oracle is elementwise, so one call on a (rows, cells) block
    # gives each row the bits of a call on that row's state alone
    model = _row_block_model(kind, data.draw)
    frac = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    fracs = data.draw(st.lists(frac, min_size=rows * cells, max_size=rows * cells))
    dens = np.asarray(fracs).reshape(rows, cells) * model.u_high
    positions = np.arange(cells + 1, dtype=float)
    block = SnapshotBlock(0, np.zeros(rows), np.tile(positions, (rows, 1)), dens, np.ones_like(dens), dens.copy(), rows * (cells + 1))
    got = pp.particle_velocities(model, block)
    want = np.array([pp.particle_velocities(model, ParticleState.from_cells(positions, row)) for row in dens])
    assert got.shape == (rows, cells + 1)
    assert got.tobytes() == want.tobytes()


def assert_one_sided_is_two_sided(model, dens):
    state = cells(dens)
    got = pp.particle_velocities(model, state)
    want = two_sided_velocities(model, state)
    assert got.shape == want.shape == (*dens.shape[:-1], dens.shape[-1] + 1)
    assert got.tobytes() == want.tobytes()
    # the pairs inside the state take the same rule
    pairs = pair_velocities(model, dens[..., :-1], dens[..., 1:])
    assert pairs.tobytes() == want[..., 1:-1].tobytes()


@pytest.mark.parametrize("kind", MONOTONE)
def test_one_sided_kernel_on_vacuum_plateaus_and_the_top(kind):
    model = monotone_model(kind)
    row = np.array([0.0, 0.0, 0.5, 0.5, 2.0, 2.0, 0.25, 0.0, 1.3]) * model.u_high / 2.0
    for dens in (row, np.stack([row, row[::-1], np.zeros_like(row), np.full_like(row, model.u_high)])):
        assert_one_sided_is_two_sided(model, dens)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(MONOTONE), rows=st.integers(0, 4), n_cells=st.integers(1, 12), data=st.data())
def test_one_sided_kernel_equals_the_two_sided_rule_bitwise(kind, rows, n_cells, data):
    # rows = 0 is a single state's 1-D densities; the sampled fractions give
    # zeros, equal neighbours and u_high often
    model = monotone_model(kind)
    frac = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    size = max(rows, 1) * n_cells
    fracs = data.draw(st.lists(frac, min_size=size, max_size=size))
    dens = np.asarray(fracs).reshape((rows, n_cells) if rows else (n_cells,)) * model.u_high
    assert_one_sided_is_two_sided(model, dens)


@pytest.mark.parametrize("kind", MONOTONE)
@pytest.mark.parametrize(
    "dens",
    [
        [0.5, -0.1, 0.2],
        [0.5, 2.5, 0.2],
        [np.nan, 0.5, -0.3],
        [np.nan, 2.5, 0.3],
        [[0.5, 0.2], [3.0, -1.0]],
        [[0.5, 0.2], [0.3, 1e9]],
    ],
)
def test_one_sided_kernel_raises_the_two_sided_message(kind, dens):
    model = monotone_model(kind)
    state = cells(dens)
    with pytest.raises(ValueError) as want:
        two_sided_velocities(model, state)
    with pytest.raises(ValueError) as got:
        pp.particle_velocities(model, state)
    assert str(got.value) == str(want.value)


def carried(dens, top):
    """Densities with their largest value carried, as ``simulate`` and the audit pass them."""
    dens = np.asarray(dens, dtype=float)
    return _Cells(dens, dens.size // dens.shape[-1] * (dens.shape[-1] + 1), top)


def count_range_tests(monkeypatch):
    calls = []
    check = velocity.check_density_intervals
    monkeypatch.setattr(velocity, "check_density_intervals", lambda *args: calls.append(args) or check(*args))
    return calls


CARRY_KINDS = ("burgers", "lwr", "tabulated")


def assert_carry_equals_checked(model, dens):
    # a caller that proved its densities finite and >= 0 passes their
    # largest value, and the kernel skips the range test's reductions with
    # the checked call's bits
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = count_range_tests(monkeypatch)
        want = pp.particle_velocities(model, cells(dens))
        got = pp.particle_velocities(model, carried(dens, float(np.max(dens))))
        unproved = pp.particle_velocities(model, _Cells(dens, 0))
    assert got.tobytes() == want.tobytes() == unproved.tobytes()
    # the checked call and the one without a top test the range; the carried one does not
    assert len(calls) == 2


@pytest.mark.parametrize("kind", CARRY_KINDS)
def test_carried_top_inside_the_slack_equals_the_checked_call(kind):
    # vacuum cells, and a top just above u_high, inside the working interval
    model = pair_model(kind)
    row = np.array([0.0, 0.5, model.u_high * (1.0 + 1e-10), 0.0, 0.25])
    for dens in (row, np.stack([row, row[::-1], np.zeros_like(row)])):
        assert_carry_equals_checked(model, dens)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(CARRY_KINDS), rows=st.integers(0, 3), n_cells=st.integers(1, 12), data=st.data())
def test_carried_top_equals_the_checked_call(kind, rows, n_cells, data):
    model = pair_model(kind)
    frac = st.one_of(unit, st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    size = max(rows, 1) * n_cells
    fracs = data.draw(st.lists(frac, min_size=size, max_size=size))
    assert_carry_equals_checked(model, np.asarray(fracs).reshape((rows, n_cells) if rows else (n_cells,)) * model.u_high)


@pytest.mark.parametrize("kind", CARRY_KINDS)
@pytest.mark.parametrize(
    "dens, top",
    [
        ([0.5, 2.5, 0.2], 2.5),
        ([0.5, 2.5, 0.2], np.nan),
        ([np.nan, 0.5, -0.3], np.nan),
        ([[0.5, 0.2], [3.0, -1.0]], np.nan),
        ([[0.5, 0.2], [0.3, 1e9]], 1e9),
    ],
    ids=["above", "above-unproved", "nan-negative", "block-negative", "block-above"],
)
def test_carried_top_out_of_range_raises_the_checked_message(kind, dens, top):
    # a top above the working interval, or NaN, runs the full range test
    model = pair_model(kind)
    with pytest.raises(ValueError) as want:
        pp.particle_velocities(model, cells(dens))
    with pytest.raises(ValueError) as got:
        pp.particle_velocities(model, carried(dens, top))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["burgers", "lwr"])
@pytest.mark.parametrize("rows", [0, 3, "pairs"])
def test_monotone_kernel_evaluates_a_once_per_call(kind, rows):
    # one evaluation of a, on the cells alone: the two-sided rule would ask
    # for a at both ends of every padded interface, two calls per kernel call;
    # "pairs" is the (pairs, 2) block that pair velocities run through
    base = builtin_flux(kind)
    calls = []

    def counting(u):
        calls.append(np.shape(u))
        return base.extremum_oracle.a_of(u)

    model = dataclasses.replace(base, extremum_oracle=MonotoneOracle(counting, base.extremum_oracle.increasing))
    assert calls == [(1,)]  # the oracle's a(0), once
    row = np.linspace(0.0, 1.0, 11)
    dens = {0: row, 3: np.stack([row] * 3), "pairs": np.stack([row[:-1], row[1:]], axis=-1)}[rows]
    calls.clear()
    for _ in range(2):
        vel = pp.particle_velocities(model, cells(dens))
    assert calls == [dens.shape, dens.shape]
    assert vel.tobytes() == pp.particle_velocities(base, cells(dens)).tobytes()
