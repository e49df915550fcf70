import dataclasses

import numpy as np
import pytest

import particle_paths as pp
from particle_paths import burgers_rarefaction_shock, godunov_reference, reference, riemann_solution
from particle_paths.flux import FluxModel, MonotoneOracle, _RangeExtrema, entropic_row

from conftest import cubic_flux_model


def test_demo_solution_branches():
    u = burgers_rarefaction_shock()
    assert u.at(0.25)(0.5) == pytest.approx(2.0)  # fan: x/t
    assert u.at(0.1)(1.4) == pytest.approx(1.0)  # beyond the shock
    assert u.at(0.1)(1.0) == pytest.approx(3.0)  # plateau
    # matches its initial data at t = 0
    assert u.at(0.0)(0.5) == 3.0 and u.at(0.0)(-0.5) == 1.0


def test_demo_solution_shock_is_rankine_hugoniot(burgers3):
    # shock speed equals the flux jump over the state jump: (9/2 - 1/2)/2 = 2
    f3 = float(burgers3.eval_f(3.0))
    f1 = float(burgers3.eval_f(1.0))
    speed = (f3 - f1) / (3.0 - 1.0)
    assert speed == 2.0
    u = burgers_rarefaction_shock()
    t = 0.2
    xs = 1.0 + speed * t
    assert u.at(t)(xs - 1e-9) == 3.0 and u.at(t)(xs + 1e-9) == 1.0


def test_demo_solution_validity_window():
    u = burgers_rarefaction_shock()
    with pytest.raises(ValueError):
        u.at(1.0)(0.0)
    with pytest.raises(ValueError):
        u.at(-0.1)(0.0)


def test_riemann_rarefaction_convex(burgers3):
    # quadratic flux, rising states: fan u = x/t between 0 and 2t; validate
    # against the finite volume oracle at t = 0.5
    sol = riemann_solution(burgers3, 0.0, 2.0)
    assert "rarefaction" in sol.description
    assert tuple(sol.at(0.5).x) == (0.0, 1.0)  # the fan edges, nothing else
    assert sol.at(0.5)(0.5) == pytest.approx(1.0, abs=1e-4)
    data = pp.riemann_data(0.0, 2.0, x0=0.0, window=(-2.0, 3.0))
    g = pp.godunov_reference(burgers3, data, 4000, 0.5, window=(-2.0, 3.0))
    err = pp.l1_error_against(g, sol, 0.5, (-1.0, 2.0))
    assert err <= 1e-2


def test_riemann_shock_speed(burgers3):
    sol = riemann_solution(burgers3, 2.0, 0.0)
    assert "shock" in sol.description
    # Rankine-Hugoniot speed (f(2) - f(0)) / 2 = 1
    assert sol.at(1.0)(0.99) == 2.0 and sol.at(1.0)(1.01) == 0.0


def test_riemann_constant():
    m = pp.builtin_flux("lwr")
    sol = riemann_solution(m, 0.4, 0.4)
    assert sol.at(7.0)(123.0) == 0.4


def test_riemann_lwr_near_its_top_is_a_rarefaction():
    # a(1) = 0 and a(0.99999) = 1e-5 keep only the rounding of 1 - u, which
    # the affine check measures against a(0) = 1, not against a's values
    sol = riemann_solution(pp.builtin_flux("lwr"), 1.0, 0.99999)
    assert sol.description == "rarefaction 1.0 -> 0.99999"


def test_riemann_rejects_nonconvex_flux():
    m = cubic_flux_model(1.5)
    with pytest.raises(ValueError, match=r"builtin_flux\('tabulated'\)"):
        riemann_solution(m, 0.1, 1.4)


@pytest.mark.parametrize("kind", ["burgers", "tabulated"])
@pytest.mark.parametrize("u_l, u_r", [(np.nan, 0.5), (0.5, np.inf), (-np.inf, 0.5)])
def test_riemann_refuses_a_state_that_is_not_finite(kind, u_l, u_r):
    # unchecked, a NaN on the table makes "shock nan -> 0.5 at speed nan"
    if kind == "burgers":
        m = pp.builtin_flux("burgers")
    else:
        us = np.linspace(0.0, 1.0, 65)
        m = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    with pytest.raises(ValueError, match="states must be finite and nonnegative"):
        riemann_solution(m, u_l, u_r)


@pytest.mark.parametrize("kind", ["burgers", "tabulated"])
@pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
def test_riemann_refuses_a_jump_position_that_is_not_finite(kind, x0):
    # unchecked, a NaN x0 gives a fan whose breakpoints are NaN, and the L1
    # error against it reads NaN without an error
    if kind == "burgers":
        m = pp.builtin_flux("burgers", u_high=1.0)
    else:
        us = np.linspace(0.0, 1.0, 65)
        m = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    with pytest.raises(ValueError, match="x0 must be finite"):
        riemann_solution(m, 0.2, 0.5, x0=x0)


def test_riemann_rejects_a_state_beyond_the_flux_table():
    # np.interp would extend f flat past the last node and give a wrong front
    m = pp.builtin_flux("tabulated", us=[0.0, 1.0], fs=[0.0, 1.0])
    with pytest.raises(ValueError, match="beyond the flux table"):
        riemann_solution(m, 0.5, 2.0)


def test_lwr_stationary_shock():
    m = pp.builtin_flux("lwr", u_high=0.9)
    sol = riemann_solution(m, 0.2, 0.8)
    assert "shock" in sol.description
    # f(0.2) = f(0.8) so the shock stands still
    assert sol.at(1.0)(-0.01) == 0.2 and sol.at(1.0)(0.01) == 0.8


def test_godunov_constant_data_exact():
    m = pp.builtin_flux("lwr", u_high=1.0)
    data = pp.riemann_data(0.3, 0.3, x0=0.0, window=(-1.0, 1.0))
    g = godunov_reference(m, data, 200, 0.4, window=(-1.0, 1.0))
    np.testing.assert_allclose(g.values, 0.3, atol=1e-14)


@pytest.mark.parametrize("T", [np.nan, np.inf, -1.0])
def test_godunov_refuses_a_time_it_cannot_reach(T):
    # unchecked, the loop does not run and the initial averages pass for u(T)
    m = pp.builtin_flux("burgers", u_high=1.0)
    with pytest.raises(ValueError, match="T must be finite and nonnegative"):
        godunov_reference(m, pp.box_data(0.5, 0.0, 1.0), 50, T, window=(-1.0, 2.0))


def test_godunov_refuses_an_infinite_lip_f():
    # dt = 0.9 dx / lip_f would be 0, and the time loop would never end
    m = dataclasses.replace(pp.builtin_flux("burgers", u_high=1.0), lip_f=np.inf)
    with pytest.raises(ValueError, match="lip_f must be finite"):
        godunov_reference(m, pp.box_data(0.5, 0.0, 1.0), 50, 0.5, window=(-1.0, 2.0))


def test_godunov_takes_a_zero_lip_f():
    # f = 0 moves nothing: one step of dt = 0.9 dx / 1e-300 leaves the data
    zero = lambda u: np.zeros_like(np.asarray(u, dtype=float))
    m = FluxModel("still", zero, 0.0, 0.0, 1.0, extremum_oracle=MonotoneOracle(zero, increasing=True))
    data = pp.box_data(0.5, 0.0, 1.0)
    g = godunov_reference(m, data, 50, 0.5, window=(-1.0, 2.0))
    assert g.values.tolist() == pp.cell_average(data, g.breakpoints).densities.tolist()


def test_godunov_starts_from_the_data_inside_its_hint():
    # u0 is zero outside the support hint, for Godunov as for the particles;
    # sampling the untruncated step tails on the padded mesh added mass
    m = pp.builtin_flux("lwr")
    data = pp.riemann_data(0.2, 0.8, window=(-1.0, 1.0))
    g = godunov_reference(m, data, 200, 1e-9)
    assert g.integral() == pytest.approx(1.0, abs=1e-12)


def test_godunov_mass_constant_in_time(burgers3):
    data = pp.box_data(1.5, 0.0, 1.0)
    m = pp.builtin_flux("burgers", u_high=1.5 * (1 + 1e-9))
    window = (-1.0, 3.0)
    g0 = godunov_reference(m, data, 1000, 1e-9, window=window)
    gT = godunov_reference(m, data, 1000, 0.5, window=window)
    assert gT.integral() == pytest.approx(g0.integral(), abs=1e-12 * g0.integral())


def test_godunov_demo_accuracy(burgers3):
    data = pp.rarefaction_shock_data()
    g = godunov_reference(burgers3, data, 4000, 0.25)
    exact = burgers_rarefaction_shock()
    err = pp.l1_error_against(g, exact, 0.25, (-1.0, 2.0))
    assert err <= 0.02


def test_godunov_linear_flux_transport():
    # f(u) = u is pure transport at unit speed; the upwind solution smears
    # the box edges by O(sqrt(dx T)); measured at this mesh the L1 gap to
    # the shifted data stays below 0.05
    oracle = MonotoneOracle(lambda u: np.ones_like(np.asarray(u, dtype=float)), increasing=True)
    m = FluxModel("linear", lambda u: np.asarray(u, dtype=float), 1.0, 1.0, 2.0, extremum_oracle=oracle)
    data = pp.box_data(1.0, 0.0, 1.0)
    T = 0.5
    g = godunov_reference(m, data, 2000, T, window=(-1.0, 3.0))
    shifted = pp.PiecewiseConstantFn(np.array([0.0 + T, 1.0 + T]), np.array([1.0]))
    assert g.l1_distance(shifted) <= 0.05
    assert g.l1_distance(shifted) >= 1e-4  # smearing is real


def quadratic_flux(name, c, b, top):
    """f = c u^2 + b u on [0, top], with a = c u + b rising where c > 0."""
    a = lambda u: c * np.asarray(u, dtype=float) + b
    f = lambda u: np.asarray(u, dtype=float) * a(u)
    lip_f = max(abs(b), abs(2.0 * c * top + b))
    return FluxModel(name, f, b, lip_f, top, 2.0 * abs(c), extremum_oracle=MonotoneOracle(a, increasing=c > 0))


def test_riemann_vs_godunov_random_pairs():
    # the custom quadratics turn where no builtin does: f = -u^2/2 falls
    # (node 0 only), f = u^2 - u is convex with its vertex at u = 1/2
    rng = np.random.default_rng(12)
    models = {
        "burgers": (pp.builtin_flux("burgers", u_high=2.0), [0.0]),
        "lwr": (pp.builtin_flux("lwr", u_high=1.0), [0.0, 0.5]),
        "falling": (quadratic_flux("falling", -0.5, 0.0, 2.0), [0.0]),  # f = -u^2/2
        "convex": (quadratic_flux("convex", 1.0, -1.0, 2.0), [0.0, 0.5]),  # f = u^2 - u
    }
    for name, (m, nodes) in models.items():
        # the vertex is the closed form, not a grid point near it
        assert reference._flux_nodes(m, m.u_high).tolist() == nodes, name
        for _ in range(3):
            u_l, u_r = rng.uniform(0.05, m.u_high, size=2)
            sol = riemann_solution(m, u_l, u_r)
            data = pp.riemann_data(u_l, u_r, x0=0.0, window=(-3.0, 3.0))
            g = godunov_reference(m, data, 2000, 0.5, window=(-3.0, 3.0))
            err = pp.l1_error_against(g, sol, 0.5, (-1.5, 1.5))
            assert err <= 0.05, (name, u_l, u_r, err)


def test_godunov_takes_a_table_flux_from_its_nodes():
    # a concave table: the max of f over [0.3, 0.7] is its node value
    # f(0.5) = 0.25, read from the table's own nodes
    us = np.linspace(0.0, 1.0, 9)
    m = pp.builtin_flux("tabulated", us=us, fs=us * (1.0 - us))
    assert reference._flux_nodes(m, 0.7) is m.extremum_oracle.nodes
    g = godunov_reference(m, pp.riemann_data(0.7, 0.3), 2, 0.5, window=(-1.0, 1.0))
    # one step of h / dx = 0.5 on two cells, which share the interface
    f_l, f_r = float(m.eval_f(0.7)), float(m.eval_f(0.3))
    assert g.values.tolist() == [0.7 - 0.5 * (0.25 - f_l), 0.3 - 0.5 * (f_r - 0.25)]


def test_godunov_takes_lwr_at_its_vertex():
    # the same two cells under lwr, whose quadratic f turns at u_max / 2:
    # the interface flux is f(0.5) = 0.25 exactly, not f near the vertex
    m = pp.builtin_flux("lwr", u_high=1.0)
    g = godunov_reference(m, pp.riemann_data(0.7, 0.3), 2, 0.5, window=(-1.0, 1.0))
    f_l, f_r = float(m.eval_f(0.7)), float(m.eval_f(0.3))
    assert g.values.tolist() == [0.7 - 0.5 * (0.25 - f_l), 0.3 - 0.5 * (f_r - 0.25)]


def test_godunov_calls_a_table_flux_once_for_its_nodes_then_once_per_step():
    # the nodes' values before the loop, then one call per step on the
    # padded row of cells, never on the interfaces' two ends
    us = np.linspace(0.0, 1.0, 65)
    base = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    calls = []

    def counting(u):
        calls.append(np.shape(u))
        return base.eval_f(u)

    m = dataclasses.replace(base, eval_f=counting)
    data = pp.box_data(0.8, 0.0, 1.0)
    g = godunov_reference(m, data, 100, 0.5)
    assert g.values.tobytes() == godunov_reference(base, data, 100, 0.5).values.tobytes()
    dx = (g.breakpoints[-1] - g.breakpoints[0]) / 100
    dt, t, steps = 0.9 * dx / base.lip_f, 0.0, 0
    while t < 0.5 - 1e-15:
        t += min(dt, 0.5 - t)
        steps += 1
    assert calls == [us.shape] + [(102,)] * steps


def concatenating_godunov(model, data, cells, T, window):
    """Godunov's loop as it was when each step concatenated a new padded row
    and a new ``u``: the values and the length of the last step."""
    x_lo, x_hi = window
    dx = (x_hi - x_lo) / cells
    dt = 0.9 * dx / max(model.lip_f, 1e-300)
    u = pp.cell_average(data, np.linspace(x_lo, x_hi, cells + 1)).densities
    nodes = reference._flux_nodes(model, data.sup_u0 * (1.0 + 1e-12))
    table = _RangeExtrema(np.asarray(model.eval_f(nodes), dtype=float))
    t, h = 0.0, 0.0
    while t < T - 1e-15 * max(1.0, T):
        h = min(dt, T - t)
        padded = np.concatenate([[u[0]], u, [u[-1]]])
        flux = entropic_row(model.eval_f, nodes, table, padded)
        u = u - (h / dx) * (flux[1:] - flux[:-1])
        t += h
    return u, h, dt


@pytest.mark.parametrize("cells", [2, 3, 500])
@pytest.mark.parametrize("kind", ["nonconvex_table", "burgers"])
def test_godunov_steps_in_place_bit_for_bit(kind, cells):
    # the padded row stepped in place gives the bytes of a new row per step,
    # on a table and on a convex builtin, whose one node is 0, with a short
    # last step
    if kind == "burgers":
        m = pp.builtin_flux("burgers", u_high=1.0)
    else:
        us = np.linspace(0.0, 1.0, 65)  # nonconvex_tabulated's table
        m = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1))
    data = pp.sampled_data(np.linspace(0.0, 1.0, 9), [0.0, 0.3, 0.8, 0.5, 0.6, 0.1, 0.7, 0.4, 0.0])
    window, T = (0.05, 0.95), 1.37  # nonzero end cells, which the pads copy
    got = godunov_reference(m, data, cells, T, window=window)
    want, last, dt = concatenating_godunov(m, data, cells, T, window)
    assert 0.0 < last < dt < T
    assert got.values.tobytes() == want.tobytes()


def test_godunov_rejects_a_flux_it_would_have_to_scan():
    # non-convex and not monotone on [0, 1], with a closed form but no table:
    # Godunov has no exact interface flux for it until it is sampled
    def f(u):
        u = np.asarray(u, dtype=float)
        return u * ((u - 0.5) ** 2 - 0.1)

    closed = FluxModel("cubic", f, 0.15, 1.0, 1.0, extremum_oracle=MonotoneOracle(f, increasing=True))
    data = pp.box_data(0.9, 0.0, 1.0)
    with pytest.raises(ValueError, match=r"builtin_flux\('tabulated'\)"):
        godunov_reference(closed, data, 200, 0.1)
    us = np.linspace(0.0, 1.0, 65)
    sampled = pp.builtin_flux("tabulated", us=us, fs=f(us), u_high=0.9 * (1 + 1e-12))
    window = (-1.0, 2.0)
    g0 = godunov_reference(sampled, data, 600, 1e-9, window=window)
    gT = godunov_reference(sampled, data, 600, 0.5, window=window)
    assert gT.integral() == pytest.approx(g0.integral(), abs=1e-12 * g0.integral())


@pytest.mark.parametrize("u_l, u_r", [(0.1, 0.9), (0.0, 0.8), (0.7, 0.05)])
def test_godunov_converges_to_the_envelope_fan(u_l, u_r):
    # the benchmark's non-convex flux; these fans have 30, 21 and 8 fronts
    us = np.linspace(0.0, 1.0, 65)
    m = pp.builtin_flux("tabulated", us=us, fs=us * ((us - 0.5) ** 2 - 0.1), u_high=max(u_l, u_r) * (1 + 1e-12))
    sol = riemann_solution(m, u_l, u_r)
    data = pp.riemann_data(u_l, u_r, x0=0.0, window=(-2.0, 2.0))
    coarse, fine = (
        pp.l1_error_against(godunov_reference(m, data, cells, 0.5, window=(-2.0, 2.0)), sol, 0.5, (-1.5, 1.5))
        for cells in (2000, 8000)
    )
    # order 1/2 halves the distance; measured ratios are 0.36 to 0.51
    assert fine < 0.75 * coarse, (coarse, fine)
