import numpy as np
import pytest

import particle_paths as pp
from particle_paths import burgers_rarefaction_shock, godunov_reference, riemann_solution
from particle_paths.flux import FluxModel, MonotoneOracle

from conftest import cubic_flux_model


def test_demo_solution_branches():
    u = burgers_rarefaction_shock()
    assert u(0.5, 0.25) == pytest.approx(2.0)  # fan: x/t
    assert u(1.4, 0.1) == pytest.approx(1.0)  # beyond the shock
    assert u(1.0, 0.1) == pytest.approx(3.0)  # plateau
    # matches its initial data at t = 0
    assert u(0.5, 0.0) == 3.0 and u(-0.5, 0.0) == 1.0


def test_demo_solution_shock_is_rankine_hugoniot(burgers3):
    # shock speed equals the flux jump over the state jump: (9/2 - 1/2)/2 = 2
    f3 = float(burgers3.eval_f(3.0))
    f1 = float(burgers3.eval_f(1.0))
    speed = (f3 - f1) / (3.0 - 1.0)
    assert speed == 2.0
    u = burgers_rarefaction_shock()
    t = 0.2
    xs = 1.0 + speed * t
    assert u(xs - 1e-9, t) == 3.0 and u(xs + 1e-9, t) == 1.0


def test_demo_solution_validity_window():
    u = burgers_rarefaction_shock()
    with pytest.raises(ValueError):
        u(0.0, 1.0)
    with pytest.raises(ValueError):
        u(0.0, -0.1)


def test_riemann_rarefaction_convex(burgers3):
    # quadratic flux, rising states: fan u = x/t between 0 and 2t; validate
    # against the finite volume oracle at t = 0.5
    sol = riemann_solution(burgers3, 0.0, 2.0)
    assert "rarefaction" in sol.description
    assert tuple(sol.at(0.5).x) == (0.0, 1.0)  # the fan edges, nothing else
    assert sol(0.5, 0.5) == pytest.approx(1.0, abs=1e-4)
    data = pp.riemann_data(0.0, 2.0, x0=0.0, window=(-2.0, 3.0))
    g = pp.godunov_reference(burgers3, data, 4000, 0.5, window=(-2.0, 3.0))
    err = pp.l1_error_against(g, sol, 0.5, (-1.0, 2.0))
    assert err <= 1e-2


def test_riemann_shock_speed(burgers3):
    sol = riemann_solution(burgers3, 2.0, 0.0)
    assert "shock" in sol.description
    # Rankine-Hugoniot speed (f(2) - f(0)) / 2 = 1
    assert sol(0.99, 1.0) == 2.0 and sol(1.01, 1.0) == 0.0


def test_riemann_constant():
    m = pp.builtin_flux("lwr")
    sol = riemann_solution(m, 0.4, 0.4)
    assert sol(123.0, 7.0) == 0.4


def test_riemann_rejects_nonconvex_flux():
    m = cubic_flux_model(1.5)
    with pytest.raises(ValueError, match=r"builtin_flux\('tabulated'\)"):
        riemann_solution(m, 0.1, 1.4)


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
    assert sol(-0.01, 1.0) == 0.2 and sol(0.01, 1.0) == 0.8


def test_godunov_constant_data_exact():
    m = pp.builtin_flux("lwr", u_high=1.0)
    data = pp.riemann_data(0.3, 0.3, x0=0.0, window=(-1.0, 1.0))
    g = godunov_reference(m, data, 200, 0.4, window=(-1.0, 1.0))
    np.testing.assert_allclose(g.values, 0.3, atol=1e-14)


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


def test_riemann_vs_godunov_random_pairs():
    rng = np.random.default_rng(12)
    for name, top in (("burgers", 2.0), ("lwr", 1.0)):
        for _ in range(3):
            u_l, u_r = rng.uniform(0.05, top, size=2)
            m = pp.builtin_flux(name, u_high=top)
            sol = riemann_solution(m, u_l, u_r)
            data = pp.riemann_data(u_l, u_r, x0=0.0, window=(-3.0, 3.0))
            g = godunov_reference(m, data, 2000, 0.5, window=(-3.0, 3.0))
            err = pp.l1_error_against(g, sol, 0.5, (-1.5, 1.5))
            assert err <= 0.05, (name, u_l, u_r, err)


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
