import numpy as np
import pytest

import particle_paths as pp
from particle_paths.flux import FluxModel, VelocityExtrema


@pytest.fixture(scope="session")
def burgers3():
    return pp.builtin_flux("burgers", u_high=3.0 * (1 + 1e-12))


@pytest.fixture(scope="session")
def lwr1():
    return pp.builtin_flux("lwr", u_high=0.8 * (1 + 1e-12))


@pytest.fixture(scope="session")
def rarefaction_shock_run(burgers3):
    """Burgers demonstration profile, N=101, T=0.25, dt_max=1e-4."""
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 101, "uniform"))
    return pp.simulate(burgers3, state0, 0.25, dt_max=1e-4, data=data)


@pytest.fixture(scope="session")
def lwr_riemann_run(lwr1):
    """LWR step 0.2 -> 0.8, N=101, T=0.5, dt_max=1e-4."""
    data = pp.riemann_data(0.2, 0.8, x0=0.0, window=(-2.0, 2.0), measure_window=(-1.0, 1.0))
    state0 = pp.cell_average(data, pp.place_particles(data, 101, "uniform"))
    return pp.simulate(lwr1, state0, 0.5, dt_max=1e-4, data=data)


def cubic_flux_model(u_high: float) -> FluxModel:
    """Non-convex monotone flux u^3/3 - u^2/2 + u/2 with analytic extrema of a."""

    def f(u):
        u = np.asarray(u, dtype=float)
        return u**3 / 3.0 - u**2 / 2.0 + u / 2.0

    def a(u):
        u = np.asarray(u, dtype=float)
        return u**2 / 3.0 - u / 2.0 + 0.5

    def oracle(lo, hi):
        vert = 0.75  # vertex of the quadratic a
        u_min = np.clip(vert, lo, hi)
        u_max = np.where(vert - lo >= hi - vert, lo, hi)
        return VelocityExtrema(a(u_min), a(u_max))

    return FluxModel(
        name="cubic",
        eval_f=f,
        fprime0=0.5,
        lip_f=max(0.5, u_high**2 - u_high + 0.5),
        u_high=u_high,
        lip_fprime=max(1.0, abs(2.0 * u_high - 1.0)),
        extremum_oracle=oracle,
    )
