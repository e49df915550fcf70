from types import SimpleNamespace

import numpy as np
import pytest

import particle_paths as pp
from particle_paths.flux import FluxModel, PiecewiseMonotoneOracle


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
    """Non-convex monotone flux u^3/3 - u^2/2 + u/2; a turns only at its vertex u = 3/4.

    f' = u^2 - u + 1/2 > 0, so a and f are both monotone between the nodes
    [0, 0.75], as the oracle's contract asks.
    """

    def f(u):
        u = np.asarray(u, dtype=float)
        return u**3 / 3.0 - u**2 / 2.0 + u / 2.0

    def a(u):
        u = np.asarray(u, dtype=float)
        return u**2 / 3.0 - u / 2.0 + 0.5

    return FluxModel(
        name="cubic",
        eval_f=f,
        fprime0=0.5,
        lip_f=max(0.5, u_high**2 - u_high + 0.5),
        u_high=u_high,
        lip_fprime=max(1.0, abs(2.0 * u_high - 1.0)),
        extremum_oracle=PiecewiseMonotoneOracle(a, [0.0, 0.75]),
    )


def pair_velocities(model, v_l, v_r) -> np.ndarray:
    """V(v_l[i], v_r[i]) through the package kernel.

    Each pair is the two cells around one particle: column 1 of
    ``particle_velocities`` on the (..., 2) block of pairs.
    """
    pairs = np.stack([np.asarray(v_l, dtype=float), np.asarray(v_r, dtype=float)], axis=-1)
    return pp.particle_velocities(model, SimpleNamespace(densities=pairs))[..., 1]
