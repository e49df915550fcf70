"""Reference solutions: closed-form entropy solutions and a finite volume oracle.

The Riemann solver covers convex or concave fluxes (shock via the
Rankine-Hugoniot speed when characteristics converge, rarefaction through
the inverse of f' otherwise).  The Godunov finite volume scheme is an
independent first-order baseline used to cross-check runs where no closed
form exists; its interface flux is the min of f over [u_l, u_r] for
u_l <= u_r and the max over [u_r, u_l] otherwise, evaluated with the
classical closed forms for monotone, convex, and concave fluxes, and
exactly at the ends and table nodes for a tabulated (piecewise linear)
flux; any other flux has to be sampled into a tabulated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .field import PiecewiseConstantFn
from .flux import FluxModel, TabulatedOracle
from .initial import InitialData, cell_average

__all__ = [
    "ExactSolution",
    "burgers_rarefaction_shock",
    "riemann_solution",
    "godunov_reference",
]


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form entropy solution u(x, t) with a validity window in time.

    ``eval`` takes arrays of x and must be affine in x between consecutive
    ``breakpoints_at(t)``: the L1 error integrates it in closed form and
    raises ``ValueError`` naming a piece where it is not affine.
    """

    eval: Callable
    description: str
    t_valid: Tuple[float, float]
    breakpoints_at: Optional[Callable] = None

    def __call__(self, x, t):
        lo, hi = self.t_valid
        if not lo <= t < hi:
            raise ValueError(f"t = {t} outside validity window [{lo}, {hi})")
        return self.eval(x, t)


def burgers_rarefaction_shock() -> ExactSolution:
    """Entropy solution for the quadratic flux u^2/2 with data 3 on (0,1), 1 elsewhere.

    A rarefaction fan x/t opens on (t, 3t) while the 3-to-1 jump travels as
    a shock along x = 1 + 2t (Rankine-Hugoniot: (9/2 - 1/2)/(3 - 1) = 2).
    The fan head meets the shock at t = 1, which caps the window.
    """

    def eval_u(x, t):
        x = np.asarray(x, dtype=float)
        if t == 0.0:
            out = np.where((x > 0.0) & (x < 1.0), 3.0, 1.0)
            return out if out.ndim else float(out)
        fan = (x > t) & (x < 3.0 * t)
        plateau = (x >= 3.0 * t) & (x < 1.0 + 2.0 * t)
        out = np.where(fan, x / t, np.where(plateau, 3.0, 1.0))
        return out if out.ndim else float(out)

    def cuts(t):
        if t == 0.0:
            return (0.0, 1.0)
        return (t, 3.0 * t, 1.0 + 2.0 * t)

    return ExactSolution(
        eval=eval_u,
        description="rarefaction into shock, quadratic flux",
        t_valid=(0.0, 1.0),
        breakpoints_at=cuts,
    )


def _second_difference_scan(model: FluxModel, lo: float, hi: float, n: int = 1000):
    us = np.linspace(lo, hi, n)
    fs = np.asarray(model.eval_f(us), dtype=float)
    d2 = np.diff(fs, 2)
    scale = max(1.0, float(np.max(np.abs(fs))))
    tol = 1e-10 * scale
    convex = bool(np.all(d2 >= -tol))
    concave = bool(np.all(d2 <= tol))
    return convex, concave


def _fprime(model: FluxModel, u: float, h: float) -> float:
    u = max(u, 0.0)
    lo = max(u - h, 0.0)
    hi = u + h
    return (float(model.eval_f(hi)) - float(model.eval_f(lo))) / (hi - lo)


def riemann_solution(model: FluxModel, u_l: float, u_r: float, x0: float = 0.0) -> ExactSolution:
    """Entropy solution of the two-state problem for convex or concave flux.

    Characteristics converging (f'(u_l) > f'(u_r)) produce a shock moving
    with the Rankine-Hugoniot speed; diverging characteristics open a
    rarefaction obtained by inverting f' between the states.  Fluxes that
    are neither convex nor concave between the states are rejected (use
    the finite volume oracle there).
    """
    u_l = float(u_l)
    u_r = float(u_r)
    if u_l < 0 or u_r < 0:
        raise ValueError("states must be nonnegative")
    lo, hi = min(u_l, u_r), max(u_l, u_r)
    if lo == hi:
        c = u_l

        def eval_const(x, t):
            out = np.full_like(np.asarray(x, dtype=float), c)
            return out if out.ndim else float(out)

        return ExactSolution(eval_const, f"constant {c}", (0.0, np.inf), lambda t: ())

    convex, concave = _second_difference_scan(model, lo, hi)
    if not (convex or concave):
        raise ValueError("flux is neither convex nor concave between the states")

    h = 1e-7 * max(1.0, hi)
    s_l = _fprime(model, u_l, h)
    s_r = _fprime(model, u_r, h)

    if s_l >= s_r:
        speed = (float(model.eval_f(u_l)) - float(model.eval_f(u_r))) / (u_l - u_r)

        def eval_shock(x, t):
            x = np.asarray(x, dtype=float)
            out = np.where(x < x0 + speed * t, u_l, u_r)
            return out if out.ndim else float(out)

        return ExactSolution(
            eval_shock,
            f"shock {u_l} -> {u_r} at speed {speed:.6g}",
            (0.0, np.inf),
            lambda t: (x0 + speed * t,),
        )

    # rarefaction: invert f' between the states (monotone there)
    us = np.linspace(lo, hi, 4097)
    fps = np.array([_fprime(model, float(u), h) for u in us])
    order = np.argsort(fps, kind="stable")
    fps_sorted = fps[order]
    us_sorted = us[order]

    def eval_fan(x, t):
        x = np.asarray(x, dtype=float)
        if t == 0.0:
            out = np.where(x < x0, u_l, u_r)
            return out if out.ndim else float(out)
        xi = (x - x0) / t
        fan_val = np.interp(xi, fps_sorted, us_sorted)
        out = np.where(xi <= s_l, u_l, np.where(xi >= s_r, u_r, fan_val))
        return out if out.ndim else float(out)

    return ExactSolution(
        eval_fan,
        f"rarefaction {u_l} -> {u_r}",
        (0.0, np.inf),
        # the fan is affine between its interpolation nodes
        lambda t: (x0 + s_l * t, x0 + s_r * t, *(x0 + fps_sorted * t)) if t > 0 else (x0,),
    )


def _classify_flux(model: FluxModel, u_top: float, n: int = 2001):
    us = np.linspace(0.0, u_top, n)
    fs = np.asarray(model.eval_f(us), dtype=float)
    scale = max(1.0, float(np.max(np.abs(fs))))
    d1 = np.diff(fs)
    d2 = np.diff(fs, 2)
    tol = 1e-12 * scale
    if np.all(d1 >= -tol):
        return "nondecreasing", None
    if np.all(d1 <= tol):
        return "nonincreasing", None
    if np.all(d2 >= -tol):
        i = int(np.argmin(fs))
        return "convex", float(us[i])
    if np.all(d2 <= tol):
        i = int(np.argmax(fs))
        return "concave", float(us[i])
    return "general", None


def godunov_reference(
    model: FluxModel,
    data: InitialData,
    cells: int,
    T: float,
    dt: Optional[float] = None,
    window: Optional[Tuple[float, float]] = None,
    cfl: float = 0.9,
) -> PiecewiseConstantFn:
    """First-order Godunov finite volume solution at time T.

    The uniform mesh covers the data's support hint expanded by the maximal
    wave travel distance (unless ``window`` is given).  It starts from the
    exact cell averages of u0, zero outside the hint.  Boundary cells copy
    their edge values, which is exact as long as the data is constant near
    the window edges.  The time step obeys dt * lip_f / dx <= cfl.  A flux
    that is not monotone, convex or concave on the data's range raises
    ``ValueError`` unless it is tabulated.
    """
    if cells < 2:
        raise ValueError("need at least two cells")
    if window is None:
        pad = T * model.lip_f + 1e-9
        window = (data.support_hint[0] - pad, data.support_hint[1] + pad)
    x_lo, x_hi = window
    dx = (x_hi - x_lo) / cells
    if dt is None:
        dt = cfl * dx / max(model.lip_f, 1e-300)
    elif dt * model.lip_f / dx > cfl + 1e-12:
        raise ValueError(f"CFL violation: dt*lip/dx = {dt * model.lip_f / dx:.3g} > {cfl}")

    edges = np.linspace(x_lo, x_hi, cells + 1)
    u = cell_average(data, edges).densities

    kind, u_star = _classify_flux(model, max(data.sup_u0 * (1.0 + 1e-12), 1e-300))
    if kind == "general" and not isinstance(model.extremum_oracle, TabulatedOracle):
        raise ValueError(
            f"flux '{model.name}' is not monotone, convex or concave on the data's range: "
            "sample it into builtin_flux('tabulated') for an exact interface flux"
        )
    f = model.eval_f

    def interface_flux(ul, ur):
        if kind == "nondecreasing":
            return np.asarray(f(ul), dtype=float)
        if kind == "nonincreasing":
            return np.asarray(f(ur), dtype=float)
        if kind == "convex":
            return np.maximum(f(np.maximum(ul, u_star)), f(np.minimum(ur, u_star)))
        if kind == "concave":
            return np.minimum(f(np.minimum(ul, u_star)), f(np.maximum(ur, u_star)))
        # piecewise linear f: exact, its extrema sit at the ends or nodes
        ext = model.extremum_oracle.flux_extrema(np.minimum(ul, ur), np.maximum(ul, ur))
        return np.where(ul <= ur, ext.min_value, ext.max_value)

    t = 0.0
    while t < T - 1e-15 * max(1.0, T):
        h = min(dt, T - t)
        padded = np.concatenate([[u[0]], u, [u[-1]]])
        flux = interface_flux(padded[:-1], padded[1:])
        u = u - (h / dx) * (flux[1:] - flux[:-1])
        t += h
    return PiecewiseConstantFn(edges, u)
