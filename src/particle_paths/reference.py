"""Reference solutions: closed-form entropy solutions and a finite volume oracle.

The Riemann solver is exact: envelope fronts for a tabulated flux, and a
shock or a fan linear in x/t for a quadratic flux such as burgers or
lwr.  The Godunov finite volume scheme is an
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
from .initial import InitialData, PiecewiseAffineFn, cell_average

__all__ = [
    "ExactSolution",
    "burgers_rarefaction_shock",
    "riemann_solution",
    "godunov_reference",
]


@dataclass(frozen=True)
class ExactSolution:
    """Closed-form entropy solution with a validity window in time.

    ``profile(t)`` is u(., t) as a ``PiecewiseAffineFn``; the L1 error
    integrates against its pieces in closed form.
    """

    profile: Callable[[float], PiecewiseAffineFn]
    description: str
    t_valid: Tuple[float, float]

    def at(self, t) -> PiecewiseAffineFn:
        lo, hi = self.t_valid
        if not lo <= t < hi:
            raise ValueError(f"t = {t} outside validity window [{lo}, {hi})")
        return self.profile(t)

    def __call__(self, x, t):
        return self.at(t)(x)


def burgers_rarefaction_shock() -> ExactSolution:
    """Entropy solution for the quadratic flux u^2/2 with data 3 on (0,1), 1 elsewhere.

    A rarefaction fan x/t opens on (t, 3t) while the 3-to-1 jump travels as
    a shock along x = 1 + 2t (Rankine-Hugoniot: (9/2 - 1/2)/(3 - 1) = 2).
    The fan head meets the shock at t = 1, which caps the window.
    """

    def profile(t):
        if t == 0.0:
            return PiecewiseAffineFn((0.0, 1.0), (3.0,), (3.0,), 1.0, 1.0)
        return PiecewiseAffineFn((t, 3.0 * t, 1.0 + 2.0 * t), (1.0, 3.0), (3.0, 3.0), 1.0, 1.0)

    return ExactSolution(profile, "rarefaction into shock, quadratic flux", (0.0, 1.0))


def _fronts(x0: float, speeds, states, description: str) -> ExactSolution:
    """Self-similar solution: ``states[k]`` between fronts k - 1 and k, the
    fronts at ``x0 + speeds * t`` for nondecreasing ``speeds``.  A point on
    a front takes the state to its right."""
    speeds = np.asarray(speeds, dtype=float)
    inner = np.asarray(states[1:-1], dtype=float)
    profile = lambda t: PiecewiseAffineFn(x0 + speeds * t, inner, inner, states[0], states[-1])
    return ExactSolution(profile, description, (0.0, np.inf))


def _envelope(model: FluxModel, u_l: float, u_r: float):
    """States and front speeds, from u_l to u_r, of the envelope of a polygonal f.

    The lower convex envelope for u_l < u_r and the upper concave one
    otherwise, over the two states and the table nodes between them: a
    monotone chain (Andrew 1979) that keeps its edge slopes strictly
    increasing, so the speeds come out strictly increasing.
    """
    lo, hi = min(u_l, u_r), max(u_l, u_r)
    us = model.extremum_oracle.us
    if hi > us[-1]:
        raise ValueError(f"state {hi} lies beyond the flux table, which ends at u = {us[-1]}")
    pts = np.concatenate([[lo], us[(us > lo) & (us < hi)], [hi]])
    sign = 1.0 if u_l < u_r else -1.0
    g = sign * np.asarray(model.eval_f(pts), dtype=float)
    hull, slopes = [0], []
    for j in range(1, pts.size):
        while True:
            s = (g[j] - g[hull[-1]]) / (pts[j] - pts[hull[-1]])
            if not slopes or s > slopes[-1]:
                break
            hull.pop()
            slopes.pop()
        hull.append(j)
        slopes.append(s)
    states, speeds = pts[hull], sign * np.array(slopes)
    return (states, speeds) if sign > 0 else (states[::-1], speeds[::-1])


def riemann_solution(model: FluxModel, u_l: float, u_r: float, x0: float = 0.0) -> ExactSolution:
    """Exact entropy solution of the two-state problem.

    It follows the lower convex envelope of f between the states when
    u_l < u_r and the upper concave one otherwise (Oleinik's chord
    condition; Dafermos 1972).  A tabulated flux is polygonal, so its
    envelope is a finite fan of fronts, one per envelope edge, each moving
    with the edge's slope.  Any other flux must be quadratic with
    f(0) = 0, as burgers and lwr are: then a is affine and
    f'(u) = 2 a(u) - a(0), so converging characteristics give one shock at
    the Rankine-Hugoniot speed and diverging ones a fan linear in x/t.  A
    flux whose a is not affine between the states raises ``ValueError``:
    sample it into ``builtin_flux("tabulated")``.
    """
    u_l = float(u_l)
    u_r = float(u_r)
    x0 = float(x0)
    if u_l < 0 or u_r < 0:
        raise ValueError("states must be nonnegative")
    if u_l == u_r:
        return _fronts(x0, (), (u_l,), f"constant {u_l}")
    if isinstance(model.extremum_oracle, TabulatedOracle):
        states, speeds = _envelope(model, u_l, u_r)
    else:
        a_l, a_m, a_r = (float(a) for a in model.eval_a(np.array([u_l, 0.5 * u_l + 0.5 * u_r, u_r])))
        if not abs((a_l - a_m) + (a_r - a_m)) <= 1e-12 * (abs(a_l) + abs(a_m) + abs(a_r)):
            raise ValueError(
                f"flux '{model.name}' is not quadratic between the states: "
                "sample it into builtin_flux('tabulated') for its exact Riemann solution"
            )
        s_l = 2.0 * a_l - model.fprime0
        s_r = 2.0 * a_r - model.fprime0
        if s_l < s_r:
            fan = lambda t: PiecewiseAffineFn(x0 + np.array([s_l, s_r]) * t, (u_l,), (u_r,), u_l, u_r)
            return ExactSolution(fan, f"rarefaction {u_l} -> {u_r}", (0.0, np.inf))
        states = (u_l, u_r)
        speeds = ((float(model.eval_f(u_l)) - float(model.eval_f(u_r))) / (u_l - u_r),)
    if len(speeds) == 1:
        return _fronts(x0, speeds, states, f"shock {u_l} -> {u_r} at speed {speeds[0]:.6g}")
    return _fronts(x0, speeds, states, f"{len(speeds)} fronts {u_l} -> {u_r}")


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
    window: Optional[Tuple[float, float]] = None,
) -> PiecewiseConstantFn:
    """First-order Godunov finite volume solution at time T.

    The uniform mesh covers the data's support hint expanded by the maximal
    wave travel distance (unless ``window`` is given).  It starts from the
    exact cell averages of u0, zero outside the hint.  Boundary cells copy
    their edge values, which is exact as long as the data is constant near
    the window edges.  The time step is dt = 0.9 dx / lip_f.  A flux
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
    dt = 0.9 * dx / max(model.lip_f, 1e-300)

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
