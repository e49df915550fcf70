"""Reference solutions: closed-form entropy solutions and a finite volume oracle.

The Riemann solver is exact: envelope fronts for a tabulated flux, and a
shock or a fan linear in x/t for a quadratic flux such as burgers or
lwr.  The Godunov finite volume scheme is an
independent first-order baseline used to cross-check runs where no closed
form exists; its interface flux is the min of f over [u_l, u_r] for
u_l <= u_r and the max over [u_r, u_l] otherwise (the particles' rule on
f), searched over the ends and the nodes the flux model names: an
oracle's nodes, or the vertex of a quadratic f.  Both solvers take "is f
quadratic" from one affine test of the oracle's a; any other flux has to
be sampled into a tabulated one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .field import PiecewiseConstantFn
from .flux import FluxModel, PiecewiseMonotoneOracle, TabulatedOracle, _RangeExtrema, entropic_row
from .initial import InitialData, PiecewiseAffineFn, cell_average, finite_window

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
    nodes = model.extremum_oracle.nodes
    if hi > nodes[-1]:
        raise ValueError(f"state {hi} lies beyond the flux table, which ends at u = {nodes[-1]}")
    pts = np.concatenate([[lo], nodes[(nodes > lo) & (nodes < hi)], [hi]])
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


def _affine_ends(model: FluxModel, lo: float, hi: float):
    """a(lo) and a(hi) from the oracle's ``a_of``; ``ValueError`` unless a at
    lo, the midpoint and hi is affine, so f = u a(u) quadratic, on [lo, hi]."""
    a_lo, a_mid, a_hi = (float(a) for a in model.extremum_oracle.a_of(np.array([lo, 0.5 * lo + 0.5 * hi, hi])))
    # an affine a(u) = a(0) + k u rounds to within ulps of |a(0)| + |k u|,
    # which a near 0 hides: lwr's a(1) = 0 but a(0.99999) = 1 - 0.99999
    scale = abs(a_lo) + abs(a_mid) + abs(a_hi) + abs(model.fprime0)
    if not abs((a_lo - a_mid) + (a_hi - a_mid)) <= 1e-12 * scale:
        raise ValueError(f"flux '{model.name}' is not quadratic on [{lo}, {hi}]: sample it into builtin_flux('tabulated')")
    return a_lo, a_hi


def riemann_solution(model: FluxModel, u_l: float, u_r: float, x0: float = 0.0) -> ExactSolution:
    """Exact entropy solution of the two-state problem.

    It follows the lower convex envelope of f between the states when
    u_l < u_r and the upper concave one otherwise (Oleinik's chord
    condition; Dafermos 1972).  A tabulated flux is polygonal, so its
    envelope is a finite fan of fronts, one per envelope edge, each moving
    with the edge's slope.  Any other flux must be quadratic with
    f(0) = 0, as burgers and lwr are: then the oracle's a is affine and
    f'(u) = 2 a(u) - a(0), so converging characteristics give one shock at
    the Rankine-Hugoniot speed and diverging ones a fan linear in x/t.  A
    flux whose a is not affine between the states raises ``ValueError``:
    sample it into ``builtin_flux("tabulated")``.  So does a state that is
    not finite and nonnegative, and an ``x0`` that is not finite.
    """
    u_l = float(u_l)
    u_r = float(u_r)
    x0 = float(x0)
    if not (0.0 <= u_l < math.inf and 0.0 <= u_r < math.inf):
        raise ValueError("states must be finite and nonnegative")
    if not math.isfinite(x0):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    if u_l == u_r:
        return _fronts(x0, (), (u_l,), f"constant {u_l}")
    if isinstance(model.extremum_oracle, TabulatedOracle):
        states, speeds = _envelope(model, u_l, u_r)
    else:
        a_l, a_r = _affine_ends(model, u_l, u_r)
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


def _flux_nodes(model: FluxModel, u_top: float) -> np.ndarray:
    """Points from 0 between which f is monotone on [0, u_top]: a
    ``PiecewiseMonotoneOracle``'s nodes, or 0 and, inside (0, u_top), the
    vertex of the quadratic f a ``MonotoneOracle`` with affine a gives."""
    if isinstance(model.extremum_oracle, PiecewiseMonotoneOracle):
        return model.extremum_oracle.nodes
    a_0, a_top = _affine_ends(model, 0.0, u_top)
    # f' = a(0) + 2 (a(u_top) - a(0)) u / u_top vanishes at the vertex
    vertex = -a_0 * u_top / (2.0 * (a_top - a_0)) if a_top != a_0 else 0.0
    return np.array([0.0, vertex]) if 0.0 < vertex < u_top else np.zeros(1)


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
    the window edges.  The time step is dt = 0.9 dx / lip_f.  The interface
    flux is the particles' min/max rule on f, ``flux.entropic_row`` over
    the padded row of cells, searched over the two cells and the nodes the
    model names (``_flux_nodes``); f is called once for the nodes' values
    and then once per step.  A ``MonotoneOracle`` whose a is not affine on
    [0, sup u0] raises ``ValueError``, as do a ``cells`` that is not an
    integer of at least 2, a ``T`` that is not finite and nonnegative, a
    ``lip_f`` that is not finite, a ``window`` that is not two finite
    numbers lo < hi, and a window so narrow for its cells that T needs
    more than 1e8 steps, which the loop would not finish.
    """
    if isinstance(cells, bool) or not isinstance(cells, (int, np.integer)):
        raise ValueError(f"cells must be an integer, got {cells!r}")
    if cells < 2:
        raise ValueError("need at least two cells")
    if not (math.isfinite(T) and T >= 0.0):
        raise ValueError(f"T must be finite and nonnegative, got {T!r}")
    if not math.isfinite(model.lip_f):
        raise ValueError(f"flux '{model.name}': lip_f must be finite, got {model.lip_f!r}")
    if window is None:
        pad = T * model.lip_f + 1e-9
        x_lo, x_hi = data.support_hint[0] - pad, data.support_hint[1] + pad
    else:
        x_lo, x_hi = finite_window("window", window)
    dx = (x_hi - x_lo) / cells
    dt = 0.9 * dx / max(model.lip_f, 1e-300)
    # ulp(T) <= 2**-52 T, so this also refuses every dt that cannot advance t
    if dt * 1e8 < T:
        raise ValueError(
            f"window {(x_lo, x_hi)} over {cells} cells gives dt = {dt:.3e}, "
            f"more than 1e8 steps to T = {T!r}"
        )

    edges = np.linspace(x_lo, x_hi, cells + 1)
    # the cells between two pads that copy the end cells before each step
    padded = np.empty(cells + 2)
    padded[1:-1] = cell_average(data, edges).densities

    nodes = _flux_nodes(model, data.sup_u0 * (1.0 + 1e-12))
    table = _RangeExtrema(np.asarray(model.eval_f(nodes), dtype=float))

    t = 0.0
    while t < T - 1e-15 * max(1.0, T):
        h = min(dt, T - t)
        padded[0], padded[-1] = padded[1], padded[-2]
        flux = entropic_row(model.eval_f, nodes, table, padded)
        padded[1:-1] -= (h / dx) * (flux[1:] - flux[:-1])
        t += h
    return PiecewiseConstantFn(edges, padded[1:-1])
