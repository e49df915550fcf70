"""Reconstructions built on top of a particle state.

The density reconstruction is the piecewise constant function carrying
each cell's density between its particles and zero outside: a
``PiecewiseAffineFn`` whose pieces are flat, so its integral and its L1
distance to another piecewise function are that class's closed forms.
The velocity interpolant is the continuous piecewise linear function
whose node at particle i is that particle's interface velocity
(``np.interp`` over the particle positions, constant beyond the end
particles); the flux residual integrates |velocity * density -
flux(density)| exactly, cell by cell, since the integrand is affine
between particles up to one sign change.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .dynamics import Trajectory
from .flux import FluxModel
from .initial import ParticleState, PiecewiseAffineFn, integrate
from .velocity import particle_velocities

__all__ = [
    "PiecewiseConstantFn",
    "reconstruct_density",
    "flux_residual_l1",
    "spacetime_flux_residual",
    "trace_characteristic",
]


class PiecewiseConstantFn(PiecewiseAffineFn):
    """Step function: ``values`` between consecutive ``breakpoints``, zero outside."""

    def __init__(self, breakpoints, values):
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or vals.shape != (bp.size - 1,):
            raise ValueError("need n breakpoints and n-1 values")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("non-finite reconstruction")
        super().__init__(bp, vals, vals)

    breakpoints = property(lambda self: self.x)
    values = property(lambda self: self.left)


def reconstruct_density(state: ParticleState) -> PiecewiseConstantFn:
    """Piecewise constant density carried by the particles."""
    return PiecewiseConstantFn(state.positions.copy(), state.densities.copy())


def flux_residual_l1(model: FluxModel, state):
    """Integral of |A(x) v(x) - f(v(x))| at the state's time.

    A is the velocity interpolant, v the density reconstruction.  Within
    each cell the integrand is |affine|, integrated in closed form with a
    sign-change split, so there is no quadrature error.  Outside the
    particle range v = 0 and f(0) = 0, so nothing contributes.  A row
    block (``Trajectory.blocks``) gives an array with each row's value,
    the same bits as a call on that row's snapshot.
    """
    vel = particle_velocities(model, state)
    dens = state.densities
    f = np.asarray(model.eval_f(dens), dtype=float)
    cells = integrate(vel[..., :-1] * dens - f, vel[..., 1:] * dens - f, state.widths)
    value = np.sum(np.where(dens == 0.0, 0.0, cells), axis=-1)
    return float(value) if value.ndim == 0 else value


def spacetime_flux_residual(traj: Trajectory) -> Tuple[float, float]:
    """Time-integrated flux residual over the whole run.

    Uses the trapezoid rule over snapshot times; collision times appear
    twice (pre/post), so the quadrature naturally splits there.  The
    residuals are taken a row block of snapshots at a time.  Returns the
    value together with the largest snapshot spacing used.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    times = traj.times
    residuals = np.concatenate([flux_residual_l1(traj.model, block) for block in traj.blocks()])
    dts = np.diff(times)
    value = float(np.sum(0.5 * (residuals[1:] + residuals[:-1]) * dts))
    return value, float(np.max(dts))


def trace_characteristic(traj: Trajectory, x_start: float, t_start: float) -> Tuple[np.ndarray, np.ndarray]:
    """Euler path through the interpolated velocity field of a run.

    The field is held fixed over each snapshot interval (matching the
    first-order accuracy of the run itself) and the path takes one Euler
    step per interval.  Returns (times, xs).
    """
    times = traj.times
    if not times[0] <= t_start <= times[-1]:
        raise ValueError(f"start time {t_start} outside trajectory span")
    ts = [float(t_start)]
    xs = [float(x_start)]
    x = float(x_start)
    for block in traj.blocks():
        # one kernel call per row block; the last snapshot starts no interval
        for j, pos, vel in zip(range(block.start, times.size - 1), block.positions, particle_velocities(traj.model, block)):
            t0, t1 = times[j], times[j + 1]
            if t1 <= t_start or t1 <= t0:
                continue
            x += (t1 - max(t0, t_start)) * float(np.interp(x, pos, vel))
            ts.append(float(t1))
            xs.append(x)
    return np.asarray(ts), np.asarray(xs)
