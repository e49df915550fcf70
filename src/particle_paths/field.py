"""Reconstructions built on top of a particle state.

The density reconstruction is the piecewise constant function carrying
each cell's density between its particles and zero outside.  The velocity
interpolant is the continuous piecewise linear function whose node at
particle i is that particle's interface velocity; the flux residual
integrates |velocity * density - flux(density)| exactly, cell by cell,
since the integrand is affine between particles up to one sign change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .dynamics import Trajectory, particle_velocities
from .flux import FluxModel
from .initial import ParticleState, integrate

__all__ = [
    "PiecewiseConstantFn",
    "PiecewiseLinearFn",
    "reconstruct_density",
    "velocity_interpolant",
    "flux_residual_l1",
    "spacetime_flux_residual",
    "trace_characteristic",
]


@dataclass(frozen=True)
class PiecewiseConstantFn:
    """Step function: values between consecutive breakpoints, zero outside."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if bp.ndim != 1 or bp.size < 2 or vals.shape != (bp.size - 1,):
            raise ValueError("need n breakpoints and n-1 values")
        if np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(vals))):
            raise ValueError("non-finite reconstruction")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size) & (x < self.breakpoints[-1])
        out = np.where(inside, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        return out if out.ndim else float(out)

    @property
    def widths(self) -> np.ndarray:
        return np.diff(self.breakpoints)

    def integral(self) -> float:
        return float(np.dot(self.values, self.widths))

    def total_variation(self) -> float:
        padded = np.concatenate([[0.0], self.values, [0.0]])
        return float(np.sum(np.abs(np.diff(padded))))

    def integrate_between(self, a: float, b: float) -> float:
        """Integral over [a, b] (exact; pieces clipped to the window)."""
        if b < a:
            raise ValueError("inverted window")
        left = np.maximum(self.breakpoints[:-1], a)
        right = np.minimum(self.breakpoints[1:], b)
        overlap = np.maximum(right - left, 0.0)
        return float(np.dot(self.values, overlap))

    def l1_distance(self, other: "PiecewiseConstantFn") -> float:
        """Exact L1 distance to another step function (merged breakpoints)."""
        cuts = np.union1d(self.breakpoints, other.breakpoints)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        diff = np.abs(np.asarray(self(mids)) - np.asarray(other(mids)))
        return float(np.dot(diff, np.diff(cuts)))


@dataclass(frozen=True)
class PiecewiseLinearFn:
    """Continuous piecewise linear function, constant beyond the end nodes."""

    nodes: np.ndarray
    node_values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        vals = np.asarray(self.node_values, dtype=float)
        if nodes.ndim != 1 or nodes.size < 1 or vals.shape != nodes.shape:
            raise ValueError("need matching node and value arrays")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.nodes, self.node_values)
        return out if out.ndim else float(out)


def reconstruct_density(state: ParticleState) -> PiecewiseConstantFn:
    """Piecewise constant density carried by the particles."""
    return PiecewiseConstantFn(state.positions.copy(), state.densities.copy())


def velocity_interpolant(model: FluxModel, state: ParticleState) -> PiecewiseLinearFn:
    """Linear interpolation of particle interface velocities.

    Node i carries the interface velocity between cells i-1 and i (with
    vacuum beyond the ends), which is exactly the speed particle i moves
    with, so particles are characteristics of this field.
    """
    return PiecewiseLinearFn(state.positions.copy(), particle_velocities(model, state))


def flux_residual_l1(model: FluxModel, state: ParticleState) -> float:
    """Integral of |A(x) v(x) - f(v(x))| at the state's time.

    A is the velocity interpolant, v the density reconstruction.  Within
    each cell the integrand is |affine|, integrated in closed form with a
    sign-change split, so there is no quadrature error.  Outside the
    particle range v = 0 and f(0) = 0, so nothing contributes.
    """
    vel = particle_velocities(model, state)
    dens = state.densities
    f = np.asarray(model.eval_f(dens), dtype=float)
    cells = integrate(vel[:-1] * dens - f, vel[1:] * dens - f, state.widths)
    return float(np.sum(np.where(dens == 0.0, 0.0, cells)))


def spacetime_flux_residual(traj: Trajectory) -> Tuple[float, float]:
    """Time-integrated flux residual over the whole run.

    Uses the trapezoid rule over snapshot times; collision times appear
    twice (pre/post), so the quadrature naturally splits there.  Returns
    the value together with the largest snapshot spacing used.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    times = traj.times
    residuals = np.array([flux_residual_l1(traj.model, s) for _, s in traj.snapshots])
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
    for (t0, state), t1 in zip(traj.snapshots, times[1:]):
        if t1 <= t_start or t1 <= t0:
            continue
        seg_lo = max(t0, t_start)
        x += (t1 - seg_lo) * float(velocity_interpolant(traj.model, state)(x))
        ts.append(float(t1))
        xs.append(x)
    return np.asarray(ts), np.asarray(xs)
