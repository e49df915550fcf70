"""The step loop as it ran on a validated ``ParticleState`` every step.

``simulate`` now runs on raw arrays and validates a state only when it
records one; this loop builds a full ``ParticleState`` after every step
and is the reference its results must equal bit for bit.  Its velocities
come from ``two_sided_velocities``, the velocity rule applied as stated
through ``interval_extrema``, a node search one interval at a time, so the
reference does not follow the package's kernel; ``particle_velocity``
states the same rule on one pair of scalars.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from particle_paths.dynamics import (
    THETA_DEFAULT,
    CollisionEvent,
    SimulationError,
    Trajectory,
    default_eps_coll,
    resolve_collisions,
)
from particle_paths.flux import _RangeExtrema
from particle_paths.initial import ParticleState
from particle_paths.velocity import VelocityExtrema, check_density_intervals, velocity_extrema

__all__ = ["simulate", "interval_extrema", "two_sided_velocities", "particle_velocity", "revalidated"]


def interval_extrema(g, nodes, table, lo, hi):
    """The node search one interval at a time: g at both ends, stacked into
    one call, and the nodes strictly inside from two searches."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    g_lo, g_hi = np.asarray(g(np.stack([lo, hi])), dtype=float)
    i0 = np.searchsorted(nodes, lo, side="right")  # first node > lo
    i1 = np.searchsorted(nodes, hi, side="left") - 1  # last node < hi
    inner = i0 <= i1
    node_min, node_max = table.query(np.where(inner, i0, 0), np.where(inner, i1, 0))
    end_min = np.minimum(g_hi, g_lo)
    end_max = np.maximum(g_hi, g_lo)
    return VelocityExtrema(
        np.where(inner, np.minimum(node_min, end_min), end_min),
        np.where(inner, np.maximum(node_max, end_max), end_max),
    )


def two_sided_velocities(model, state) -> np.ndarray:
    """Velocity of every particle by the two-sided rule, vacuum beyond the ends.

    Pads each row of ``state.densities`` with density 0, takes the extrema
    of the oracle's a over [min, max] of every neighbouring pair from
    ``interval_extrema`` over its nodes (a ``MonotoneOracle``'s one node,
    0, never lies strictly inside), and takes the minimum where density
    rises to the right, the maximum where it falls.  Raises the range
    check's ValueError first.
    """
    dens = np.asarray(state.densities, dtype=float)
    padded = np.zeros((*dens.shape[:-1], dens.shape[-1] + 2))
    padded[..., 1:-1] = dens
    v_l, v_r = padded[..., :-1], padded[..., 1:]
    lo, hi = np.minimum(v_l, v_r), np.maximum(v_l, v_r)
    check_density_intervals(model, lo, hi)
    oracle = model.extremum_oracle
    table = _RangeExtrema(np.asarray(oracle.a_of(oracle.nodes), dtype=float))
    ext = interval_extrema(oracle.a_of, oracle.nodes, table, lo, hi)
    return np.where(v_l <= v_r, ext.min_value, ext.max_value)


def particle_velocity(model, v_l: float, v_r: float) -> float:
    """The rule on one pair, from the scalar extrema of a over [min, max]."""
    if v_l <= v_r:
        return velocity_extrema(model, v_l, v_r).min_value
    return velocity_extrema(model, v_r, v_l).max_value


def revalidated(state: ParticleState) -> None:
    """Rebuild ``state`` through the public constructor, which runs every check.

    ``simulate`` hands its trajectory a plain record of each stepped state
    without re-running the checks its step already made; the rebuilt state
    must be accepted and hold the same arrays bit for bit.
    """
    rebuilt = ParticleState(state.positions, state.densities, state.masses, state.time, state.widths)
    assert rebuilt.time == state.time
    for name in ("positions", "densities", "widths", "masses"):
        assert getattr(rebuilt, name).tobytes() == getattr(state, name).tobytes(), name


def _timestep_cap(state: ParticleState, rho_star: float, vel: np.ndarray, theta: float) -> float:
    gaps = state.widths
    closing = vel[:-1] - vel[1:]
    cap = np.inf
    approaching = closing > 0.0
    if approaching.any():
        rate = closing[approaching]
        cap = float(np.min((1.0 - theta) * gaps[approaching] / rate))
        if rho_star > 0.0:
            slack = np.maximum(gaps[approaching] - state.masses[approaching] / rho_star, 0.0)
            cap = min(cap, float(np.min(slack / rate)))
    return cap


def _advance(state: ParticleState, vel: np.ndarray, dt: float, t_new: float) -> ParticleState:
    widths = state.widths + dt * (vel[1:] - vel[:-1])
    pos = (state.positions[0] + dt * vel[0]) + np.concatenate(([0.0], np.cumsum(widths)))
    if np.any(np.diff(pos) <= 0.0):
        w_min = float(np.min(widths))
        far = max(abs(float(pos[0])), abs(float(pos[-1])))
        if w_min > 0.0 and math.isfinite(far):
            # every cell has room: the positions ran out of float resolution
            message = (
                f"particle positions lost float resolution after dt={dt:.3e}: every cell is at least "
                f"{w_min:.3e} wide, but floats near |x| = {far:.3e} are {math.ulp(far):.3e} apart"
            )
        else:
            message = f"particle ordering violated after dt={dt:.3e}; step cap failed"
        raise SimulationError(message, state)
    return ParticleState(
        positions=pos,
        densities=state.masses / widths,
        masses=state.masses,
        time=t_new,
        widths=widths,
    )


# like the package's loop, this one reports a non-finite value by its
# error, not by numpy's warning
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def simulate(
    model,
    state0: ParticleState,
    T: float,
    *,
    dt_max: float,
    theta: float = THETA_DEFAULT,
    snapshot_count: int = 64,
    every_step: bool = False,
) -> Trajectory:
    if T <= state0.time:
        raise ValueError("T must exceed the initial time")
    eps_coll = default_eps_coll(state0)
    targets = np.linspace(state0.time, T, max(2, snapshot_count))
    state = state0
    snaps: List[ParticleState] = [state0]
    events: List[CollisionEvent] = []
    rho_star = float(np.max(state0.densities, initial=0.0)) * (1.0 + 1e-13)
    k = 1
    stall = 0
    while state.time < T:
        target = T if every_step else float(targets[k])
        vel = two_sided_velocities(model, state)
        if not np.all(np.isfinite(vel)):
            raise SimulationError("non-finite particle velocity", state)
        cap = _timestep_cap(state, rho_star, vel, theta)
        dt = min(dt_max, cap)
        remaining = target - state.time
        landed = dt >= remaining * (1.0 - 1e-12)
        if landed:
            dt = remaining
            t_new = target
        else:
            t_new = state.time + dt
        # only a step a cap set counts toward the stall, not dt_max nor a landing
        stall = stall + 1 if cap < dt_max and not landed and dt <= 1e-16 * max(1.0, T) else 0
        if stall > 2000:
            raise SimulationError("timestep collapsed; system is stuck", state)
        try:
            state = _advance(state, vel, dt, t_new)
        except ValueError:
            # the constructor refused a non-finite position or density; the
            # error carries the state from before the step
            raise SimulationError("non-finite state encountered", state) from None

        collided = False
        if float(np.min(state.widths)) <= eps_coll:
            snaps.append(state)
            state, event = resolve_collisions(state, eps_coll)
            if event is not None:
                events.append(event)
                snaps.append(state)
                collided = True
        if every_step:
            if not collided:
                snaps.append(state)
        elif landed:
            if snaps[-1] is not state:
                snaps.append(state)
            k += 1
    return Trajectory(snapshots=snaps, events=events, model=model)
