"""The step loop as it ran on a validated ``ParticleState`` every step.

``simulate`` now runs on raw arrays and validates a state only when it
records one; this loop builds a full ``ParticleState`` after every step
and is the reference its results must equal bit for bit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from particle_paths.dynamics import (
    THETA_DEFAULT,
    CollisionEvent,
    SimulationError,
    Trajectory,
    default_eps_coll,
    particle_velocities,
    resolve_collisions,
)
from particle_paths.initial import ParticleState

__all__ = ["simulate"]


def _timestep_cap(state: ParticleState, vel: np.ndarray, theta: float) -> float:
    gaps = state.widths
    closing = vel[:-1] - vel[1:]
    cap = np.inf
    approaching = closing > 0.0
    if approaching.any():
        rate = closing[approaching]
        cap = float(np.min((1.0 - theta) * gaps[approaching] / rate))
        rho_star = state.density0_max * (1.0 + 1e-13)
        if rho_star > 0.0:
            slack = np.maximum(gaps[approaching] - state.masses[approaching] / rho_star, 0.0)
            cap = min(cap, float(np.min(slack / rate)))
    return cap


def _advance(state: ParticleState, vel: np.ndarray, dt: float, t_new: float) -> ParticleState:
    widths = state.widths + dt * (vel[1:] - vel[:-1])
    pos = (state.positions[0] + dt * vel[0]) + np.concatenate(([0.0], np.cumsum(widths)))
    if np.any(np.diff(pos) <= 0.0):
        raise SimulationError(
            f"particle ordering violated after dt={dt:.3e}; step cap failed", state
        )
    return ParticleState(
        positions=pos,
        densities=state.masses / widths,
        masses=state.masses,
        width0=state.width0,
        density0=state.density0,
        density0_max=state.density0_max,
        time=t_new,
        widths=widths,
    )


def simulate(
    model,
    state0: ParticleState,
    T: float,
    *,
    dt_max: float,
    theta: float = THETA_DEFAULT,
    eps_coll: Optional[float] = None,
    snapshot_count: int = 64,
    every_step: bool = False,
) -> Trajectory:
    if T <= state0.time:
        raise ValueError("T must exceed the initial time")
    if eps_coll is None:
        eps_coll = default_eps_coll(state0)
    targets = np.linspace(state0.time, T, max(2, snapshot_count))
    state = state0
    snaps: List[Tuple[float, ParticleState]] = [(state0.time, state0)]
    events: List[CollisionEvent] = []
    max_events = state0.n_particles - 1
    k = 1
    stall = 0
    while state.time < T:
        target = T if every_step else float(targets[k])
        vel = particle_velocities(model, state)
        if not np.all(np.isfinite(vel)):
            raise SimulationError("non-finite particle velocity", state)
        dt = min(dt_max, _timestep_cap(state, vel, theta))
        remaining = target - state.time
        landed = dt >= remaining * (1.0 - 1e-12)
        if landed:
            dt = remaining
            t_new = target
        else:
            t_new = state.time + dt
        if dt <= 1e-16 * max(1.0, T):
            stall += 1
            if stall > 2000:
                raise SimulationError("timestep collapsed; system is stuck", state)
        else:
            stall = 0
        state = _advance(state, vel, dt, t_new)
        if not (np.all(np.isfinite(state.positions)) and np.all(np.isfinite(state.densities))):
            raise SimulationError("non-finite state encountered", state)

        collided = False
        if float(np.min(state.widths)) <= eps_coll:
            snaps.append((state.time, state))
            state, event = resolve_collisions(state, eps_coll)
            if event is not None:
                events.append(event)
                if len(events) > max_events:
                    raise SimulationError("more collision events than particles", state)
                snaps.append((state.time, state))
                collided = True
        if every_step:
            if not collided:
                snaps.append((state.time, state))
        elif landed:
            if not (snaps and snaps[-1][0] == target and snaps[-1][1] is state):
                snaps.append((target, state))
            k += 1
    return Trajectory(snapshots=snaps, events=events, model=model)
