"""Particle dynamics: stepping, collision resolution, and full runs.

Between collisions each particle moves with the entropic interface
velocity of its neighboring cell densities, and densities follow from the
conserved cell masses.  Forward Euler is used with a step cap that keeps
adjacent particles from crossing and cell densities below the initial
maximum.  The evolved state is the cell widths, and positions are rebuilt
from them, so a cell whose particles move alike keeps its density exactly.
When a gap falls below the collision threshold, the left particles of the
touching cluster are deleted together with their cells; only (numerically)
massless cells ever get that close, so the discarded mass is audited
against a tight budget.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .flux import FluxModel
from .initial import InitialData, ParticleState
from .velocity import interface_velocities

__all__ = [
    "CollisionEvent",
    "Trajectory",
    "SimulationError",
    "particle_velocities",
    "step",
    "stable_timestep",
    "resolve_collisions",
    "simulate",
    "default_eps_coll",
]

THETA_DEFAULT = 0.1
MASS_TOL_FRACTION = 1e-8


class SimulationError(RuntimeError):
    """Raised when a run cannot continue; carries a diagnostic state."""

    def __init__(self, message, state: Optional[ParticleState] = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class CollisionEvent:
    """Record of one collision sweep.

    Indices refer to the pre-collision state.  ``survivor_map[i]`` is the
    post-collision index of particle i, or -1 if it was deleted.
    """

    time: float
    deleted_particles: np.ndarray
    deleted_cells: np.ndarray
    survivor_map: np.ndarray
    discarded_mass: float
    pre_particle_count: int


@dataclass
class Trajectory:
    """Time-ordered snapshots plus collision events for one run.

    Snapshot times are nondecreasing; they repeat only at collision times,
    where the state immediately before and immediately after the sweep are
    both recorded (in that order).
    """

    snapshots: List[Tuple[float, ParticleState]]
    events: List[CollisionEvent]
    model: FluxModel
    data: Optional[InitialData] = None
    config: dict = field(default_factory=dict)
    fingerprint: str = ""

    @property
    def times(self) -> np.ndarray:
        return np.asarray([t for t, _ in self.snapshots])

    @property
    def final_state(self) -> ParticleState:
        return self.snapshots[-1][1]

    def state_at(self, t: float) -> ParticleState:
        """Latest recorded state with time <= t (post-collision at event times)."""
        best = None
        for s_t, s in self.snapshots:
            if s_t <= t + 1e-15 * max(1.0, abs(t)):
                best = s
            else:
                break
        if best is None:
            raise ValueError(f"time {t} precedes the trajectory")
        return best


def particle_velocities(model: FluxModel, state: ParticleState) -> np.ndarray:
    """Velocity of every particle; sentinel density 0 beyond the ends.

    Raises ValueError when a density is negative or above the model's
    working interval.
    """
    padded = np.concatenate(([0.0], state.densities, [0.0]))
    return interface_velocities(model, padded[:-1], padded[1:])


def _timestep_cap(state: ParticleState, vel: np.ndarray, theta: float) -> float:
    gaps = state.widths
    closing = vel[:-1] - vel[1:]
    cap = np.inf
    approaching = closing > 0.0
    if approaching.any():
        rate = closing[approaching]
        # no pair may close more than a (1 - theta) fraction of its gap
        cap = float(np.min((1.0 - theta) * gaps[approaching] / rate))
        # nor may any cell be squeezed past the initial density maximum;
        # the tiny headroom keeps the cap positive when a cell already sits
        # at the maximum up to rounding (its closing rate is then noise)
        rho_star = state.density0_max * (1.0 + 1e-13)
        if rho_star > 0.0:
            slack = np.maximum(gaps[approaching] - state.masses[approaching] / rho_star, 0.0)
            cap = min(cap, float(np.min(slack / rate)))
    return cap


def stable_timestep(
    model: FluxModel, state: ParticleState, dt_max: float, theta: float = THETA_DEFAULT
) -> float:
    """Largest step <= dt_max that no adjacent pair can use to cross."""
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    vel = particle_velocities(model, state)
    return min(dt_max, _timestep_cap(state, vel, theta))


def _advance(state: ParticleState, vel: np.ndarray, dt: float, t_new: float) -> ParticleState:
    widths = state.widths + dt * (vel[1:] - vel[:-1])
    pos = (state.positions[0] + dt * vel[0]) + np.concatenate(([0.0], np.cumsum(widths)))
    # also catches a non-positive width: adding it cannot raise the sum
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


def step(model: FluxModel, state: ParticleState, dt: float) -> ParticleState:
    """One forward Euler step; the caller guarantees dt below the crossing cap."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    vel = particle_velocities(model, state)
    return _advance(state, vel, dt, state.time + dt)


def default_eps_coll(state: ParticleState) -> float:
    return 1e-9 * float(np.median(state.widths))


def resolve_collisions(
    state: ParticleState, eps_coll: float
) -> Tuple[ParticleState, Optional[CollisionEvent]]:
    """Collapse every cluster of particles whose gaps are <= eps_coll.

    Within a cluster all particles except the rightmost are deleted, along
    with the cells between them; surviving cells keep their masses and take
    over the widths of the deleted cells to their right.  The state is
    returned unchanged when no gap is small enough.
    """
    gaps = state.widths
    small = gaps <= eps_coll
    if not small.any():
        return state, None
    # particle i sits left of gap i, so the small-gap mask marks exactly
    # the non-rightmost members of each cluster and their cells
    deleted_cells = np.where(small)[0]
    deleted_particles = deleted_cells.copy()
    discarded = float(np.sum(state.masses[small]))
    total = state.total_mass
    if discarded > MASS_TOL_FRACTION * max(total, 1e-300):
        raise SimulationError(
            f"collision would discard mass {discarded:.3e} (> {MASS_TOL_FRACTION:.0e} "
            f"of total {total:.3e}); eps_coll triggered on a massive cell",
            state,
        )
    keep_cells = ~small
    keep_particles = np.append(keep_cells, True)
    survivor_map = np.full(state.n_particles, -1, dtype=int)
    survivor_map[keep_particles] = np.arange(int(keep_particles.sum()))

    masses = state.masses[keep_cells]
    widths = np.add.reduceat(state.widths, np.flatnonzero(keep_cells))
    new_state = ParticleState(
        positions=state.positions[keep_particles],
        densities=masses / widths,
        masses=masses,
        width0=state.width0[keep_cells],
        density0=state.density0[keep_cells],
        density0_max=state.density0_max,
        time=state.time,
        widths=widths,
    )
    event = CollisionEvent(
        time=state.time,
        deleted_particles=deleted_particles,
        deleted_cells=deleted_cells,
        survivor_map=survivor_map,
        discarded_mass=discarded,
        pre_particle_count=state.n_particles,
    )
    return new_state, event


def _fingerprint(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def simulate(
    model: FluxModel,
    state0: ParticleState,
    T: float,
    *,
    dt_max: float,
    theta: float = THETA_DEFAULT,
    eps_coll: Optional[float] = None,
    snapshot_count: int = 64,
    every_step: bool = False,
    data: Optional[InitialData] = None,
    config: Optional[dict] = None,
) -> Trajectory:
    """Advance the particle system to time T and record the trajectory.

    Snapshots are taken on an equispaced schedule (``snapshot_count``
    times including 0 and T), or after every step when ``every_step`` is
    set; the states immediately before and after each collision sweep are
    always recorded.
    """
    if T <= state0.time:
        raise ValueError("T must exceed the initial time")
    if eps_coll is None:
        eps_coll = default_eps_coll(state0)
    run_config = {
        "T": T,
        "dt_max": dt_max,
        "theta": theta,
        "eps_coll": eps_coll,
        "snapshot_count": snapshot_count,
        "every_step": every_step,
        "n_particles": int(state0.n_particles),
        "flux": model.name,
    }
    if config:
        run_config.update(config)

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
    return Trajectory(
        snapshots=snaps,
        events=events,
        model=model,
        data=data,
        config=run_config,
        fingerprint=_fingerprint(run_config),
    )
