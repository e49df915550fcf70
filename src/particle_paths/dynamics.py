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

A run keeps its state between records as plain arrays; a validated
``ParticleState`` is built only for a recorded snapshot, for the states
around a collision sweep, and for the state a ``SimulationError`` carries.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from .flux import FluxModel
from .initial import InitialData, ParticleState
from .velocity import interface_velocities

__all__ = [
    "CollisionEvent",
    "RunStats",
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
# headroom on the density cap: it keeps the cap positive when a cell
# already sits at the maximum up to rounding (its closing rate is then noise)
DENSITY_HEADROOM = 1e-13
# what can set a step, in the order ties are broken
LIMITERS = ("dt_max", "crossing", "density", "landing")


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


@dataclass(frozen=True)
class RunStats:
    """How a run advanced: its steps, their sizes and what limited them.

    ``limited_by`` counts the steps each of ``LIMITERS`` set: the
    ``dt_max`` ceiling, the no-crossing cap, the density cap, or landing on
    a snapshot time (a landed step counts as landing; other ties go to the
    earlier name).  ``min_width`` is the smallest cell width any step
    reached, collapsing cells included.
    """

    steps: int
    dt_min: float
    dt_median: float
    limited_by: Dict[str, int]
    collision_sweeps: int
    min_width: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


@dataclass
class Trajectory:
    """Time-ordered snapshots plus collision events for one run.

    Snapshot times are nondecreasing; they repeat only at collision times,
    where the state immediately before and immediately after the sweep are
    both recorded (in that order).  ``stats`` is set by ``simulate`` and
    absent on a trajectory loaded from disk.
    """

    snapshots: List[Tuple[float, ParticleState]]
    events: List[CollisionEvent]
    model: FluxModel
    data: Optional[InitialData] = None
    config: dict = field(default_factory=dict)
    fingerprint: str = ""
    stats: Optional[RunStats] = None

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


class _Cells(NamedTuple):
    """The part of a state the velocity kernel reads, for the array loop."""

    densities: np.ndarray
    n_particles: int


def particle_velocities(model: FluxModel, state: ParticleState) -> np.ndarray:
    """Velocity of every particle; sentinel density 0 beyond the ends.

    Reads only ``state.densities``.  Raises ValueError when a density is
    negative or above the model's working interval.
    """
    padded = np.concatenate(([0.0], state.densities, [0.0]))
    return interface_velocities(model, padded[:-1], padded[1:])


def _timestep_cap(
    widths: np.ndarray, masses: np.ndarray, rho_star: float, vel: np.ndarray, theta: float
) -> Tuple[float, float]:
    """The no-crossing cap and the density cap on the next step (inf when free)."""
    closing = vel[:-1] - vel[1:]
    approaching = closing > 0.0
    if not approaching.any():
        return np.inf, np.inf
    rate = closing[approaching]
    gaps = widths[approaching]
    # no pair may close more than a (1 - theta) fraction of its gap
    crossing = float(((1.0 - theta) * gaps / rate).min())
    if rho_star <= 0.0:
        return crossing, np.inf
    # nor may any cell be squeezed past the initial density maximum
    slack = np.maximum(gaps - masses[approaching] / rho_star, 0.0)
    return crossing, float((slack / rate).min())


def stable_timestep(
    model: FluxModel, state: ParticleState, dt_max: float, theta: float = THETA_DEFAULT
) -> float:
    """Largest step <= dt_max that no adjacent pair can use to cross."""
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    if not 0.0 < theta < 1.0:
        raise ValueError("theta must lie in (0, 1)")
    vel = particle_velocities(model, state)
    rho_star = state.density0_max * (1.0 + DENSITY_HEADROOM)
    return min(dt_max, *_timestep_cap(state.widths, state.masses, rho_star, vel, theta))


def _advance(x_left: float, widths, masses, vel, dt: float, last_state: Callable[[], ParticleState]):
    """Forward Euler on the widths: new (positions, widths, densities).

    Raises SimulationError, carrying ``last_state()``, when the rebuilt
    positions are not strictly increasing or the result is not finite.
    """
    widths = widths + dt * (vel[1:] - vel[:-1])
    pos = np.empty(widths.size + 1)
    pos[0] = 0.0
    np.cumsum(widths, out=pos[1:])
    pos += x_left + dt * vel[0]
    # also catches a non-positive width: adding it cannot raise the sum
    if (pos[1:] <= pos[:-1]).any():
        raise SimulationError(
            f"particle ordering violated after dt={dt:.3e}; step cap failed", last_state()
        )
    densities = masses / widths
    if not (np.isfinite(pos).all() and np.isfinite(densities).all()):
        raise SimulationError("non-finite state encountered", last_state())
    return pos, widths, densities


def _successor(state: ParticleState, pos, widths, densities, time: float) -> ParticleState:
    """Validated state with new kinematics and the cell data of ``state``."""
    return ParticleState(
        positions=pos,
        densities=densities,
        masses=state.masses,
        width0=state.width0,
        density0=state.density0,
        density0_max=state.density0_max,
        time=time,
        widths=widths,
    )


def step(model: FluxModel, state: ParticleState, dt: float) -> ParticleState:
    """One forward Euler step; the caller guarantees dt below the crossing cap."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    vel = particle_velocities(model, state)
    advanced = _advance(state.positions[0], state.widths, state.masses, vel, dt, lambda: state)
    return _successor(state, *advanced, state.time + dt)


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
    always recorded.  The trajectory's ``stats`` summarise the steps.
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
    snaps: List[Tuple[float, ParticleState]] = [(state0.time, state0)]
    events: List[CollisionEvent] = []
    max_events = state0.n_particles - 1
    rho_star = state0.density0_max * (1.0 + DENSITY_HEADROOM)
    stall_dt = 1e-16 * max(1.0, T)
    landing = LIMITERS.index("landing")
    # the loop state: `cells` holds the masses and initial data of the
    # current cells (state0, or the state after the latest sweep); t, pos,
    # widths and densities are the arrays every step rebuilds
    cells = state0
    t, pos, widths, densities, masses = (
        state0.time, state0.positions, state0.widths, state0.densities, state0.masses,
    )
    dts: List[float] = []
    limited = [0] * len(LIMITERS)
    min_width = float(np.min(widths))
    k = 1
    stall = 0

    def current() -> ParticleState:
        return _successor(cells, pos, widths, densities, t)

    while t < T:
        target = T if every_step else float(targets[k])
        vel = particle_velocities(model, _Cells(densities, pos.size))
        if not np.isfinite(vel).all():
            raise SimulationError("non-finite particle velocity", current())
        caps = (dt_max, *_timestep_cap(widths, masses, rho_star, vel, theta))
        dt = min(caps)
        remaining = target - t
        landed = dt >= remaining * (1.0 - 1e-12)
        if landed:
            dt = remaining
            t_new = target
            limited[landing] += 1
        else:
            t_new = t + dt
            limited[caps.index(dt)] += 1
        dts.append(dt)
        if dt <= stall_dt:
            stall += 1
            if stall > 2000:
                raise SimulationError("timestep collapsed; system is stuck", current())
        else:
            stall = 0
        pos, widths, densities = _advance(pos[0], widths, masses, vel, dt, current)
        t = t_new

        collided = False
        w_min = float(widths.min())
        min_width = min(min_width, w_min)
        if w_min <= eps_coll:
            pre = current()
            snaps.append((t, pre))
            post, event = resolve_collisions(pre, eps_coll)
            if event is not None:
                events.append(event)
                if len(events) > max_events:
                    raise SimulationError("more collision events than particles", post)
                snaps.append((t, post))
                collided = True
                cells = post
                pos, widths, densities, masses = post.positions, post.widths, post.densities, post.masses
        if not collided and (every_step or landed):
            snaps.append((t, current()))
        if landed:
            k += 1
    stats = RunStats(
        steps=len(dts),
        dt_min=min(dts),
        dt_median=float(np.median(dts)),
        limited_by=dict(zip(LIMITERS, limited)),
        collision_sweeps=len(events),
        min_width=min_width,
    )
    return Trajectory(
        snapshots=snaps,
        events=events,
        model=model,
        data=data,
        config=run_config,
        fingerprint=_fingerprint(run_config),
        stats=stats,
    )
