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

A run keeps its state between records as plain arrays: the time, the
left end, the widths, the densities and the masses.  Positions exist only
for a built state; a validated ``ParticleState`` is built for a recorded
snapshot, for the states around a collision sweep, and for the state a
``SimulationError`` carries.  A step that records a state checks its
positions one by one; any other step checks them by a scalar
certificate.  With every width at least w_min and every position within
B = (|x0| + sum of widths)(1 + 1e-6), a finite B and w_min > 4 ulp(B)
make the positions finite and increasing, since each addition errs by at
most ulp(B) / 2.  A second certificate covers the densities of every
step: a finite m_max / w_min makes every m_i / w_i finite, since
correctly rounded division is monotone.  A step that fails a certificate
is checked element by element, with the same messages.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from .flux import FluxModel
from .initial import InitialData, ParticleState
from .velocity import _Cells, particle_velocities

__all__ = [
    "CollisionEvent",
    "RunStats",
    "SnapshotBlock",
    "Trajectory",
    "SimulationError",
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
# cells per row block of snapshots: enough rows to spread the kernel's
# fixed per-call cost (about 50 us for a 65-node tabulated oracle) over
# many snapshots, few enough that a block's temporaries stay small (on a
# 1601-particle run a 4096-cell cap adds about 0.1 MB of peak memory, a
# 16384-cell cap 1.6 MB); a snapshot with more cells is a block on its own
BLOCK_CELLS = 4096


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


class SnapshotBlock(NamedTuple):
    """Consecutive snapshots with one cell count, one row per snapshot.

    ``start`` is the index of the first row's snapshot, ``times`` the
    states' times; ``positions`` is a C-contiguous (rows, particles) array,
    and ``densities``, ``widths`` and ``masses`` are C-contiguous (rows,
    cells) arrays.  ``n_particles`` counts the particles of every row, the
    work of one kernel call on the block.
    """

    start: int
    times: np.ndarray
    positions: np.ndarray
    densities: np.ndarray
    widths: np.ndarray
    masses: np.ndarray
    n_particles: int


@dataclass
class Trajectory:
    """Time-ordered snapshots plus collision events for one run.

    Each snapshot is a ``ParticleState``, whose ``time`` is the snapshot's
    time.  Snapshot times are nondecreasing; they repeat only at collision
    times, where the state immediately before and immediately after the
    sweep are both recorded (in that order).  ``stats`` is set by
    ``simulate`` and absent on a trajectory loaded from disk.  The
    ``fingerprint`` is worked out from ``config``, so a run and its copy
    loaded from disk give the same one.
    """

    snapshots: List[ParticleState]
    events: List[CollisionEvent]
    model: FluxModel
    data: Optional[InitialData] = None
    config: dict = field(default_factory=dict)
    stats: Optional[RunStats] = None

    @property
    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of ``config`` as sorted-key JSON."""
        return hashlib.sha256(json.dumps(self.config, sort_keys=True).encode()).hexdigest()[:16]

    @property
    def times(self) -> np.ndarray:
        return np.array([state.time for state in self.snapshots], dtype=float)

    @property
    def final_state(self) -> ParticleState:
        return self.snapshots[-1]

    def blocks(self) -> Iterator[SnapshotBlock]:
        """The snapshots in record order as row blocks.

        A block is a run of consecutive snapshots with one cell count and
        at most ``BLOCK_CELLS`` cells in all, or a single snapshot when it
        alone has more.  Cells are deleted only at collision sweeps, so the
        blocks break at every sweep.
        """
        counts = [state.n_cells for state in self.snapshots]
        edges = (np.flatnonzero(np.diff(counts)) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, len(counts)]):
            rows = max(1, BLOCK_CELLS // counts[lo])
            for start in range(lo, hi, rows):
                states = self.snapshots[start : min(start + rows, hi)]
                yield SnapshotBlock(
                    start=start,
                    times=np.array([s.time for s in states], dtype=float),
                    positions=np.array([s.positions for s in states], dtype=float),
                    densities=np.array([s.densities for s in states], dtype=float),
                    widths=np.array([s.widths for s in states], dtype=float),
                    masses=np.array([s.masses for s in states], dtype=float),
                    n_particles=len(states) * (counts[lo] + 1),
                )


def _timestep_cap(
    widths: np.ndarray, masses: np.ndarray, rho_star: float, closing: np.ndarray, theta: float
) -> Tuple[float, float]:
    """The no-crossing and density caps (inf when free) from closing rates vel[:-1] - vel[1:]."""
    approaching = (closing > 0.0).nonzero()[0]
    if approaching.size == 0:
        return np.inf, np.inf
    rate = closing.take(approaching)
    gaps = widths.take(approaching)
    # no pair may close more than a (1 - theta) fraction of its gap
    crossing = float(np.minimum.reduce((1.0 - theta) * gaps / rate))
    if rho_star <= 0.0:
        return crossing, np.inf
    # nor may any cell be squeezed past the initial density maximum
    slack = np.maximum(gaps - masses.take(approaching) / rho_star, 0.0)
    return crossing, float(np.minimum.reduce(slack / rate))


def _positions(x0: float, widths: np.ndarray) -> np.ndarray:
    """Particle positions from the left end and the cell widths: x0 plus the running sums."""
    p = np.empty(widths.size + 1)
    p[0] = 0.0
    widths.cumsum(out=p[1:])
    p += x0
    return p


def _surely_ordered(x0: float, widths: np.ndarray, w_min: float) -> bool:
    """The ordering certificate: ``_positions(x0, widths)`` is finite and increasing.

    With every width positive, each running sum of the widths and each
    position x0 + sum has magnitude at most ``bound`` (the 1e-6 covers the
    rounding of the span and of the sums, under n * 2**-53 each), so each
    addition errs by at most ulp(bound) / 2, and consecutive positions
    differ by more than w_min - 1.5 * ulp(bound) > 0.  False only says the
    positions must be checked one by one.
    """
    bound = (abs(x0) + float(np.add.reduce(widths))) * (1.0 + 1e-6)
    return math.isfinite(bound) and w_min > 4.0 * math.ulp(bound)


def _advance(
    x0: float, widths: np.ndarray, masses: np.ndarray, m_max: float, vel: np.ndarray, closing: np.ndarray,
    dt: float, record: bool, eps_coll: float,
) -> Tuple[float, np.ndarray, np.ndarray, float, Optional[np.ndarray]]:
    """One forward Euler step of the left end and the widths, checked, with its arguments untouched.

    ``closing`` is ``vel[:-1] - vel[1:]``, the rates the caps were taken
    from.  Returns the new left end, widths, densities, narrowest width,
    and the positions: built and checked one by one when ``record`` is
    set, the step reaches ``eps_coll`` (a sweep records it) or the
    ordering certificate fails, and None otherwise.  Raises ``ValueError``
    on positions out of order or a value that is not finite.
    """
    # bit for bit widths + dt * (vel[1:] - vel[:-1])
    new_widths = widths - dt * closing
    new_x0 = 0.0 + (x0 + dt * vel.item(0))
    w_min = float(np.minimum.reduce(new_widths))
    pos = None
    if record or w_min <= eps_coll or not _surely_ordered(new_x0, new_widths, w_min):
        pos = _positions(new_x0, new_widths)
        # also catches a non-positive width: adding it cannot raise the sum
        if (pos[1:] <= pos[:-1]).any():
            raise ValueError(f"particle ordering violated after dt={dt:.3e}; step cap failed")
    densities = masses / new_widths
    # a running sum is finite at its end only if every term is, and an
    # overflowed position before a finite end breaks the increase above.
    # A finite, increasing run has w_min > 0, and correctly rounded
    # division is monotone, so a finite m_max / w_min bounds every density
    if not ((pos is None or math.isfinite(pos[-1])) and (math.isfinite(m_max / w_min) or np.isfinite(densities).all())):
        raise ValueError("non-finite state encountered")
    return new_x0, new_widths, densities, w_min, pos


def default_eps_coll(state: ParticleState) -> float:
    """The collision threshold: 1e-9 of the median width, or more far from the origin.

    There the float spacing, not the width, decides how close two particles
    can come.  With M the state's largest |position|, the ordering
    certificate's bound B = (|x0| + sum of widths)(1 + 1e-6) is at most
    3M (1 + 1e-6) < 4M, so positions increase while every width exceeds
    4 ulp(B) <= 16 ulp(M).  The crossing cap closes no gap by more than
    1 - theta of it, so the step that takes a closing cell to the threshold
    leaves it at least theta times the threshold wide, and the step checks
    its positions one by one.  So the threshold is at least
    (16 / theta) ulp(M), 160 ulp(M) at the default theta.  That floor
    stops at half the narrowest width the density cap lets a cell heavier
    than the sweep's mass tolerance reach (its mass over the initial
    maximum density), so no sweep meets such a cell.
    """
    far = max(abs(float(state.positions[0])), abs(float(state.positions[-1])))
    floor = 16.0 / THETA_DEFAULT * math.ulp(far)
    masses = state.masses
    heavy = masses[masses > MASS_TOL_FRACTION * state.total_mass]
    if heavy.size:
        rho_star = float(np.max(state.densities)) * (1.0 + DENSITY_HEADROOM)
        floor = min(floor, 0.5 * float(np.min(heavy)) / rho_star)
    return max(1e-9 * float(np.median(state.widths)), floor)


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


def simulate(
    model: FluxModel,
    state0: ParticleState,
    T: float,
    *,
    dt_max: float,
    theta: float = THETA_DEFAULT,
    snapshot_count: int = 64,
    every_step: bool = False,
    data: Optional[InitialData] = None,
    config: Optional[dict] = None,
) -> Trajectory:
    """Advance the particle system to time T and record the trajectory.

    Snapshots are taken on an equispaced schedule (``snapshot_count``
    times including 0 and T), or after every step when ``every_step`` is
    set; the states immediately before and after each collision sweep are
    always recorded.  A sweep collapses every gap of at most
    ``default_eps_coll(state0)``.  The trajectory's ``stats`` summarise
    the steps.

    ``T`` must be finite and later than ``state0.time``, ``dt_max``
    positive (``inf`` leaves the step to the caps), ``theta`` inside
    (0, 1) and ``snapshot_count`` an ``int`` (not a ``bool``) of at least
    2; otherwise ``ValueError`` names the argument.

    The loop tests every value it forms and raises ``SimulationError``,
    carrying the last valid state, on a non-finite one, so it runs with
    numpy's overflow, divide and invalid warnings off: the error, not a
    warning, reports the fault.
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T!r}")
    if T <= state0.time:
        raise ValueError("T must exceed the initial time")
    if not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if isinstance(snapshot_count, bool) or not isinstance(snapshot_count, int) or snapshot_count < 2:
        raise ValueError(f"snapshot_count must be an int of at least 2, got {snapshot_count!r}")
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

    # an every_step run lands only on T, and records after every step
    targets = np.linspace(state0.time, T, 2 if every_step else snapshot_count).tolist()
    snaps: List[ParticleState] = [state0]
    events: List[CollisionEvent] = []
    max_events = state0.n_particles - 1
    # the density cap: no cell may be squeezed past the initial maximum
    rho_star = float(np.max(state0.densities, initial=0.0)) * (1.0 + DENSITY_HEADROOM)
    stall_dt = 1e-16 * max(1.0, T)
    landing = LIMITERS.index("landing")
    # the loop state: the left end x0 and the widths fix the positions,
    # which are built only for a state; pos holds them once built and is
    # None until then.  masses and m_max change only at a sweep
    t, x0, widths, densities, masses = (
        state0.time, float(state0.positions[0]), state0.widths, state0.densities, state0.masses,
    )
    pos: Optional[np.ndarray] = state0.positions
    m_max = float(np.maximum.reduce(masses))
    dts: List[float] = []
    limited = [0] * len(LIMITERS)
    min_width = float(np.min(widths))
    k = 1
    stall = 0

    def current() -> ParticleState:
        nonlocal pos
        if pos is None:
            pos = _positions(x0, widths)
        return ParticleState(positions=pos, densities=densities, masses=masses, time=t, widths=widths)

    # the loop tests every value it forms and raises SimulationError on a
    # non-finite one, so numpy need not warn as it forms them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < T:
            vel = particle_velocities(model, _Cells(densities, widths.size + 1))
            if not np.isfinite(vel).all():
                raise SimulationError("non-finite particle velocity", current())
            closing = vel[:-1] - vel[1:]
            caps = (dt_max, *_timestep_cap(widths, masses, rho_star, closing, theta))
            dt = min(caps)
            target = targets[k]
            landed = dt >= (target - t) * (1.0 - 1e-12)
            limited[landing if landed else caps.index(dt)] += 1
            if landed:
                dt = target - t
            dts.append(dt)
            if dt <= stall_dt:
                stall += 1
                if stall > 2000:
                    raise SimulationError("timestep collapsed; system is stuck", current())
            else:
                stall = 0
            record = every_step or landed
            # the loop state moves only once the step's checks pass, so an
            # error carries the last valid state
            try:
                x0, widths, densities, w_min, pos = _advance(x0, widths, masses, m_max, vel, closing, dt, record, eps_coll)
            except ValueError as err:
                raise SimulationError(str(err), current()) from None
            t = target if landed else t + dt
            min_width = min(min_width, w_min)
            if w_min <= eps_coll:
                # resolve_collisions tests these widths against eps_coll too, so
                # it always sweeps here
                pre = current()
                post, event = resolve_collisions(pre, eps_coll)
                events.append(event)
                if len(events) > max_events:
                    raise SimulationError("more collision events than particles", post)
                snaps += (pre, post)
                pos, widths, densities, masses = post.positions, post.widths, post.densities, post.masses
                x0, m_max = float(pos[0]), float(np.maximum.reduce(masses))
            elif record:
                snaps.append(current())
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
    return Trajectory(snapshots=snaps, events=events, model=model, data=data, config=run_config, stats=stats)
