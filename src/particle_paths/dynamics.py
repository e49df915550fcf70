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
for a built state.  The states around a collision sweep and the state a
``SimulationError`` carries are built by the ``ParticleState``
constructor, with its checks; a landed or ``every_step`` step writes its
arrays without them straight into those of its run, since the step has
proved each invariant the constructor tests.  Every step checks its
positions by a scalar certificate, a recording step too: with every
width at least w_min and every position within B = (|x0| + sum of
widths)(1 + 1e-6), a finite B and w_min > 4 ulp(B) make the positions
finite and increasing, since each addition errs by at most ulp(B) / 2.
A step that fails it checks its positions one by one.  A step's
densities are masses >= 0 over positive widths, so one
reduction, their largest value, shows them all finite; the velocity
kernel then compares that value with the model's working interval in
place of its range test's two reductions, which only the first state
and the state after a sweep run.  A second certificate covers the
velocities: each enters a closing rate vel[i] - vel[i + 1], so a finite
sum of the rates makes every velocity finite; a step that fails it
tests them one by one, with the same message.  The density cap's
floors, each cell's mass over the cap, change only with the masses, so
they are formed at entry and after each sweep.  A third certificate
covers the caps: where it proves neither cap below the step that
``dt_max`` or the next landing allows, the caps are not taken.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections.abc import Sequence
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
# fixed per-call cost (25-30 us for a 65-node tabulated oracle on 1-100
# cells, 2-vCPU Xeon) over many snapshots, few enough that a block's
# temporaries stay small (on a 1601-particle run a 4096-cell cap adds
# about 0.1 MB of peak memory, a 16384-cell cap 1.6 MB); a snapshot with
# more cells is a block on its own
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
    work of one kernel call on the block.  ``top`` bounds its densities,
    proved finite and nonnegative, or is NaN (see ``velocity._Cells``).
    """

    start: int
    times: np.ndarray
    positions: np.ndarray
    densities: np.ndarray
    widths: np.ndarray
    masses: np.ndarray
    n_particles: int
    top: float = math.nan


class _Snapshots(Sequence):
    """The recorded states as ``runs``: one read-only ``SnapshotBlock`` per
    run of consecutive snapshots with one cell count, kept as given, whose
    ``top`` is the run's largest density.  An index builds its
    ``ParticleState`` through the checked constructor, a slice a list."""

    def __init__(self, runs):
        self.runs: List[SnapshotBlock] = []
        self._rows: list = []  # the run and row of each snapshot
        for arrays in runs:
            for a in arrays:
                a.flags.writeable = False
            top = float(np.maximum.reduce(arrays[2], axis=None))
            self.runs.append(SnapshotBlock(len(self._rows), *arrays, arrays[1].size, top))
            self._rows += [(self.runs[-1], j) for j in range(arrays[0].size)]

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        run, j = self._rows[i]
        return ParticleState(run.positions[j], run.densities[j], run.masses[j], run.times.item(j), run.widths[j])


def _stack(states) -> Iterator[List[np.ndarray]]:
    """The arrays of each run of a hand-built trajectory's states, stacked."""
    for _, run in itertools.groupby(states, key=lambda s: s.n_cells):
        records = [(s.time, s.positions, s.densities, s.widths, s.masses) for s in run]
        yield [np.array(column, dtype=float) for column in zip(*records)]


class _Stack:
    """The arrays of one run, which ``simulate`` writes a row per recorded
    state into: sized for ``capacity`` rows, doubled when full (only an
    ``every_step`` run fills them) and cut to their rows in place by
    ``resize``.  No view of them exists before, so it skips numpy's check."""

    def __init__(self, capacity: int, *row):
        self.arrays = [np.empty((capacity, *np.shape(value))) for value in row]
        self.rows = 0
        self.write(*row)

    def write(self, *row) -> None:
        if self.rows == self.arrays[0].size:
            self.resize(2 * self.rows)
        for a, value in zip(self.arrays, row):
            a[self.rows] = value
        self.rows += 1

    def resize(self, rows: int) -> List[np.ndarray]:
        for a in self.arrays:
            a.resize((rows, *a.shape[1:]), refcheck=False)
        return self.arrays


@dataclass
class Trajectory:
    """Time-ordered snapshots plus collision events for one run.

    ``simulate`` and the loader hand over their runs whole; a hand-built
    trajectory gives a list of ``ParticleState``s, stacked once per run of
    one cell count.  Either way they are read as states on access.
    Snapshot times are nondecreasing; they repeat only at collision times,
    where the state immediately before and immediately after the sweep are
    both recorded (in that order).  ``stats`` is set by ``simulate`` and
    absent on a trajectory loaded from disk.  The ``fingerprint`` is worked
    out from ``config``, so a run and its copy loaded from disk give the
    same one.
    """

    snapshots: Sequence
    events: List[CollisionEvent]
    model: FluxModel
    data: Optional[InitialData] = None
    config: dict = field(default_factory=dict)
    stats: Optional[RunStats] = None

    def __post_init__(self):
        if not isinstance(self.snapshots, _Snapshots):
            self.snapshots = _Snapshots(_stack(self.snapshots))

    @property
    def fingerprint(self) -> str:
        """First 16 hex digits of the SHA-256 of ``config`` as sorted-key JSON."""
        return hashlib.sha256(json.dumps(self.config, sort_keys=True).encode()).hexdigest()[:16]

    @property
    def times(self) -> np.ndarray:
        return np.concatenate([run.times for run in self.snapshots.runs])

    @property
    def final_state(self) -> ParticleState:
        return self.snapshots[-1]

    def blocks(self) -> Iterator[SnapshotBlock]:
        """The snapshots in record order as row blocks: row slices (views) of the runs.

        A block holds a run's next rows, at most ``BLOCK_CELLS`` cells in
        all, or a single snapshot when it alone has more, and the run's
        ``top``.  Cells are deleted only at collision sweeps, so the blocks
        break at every sweep.
        """
        for run in self.snapshots.runs:
            step = max(1, BLOCK_CELLS // run.densities.shape[1])
            for lo in range(0, run.times.size, step):
                rows = [a[lo : lo + step] for a in run[1:6]]
                yield SnapshotBlock(run.start + lo, *rows, rows[1].size, run.top)


def _timestep_cap(
    widths: np.ndarray, floor: Optional[np.ndarray], closing: np.ndarray, theta: float
) -> Tuple[float, float]:
    """The no-crossing and density caps (inf when free) from closing rates vel[:-1] - vel[1:].

    ``floor`` is the narrowest width each cell may reach, its mass over
    the density cap rho*, or None when rho* <= 0 and no cell is capped;
    masses change only at a sweep, so ``simulate`` forms it then.  The
    density cap is min((gaps - floor) / rate) clamped to +0.0, the bits of
    min(max(gaps - floor, 0) / rate) with one scalar clamp for the array
    pass: a cell already past its floor gives a quotient of at most -0.0,
    where the clamped slack gave +0.0, and either way the cap is +0.0;
    any other quotient is the same in both.
    """
    approaching = (closing > 0.0).nonzero()[0]
    if approaching.size == 0:
        return np.inf, np.inf
    rate = closing.take(approaching)
    gaps = widths.take(approaching)
    # no pair may close more than a (1 - theta) fraction of its gap
    crossing = float(np.minimum.reduce((1.0 - theta) * gaps / rate))
    if floor is None:
        return crossing, np.inf
    # nor may any cell be squeezed past the initial density maximum; max
    # returns its first argument on a tie, so -0.0 clamps to +0.0
    return crossing, max(0.0, float(np.minimum.reduce((gaps - floor.take(approaching)) / rate)))


def _caps_clear(bound: float, widths: np.ndarray, w_min: float, floor: Optional[np.ndarray], closing: np.ndarray,
                theta: float) -> bool:
    """The caps certificate: True proves both caps of ``_timestep_cap`` at least ``bound`` >= 0.

    ``w_min`` is the narrowest width.  Either no pair approaches (both caps
    are inf), or, with reach = bound (1 + 2**-48) and R the fastest closing
    rate, fl((1 - theta) w_min) > fl(R reach) and every cell has
    fl(widths - floor) > fl(closing reach).  Rounding is monotone, so each
    approaching cell's numerator, fl((1 - theta) gap) or fl(gap - floor),
    exceeds fl(rate reach) >= fl(rate bound); a float above a rounded
    product exceeds the exact one (subnormal or not), so the exact
    quotient exceeds bound and rounds to at least it.  The 2**-48 is
    headroom that argument does not use.  An overflowed or NaN product
    fails the test.  False only says the caps must be taken.
    """
    fastest = float(np.maximum.reduce(closing))
    if fastest <= 0.0:
        return True
    reach = bound * (1.0 + 2.0**-48)
    if not (1.0 - theta) * w_min > fastest * reach:
        return False
    return floor is None or bool(np.logical_and.reduce(np.subtract(widths, floor) > np.multiply(closing, reach)))


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


def _check_positions(pos: np.ndarray, dt: float, w_min: float) -> None:
    """The one-by-one test of positions the ordering certificate did not prove.

    A running sum is finite at its end only if every term is, and an
    overflowed position before a finite end breaks the increase, so a
    strict increase and a finite last position make every position finite.
    A non-positive width cannot raise the sum, so it breaks the increase
    too: the step cap failed.  With every width positive and the ends
    finite, the positions lost float resolution instead, and the message
    names it.
    """
    if (pos[1:] <= pos[:-1]).any():
        far = max(abs(pos.item(0)), abs(pos.item(-1)))
        if w_min > 0.0 and math.isfinite(far):
            raise ValueError(
                f"particle positions lost float resolution after dt={dt:.3e}: every cell is at least "
                f"{w_min:.3e} wide, but floats near |x| = {far:.3e} are {math.ulp(far):.3e} apart"
            )
        raise ValueError(f"particle ordering violated after dt={dt:.3e}; step cap failed")
    if not math.isfinite(pos.item(-1)):
        raise ValueError("non-finite state encountered")


def _advance(
    x0: float, widths: np.ndarray, masses: np.ndarray, vel: np.ndarray, closing: np.ndarray, dt: float, record: bool,
) -> Tuple[float, np.ndarray, np.ndarray, float, float, Optional[np.ndarray]]:
    """One forward Euler step of the left end and the widths, checked, with its arguments untouched.

    ``closing`` is ``vel[:-1] - vel[1:]``, the rates the caps were taken
    from.  Returns the new left end, widths, densities, narrowest width,
    largest density, and the positions: built when ``record`` is set or
    the ordering certificate fails (which then checks them one by one),
    and None otherwise.  Raises ``ValueError`` on positions out of order or
    a value that is not finite.
    """
    # bit for bit widths + dt * (vel[1:] - vel[:-1]): IEEE products commute
    new_widths = np.multiply(closing, dt)
    np.subtract(widths, new_widths, out=new_widths)
    new_x0 = 0.0 + (x0 + dt * vel.item(0))
    w_min = float(np.minimum.reduce(new_widths))
    pos = _positions(new_x0, new_widths) if record else None
    if not _surely_ordered(new_x0, new_widths, w_min):
        if pos is None:
            pos = _positions(new_x0, new_widths)
        _check_positions(pos, dt, w_min)
    # finite, increasing positions make every width positive, and masses
    # are finite and >= 0, so each density lies in [0, inf]: a finite
    # largest density makes every density finite
    densities = masses / new_widths
    top = float(np.maximum.reduce(densities))
    if not math.isfinite(top):
        raise ValueError("non-finite state encountered")
    return new_x0, new_widths, densities, w_min, top, pos


def default_eps_coll(state: ParticleState) -> float:
    """The collision threshold: 1e-9 of the median width, or more far from the origin.

    There the float spacing, not the width, decides how close two particles
    can come.  With M the state's largest |position|, the ordering
    certificate's bound B = (|x0| + sum of widths)(1 + 1e-6) is at most
    3M (1 + 1e-6) < 4M, so positions increase while every width exceeds
    4 ulp(B) <= 16 ulp(M).  The crossing cap closes no gap by more than
    1 - theta of it, so the step that takes a closing cell to the threshold
    leaves it at least theta times the threshold wide, and the sweep's
    state is built by the constructor, which checks its positions one by
    one.  So the threshold is at least
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

    ``T`` must be finite and later than ``state0.time``, ``dt_max`` at
    least the float spacing of the times (``inf`` leaves the step to the
    caps), ``theta`` inside (0, 1), ``snapshot_count`` an ``int`` (not a
    ``bool``) of at least 2 and ``state0``'s total mass finite; otherwise
    ``ValueError`` names the argument.

    The loop tests every value it forms and raises ``SimulationError``,
    carrying the last valid state, on a non-finite one, so it runs with
    numpy's overflow, divide and invalid warnings off: the error, not a
    warning, reports the fault, as it does a cap that sets over 2000
    steps in a row of at most 1e-16 max(1, T).
    """
    if not math.isfinite(T):
        raise ValueError(f"T must be finite, got {T!r}")
    if T <= state0.time:
        raise ValueError("T must exceed the initial time")
    if not dt_max > 0.0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    if dt_max < math.ulp(max(abs(state0.time), abs(T))):
        raise ValueError(f"dt_max {dt_max!r} is below the float spacing of the run's times, so no step could advance t")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta!r}")
    if isinstance(snapshot_count, bool) or not isinstance(snapshot_count, int) or snapshot_count < 2:
        raise ValueError(f"snapshot_count must be an int of at least 2, got {snapshot_count!r}")
    mass = state0.total_mass
    if not math.isfinite(mass):
        raise ValueError(f"state0's total mass must be finite, got {mass!r}")
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
    events: List[CollisionEvent] = []
    # the density cap: no cell may be squeezed past the initial maximum
    rho_star = float(np.max(state0.densities, initial=0.0)) * (1.0 + DENSITY_HEADROOM)
    stall_dt = 1e-16 * max(1.0, T)
    landing = LIMITERS.index("landing")
    # the loop state: the left end x0 and the widths fix the positions,
    # which are built only for a state; pos holds them once built and is
    # None until then.  w_min is the narrowest width.  top is the largest
    # density once a step has proved every density finite and >= 0, and
    # NaN until then, which sends the kernel to its full range test.
    # masses and the density cap's floor change only at a sweep
    t, x0, widths, densities, masses, top = (
        state0.time, float(state0.positions[0]), state0.widths, state0.densities, state0.masses, math.nan,
    )
    pos: Optional[np.ndarray] = state0.positions
    floor = masses / rho_star if rho_star > 0.0 else None
    dts: List[float] = []
    limited = [0] * len(LIMITERS)
    w_min = min_width = float(np.min(widths))
    k = 1
    stall = 0
    # a run's rows: its first state and one per target left, the last of
    # which may be the state before the sweep that ends the run
    runs: list = []
    stack = _Stack(len(targets), t, pos, densities, widths, masses)

    def current() -> ParticleState:
        nonlocal pos
        if pos is None:
            pos = _positions(x0, widths)
        return ParticleState(positions=pos, densities=densities, masses=masses, time=t, widths=widths)

    # the loop tests every value it forms and raises SimulationError on a
    # non-finite one, so numpy need not warn as it forms them
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while t < T:
            vel = particle_velocities(model, _Cells(densities, widths.size + 1, top))
            closing = vel[:-1] - vel[1:]
            # every velocity enters a closing rate, so a finite sum of the
            # rates makes every velocity finite; a sum that overflows on
            # finite velocities falls back to the test one by one
            if not (math.isfinite(np.add.reduce(closing)) or np.isfinite(vel).all()):
                raise SimulationError("non-finite particle velocity", current())
            target = targets[k]
            remaining = target - t
            # a step is at most dt_max and lands at the latest on target;
            # where the certificate proves both caps no smaller, dt_max or
            # the landing sets it, as the caps would
            bound = min(dt_max, remaining)
            if _caps_clear(bound, widths, w_min, floor, closing, theta):
                dt, limiter = bound, 0
            else:
                caps = (dt_max, *_timestep_cap(widths, floor, closing, theta))
                dt = min(caps)
                limiter = caps.index(dt)
            landed = dt >= remaining * (1.0 - 1e-12)
            limited[landing if landed else limiter] += 1
            if landed:
                dt = remaining
                k += 1
            dts.append(dt)
            # only the caps can shrink the step without end: dt_max and the
            # landings move t by their own, chosen sizes
            stall = stall + 1 if limiter and not landed and dt <= stall_dt else 0
            if stall > 2000:
                raise SimulationError("timestep collapsed; system is stuck", current())
            record = every_step or landed
            # the loop state moves only once the step's checks pass, so an
            # error carries the last valid state
            try:
                x0, widths, densities, w_min, top, pos = _advance(x0, widths, masses, vel, closing, dt, record)
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
                stack.write(t, pre.positions, densities, widths, masses)
                runs.append(stack.resize(stack.rows))
                pos, widths, densities, masses = post.positions, post.widths, post.densities, post.masses
                stack = _Stack(1 + len(targets) - k, t, pos, densities, widths, masses)
                x0, top, w_min = float(pos[0]), math.nan, float(np.minimum.reduce(widths))
                if floor is not None:
                    floor = masses / rho_star
            elif record:
                # this step's _advance proved these positions ordered and these
                # densities finite, so the constructor's passes would repeat it
                stack.write(t, pos, densities, widths, masses)
    runs.append(stack.resize(stack.rows))
    stats = RunStats(
        steps=len(dts),
        dt_min=min(dts),
        dt_median=float(np.median(dts)),
        limited_by=dict(zip(LIMITERS, limited)),
        collision_sweeps=len(events),
        min_width=min_width,
    )
    return Trajectory(snapshots=_Snapshots(runs), events=events, model=model, data=data, config=run_config, stats=stats)
