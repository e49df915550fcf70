"""Stable on-disk formats for trajectories, events, and sampled functions.

Trajectory CSV: header ``t,i,x_left,x_right,v`` with one row per snapshot
per cell, snapshots in record order (cell index restarting at 0 marks a
new snapshot; collision times appear twice, pre- then post-sweep).
Events JSON: one object per collision with the deleted particle and cell
indices, the survivor map, and the discarded mass.  Floats are written
with ``repr`` (shortest round-trip), so identical runs produce identical
bytes and parsing recovers exact values.  Every JSON file the package
writes (events, run statistics, convergence rates, the follow-the-leader
check, the runtime diagnostic) goes through ``write_json``.

Every CSV writer formats its rows the same way, through ``_rows``:
fields joined by ``,`` and each row ended by ``\\r\\n``, the bytes
``csv.writer`` emits, put into one list by slice assignment and joined
once.  The trajectory writer formats one snapshot at a time (each
position once, though it appears as ``x_right`` of one cell and
``x_left`` of the next, and the cell index strings once per file) and
writes it with a single call, so the file is never held whole in
memory.  The loader parses the whole body in one ``np.loadtxt`` pass and
cuts snapshots out of its columns as slices; it accepts LF as well as
CRLF line endings and raises ``ValueError`` with a one-line reason for
any malformed or missing input, an index in ``events.json`` that is not
an integral number (a fraction, a string or a bool) among them.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .dynamics import CollisionEvent, Trajectory
from .flux import FluxModel
from .initial import ParticleState

__all__ = [
    "write_json",
    "write_trajectory_csv",
    "write_events_json",
    "write_function_csv",
    "write_rate_csv",
    "load_trajectory_dir",
]

_TRAJECTORY_HEADER = "t,i,x_left,x_right,v"


def _rows(*columns) -> str:
    """CSV rows from equally long columns of already formatted fields.
    Fields, commas and line ends go into one list by slice assignment
    (column ``j`` of ``k`` takes every ``2k``-th slot from ``2j`` on), and
    one ``join`` makes the text."""
    k, n = len(columns), len(columns[0])
    pieces = [","] * (2 * k * n)
    for j, col in enumerate(columns):
        pieces[2 * j :: 2 * k] = col
    pieces[2 * k - 1 :: 2 * k] = ["\r\n"] * n
    return "".join(pieces)


def _reprs(values) -> list:
    """Shortest round-trip text of each value, as a float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _plain(obj):
    """An array or numpy scalar as its Python values, a dataclass as the dict of its fields."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    return dataclasses.asdict(obj)


def write_json(obj, path) -> None:
    """Write ``obj`` as JSON: two-space indent, sorted keys, each dataclass
    as the dict of its fields and each array as a list."""
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True, default=_plain))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    index = list(map(str, range(max((state.n_cells for state in traj.snapshots), default=0))))
    with Path(path).open("w", newline="") as fh:
        fh.write(_TRAJECTORY_HEADER + "\r\n")
        for state in traj.snapshots:
            xs = _reprs(state.positions)
            n = state.n_cells
            fh.write(_rows([repr(float(state.time))] * n, index[:n], xs[:-1], xs[1:], _reprs(state.densities)))


def write_events_json(traj: Trajectory, path) -> None:
    write_json({"fingerprint": traj.fingerprint, "config": traj.config, "events": traj.events}, path)


def write_function_csv(fn, path, lo: float, hi: float, n: int = 512) -> None:
    """Sample a callable (reconstruction or velocity field) to CSV (x, value)."""
    xs = np.linspace(lo, hi, n)
    vals = fn(xs)
    with Path(path).open("w", newline="") as fh:
        fh.write("x,value\r\n" + _rows(_reprs(xs), _reprs(vals)))


def write_rate_csv(fit, path) -> None:
    """Convergence table: dx, error, bound, slope-so-far."""
    res = np.asarray(fit.resolutions, dtype=float)
    err = np.asarray(fit.errors, dtype=float)
    slopes = [""] + [
        repr(float(np.polyfit(np.log(res[: j + 1]), np.log(err[: j + 1]), 1)[0])) for j in range(1, res.size)
    ]
    with Path(path).open("w", newline="") as fh:
        fh.write("dx,error,slope_so_far\r\n" + _rows(_reprs(res), _reprs(err), slopes))


def _read_trajectory_table(path: Path) -> np.ndarray:
    """The rows of ``trajectory.csv`` as an (n_rows, 5) float array."""
    with path.open() as fh:
        header = fh.readline().rstrip("\r\n")
        if header != _TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header {header!r}")
        # find the first row here, so an empty body is reported as such and
        # not as a warning from np.loadtxt
        start = fh.tell()
        while (line := fh.readline()) == "\n":
            start = fh.tell()
        if not line:
            raise ValueError("empty trajectory file")
        fh.seek(start)
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"malformed trajectory row: {exc}") from exc
    if table.shape[1] != 5:
        raise ValueError(f"trajectory rows have {table.shape[1]} fields, need 5")
    cells = table[:, 1]
    if not np.all(cells % 1.0 == 0.0):
        raise ValueError("non-integral cell index in trajectory file")
    if cells[0] != 0:
        raise ValueError("first trajectory row is not cell 0")
    # row k + 1 continues row k's snapshot unless its cell index restarts at 0
    same = cells[1:] != 0.0
    if np.any(same & (cells[1:] != cells[:-1] + 1.0)):
        raise ValueError("cell indices of a snapshot are not 0..n-1 in order")
    t = table[:, 0]
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite snapshot time")
    if np.any(t[1:][same] != t[:-1][same]):
        raise ValueError("rows of one snapshot have different times")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("snapshot times decrease")
    if np.any(table[1:, 2][same] != table[:-1, 3][same]):
        raise ValueError("a cell's x_right differs from the next cell's x_left")
    return table


def _integers(values, key: str) -> np.ndarray:
    """``values`` as an int array; ``ValueError`` naming ``key`` unless each
    is an integral number: an int, or a float with no fraction (a bool or a
    string is not)."""
    for v in values:
        if not (type(v) is int or (type(v) is float and v.is_integer())):
            raise ValueError(f"{key} holds {v!r}, not an integer")
    return np.asarray(values, dtype=int)


def _read_events(path: Path) -> tuple:
    """Events and config recorded in ``events.json``."""
    try:
        payload = json.loads(path.read_text())
        events = [
            CollisionEvent(
                time=float(ev["time"]),
                deleted_particles=_integers(ev["deleted_particles"], "deleted_particles"),
                deleted_cells=_integers(ev["deleted_cells"], "deleted_cells"),
                survivor_map=_integers(ev["survivor_map"], "survivor_map"),
                discarded_mass=float(ev["discarded_mass"]),
                pre_particle_count=int(_integers([ev["pre_particle_count"]], "pre_particle_count")[0]),
            )
            for ev in payload["events"]
        ]
        return events, payload.get("config", {})
    except KeyError as exc:
        raise ValueError(f"invalid {path.name}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid {path.name}: {exc}") from exc


def load_trajectory_dir(directory, model: FluxModel) -> Trajectory:
    """Rebuild a trajectory from ``trajectory.csv`` and ``events.json``.

    Raises ``ValueError`` if either file is missing, unreadable or
    malformed, or if the changes in the cell count do not match the
    recorded events one for one, so the invariant audit can replay the
    deletions.  A
    well-formed ``trajectory.csv`` numbers each snapshot's cells 0..n-1 in
    order, gives all of them one finite time, never lets that time
    decrease, and repeats each cell's ``x_right`` as the next cell's
    ``x_left``.  Widths are position differences; masses are snapshot 0's
    density times width, carried through the events as a run carries them.
    The fingerprint is worked out from the recorded config, as for a run.
    """
    directory = Path(directory)
    try:
        table = _read_trajectory_table(directory / "trajectory.csv")
        events, config = _read_events(directory / "events.json")
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from exc

    times, cells, x_left, x_right, dens_all = np.ascontiguousarray(table.T)
    # a snapshot starts wherever the cell index restarts at 0
    bounds = np.append(np.flatnonzero(cells == 0), cells.size).tolist()

    snapshots = []
    masses = None
    pending = list(events)
    for lo, hi in zip(bounds, bounds[1:]):
        t = float(times[lo])
        pos = np.append(x_left[lo:hi], x_right[hi - 1])
        dens = dens_all[lo:hi]
        if masses is None:
            masses = dens * np.diff(pos)  # cell_average's product
        elif masses.size != dens.size:
            # survivors of a sweep keep their masses
            deleted = pending.pop(0).deleted_cells if pending else None
            if (
                deleted is None
                or masses.size - np.unique(deleted).size != dens.size
                or np.any((deleted < 0) | (deleted >= masses.size))
            ):
                raise ValueError("cell count change does not match the event log")
            masses = np.delete(masses, deleted)
        snapshots.append(ParticleState(positions=pos, densities=dens, masses=masses, time=t))
    if pending:
        raise ValueError(f"event log has {len(pending)} more event(s) than cell count changes")
    return Trajectory(snapshots=snapshots, events=events, model=model, config=config)
