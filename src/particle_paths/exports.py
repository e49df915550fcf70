"""Stable on-disk formats for trajectories, events, and sampled functions.

``trajectory.npy``: one float64 (rows, 7) array of t, cell, x_left,
x_right, density, width and mass, a row per snapshot per cell in record
order (a cell index of 0 starts a snapshot; a collision time appears
twice, pre- then post-sweep), in ``np.save``'s format without pickling;
the loader reads it.  ``trajectory.csv`` holds the first five columns as
text under the header ``t,i,x_left,x_right,v``.  ``events.json`` holds
one object per collision: the deleted particles and cells, the survivor
map and the discarded mass.  Text floats are shortest round-trip
``repr``, so identical runs give identical bytes.  Every JSON file goes
through ``write_json`` and every CSV row through ``_rows`` (the
``\\r\\n``-ended rows of ``csv.writer``).  The loader raises
``ValueError`` with a one-line reason for any malformed or missing input.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .dynamics import CollisionEvent, Trajectory
from .flux import FluxModel
from .initial import ParticleState

__all__ = [
    "write_json",
    "write_trajectory_csv",
    "write_trajectory_npy",
    "write_events_json",
    "write_function_csv",
    "write_rate_csv",
    "load_trajectory_dir",
]

_TRAJECTORY_HEADER = "t,i,x_left,x_right,v"
_TRAJECTORY_COLUMNS = ("t", "cell", "x_left", "x_right", "density", "width", "mass")


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


def write_trajectory_npy(traj: Trajectory, path) -> None:
    """Write the trajectory's rows in ``np.save``'s format: the header for
    the whole array, then each snapshot's rows from one reused buffer, so
    the array is never held whole in memory."""
    counts = [state.n_cells for state in traj.snapshots]
    buf = np.empty((max(counts, default=0), len(_TRAJECTORY_COLUMNS)))
    buf[:, 1] = np.arange(buf.shape[0])
    header = np.lib.format.header_data_from_array_1_0(buf)
    header["shape"] = (sum(counts), buf.shape[1])
    with Path(path).open("wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for state, n in zip(traj.snapshots, counts):
            pos, rows = state.positions, buf[:n]
            rows[:, 0], rows[:, 2], rows[:, 3] = state.time, pos[:-1], pos[1:]
            rows[:, 4], rows[:, 5], rows[:, 6] = state.densities, state.widths, state.masses
            rows.tofile(fh)


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
    # a zero error makes its log -inf and the slopes nan, written as such
    with np.errstate(divide="ignore", invalid="ignore"):
        slopes = [""] + [
            repr(float(np.polyfit(np.log(res[: j + 1]), np.log(err[: j + 1]), 1)[0])) for j in range(1, res.size)
        ]
    with Path(path).open("w", newline="") as fh:
        fh.write("dx,error,slope_so_far\r\n" + _rows(_reprs(res), _reprs(err), slopes))


def _read_trajectory_columns(path: Path) -> np.ndarray:
    """The columns of ``trajectory.npy``, as the rows of a (7, rows) view of its array."""
    with path.open("rb") as fh:
        try:
            table = np.lib.format.read_array(fh, allow_pickle=False)
        except (ValueError, SyntaxError, TokenError) as exc:  # numpy's faults on a damaged header
            raise ValueError(f"unreadable trajectory array: {exc}") from exc
    # shape[1:] is (7,) only for a 2-D array of 7 columns
    if table.dtype != np.float64 or table.shape[1:] != (len(_TRAJECTORY_COLUMNS),) or table.size == 0:
        raise ValueError(f"trajectory array is {table.dtype} of shape {table.shape}, need float64 (rows > 0, 7)")
    t, cells, x_left, x_right, _, widths, _ = table.T
    if not np.all(cells % 1.0 == 0.0):
        raise ValueError("non-integral cell index in trajectory array")
    if cells[0] != 0:
        raise ValueError("first trajectory row is not cell 0")
    # row k + 1 continues row k's snapshot unless its cell index restarts at 0
    same = cells[1:] != 0.0
    if np.any(same & (cells[1:] != cells[:-1] + 1.0)):
        raise ValueError("cell indices of a snapshot are not 0..n-1 in order")
    if not np.all(np.isfinite(t)):
        raise ValueError("non-finite snapshot time")
    if np.any(t[1:][same] != t[:-1][same]):
        raise ValueError("rows of one snapshot have different times")
    if np.any(t[1:] < t[:-1]):
        raise ValueError("snapshot times decrease")
    if np.any(x_left[1:][same] != x_right[:-1][same]):
        raise ValueError("a cell's x_right differs from the next cell's x_left")
    # ParticleState checks only the shape of the widths; NaN fails both tests
    if not (np.minimum.reduce(widths) > 0.0 and np.maximum.reduce(widths) < np.inf):
        raise ValueError("cell widths must be finite and positive")
    return table.T


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
        config = payload.get("config", {})
        if not isinstance(config, dict):
            raise ValueError(f"config must be an object, got {config!r}")
        return events, config
    except KeyError as exc:
        raise ValueError(f"invalid {path.name}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"invalid {path.name}: {exc}") from exc


def load_trajectory_dir(directory, model: FluxModel) -> Trajectory:
    """Rebuild a trajectory from ``trajectory.npy`` and ``events.json``.

    Every snapshot holds the run's own positions, densities, widths,
    masses and time, so a loaded run audits as the live one does.  Raises
    ``ValueError`` if either file is missing, unreadable or malformed, or
    if the changes in the cell count do not match the recorded events one
    for one.  A well-formed ``trajectory.npy`` is a nonempty 2-D float64
    array of 7 columns that numbers each snapshot's cells 0..n-1 in order,
    gives all of them one finite time, never lets that time decrease,
    repeats each cell's ``x_right`` as the next cell's ``x_left`` and has
    finite, positive widths.  The fingerprint is worked out from the
    recorded config, as for a run.
    """
    directory = Path(directory)
    try:
        times, cells, x_left, x_right, densities, widths, masses = _read_trajectory_columns(directory / "trajectory.npy")
        events, config = _read_events(directory / "events.json")
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from exc

    # a snapshot starts wherever the cell index restarts at 0
    bounds = np.append(np.flatnonzero(cells == 0), cells.size).tolist()

    snapshots = []
    pending = list(events)
    for lo, hi in zip(bounds, bounds[1:]):
        n = hi - lo
        if snapshots and snapshots[-1].n_cells != n:
            # a sweep deletes the cells its event names, and no others
            before, deleted = snapshots[-1].n_cells, (pending.pop(0).deleted_cells if pending else None)
            if deleted is None or before - np.unique(deleted).size != n or np.any((deleted < 0) | (deleted >= before)):
                raise ValueError("cell count change does not match the event log")
        pos = np.append(x_left[lo:hi], x_right[hi - 1])
        snapshots.append(ParticleState(pos, densities[lo:hi], masses[lo:hi], float(times[lo]), widths[lo:hi]))
    if pending:
        raise ValueError(f"event log has {len(pending)} more event(s) than cell count changes")
    return Trajectory(snapshots=snapshots, events=events, model=model, config=config)
