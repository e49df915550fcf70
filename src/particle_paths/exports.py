"""Stable on-disk formats for trajectories, events, and sampled functions.

``trajectory.npy``: one float64 (rows, 7) array of t, cell, x_left,
x_right, density, width and mass, a row per snapshot per cell in record
order (a cell index of 0 starts a snapshot; a collision time appears
twice, pre- then post-sweep), in ``np.save``'s format without pickling;
the loader reads it.  Both writers read the trajectory's row blocks.
``trajectory.csv`` holds the first five columns as text under the header
``t,i,x_left,x_right,v``.  ``events.json`` holds one ``CollisionEvent``
per sweep: its time, deleted cells and discarded mass, and no other key
(the loader refuses one).  Text floats are shortest round-trip
``repr``, so identical runs give identical bytes.  Every JSON file goes
through ``write_json`` and every CSV row through ``_rows`` (the
``\\r\\n``-ended rows of ``csv.writer``).  The loader raises
``ValueError`` with a one-line reason for any malformed or missing input.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from tokenize import TokenError

import numpy as np

from .dynamics import CollisionEvent, Trajectory, _Snapshots
from .flux import FluxModel

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
    with Path(path).open("w", newline="") as fh:
        fh.write(_TRAJECTORY_HEADER + "\r\n")
        for block in traj.blocks():
            index = list(map(str, range(block.densities.shape[1])))
            for t, pos, dens in zip(block.times.tolist(), block.positions, block.densities):
                xs = _reprs(pos)
                fh.write(_rows([repr(t)] * len(index), index, xs[:-1], xs[1:], _reprs(dens)))


def write_trajectory_npy(traj: Trajectory, path) -> None:
    """Write the trajectory's rows in ``np.save``'s format: the header for
    the whole array, then each row block's rows, stacked from its columns,
    so the array is never held whole in memory."""
    rows = sum(b.densities.size for b in traj.blocks())
    header = {"descr": np.dtype(float).str, "fortran_order": False, "shape": (rows, len(_TRAJECTORY_COLUMNS))}
    with Path(path).open("wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for b in traj.blocks():
            x = b.positions
            cell = np.arange(b.densities.shape[1])
            columns = (b.times[:, None], cell, x[:, :-1], x[:, 1:], b.densities, b.widths, b.masses)
            np.stack(np.broadcast_arrays(*columns), axis=-1).tofile(fh)


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
    t, cells, x_left, x_right, densities, widths, masses = table.T
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
    # so x_left < x_right orders each snapshot's positions, and finite ends bound them
    if not (np.all(x_left < x_right) and np.minimum.reduce(x_left) > -np.inf and np.maximum.reduce(x_right) < np.inf):
        raise ValueError("particle positions must be finite and strictly increasing")
    if not (np.minimum.reduce(widths) > 0.0 and np.maximum.reduce(widths) < np.inf):
        raise ValueError("cell widths must be finite and positive")
    for name, column in (("densities", densities), ("masses", masses)):
        if not (np.minimum.reduce(column) >= 0.0 and np.maximum.reduce(column) < np.inf):
            raise ValueError(f"cell {name} must be finite and nonnegative")
    return table.T


def _integers(values, key: str) -> np.ndarray:
    """``values`` as an int array; ``ValueError`` naming ``key`` unless each
    is an integral number: an int, or a float with no fraction (a bool or a
    string is not)."""
    for v in values:
        if not (type(v) is int or (type(v) is float and v.is_integer())):
            raise ValueError(f"{key} holds {v!r}, not an integer")
    return np.asarray(values, dtype=int)


def _finite(value, key: str, nonnegative: bool = False) -> float:
    """``value`` as a float; ``ValueError`` naming ``key`` unless it is
    finite (and, if ``nonnegative`` is set, at least 0)."""
    number = float(value)
    if not (math.isfinite(number) and (number >= 0.0 or not nonnegative)):
        raise ValueError(f"{key} holds {number!r}, not a finite{' nonnegative' if nonnegative else ''} number")
    return number


def _read_events(path: Path) -> tuple:
    """Events and config recorded in ``events.json``; an event key besides its three fields is refused."""
    try:
        payload = json.loads(path.read_text())
        stray = [key for ev in payload["events"] for key in ev if key not in ("time", "deleted_cells", "discarded_mass")]
        if stray:
            raise ValueError(f"unknown event key {stray[0]!r}")
        events = [
            CollisionEvent(
                time=_finite(ev["time"], "time"),
                deleted_cells=_integers(ev["deleted_cells"], "deleted_cells"),
                discarded_mass=_finite(ev["discarded_mass"], "discarded_mass", nonnegative=True),
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
    masses and time, so a loaded run audits as the live one does.  Each
    stretch of the columns with one cell count is reshaped, in one copy
    per column, into the arrays of one run, which the trajectory keeps
    as they are, as it keeps those of ``simulate``.  Raises
    ``ValueError`` if either file is missing, unreadable or malformed, or
    if the runs and the recorded events break the rule ``Trajectory``
    checks when it is built.  A well-formed ``trajectory.npy`` is a
    nonempty 2-D float64 array of 7 columns that numbers each snapshot's
    cells 0..n-1 in order, gives all of them one finite time, never lets
    that time decrease, repeats each cell's ``x_right`` as the next cell's
    ``x_left``, puts each ``x_left`` below its ``x_right`` and holds only
    finite values, positive widths and nonnegative densities and masses.
    The fingerprint is worked out from the recorded config, as for a run.
    """
    directory = Path(directory)
    try:
        times, cells, x_left, x_right, densities, widths, masses = _read_trajectory_columns(directory / "trajectory.npy")
        events, config = _read_events(directory / "events.json")
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from exc

    # a snapshot starts wherever the cell index restarts at 0, and each
    # stretch of snapshots with one cell count is a run
    starts = np.flatnonzero(cells == 0)
    counts = np.diff(starts, append=cells.size)
    edges = np.flatnonzero(np.diff(counts, prepend=0, append=0)).tolist()

    runs = []
    for first, end in zip(edges, edges[1:]):
        rows, n, lo = end - first, int(counts[first]), int(starts[first])
        left, *cell_columns = (c[lo : lo + rows * n].reshape(rows, n) for c in (x_left, densities, widths, masses))
        positions = np.concatenate([left, x_right[lo + n - 1 : lo + rows * n : n, None]], axis=1)
        # C-order copies of the strided columns, one run apiece
        runs.append((times[lo : lo + rows * n : n].copy(), positions, *map(np.array, cell_columns)))
    return Trajectory(snapshots=_Snapshots(runs), events=events, model=model, config=config)
