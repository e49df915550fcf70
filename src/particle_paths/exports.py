"""Stable on-disk formats for trajectories, events, and sampled functions.

Trajectory CSV: header ``t,i,x_left,x_right,v`` with one row per snapshot
per cell, snapshots in record order (cell index restarting at 0 marks a
new snapshot; collision times appear twice, pre- then post-sweep).
Events JSON: one object per collision with the deleted particle and cell
indices, the survivor map, and the discarded mass.  Floats are written
with ``repr`` (shortest round-trip), so identical runs produce identical
bytes and parsing recovers exact values.

Every CSV writer formats its rows the same way: fields joined by ``,``
and each row ended by ``\\r\\n``, the bytes ``csv.writer`` emits.  The
trajectory writer formats one snapshot at a time (each position once,
though it appears as ``x_right`` of one cell and ``x_left`` of the next)
and writes it with a single call, so the file is never held whole in
memory.  The loader parses the whole body in one ``np.loadtxt`` pass and
cuts snapshots out of its columns as slices; it accepts LF as well as
CRLF line endings and raises ``ValueError`` with a one-line reason for
any malformed or missing input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import CollisionEvent, Trajectory
from .flux import FluxModel
from .initial import ParticleState

__all__ = [
    "write_trajectory_csv",
    "write_events_json",
    "write_function_csv",
    "write_rate_csv",
    "load_trajectory_dir",
]

_TRAJECTORY_HEADER = "t,i,x_left,x_right,v"


def _rows(*columns) -> str:
    """CSV rows built from columns of already formatted fields."""
    return "".join([",".join(fields) + "\r\n" for fields in zip(*columns)])


def _reprs(values) -> list:
    """Shortest round-trip text of each value, as a float."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def write_trajectory_csv(traj: Trajectory, path) -> None:
    with Path(path).open("w", newline="") as fh:
        fh.write(_TRAJECTORY_HEADER + "\r\n")
        for t, state in traj.snapshots:
            xs = _reprs(state.positions)
            n = state.n_cells
            fh.write(_rows([repr(float(t))] * n, map(str, range(n)), xs, xs[1:], _reprs(state.densities)))


def write_events_json(traj: Trajectory, path) -> None:
    payload = {
        "fingerprint": traj.fingerprint,
        "config": traj.config,
        "events": [
            {
                "time": ev.time,
                "deleted_particles": [int(j) for j in ev.deleted_particles],
                "deleted_cells": [int(j) for j in ev.deleted_cells],
                "survivor_map": [int(j) for j in ev.survivor_map],
                "discarded_mass": ev.discarded_mass,
                "pre_particle_count": ev.pre_particle_count,
            }
            for ev in traj.events
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


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
    return table


def _read_events(path: Path) -> tuple:
    """Events, config and fingerprint recorded in ``events.json``."""
    try:
        payload = json.loads(path.read_text())
        events = [
            CollisionEvent(
                time=ev["time"],
                deleted_particles=np.asarray(ev["deleted_particles"], dtype=int),
                deleted_cells=np.asarray(ev["deleted_cells"], dtype=int),
                survivor_map=np.asarray(ev["survivor_map"], dtype=int),
                discarded_mass=ev["discarded_mass"],
                pre_particle_count=ev["pre_particle_count"],
            )
            for ev in payload["events"]
        ]
        return events, payload.get("config", {}), payload.get("fingerprint", "")
    except KeyError as exc:
        raise ValueError(f"invalid {path.name}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"invalid {path.name}: {exc}") from exc


def load_trajectory_dir(directory, model: FluxModel) -> Trajectory:
    """Rebuild a trajectory from ``trajectory.csv`` and ``events.json``.

    Initial per-cell widths and densities are taken from the first
    snapshot and pulled through the recorded collision deletions, so the
    invariant audit runs on the loaded object exactly as on a live one.
    Raises ``ValueError`` if either file is missing, unreadable or
    malformed, or if the cell counts disagree with the event log.
    """
    directory = Path(directory)
    try:
        table = _read_trajectory_table(directory / "trajectory.csv")
        events, config, fingerprint = _read_events(directory / "events.json")
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from exc

    times, cells, x_left, x_right, dens_all = np.ascontiguousarray(table.T)
    # a snapshot starts wherever the cell index restarts at 0
    bounds = np.append(np.flatnonzero(cells == 0), cells.size).tolist()

    snapshots = []
    width0: Optional[np.ndarray] = None
    density0: Optional[np.ndarray] = None
    rho_star = 0.0
    pending = list(events)
    for lo, hi in zip(bounds, bounds[1:]):
        t = float(times[lo])
        pos = np.append(x_left[lo:hi], x_right[hi - 1])
        dens = dens_all[lo:hi]
        if width0 is None:
            width0 = np.diff(pos)
            density0 = dens.copy()
            rho_star = float(np.max(dens, initial=0.0))
        elif width0.size != dens.size:
            deleted = pending.pop(0).deleted_cells if pending else None
            if (
                deleted is None
                or width0.size - deleted.size != dens.size
                or np.any((deleted < 0) | (deleted >= width0.size))
            ):
                raise ValueError("cell count change does not match the event log")
            keep = np.ones(width0.size, dtype=bool)
            keep[deleted] = False
            width0 = width0[keep]
            density0 = density0[keep]
        state = ParticleState(
            positions=pos,
            densities=dens,
            masses=dens * np.diff(pos),
            width0=width0.copy(),
            density0=density0.copy(),
            density0_max=rho_star,
            time=t,
        )
        snapshots.append((t, state))
    return Trajectory(
        snapshots=snapshots,
        events=events,
        model=model,
        data=None,
        config=config,
        fingerprint=fingerprint,
    )
