"""Entropic particle velocity: the rule V(v_l, v_r) and its one kernel.

The particle between a left state v_l and right state v_r moves with the
minimum of the velocity field a over [v_l, v_r] when density rises to the
right, and with the maximum over [v_r, v_l] when it falls.  Both branches
agree at v_l = v_r, where the value is a(v_l).  ``velocity_extrema`` gives
both extrema over one interval, for the audit's velocity bounds.

``particle_velocities`` applies the rule to every particle of a state, of
a row block of snapshots, or of an (n, 2) array of pairs, each row padded
with vacuum (density 0) on both sides.  It has one path per oracle kind:

* a ``MonotoneOracle`` (burgers, lwr) takes one end of the interval:
  a(v_l) for increasing a (burgers), and a(v_r) for decreasing a (lwr),
  where each particle moves with the speed set by the density ahead of
  it, the follow-the-leader rule.  a is evaluated once per cell, with no
  min, max or choice between branches, and the vacuum end takes the
  oracle's a(0).  These are the two-sided rule's bits on every density in
  range, since the oracle's extrema are a's values at the ends;
* a ``PiecewiseMonotoneOracle`` (a closed-form field with its turning
  points, or ``tabulated``) takes the two-sided rule through
  ``flux.entropic_row``, the kernel Godunov's interface flux runs over f,
  which reads the nodes in (lower, upper] of two neighbouring cells.

Before either path, the densities must lie in the model's working interval.
``check_density_intervals`` tests that with two reductions, unless
the caller passes a ``_Cells`` or ``SnapshotBlock`` whose proved ``top``
lies inside: ``simulate`` after each step, every trajectory block, and
``velocity_extrema`` after its own scalar test.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .flux import FluxModel, MonotoneOracle

__all__ = ["VelocityExtrema", "velocity_extrema", "particle_velocities", "follow_the_leader_deviation"]


class VelocityExtrema(NamedTuple):
    min_value: float
    max_value: float


def check_density_intervals(model: FluxModel, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ValueError unless every 0 <= lo[i] and hi[i] <= the working top.

    The package's only range test.  fmin and fmax skip NaN, so a NaN
    passes and callers see it propagate, without hiding a negative density
    beside it, which the message then names.
    """
    lowest = np.fmin.reduce(lo, axis=None, initial=0.0)
    if lowest < 0.0:
        raise ValueError(f"negative density {float(lowest)}")
    highest = np.fmax.reduce(hi, axis=None, initial=0.0)
    if highest > model.density_limit:
        raise ValueError(f"density {float(highest)} exceeds working interval [0, {model.u_high}]")


def velocity_extrema(model: FluxModel, lo: float, hi: float) -> VelocityExtrema:
    """Extrema of the velocity field a over the density interval [lo, hi].

    The kernel's velocity of the particle between the cells [lo, hi] (the
    rule's min) and [hi, lo] (its max); [lo, lo] gives a(lo).  Inputs must
    be nonnegative, ordered, and inside the model's working interval,
    tested here, so the kernel gets ``hi`` as a proved ``top``.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo <= hi:
        raise ValueError(f"density interval [{lo}, {hi}] is inverted or NaN")
    check_density_intervals(model, lo, hi)
    cells = _Cells(np.array([[lo, hi], [hi, lo]]), 6, hi)
    return VelocityExtrema(*map(float, particle_velocities(model, cells)[:, 1]))


class _Cells(NamedTuple):
    """The part of a state the velocity kernel reads, for the array loop and the FTL check.

    ``top`` is at least every density, taken by a caller that has proved
    each density finite and nonnegative, or NaN when nothing is proved.  The
    kernel then compares this one value with the working interval's top
    in place of the range test's two reductions; NaN, or a value above the
    top, runs the full test, with its messages.
    """

    densities: np.ndarray
    n_particles: int
    top: float = math.nan


def particle_velocities(model: FluxModel, state) -> np.ndarray:
    """Velocity of every particle; sentinel density 0 beyond the ends.

    Reads ``state.densities``, and ``state.top`` where there is one: one
    state's cells, or a row block's (rows, cells) array with one snapshot
    per row.  Each row is padded
    with vacuum on both sides and gives that snapshot's velocities, the
    same bits as a call on the row alone, since the kernel and the flux
    oracles work elementwise.  Column 1 of an (n, 2) block of pairs is the
    velocity of the particle between each pair; a ``PiecewiseMonotoneOracle``
    takes the two-sided rule, Godunov's too.  Raises ValueError when a
    density is negative or above the model's working interval; a ``top``
    proved in range skips that test's reductions.
    """
    dens = state.densities
    if not getattr(state, "top", math.nan) <= model.density_limit:
        check_density_intervals(model, dens, dens)
    oracle = model.extremum_oracle
    if isinstance(oracle, MonotoneOracle):
        vel = np.empty((*dens.shape[:-1], dens.shape[-1] + 1))
        cells, vacuum = (vel[..., 1:], vel[..., 0]) if oracle.increasing else (vel[..., :-1], vel[..., -1])
        cells[...] = oracle.a_of(dens)
        vacuum[...] = oracle.a_vacuum
        return vel
    padded = np.zeros((*dens.shape[:-1], dens.shape[-1] + 2))
    padded[..., 1:-1] = dens
    return oracle.entropic(padded)


def follow_the_leader_deviation(model: FluxModel, pairs) -> float:
    """Largest |V(v_l, v_r) - a(v_r)| over the given (v_l, v_r) pairs.

    Each pair is the two cells around one particle, whose velocity
    ``particle_velocities`` gives in column 1 of the (pairs, 2) block.
    a(v_r) is the oracle's own ``a_of``, the rule's value on [v_r, v_r], so
    a rule that is exactly a(v_r) reads 0.

    Requires a nonincreasing velocity field on [0, u_high], read from the
    oracle's own a without a scan: either oracle kind's a is monotone
    between its nodes, so 0, the nodes inside (0, u_high) and u_high
    decide (0 and u_high alone for a ``MonotoneOracle``).  A rise between
    two of them raises ``ValueError`` naming both points.
    """
    oracle = model.extremum_oracle
    nodes = oracle.nodes
    us = np.concatenate(([0.0], nodes[(nodes > 0.0) & (nodes < model.u_high)], [model.u_high]))
    av = np.asarray(oracle.a_of(us), dtype=float)
    rise_tol = 1e-12 * max(1.0, float(np.max(np.abs(av))))
    rises = np.diff(av) > rise_tol
    if rises.any():
        j = int(np.argmax(rises))
        raise ValueError(
            "velocity field is not nonincreasing: "
            f"a({us[j]:.9g}) = {av[j]:.9g} < a({us[j + 1]:.9g}) = {av[j + 1]:.9g}"
        )
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    v_r = pairs[:, 1]
    vel = particle_velocities(model, _Cells(pairs, 3 * len(pairs)))[:, 1]
    dev = np.abs(vel - np.asarray(oracle.a_of(v_r), dtype=float))
    return float(np.max(dev, initial=0.0))
