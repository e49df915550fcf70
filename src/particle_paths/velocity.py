"""Entropic particle velocity at a density interface.

The particle between a left state v_l and right state v_r moves with the
minimum of the velocity field a over [v_l, v_r] when density rises to the
right, and with the maximum over [v_r, v_l] when it falls.  Both branches
agree at v_l = v_r, where the value is a(v_l).  For a nonincreasing
velocity field this collapses to a(v_r): each particle moves with the
speed set by the density ahead of it, the follow-the-leader rule.
"""

from __future__ import annotations

import numpy as np

from .flux import ArrayExtremumOracle, FluxModel, check_density_intervals, velocity_extrema

__all__ = ["interface_velocities", "particle_velocity", "follow_the_leader_deviation"]


def interface_velocities(model: FluxModel, v_l, v_r) -> np.ndarray:
    """Entropic velocity of every interface between states v_l[i] and v_r[i].

    One array call for models with an ``ArrayExtremumOracle`` (every
    built-in flux); other models are served one nondegenerate interval at
    a time by ``particle_velocity``.  Raises ValueError on a negative state
    or one above the model's working interval.
    """
    v_l, v_r = np.broadcast_arrays(np.asarray(v_l, dtype=float), np.asarray(v_r, dtype=float))
    lo = np.minimum(v_l, v_r)
    hi = np.maximum(v_l, v_r)
    check_density_intervals(model, lo, hi)
    if isinstance(model.extremum_oracle, ArrayExtremumOracle):
        ext = model.extremum_oracle(lo, hi)
        vel = np.where(v_l <= v_r, ext.min_value, ext.max_value)
    else:
        vel = np.empty(v_l.shape)
        for i in np.flatnonzero(v_l != v_r).tolist():
            vel.flat[i] = particle_velocity(model, float(v_l.flat[i]), float(v_r.flat[i]))
    # a(v) on degenerate intervals, exactly as the scalar rule evaluates it
    same = v_l == v_r
    vel[same] = model.eval_a(v_l[same])
    return vel


def particle_velocity(model: FluxModel, v_l: float, v_r: float) -> float:
    if v_l < 0.0 or v_r < 0.0:
        raise ValueError(f"negative density state ({v_l}, {v_r})")
    if v_l <= v_r:
        return velocity_extrema(model, v_l, v_r).min_value
    return velocity_extrema(model, v_r, v_l).max_value


def follow_the_leader_deviation(model: FluxModel, pairs, scan_points: int = 2048) -> float:
    """Largest |particle_velocity(v_l, v_r) - a(v_r)| over the given pairs.

    Requires a numerically nonincreasing velocity field on [0, u_high];
    the scan rejects models where a rises anywhere, naming the sample.
    """
    us = np.linspace(0.0, model.u_high, scan_points)
    av = np.asarray(model.eval_a(us), dtype=float)
    rise_tol = 1e-12 * max(1.0, float(np.max(np.abs(av))))
    rises = np.diff(av) > rise_tol
    if rises.any():
        j = int(np.argmax(rises))
        raise ValueError(
            "velocity field is not nonincreasing: "
            f"a({us[j]:.9g}) = {av[j]:.9g} < a({us[j + 1]:.9g}) = {av[j + 1]:.9g}"
        )
    pairs = np.asarray(pairs, dtype=float).reshape(-1, 2)
    vel = interface_velocities(model, pairs[:, 0], pairs[:, 1])
    dev = np.abs(vel - np.asarray(model.eval_a(pairs[:, 1]), dtype=float))
    return float(np.max(dev, initial=0.0))
