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

from .flux import FluxModel, MonotoneOracle, TabulatedOracle, check_density_intervals, velocity_extrema

__all__ = ["interface_velocities", "particle_velocity", "follow_the_leader_deviation"]


def interface_velocities(model: FluxModel, v_l, v_r) -> np.ndarray:
    """Entropic velocity of every interface between states v_l[i] and v_r[i].

    One call to the model's array extremum oracle serves every interface.
    Raises ValueError on a negative state or one above the model's working
    interval.
    """
    v_l = np.asarray(v_l, dtype=float)
    v_r = np.asarray(v_r, dtype=float)
    if v_l.shape != v_r.shape:
        v_l, v_r = np.broadcast_arrays(v_l, v_r)
    lo = np.minimum(v_l, v_r)
    hi = np.maximum(v_l, v_r)
    # the check's own test without its call overhead; the check runs only to raise
    if (lo < 0.0).any() or (hi > model.density_limit).any():
        check_density_intervals(model, lo, hi)
    ext = model.extremum_oracle(lo, hi)
    vel = np.where(v_l <= v_r, ext.min_value, ext.max_value)
    # a(v) on degenerate intervals, exactly as the scalar rule evaluates it
    same = v_l == v_r
    if same.any():
        vel[same] = model.eval_a(v_l[same])
    return vel


def particle_velocity(model: FluxModel, v_l: float, v_r: float) -> float:
    if v_l < 0.0 or v_r < 0.0:
        raise ValueError(f"negative density state ({v_l}, {v_r})")
    if v_l <= v_r:
        return velocity_extrema(model, v_l, v_r).min_value
    return velocity_extrema(model, v_r, v_l).max_value


def follow_the_leader_deviation(model: FluxModel, pairs) -> float:
    """Largest |particle_velocity(v_l, v_r) - a(v_r)| over the given pairs.

    Requires a nonincreasing velocity field on [0, u_high], read from the
    model without a scan: a ``MonotoneOracle``'s a is monotone, so its two
    ends decide, and a ``TabulatedOracle``'s a is monotone on each piece, so
    its nodes below u_high and u_high itself decide.  A rise between them
    raises ``ValueError`` naming both points; any other oracle raises too.
    """
    oracle = model.extremum_oracle
    if isinstance(oracle, MonotoneOracle):
        us = np.array([0.0, model.u_high])
    elif isinstance(oracle, TabulatedOracle):
        us = np.append(oracle.us[oracle.us < model.u_high], model.u_high)
    else:
        raise ValueError(
            f"flux '{model.name}' does not expose where its velocity field is monotone: "
            "sample it into builtin_flux('tabulated') for the follow-the-leader check"
        )
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
