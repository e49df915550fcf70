"""The invariant audit and the space-time flux residual as they ran one
snapshot at a time, and the temporal modulus over every snapshot pair.

The package now works on row blocks of snapshots; these loops, which
take every snapshot's reductions and velocities on their own, are the
reference its audit reports and residuals must equal bit for bit.  The
velocities come from ``dynamics_reference.two_sided_velocities``, not
from the package's kernel.  The package takes the temporal modulus over
consecutive snapshots only; the distances of every pair taken here in one
array pass are ``l1_distance``'s bits, so on the adjacent pairs both give
the same ratios.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from particle_paths.analysis import AuditReport, CheckResult
from particle_paths.dynamics import Trajectory
from particle_paths.field import reconstruct_density
from particle_paths.flux import FluxModel
from particle_paths.initial import ParticleState, integrate, total_variation
from particle_paths.velocity import velocity_extrema

from dynamics_reference import two_sided_velocities

__all__ = ["invariant_audit", "flux_residual_l1", "spacetime_flux_residual", "temporal_modulus_margin"]


def invariant_audit(traj: Trajectory) -> AuditReport:
    """Check the a-priori structure of a trajectory snapshot by snapshot.

    Verifies per-cell mass bookkeeping, total-mass conservation (up to the
    audited mass discarded at collisions), the density maximum principle
    with its time-dependent lower bound, the two-sided particle separation
    bounds, nonincreasing total variation, and velocity bounds.

    The bounds are stated per cell in its width and density at creation:
    those of snapshot 0, with each event's deleted cells dropped as the
    audit passes it.  Raises ``ValueError`` when a snapshot's cell count
    does not match the events passed before it.  Bookkeeping, the density
    and separation bounds and the velocity bounds hold to a relative 1e-12,
    the TV nonincrease to 1e-12 of snapshot 0's TV, or 1e-10 where that is
    larger.
    """
    rtol = 1e-12
    model = traj.model
    state0 = traj.snapshots[0]
    tv_tol = max(1e-10, rtol * total_variation(state0.densities))
    rho_star = float(np.max(state0.densities, initial=0.0))
    ext = velocity_extrema(model, 0.0, rho_star)
    a_min, a_max = ext.min_value, ext.max_value
    spread = a_max - a_min
    mass0 = state0.total_mass
    scale_m = max(mass0, 1e-300)

    worst_mass_id = 0.0
    worst_drift = 0.0
    worst_max_principle = np.inf
    worst_lower_density = np.inf
    worst_sep_low = np.inf
    worst_sep_high = np.inf
    worst_tv_rise = -np.inf
    worst_vel = np.inf

    discarded_so_far = 0.0
    w0, rho0 = state0.widths, state0.densities
    event_iter = iter(traj.events)
    next_event = next(event_iter, None)

    tv_prev = None
    for state in traj.snapshots:
        t = state.time
        while next_event is not None and (
            next_event.time < t or (next_event.time == t and state.n_cells != w0.size)
        ):
            discarded_so_far += next_event.discarded_mass
            keep = np.ones(w0.size, dtype=bool)
            keep[next_event.deleted_cells] = False
            w0, rho0 = w0[keep], rho0[keep]
            next_event = next(event_iter, None)
        if w0.size != state.n_cells:
            raise ValueError(f"snapshot at t = {t} has {state.n_cells} cells, the event log leaves {w0.size}")

        widths = state.widths
        worst_mass_id = max(
            worst_mass_id, float(np.max(np.abs(state.densities * widths - state.masses))) / scale_m
        )
        worst_drift = max(worst_drift, abs(state.total_mass + discarded_so_far - mass0) / scale_m)
        if state.densities.size:
            worst_max_principle = min(worst_max_principle, rho_star - float(np.max(state.densities)))
            lower = w0 * rho0 / (w0 + state.time * spread)
            worst_lower_density = min(worst_lower_density, float(np.min(state.densities - lower)))
            if rho_star > 0:
                sep_low = rho0 / rho_star * w0
                worst_sep_low = min(worst_sep_low, float(np.min(widths - sep_low)))
            sep_high = w0 + state.time * spread
            worst_sep_high = min(worst_sep_high, float(np.min(sep_high - widths)))
        tv = total_variation(state.densities)
        if tv_prev is not None:
            worst_tv_rise = max(worst_tv_rise, tv - tv_prev)
        tv_prev = tv
        try:
            vel = two_sided_velocities(model, state)
        except ValueError:
            # densities left the working interval: report it as a velocity
            # violation rather than aborting the audit
            worst_vel = -np.inf
        else:
            worst_vel = min(
                worst_vel, float(np.min(vel - a_min)), float(np.min(a_max - vel))
            )

    tol_rho = rtol * max(1.0, rho_star)
    tol_sep = rtol * max(1.0, float(np.max(state0.widths)) + abs(spread) * traj.times[-1])
    checks = {
        "mass_identity": CheckResult(worst_mass_id <= rtol, rtol - worst_mass_id, f"max |v*dx - m|/M = {worst_mass_id:.3e}"),
        "mass_drift": CheckResult(worst_drift <= rtol, rtol - worst_drift, f"max relative drift = {worst_drift:.3e}"),
        "max_principle": CheckResult(worst_max_principle >= -tol_rho, worst_max_principle, f"min(rho* - v) = {worst_max_principle:.3e}"),
        "density_lower_bound": CheckResult(worst_lower_density >= -tol_rho, worst_lower_density, f"min(v - bound) = {worst_lower_density:.3e}"),
        "separation_lower": CheckResult(worst_sep_low >= -tol_sep, worst_sep_low, f"min(dx - bound) = {worst_sep_low:.3e}"),
        "separation_upper": CheckResult(worst_sep_high >= -tol_sep, worst_sep_high, f"min(bound - dx) = {worst_sep_high:.3e}"),
        "tv_diminishing": CheckResult(worst_tv_rise <= tv_tol, tv_tol - worst_tv_rise, f"max TV rise = {worst_tv_rise:.3e}"),
        "velocity_bounds": CheckResult(worst_vel >= -rtol * max(1.0, abs(a_min) + abs(a_max)), worst_vel, f"min margin = {worst_vel:.3e}"),
    }
    return AuditReport(checks=checks, passed=all(c.ok for c in checks.values()))


def flux_residual_l1(model: FluxModel, state: ParticleState) -> float:
    """Integral of |A(x) v(x) - f(v(x))| at the state's time.

    A is the velocity interpolant, v the density reconstruction.  Within
    each cell the integrand is |affine|, integrated in closed form with a
    sign-change split, so there is no quadrature error.  Outside the
    particle range v = 0 and f(0) = 0, so nothing contributes.
    """
    vel = two_sided_velocities(model, state)
    dens = state.densities
    f = np.asarray(model.eval_f(dens), dtype=float)
    cells = integrate(vel[:-1] * dens - f, vel[1:] * dens - f, state.widths)
    return float(np.sum(np.where(dens == 0.0, 0.0, cells)))


def spacetime_flux_residual(traj: Trajectory) -> Tuple[float, float]:
    """Time-integrated flux residual over the whole run.

    Uses the trapezoid rule over snapshot times; collision times appear
    twice (pre/post), so the quadrature naturally splits there.  Returns
    the value together with the largest snapshot spacing used.
    """
    if len(traj.snapshots) < 2:
        raise ValueError("need at least two snapshots")
    times = traj.times
    residuals = np.array([flux_residual_l1(traj.model, s) for s in traj.snapshots])
    dts = np.diff(times)
    value = float(np.sum(0.5 * (residuals[1:] + residuals[:-1]) * dts))
    return value, float(np.max(dts))


# pairs per chunk of the all-pairs pass, so a long run's merged rows stay a
# few megabytes
PAIR_CHUNK = 4096


def pair_l1_distances(recons, i, j) -> np.ndarray:
    """``recons[i].l1_distance(recons[j])`` for every index pair, bit for bit.

    Each pair's row holds both breakpoint lists (padded with inf), sorted;
    the last of each run of equal points is a cut, and the running counts
    of either function's breakpoints there pick its value on the piece to
    the right.  Pairs with equally many cuts are integrated together and
    each row is summed along its contiguous last axis, the pairwise sum
    ``np.sum`` takes over one pair's pieces.
    """
    width = max(r.breakpoints.size for r in recons)
    xs = np.full((len(recons), width), np.inf)
    # vals[s, c] is snapshot s's value right of a point with c of its
    # breakpoints at or below it: 0 below the first and past the last
    vals = np.zeros((len(recons), width + 1))
    for k, r in enumerate(recons):
        xs[k, : r.breakpoints.size] = r.breakpoints
        vals[k, 1 : r.values.size + 1] = r.values
    dist = np.empty(i.size)
    for lo in range(0, i.size, PAIR_CHUNK):
        a, b = i[lo : lo + PAIR_CHUNK], j[lo : lo + PAIR_CHUNK]
        merged = np.concatenate([xs[a], xs[b]], axis=1)
        order = merged.argsort(axis=1, kind="stable")
        pts = np.take_along_axis(merged, order, axis=1)
        from_a = order < width
        count_a, count_b = from_a.cumsum(axis=1), (~from_a).cumsum(axis=1)
        cut = np.isfinite(pts)
        cut[:, :-1] &= pts[:, :-1] != pts[:, 1:]
        n_cuts = cut.sum(axis=1)
        for n in np.unique(n_cuts):
            rows = np.flatnonzero(n_cuts == n)
            pick = cut[rows]
            cuts = pts[rows][pick].reshape(rows.size, n)
            f = vals[a[rows, None], count_a[rows][pick].reshape(rows.size, n)[:, :-1]]
            g = vals[b[rows, None], count_b[rows][pick].reshape(rows.size, n)[:, :-1]]
            dist[lo + rows] = integrate(f - g, f - g, cuts[:, 1:] - cuts[:, :-1]).sum(axis=1)
    return dist


def temporal_modulus_margin(traj: Trajectory) -> float:
    """Largest ratio of ||v(t) - v(s)||_L1 to 4 * lip_f * TV(v0) * |t - s|,
    over every pair of snapshots at distinct times, in one array pass."""
    recons = [reconstruct_density(s) for s in traj.snapshots]
    times = traj.times
    tv0 = total_variation(recons[0].values)
    bound_rate = 4.0 * traj.model.lip_f * tv0
    i, j = np.triu_indices(len(recons), 1)
    later = times[j] - times[i] > 0
    i, j = i[later], j[later]
    ratios = pair_l1_distances(recons, i, j) / (bound_rate * (times[j] - times[i]))
    # fmax passes over the NaN of 0 / 0, as a running max(worst, ratio) does
    return float(np.fmax.reduce(ratios, initial=0.0))
