"""Error measurement, stability-bound checks, and the invariant audit.

The central estimate being exercised: the L1 error at time T is bounded
by the initial averaging gap plus 2*sqrt(2 * TV(u0) * R) where R is the
space-time integral of |A v - f(v)|.  Under a maximal initial spacing dx*
this yields the explicit bound TV(u0) * (dx* + 2*sqrt(T * lip(f') *
sup(u0) * dx*)), i.e. order one half in dx*.  The entropy-defect checker
evaluates the weak Kruzkov-type pairing of a run against smooth
compactly supported test bumps; it must be nonnegative up to a defect
that vanishes linearly with the time resolution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dynamics import THETA_DEFAULT, SnapshotBlock, Trajectory, _row_blocks, simulate
from .field import reconstruct_density, spacetime_flux_residual
from .flux import FluxModel
from .initial import InitialData, PiecewiseAffineFn, cell_average, finite_window, initial_approximation_gap
from .initial import integrate  # noqa: F401  (wrapped by perfbench/tracing.py)
from .initial import place_particles, total_variation
from .reference import ExactSolution
from .velocity import particle_velocities, velocity_extrema

__all__ = [
    "ErrorReport",
    "RateFit",
    "CheckResult",
    "AuditReport",
    "SpaceTimeBump",
    "stability_error_bound",
    "explicit_rate_bound",
    "l1_error_against",
    "error_report",
    "entropy_defect",
    "entropy_tolerance",
    "invariant_audit",
    "temporal_modulus_margin",
    "convergence_study",
    "richardson_error_estimate",
    "fit_loglog_slope",
]

# a convergence run's dt_max as a fraction of its initial spacing dx*
DT_MAX_RATIO = 0.2


# ---------------------------------------------------------------------------
# stability bounds


def _check_nonnegative(**inputs) -> None:
    """Raise ValueError naming the first input that is negative or NaN."""
    for name, value in inputs.items():
        if not value >= 0:
            raise ValueError(f"bound inputs must be nonnegative, got {name}={value!r}")


def stability_error_bound(initial_gap: float, tv_u0: float, residual: float) -> float:
    """Right side of the L1 stability estimate (monotone in the residual)."""
    _check_nonnegative(initial_gap=initial_gap, tv_u0=tv_u0, residual=residual)
    return initial_gap + 2.0 * math.sqrt(2.0 * tv_u0 * residual)


def explicit_rate_bound(tv_u0: float, sup_u0: float, lip_fprime: float, dx_star: float, T: float) -> float:
    """Explicit order-1/2 error bound under a maximal initial spacing."""
    _check_nonnegative(tv_u0=tv_u0, sup_u0=sup_u0, lip_fprime=lip_fprime, dx_star=dx_star, T=T)
    return tv_u0 * (dx_star + 2.0 * math.sqrt(T * lip_fprime * sup_u0 * dx_star))


# ---------------------------------------------------------------------------
# L1 error against a reference


def l1_error_against(
    recon: PiecewiseAffineFn,
    exact: ExactSolution,
    T: float,
    window: Tuple[float, float],
) -> float:
    """Integral of |v - u(.,T)| over the window, in closed form."""
    return exact.at(T).l1_distance(recon, window)


@dataclass(frozen=True)
class ErrorReport:
    """Measured error of one run against a reference, with its bounds."""

    l1_error_at_T: float
    initial_gap: float
    tail_mass: float
    residual_spacetime: float
    residual_resolution: float
    stability_bound: float
    rate_bound: Optional[float]
    dx0_star: float
    T: float
    window: Tuple[float, float]
    n_particles: int
    audit_passed: bool


def error_report(
    traj: Trajectory,
    exact: ExactSolution,
    T: float,
    window: Optional[Tuple[float, float]] = None,
) -> ErrorReport:
    """Measure a run against a reference solution and assemble its bounds.

    The error is taken at the run's final state, so ``T`` must be the run's
    final time (to a relative 1e-12).  The bounds take TV(u0) and sup(u0)
    from the run's initial data, dx* from its initial state (the widest
    cell with mass) and lip(f') from its model; a model without
    ``lip_fprime`` gets no rate bound.  The error is measured over
    ``window``, which must be two finite numbers lo < hi, or by default
    over the data's measure window or support hint.
    """
    if traj.data is None:
        raise ValueError("trajectory carries no initial data record")
    t_end = float(traj.times[-1])
    if abs(t_end - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"trajectory ends at {t_end}, not at T = {T}")
    data = traj.data
    if window is None:
        window = data.measure_window or data.support_hint
    else:
        window = finite_window("window", window)

    recon = reconstruct_density(traj.final_state)
    err = l1_error_against(recon, exact, T, window)

    state0 = traj.snapshots[0]
    gap, tail = initial_approximation_gap(data, state0)
    residual, resolution = spacetime_flux_residual(traj)
    bound = stability_error_bound(gap + tail, data.tv_u0, residual)
    dx0_star = state0.dx_star
    lip_fp = traj.model.lip_fprime
    explicit = None
    if lip_fp is not None:
        explicit = explicit_rate_bound(data.tv_u0, data.sup_u0, lip_fp, dx0_star, T)
    audit = invariant_audit(traj)
    return ErrorReport(
        l1_error_at_T=float(err),
        initial_gap=float(gap),
        tail_mass=float(tail),
        residual_spacetime=float(residual),
        residual_resolution=float(resolution),
        stability_bound=float(bound),
        rate_bound=None if explicit is None else float(explicit),
        dx0_star=dx0_star,
        T=float(T),
        window=(float(window[0]), float(window[1])),
        n_particles=int(state0.n_particles),
        audit_passed=audit.passed,
    )


# ---------------------------------------------------------------------------
# entropy-defect checker


@dataclass(frozen=True)
class SpaceTimeBump:
    """Separable test function (1 - s^2)^3 bumps in x and t.

    Smooth, compactly supported on |x - x_center| < x_width and
    |t - t_center| < t_width, with closed-form derivative and spatial
    antiderivative, which keeps the pairing integrals exact in x.  Widths
    must be finite and positive, centres finite.
    """

    x_center: float
    x_width: float
    t_center: float
    t_width: float

    def __post_init__(self):
        for name, low in (("x_center", -math.inf), ("x_width", 0.0), ("t_center", -math.inf), ("t_width", 0.0)):
            value = getattr(self, name)
            if not low < value < math.inf:
                raise ValueError(f"{name} must be finite{' and positive' if low == 0.0 else ''}, got {value!r}")

    def theta(self, x):
        s = (np.asarray(x, dtype=float) - self.x_center) / self.x_width
        out = np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)
        return out if out.ndim else float(out)

    def theta_antideriv(self, x):
        s = np.clip((np.asarray(x, dtype=float) - self.x_center) / self.x_width, -1.0, 1.0)
        out = self.x_width * (s - s**3 + 0.6 * s**5 - s**7 / 7.0)
        return out if out.ndim else float(out)

    def gamma(self, t):
        s = (np.asarray(t, dtype=float) - self.t_center) / self.t_width
        out = np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3, 0.0)
        return out if out.ndim else float(out)

    def gamma_prime(self, t):
        s = (np.asarray(t, dtype=float) - self.t_center) / self.t_width
        out = np.where(np.abs(s) < 1.0, -6.0 * s * (1.0 - s * s) ** 2 / self.t_width, 0.0)
        return out if out.ndim else float(out)

    @property
    def derivative_scale(self) -> float:
        # max |d/ds (1-s^2)^3| = 6/sqrt(5) * (4/5)^2
        peak = 6.0 / math.sqrt(5.0) * (4.0 / 5.0) ** 2
        return peak * max(1.0 / self.x_width, 1.0 / self.t_width)

    @property
    def x_support(self) -> Tuple[float, float]:
        return (self.x_center - self.x_width, self.x_center + self.x_width)


def _pairing_terms(
    model: FluxModel, block: SnapshotBlock, k: float, bump: SpaceTimeBump, window: Tuple[float, float]
) -> Tuple[np.ndarray, np.ndarray]:
    """Spatial integrals at each snapshot of a row block, one value per row.

    Returns (I_abs, I_flux) with
      I_abs  = integral of |v - k| * theta(x) dx        (for the d/dt term),
      I_flux = integral of (A v - f(k)) sgn(v - k) theta'(x) dx,
    both over the bump's support, using the zero extension of v and the
    constant extension of A outside the particle range.
    """
    lo, hi = max(bump.x_support[0], window[0]), min(bump.x_support[1], window[1])
    vel = particle_velocities(model, block)
    pos = block.positions
    f_k = float(model.eval_f(k))

    # pieces [a, b] with density v: the left vacuum, every cell, the right
    # vacuum, each clipped to [lo, hi] and masked out of the sums when empty;
    # A is the particle's velocity at an end, the interpolant's at a clip
    x = np.pad(pos, ((0, 0), (1, 1)), constant_values=(-np.inf, np.inf))
    u = np.pad(vel, ((0, 0), (1, 1)))
    A_lo, A_hi = np.array([np.interp((lo, hi), p, w) for p, w in zip(pos, vel)]).T[..., None]
    a, A_a = np.maximum(x[:, :-1], lo), np.where(x[:, :-1] < lo, A_lo, u[:, :-1])
    b, A_b = np.minimum(x[:, 1:], hi), np.where(x[:, 1:] > hi, A_hi, u[:, 1:])
    v = np.pad(block.densities, ((0, 0), (1, 1)))
    keep = b > a

    d_Theta = bump.theta_antideriv(b) - bump.theta_antideriv(a)
    I_abs = np.sum(np.where(keep, np.abs(v - k) * d_Theta, 0.0), axis=1)
    g_a, g_b = A_a * v - f_k, A_b * v - f_k
    slope = (g_b - g_a) / np.where(keep, b - a, 1.0)
    # integral of g * theta' = [g theta] - slope * integral of theta
    flux = g_b * bump.theta(b) - g_a * bump.theta(a) - slope * d_Theta
    I_flux = np.sum(np.where(keep, np.sign(v - k) * flux, 0.0), axis=1)
    return I_abs, I_flux


def entropy_defect(
    traj: Trajectory, k: float, bump: SpaceTimeBump, window: Tuple[float, float]
) -> float:
    """Weak entropy pairing of a run against one test bump.

    Evaluates  int int |v-k| dphi/dt + (A v - f(k)) sgn(v-k) dphi/dx dx dt
    - int phi(T)|v(T)-k| + int phi(0)|v0-k|  with exact spatial integrals
    and trapezoidal time quadrature over the snapshots.  Nonnegative up to
    a defect that shrinks linearly with the time resolution.

    The spatial integrals take a row block (``Trajectory.blocks``) at a
    time, one kernel call per block, at every snapshot whether or not the
    time profile reaches it.  ``k`` must be finite and nonnegative.
    """
    if not 0.0 <= k < math.inf:
        raise ValueError(f"k must be finite and nonnegative, got {k!r}")
    s_lo, s_hi = bump.x_support
    if s_lo < window[0] - 1e-12 or s_hi > window[1] + 1e-12:
        raise ValueError(f"bump support ({s_lo}, {s_hi}) escapes the window {window}")
    # the time profile may overhang [0, T]: the pairing then picks up the
    # boundary terms at t = 0 and t = T
    times = traj.times
    terms = [_pairing_terms(traj.model, block, k, bump, window) for block in traj.blocks()]
    I_abs, I_flux = (np.concatenate(parts) for parts in zip(*terms))
    gamma = bump.gamma(times)
    vals = bump.gamma_prime(times) * I_abs + gamma * I_flux
    total = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(times)))
    return float(total + gamma[0] * I_abs[0] - gamma[-1] * I_abs[-1])


def entropy_tolerance(traj: Trajectory, k: float, bump: SpaceTimeBump, window: Tuple[float, float]) -> float:
    """Defect budget: 5 * (dt + snapshot spacing) * bump scale * content.

    ``dt`` is the run's ``dt_max``, or the largest snapshot spacing where
    that is smaller: every step ends on or before the next recorded time,
    so no step is longer than the spacing (and ``dt_max = inf`` gives a
    finite budget).
    """
    spacing = float(np.max(np.diff(traj.times)))
    dt = min(float(traj.config.get("dt_max", 0.0)), spacing)
    mass = traj.snapshots[0].total_mass
    width = window[1] - window[0]
    return 5.0 * (dt + spacing) * bump.derivative_scale * (mass + k * width)


# ---------------------------------------------------------------------------
# invariant audit


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: Dict[str, CheckResult]
    passed: bool

    def failures(self) -> List[str]:
        return [name for name, c in self.checks.items() if not c.ok]


def invariant_audit(traj: Trajectory) -> AuditReport:
    """Check the a-priori structure of a trajectory snapshot by snapshot.

    Verifies per-cell mass bookkeeping, total-mass conservation (up to the
    audited mass discarded at collisions), the density maximum principle
    with its time-dependent lower bound, the two-sided particle separation
    bounds, nonincreasing total variation, and velocity bounds.

    The bounds are stated per cell in its width and density at creation:
    those of snapshot 0, with each event's deleted cells dropped before
    the run that follows it (``Trajectory`` pairs each event with the runs
    on either side when it is built).  Bookkeeping, the density
    and separation bounds and the velocity bounds hold to a relative 1e-12,
    the TV nonincrease to 1e-12 of snapshot 0's TV, or 1e-10 where that is
    larger.

    Each run is read a row block at a time (``Trajectory.blocks``):
    each check's elementwise work runs once per block and reduces along
    the rows to one value per snapshot, so verdicts, margins and details
    are those of a pass over one snapshot at a time.  A block whose
    densities leave the model's working interval sets the velocity margin
    to -inf instead of aborting the audit.
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
    times = traj.times

    # each check's worst value per snapshot, filled a block at a time
    mass_id, drift, max_principle, lower_density, sep_low, sep_high, tv, vel = np.empty((8, times.size))

    discarded = 0.0
    w0, rho0 = state0.widths, state0.densities
    for event, run in zip([None, *traj.events], traj.snapshots.runs):
        if event is not None:
            discarded += event.discarded_mass
            keep = np.ones(w0.size, dtype=bool)
            keep[event.deleted_cells] = False
            w0, rho0 = w0[keep], rho0[keep]
        # the per-cell terms of the bounds, in the operation order of the per-snapshot formulas
        m0, sep0 = w0 * rho0, (rho0 / rho_star * w0 if rho_star > 0 else None)
        for block in _row_blocks(run):
            rows = slice(block.start, block.start + block.times.size)
            # the ufuncs' own reductions: np.max, np.min and np.sum call them
            # after a Python-level argument pass, a fixed cost on every block
            dens, widths, masses = block.densities, block.widths, block.masses
            mass_id[rows] = np.maximum.reduce(np.abs(dens * widths - masses), axis=1) / scale_m
            drift[rows] = np.abs(np.add.reduce(masses, axis=1) + discarded - mass0) / scale_m
            max_principle[rows] = rho_star - np.maximum.reduce(dens, axis=1)
            # the widest each cell can have grown by its snapshot's time
            widest = w0 + block.times[:, None] * spread
            lower_density[rows] = np.minimum.reduce(dens - m0 / widest, axis=1)
            sep_low[rows] = np.inf if sep0 is None else np.minimum.reduce(widths - sep0, axis=1)
            sep_high[rows] = np.minimum.reduce(widest - widths, axis=1)
            tv[rows] = total_variation(dens)
            try:
                v = particle_velocities(model, block)
            except ValueError:
                # densities left the working interval: report it as a velocity
                # violation rather than aborting the audit
                vel[rows] = -np.inf
            else:
                vel[rows] = np.fmin(np.minimum.reduce(v - a_min, axis=1), np.minimum.reduce(a_max - v, axis=1))

    # fmax and fmin skip a NaN snapshot value, as the running max/min of a
    # snapshot-at-a-time pass would
    worst_mass_id = float(np.fmax.reduce(mass_id, initial=0.0))
    worst_drift = float(np.fmax.reduce(drift, initial=0.0))
    worst_max_principle = float(np.fmin.reduce(max_principle, initial=np.inf))
    worst_lower_density = float(np.fmin.reduce(lower_density, initial=np.inf))
    worst_sep_low = float(np.fmin.reduce(sep_low, initial=np.inf))
    worst_sep_high = float(np.fmin.reduce(sep_high, initial=np.inf))
    worst_tv_rise = float(np.fmax.reduce(np.diff(tv), initial=-np.inf))
    worst_vel = float(np.fmin.reduce(vel, initial=np.inf))

    tol_rho = rtol * max(1.0, rho_star)
    tol_sep = rtol * max(1.0, float(np.max(state0.widths)) + abs(spread) * times[-1])
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


def temporal_modulus_margin(traj: Trajectory) -> float:
    """Largest ratio of ||v(t) - v(s)||_L1 to 4 * lip_f * TV(v0) * |t - s|; a pair at distance 0 reads 0."""
    # the record's rows are states the step loop or the loader has checked
    recons = [PiecewiseAffineFn(x, v, v) for b in traj.blocks() for x, v in zip(b.positions, b.densities)]
    times = traj.times
    bound_rate = 4.0 * traj.model.lip_f * total_variation(recons[0].left)
    # pairs at adjacent distinct times suffice: for s < r < t, ||v(t) - v(s)||
    # <= ||v(t) - v(r)|| + ||v(r) - v(s)||, and a ratio of two sums is at most
    # the larger ratio of its terms; a sweep's pre- and post-sweep states share
    # a time (v jumps there), so each is paired with the snapshots on both sides
    groups = np.split(np.arange(times.size), np.flatnonzero(np.diff(times) > 0) + 1)
    worst = 0.0
    for here, there in zip(groups, groups[1:]):
        for i, j in itertools.product(here, there):
            dist = recons[i].l1_distance(recons[j])
            if dist > 0:
                worst = max(worst, dist / (bound_rate * (times[j] - times[i])))
    return worst


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class RateFit:
    """Least-squares slope of log error against log resolution."""

    resolutions: Tuple[float, ...]
    errors: Tuple[float, ...]
    slope: float
    intercept: float
    slope_tail: float
    degenerate: bool


def fit_loglog_slope(resolutions: Sequence[float], errors: Sequence[float]) -> RateFit:
    """Fit over every resolution and over the three finest; an error at or
    below 1e-12 makes the fit ``degenerate``, with NaN slopes.

    Resolutions must be finite and positive, errors finite and
    nonnegative; otherwise ``ValueError`` names the first bad value.
    """
    res = np.asarray(resolutions, dtype=float)
    err = np.asarray(errors, dtype=float)
    if res.size < 3:
        raise ValueError("need at least three resolutions")
    # NaN fails every comparison
    bad = res[~((res > 0.0) & (res < np.inf))]
    if bad.size:
        raise ValueError(f"resolutions must be finite and positive, got {float(bad[0])!r}")
    bad = err[~((err >= 0.0) & (err < np.inf))]
    if bad.size:
        raise ValueError(f"errors must be finite and nonnegative, got {float(bad[0])!r}")
    if np.any(np.diff(res) >= 0):
        raise ValueError("resolutions must be strictly decreasing")
    degenerate = bool(np.any(err <= 1e-12))
    if degenerate:
        return RateFit(tuple(res), tuple(err), float("nan"), float("nan"), float("nan"), True)
    slope, intercept = np.polyfit(np.log(res), np.log(err), 1)
    tail_slope, _ = np.polyfit(np.log(res[-3:]), np.log(err[-3:]), 1)
    return RateFit(tuple(res), tuple(err), float(slope), float(intercept), float(tail_slope), False)


class StudyError(RuntimeError):
    pass


def convergence_study(
    model: FluxModel,
    data: InitialData,
    exact: ExactSolution,
    n_list: Sequence[int],
    T: float,
    *,
    strategy: str = "uniform",
    theta: float = THETA_DEFAULT,
) -> Tuple[RateFit, List[ErrorReport]]:
    """Run the scheme over a family of particle counts and fit the rate.

    Each run records 33 snapshots with ``dt_max`` at ``DT_MAX_RATIO``
    times its initial spacing dx* (``ParticleState.dx_star``), and is
    measured over ``error_report``'s default window.  Any run failing the
    invariant audit aborts the study, naming the run.
    """
    if len(n_list) < 3:
        raise ValueError("need at least three particle counts")

    def one(n: int) -> ErrorReport:
        pos = place_particles(data, n, strategy)
        state0 = cell_average(data, pos)
        dt = DT_MAX_RATIO * state0.dx_star
        traj = simulate(model, state0, T, dt_max=dt, theta=theta, snapshot_count=33, data=data)
        rep = error_report(traj, exact, T)
        if not rep.audit_passed:
            raise StudyError(f"run with n = {n} failed the invariant audit")
        return rep

    reports = [one(n) for n in n_list]
    fit = fit_loglog_slope([r.dx0_star for r in reports], [r.l1_error_at_T for r in reports])
    return fit, reports


def richardson_error_estimate(dist_coarse_fine: float, rate: float = 0.5) -> float:
    """Error estimate for the finer of two runs from their distance.

    For a method of order p on consecutive dyadic resolutions,
    err_fine ~ ||u_fine - u_coarse|| / (2^p - 1).

    The distance must be nonnegative and the rate finite and positive, with
    2^p - 1 a positive float (p below 1024 and not so small that 2^p
    rounds to 1), or ``ValueError`` names the input.
    """
    _check_nonnegative(dist_coarse_fine=dist_coarse_fine)
    denominator = 2.0**rate - 1.0 if 0.0 < rate < 1024.0 else math.nan
    if not denominator > 0.0:
        raise ValueError(f"rate must be finite and positive with 2**rate - 1 > 0, got rate={rate!r}")
    return dist_coarse_fine / denominator
