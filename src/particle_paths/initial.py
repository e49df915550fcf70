"""Initial data, particle placement, and cell averaging.

Data profiles are nonnegative densities with a finite support hint; the
scheme only ever sees the profile inside that hint, and everything outside
is treated as zero.  Profiles whose natural tails are nonzero (step data,
the rarefaction-plus-shock demonstration profile) are therefore truncated
to the hint; error measurement is then restricted to a smaller window that
the truncation edges cannot reach within the simulated horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "InitialData",
    "ParticleState",
    "place_particles",
    "cell_average",
    "initial_approximation_gap",
    "riemann_data",
    "rarefaction_shock_data",
    "box_data",
    "piecewise_constant_data",
    "sampled_data",
]

# bound on the width-weighted affinity misfit of u0 summed over its pieces
AFFINE_TOL = 1e-10


@dataclass(frozen=True)
class InitialData:
    """Nonnegative initial density profile.

    ``support_hint`` bounds the region the scheme resolves; the profile is
    taken as zero outside it.  ``eval_u0`` takes arrays and must be affine
    between consecutive ``breakpoints`` and hint edges inside the hint:
    cell averages, mass placement and the initial gap integrate it in
    closed form piece by piece, and raise ``ValueError`` where it is not
    affine.  Every builder in this module meets the contract; a smooth
    profile has to be sampled (``sampled_data``).  ``measure_window``, when
    set, is the window on which errors against a reference solution should
    be measured; it is recorded in result metadata.
    """

    eval_u0: Callable
    support_hint: Tuple[float, float]
    tv_u0: float
    sup_u0: float
    breakpoints: Tuple[float, ...] = ()
    measure_window: Optional[Tuple[float, float]] = None
    description: str = ""

    def __post_init__(self):
        lo, hi = self.support_hint
        if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
            raise ValueError(f"support hint must be a finite interval, got {self.support_hint}")
        if not (0.0 <= self.tv_u0 < np.inf and 0.0 <= self.sup_u0 < np.inf):
            raise ValueError(f"variation {self.tv_u0} and supremum {self.sup_u0} must be finite and nonnegative")


@dataclass(frozen=True)
class ParticleState:
    """Particles and the cells between them at one time.

    ``masses`` are fixed at creation (mass between particles is conserved);
    ``densities`` are always mass over ``widths``, the cell widths a run
    evolves (by default the position differences, which they match to
    rounding).
    """

    positions: np.ndarray
    densities: np.ndarray
    masses: np.ndarray
    time: float = 0.0
    widths: Optional[np.ndarray] = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 1 or pos.size < 2:
            raise ValueError("need at least two particles")
        if not np.all(np.isfinite(pos)):
            raise ValueError("non-finite particle position")
        if np.any(np.diff(pos) <= 0.0):
            raise ValueError("particle positions must be strictly increasing")
        n_cells = pos.size - 1
        if self.widths is None:
            object.__setattr__(self, "widths", np.diff(pos))
        for name in ("densities", "masses", "widths"):
            arr = getattr(self, name)
            if np.asarray(arr).shape != (n_cells,):
                raise ValueError(f"{name} must have length {n_cells}")
        if not np.all(np.isfinite(self.densities)):
            raise ValueError("non-finite cell density")
        if np.any(np.asarray(self.densities) < 0.0):
            raise ValueError("negative cell density")

    @property
    def n_particles(self) -> int:
        return self.positions.size

    @property
    def n_cells(self) -> int:
        return self.positions.size - 1

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.masses))

    @property
    def dx_star(self) -> float:
        """Widest cell that holds mass (the widest cell when none does): the
        spacing dx* of the order-1/2 rate, which a massless cell never sets."""
        held = self.widths[self.masses > 0.0]
        return float(np.max(held if held.size else self.widths))

    @staticmethod
    def from_cells(positions, densities, time: float = 0.0) -> "ParticleState":
        """State with the given cell densities, masses fixed from them."""
        pos = np.asarray(positions, dtype=float).copy()
        dens = np.asarray(densities, dtype=float).copy()
        return ParticleState(positions=pos, densities=dens, masses=dens * np.diff(pos), time=float(time))


def integrate(g_l, g_r, w):
    """Integral of |g| over intervals of width w where g is affine (elementwise).

    ``g_l`` and ``g_r`` are the values at the interval ends; a sign change
    splits the interval at the root into two triangles.
    """
    g_l = np.asarray(g_l, dtype=float)
    g_r = np.asarray(g_r, dtype=float)
    same_sign = g_l * g_r >= 0.0
    split = 0.5 * w * (g_l * g_l + g_r * g_r) / np.where(same_sign, 1.0, np.abs(g_l - g_r))
    out = np.where(same_sign, 0.5 * np.abs(g_l + g_r) * w, split)
    return out if out.ndim else float(out)


def affine_pieces(u, cuts, inside=True, name="u", kinks=()):
    """Width, midpoint value and end values of ``u`` on the pieces between ``cuts``.

    ``u`` takes arrays and must be affine on every piece; pieces where
    ``inside`` is False count as zero.  An affine piece has u(q1) + u(q3)
    = 2 u(mid) at its quarter points; if the width-weighted misfit summed
    over all pieces exceeds ``AFFINE_TOL``, ``ValueError`` names the first
    piece holding at least its share of it.  A piece with no float inside
    it is sampled at an end that is not in ``kinks`` (the cuts where u
    may jump), so the value across a jump cannot leak into it.
    """
    a, b = cuts[:-1], cuts[1:]
    w = b - a
    # halved before adding: a + b may overflow where the mean does not
    mid = 0.5 * a + 0.5 * b
    q1 = 0.5 * a + 0.5 * mid
    q3 = 0.5 * mid + 0.5 * b
    shut = ~((a < mid) & (mid < b))
    if shut.any():
        end = np.where(np.isin(a, kinks), b, a)
        q1, mid, q3 = (np.where(shut, end, q) for q in (q1, mid, q3))
    u = np.asarray(u(np.concatenate([q1, mid, q3])), dtype=float).reshape(3, -1)
    u1, um, u3 = np.where(inside, u, 0.0)
    misfit = w * np.abs((u1 - um) + (u3 - um))
    if not np.sum(misfit) <= AFFINE_TOL:
        k = np.flatnonzero(~(misfit <= AFFINE_TOL / misfit.size))[0]
        raise ValueError(f"{name} is not affine on [{a[k]:.17g}, {b[k]:.17g}]: list its kinks and jumps as breakpoints")
    # u(q3) - u(q1) is half the rise across the piece: no division needed
    return w, um, um - (u3 - u1), um + (u3 - u1)


def _u0_pieces(data: InitialData, pos: np.ndarray):
    """Cuts at u0's breakpoints, the hint edges and ``pos``, each piece's cell
    index (-1 or n_cells outside ``pos``) and ``affine_pieces`` of u0, zero
    outside the hint."""
    if np.any(np.diff(pos) <= 0.0):
        raise ValueError("positions must be strictly increasing")
    lo, hi = data.support_hint
    cuts = np.unique(np.concatenate([data.breakpoints, (lo, hi), pos]))
    inside = (lo <= cuts[:-1]) & (cuts[1:] <= hi)
    # by left end: the midpoint of a one-ulp piece may round onto a particle
    cell = np.searchsorted(pos, cuts[:-1], side="right") - 1
    kinks = np.concatenate([data.breakpoints, (lo, hi)])
    return (cuts, cell) + affine_pieces(data.eval_u0, cuts, inside, "u0", kinks)


def _uniform(data: InitialData, n: int) -> np.ndarray:
    lo, hi = data.support_hint
    pos = np.linspace(lo, hi, n)
    bp = np.sort(data.breakpoints)
    inner = bp[(lo < bp) & (bp < hi)]
    if n > 2:
        # each breakpoint takes its nearest grid point, ties to the right, so
        # breakpoints at least dx apart take distinct points and positions
        # stay increasing; one within dx/2 of a hint end takes the interior
        # point next to it, unless a breakpoint nearer that point keeps it
        near = np.floor((inner - lo) * (n - 1) / (hi - lo) + 0.5).astype(int)
        j = np.minimum(np.maximum(near, 1), n - 2)
        pos[j] = inner
        unclipped = j == near
        pos[j[unclipped]] = inner[unclipped]
    # u0 is affine on each piece, so zero at both quarter points means zero
    # throughout; the particles strictly inside each run of such pieces go
    cuts = np.concatenate([[lo], inner, [hi]])
    a, w = cuts[:-1], np.diff(cuts)
    u = np.asarray(data.eval_u0(np.concatenate([a + 0.25 * w, a + 0.75 * w])), dtype=float)
    vacuum = (u[: a.size] == 0.0) & (u[a.size :] == 0.0)
    if not vacuum.any():
        return pos
    runs = cuts[np.flatnonzero(np.diff(np.concatenate([[0], vacuum, [0]])))]
    keep = np.ones(n, dtype=bool)
    for first, stop in zip(np.searchsorted(pos, runs[::2], "right"), np.searchsorted(pos, runs[1::2], "left")):
        keep[first:stop] = False
    return pos[keep]


def place_particles(data: InitialData, n: int, strategy: str = "uniform") -> np.ndarray:
    """Initial particle positions covering the data's support hint.

    ``uniform`` starts from n particles evenly spaced over the hint,
    ``dx = (hi - lo) / (n - 1)`` apart, and moves the interior particle
    nearest each breakpoint strictly inside the hint onto it (by at most
    dx/2).  Then each run of pieces where u0 is zero becomes one cell: the
    particles strictly inside it are dropped, and the hint ends always
    stay.  So the result has between 2 and n particles; where the
    breakpoints lie at least dx apart, each is a particle and each cell
    with mass is between dx/2 and 2 dx wide.
    ``mass_equidistributed`` puts equal mass between consecutive particles
    by inverting the cumulative mass, exactly on each affine piece of u0.
    """
    if n < 2:
        raise ValueError(f"need at least two particles, got n={n}")
    lo, hi = data.support_hint
    if strategy == "uniform":
        return _uniform(data, n)
    if strategy == "mass_equidistributed":
        cuts, _, w, um, u_l, u_r = _u0_pieces(data, np.array([lo, hi]))
        cum = np.concatenate([[0.0], np.cumsum(w * um)])
        total = cum[-1]
        if total <= 0.0:
            raise ValueError("mass_equidistributed needs positive total mass")
        targets = np.linspace(0.0, total, n)[1:-1]
        # leftmost preimage of each mass quantile: the first piece whose
        # cumulative mass reaches it, then u_l d + slope d^2 / 2 = m solved
        # in the form without cancellation
        k = np.searchsorted(cum, targets, side="left") - 1
        m = targets - cum[k]
        slope = (u_r[k] - u_l[k]) / w[k]
        root = np.sqrt(np.maximum(u_l[k] * u_l[k] + 2.0 * slope * m, 0.0))
        d = np.minimum(2.0 * m / (u_l[k] + root), w[k])
        pos = np.concatenate([[lo], cuts[k] + d, [hi]])
        if np.any(np.diff(pos) <= 0.0):
            raise ValueError("mass quantiles are not strictly increasing; use uniform placement")
        return pos
    raise ValueError(f"unknown placement strategy '{strategy}'")


def cell_average(data: InitialData, positions) -> ParticleState:
    """State at time zero whose cell densities are interval averages of u0.

    Exact to rounding: each affine piece of u0 contributes width times
    midpoint value, and a cell inside one piece takes that value itself.
    """
    pos = np.asarray(positions, dtype=float)
    _, cell, w, um, _, _ = _u0_pieces(data, pos)
    n_cells = pos.size - 1
    inside = (cell >= 0) & (cell < n_cells)
    cell, w, um = cell[inside], w[inside], um[inside]
    dens = np.bincount(cell, weights=w * um, minlength=n_cells) / np.diff(pos)
    # (c * w) / w is not always c
    whole = np.bincount(cell, minlength=n_cells)[cell] == 1
    dens[cell[whole]] = um[whole]
    return ParticleState.from_cells(pos, dens, time=0.0)


def initial_approximation_gap(data: InitialData, state: ParticleState):
    """L1 distance between the cell averages and u0, plus the tail mass.

    The first value integrates |v0 - u0| over the particle range; the
    second is the mass of u0 left outside [x^1, x^N] (within the hint).
    Both are exact to rounding.
    """
    if state.time != 0.0:
        raise ValueError("gap is defined for the initial state only")
    _, cell, w, _, u_l, u_r = _u0_pieces(data, state.positions)
    inside = (cell >= 0) & (cell < state.n_cells)
    v = np.where(inside, state.densities[np.clip(cell, 0, state.n_cells - 1)], 0.0)
    pieces = integrate(u_l - v, u_r - v, w)
    return float(np.sum(pieces[inside])), float(np.sum(pieces[~inside]))


# ---------------------------------------------------------------------------
# builtin profiles


def total_variation(values) -> float:
    """Total variation of the step profile with ``values`` on consecutive
    pieces and zero on both sides; inf, without a numpy warning, where the
    sum overflows."""
    with np.errstate(over="ignore"):
        return float(np.sum(np.abs(np.diff(np.concatenate([[0.0], values, [0.0]])))))


def _steps(bp, vals, description: str, measure_window=None) -> InitialData:
    """Step profile: ``vals[k]`` on (bp[k], bp[k+1]), zero outside (bp[0], bp[-1]).

    A jump point takes the value to its right, the hint edges take zero.
    """
    bp = np.asarray(bp, dtype=float)
    vals = np.asarray(vals, dtype=float)

    def u0(x):
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(bp, x, side="right") - 1
        inside = (idx >= 0) & (idx < vals.size) & (x < bp[-1]) & (x > bp[0])
        out = np.where(inside, vals[np.clip(idx, 0, vals.size - 1)], 0.0)
        return out if out.ndim else float(out)

    return InitialData(
        eval_u0=u0,
        support_hint=(float(bp[0]), float(bp[-1])),
        tv_u0=total_variation(vals),
        sup_u0=float(np.max(vals, initial=0.0)),
        breakpoints=tuple(float(p) for p in bp),
        measure_window=tuple(measure_window) if measure_window else None,
        description=description,
    )


def riemann_data(u_l, u_r, x0=0.0, window=(-1.0, 1.0), measure_window=None) -> InitialData:
    """Two-state step profile, truncated to ``window``."""
    u_l = float(u_l)
    u_r = float(u_r)
    x0 = float(x0)
    if u_l < 0 or u_r < 0:
        raise ValueError("states must be nonnegative")
    lo, hi = float(window[0]), float(window[1])
    if not lo < x0 < hi:
        raise ValueError(f"jump point {x0} must lie inside the window {window}")
    return _steps((lo, x0, hi), (u_l, u_r), f"step {u_l} -> {u_r} at x = {x0}", measure_window)


def rarefaction_shock_data(margin: float = 1.0) -> InitialData:
    """Density 3 on (0, 1) over a background of 1, truncated with margin.

    The profile equals 1 arbitrarily far out, so it is truncated to
    [-1 - margin, 2 + margin] for the scheme, while errors are measured on
    [-1, 2].  The margin keeps truncation artifacts out of the measurement
    window as long as the horizon stays below margin / 3 (the largest
    characteristic speed for the matching quadratic flux is 3).
    """
    if margin <= 0:
        raise ValueError("margin must be positive")
    bp = (-1.0 - margin, 0.0, 1.0, 2.0 + margin)
    return _steps(bp, (1.0, 3.0, 1.0), "3 on (0,1) over background 1", (-1.0, 2.0))


def box_data(height, a, b) -> InitialData:
    height = float(height)
    a = float(a)
    b = float(b)
    if height < 0 or b <= a:
        raise ValueError("box needs nonnegative height and a < b")
    return _steps((a, b), (height,), f"box height {height} on ({a}, {b})")


def piecewise_constant_data(breakpoints, values, measure_window=None) -> InitialData:
    """Profile with the given values between consecutive breakpoints, zero outside."""
    bp = np.asarray(breakpoints, dtype=float)
    vals = np.asarray(values, dtype=float)
    if bp.size != vals.size + 1 or bp.size < 2:
        raise ValueError("need len(breakpoints) == len(values) + 1")
    if np.any(np.diff(bp) <= 0):
        raise ValueError("breakpoints must be strictly increasing")
    if np.any(vals < 0):
        raise ValueError("values must be nonnegative")
    return _steps(bp, vals, "piecewise constant profile", measure_window)


def sampled_data(xs, us, measure_window=None) -> InitialData:
    """Piecewise linear interpolation of (x, u0) samples; zero outside."""
    xs = np.asarray(xs, dtype=float)
    us = np.asarray(us, dtype=float)
    if xs.ndim != 1 or xs.shape != us.shape or xs.size < 2:
        raise ValueError("need matching 1-D sample arrays")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sample positions must be strictly increasing")
    if np.any(us < 0):
        raise ValueError("sampled densities must be nonnegative")

    def u0(x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, xs, us, left=0.0, right=0.0)
        return out if out.ndim else float(out)

    return InitialData(
        eval_u0=u0,
        support_hint=(float(xs[0]), float(xs[-1])),
        tv_u0=total_variation(us),
        sup_u0=float(np.max(us)),
        breakpoints=tuple(float(p) for p in xs),
        measure_window=tuple(measure_window) if measure_window else None,
        description="sampled profile",
    )
