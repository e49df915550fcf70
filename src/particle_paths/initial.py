"""Initial data, particle placement, and cell averaging.

Data profiles are nonnegative densities with a finite support hint; the
scheme only ever sees the profile inside that hint, and everything outside
is treated as zero.  Profiles whose natural tails are nonzero (step data,
the rarefaction-plus-shock demonstration profile) are therefore truncated
to the hint; error measurement is then restricted to a smaller window that
the truncation edges cannot reach within the simulated horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "PiecewiseAffineFn",
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


@dataclass(frozen=True, eq=False)
class PiecewiseAffineFn:
    """Function running from ``left[k]`` to ``right[k]`` on [x[k], x[k+1]].

    It is ``below`` left of x[0] and ``above`` right of x[-1]; a point on a
    breakpoint takes the value to its right.  ``x`` is nondecreasing, and a
    piece of zero width is never read.
    """

    x: np.ndarray
    left: np.ndarray
    right: np.ndarray
    below: float = 0.0
    above: float = 0.0

    def __post_init__(self):
        for name in ("x", "left", "right"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))

    def _at(self, k, p):
        """Values at points p of pieces k, from -1 (the tail below) to
        ``left.size`` (the tail above): a constant piece gives its value, a
        point on the piece's right end its ``right``, any other point
        slope * (p - x[k]) + left[k], the form ``np.interp`` computes,
        where that is finite."""
        xs = np.concatenate([[-np.inf], self.x, [np.inf]])
        a, b = xs[k + 1], xs[k + 2]
        l = np.concatenate([[self.below], self.left, [self.above]])[k + 1]
        r = np.concatenate([[self.below], self.right, [self.above]])[k + 1]
        with np.errstate(all="ignore"):
            ramp = (r - l) / (b - a) * (p - a) + l
            # a slope past the float range: scale the rise by the fraction
            ramp = np.where(np.isfinite(ramp), ramp, (p - a) / (b - a) * (r - l) + l)
        return np.where(l == r, l, np.where(p == b, r, ramp))

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        out = self._at(np.searchsorted(self.x, p, side="right") - 1, p)
        return out if out.ndim else float(out)

    def split(self, cuts):
        """Width, midpoint value and end values on each interval between
        sorted ``cuts``, which must include every breakpoint between them."""
        a, b = cuts[:-1], cuts[1:]
        # by left end: the piece holding the interval, even where its
        # midpoint rounds onto a breakpoint
        k = np.searchsorted(self.x, a, side="right") - 1
        # halved before adding: a + b may overflow where the mean does not
        um, u_l, u_r = self._at(k, np.stack([0.5 * a + 0.5 * b, a, b]))
        return b - a, um, u_l, u_r

    def l1_distance(self, other: "PiecewiseAffineFn", window=None) -> float:
        """Integral of |self - other| over ``window``, or between the two
        functions' outermost breakpoints: exact to rounding, since the
        difference is affine between consecutive breakpoints of either."""
        cuts = _cuts(np.concatenate([self.x, other.x]), window)
        w, _, f_l, f_r = self.split(cuts)
        _, _, g_l, g_r = other.split(cuts)
        return float(np.sum(integrate(f_l - g_l, f_r - g_r, w)))

    def integral(self, window=None) -> float:
        """Integral over ``window``, or between the outermost breakpoints:
        width times midpoint value, piece by piece."""
        w, um, _, _ = self.split(_cuts(self.x, window))
        return float(np.sum(w * um))


def _cuts(x, window):
    """The distinct points of ``x``, clipped to ``window`` and joined by its
    ends when a window is given."""
    if window is None:
        return np.unique(x)
    if not window[0] <= window[1]:
        raise ValueError(f"inverted window {window}")
    return np.unique(np.clip(np.concatenate([window, x]), *window))


def finite_window(name: str, window) -> Tuple[float, float]:
    """``window`` as a pair of floats, or ``ValueError`` naming it unless
    it is two finite numbers lo < hi."""
    values = np.asarray(window)
    # numpy reads a bool beside a number as 0 or 1
    numbers = values.shape == (2,) and values.dtype.kind in "iuf"
    numbers = numbers and not any(isinstance(v, (bool, np.bool_)) for v in window)
    if not (numbers and np.isfinite(values).all() and values[0] < values[1]):
        raise ValueError(f"{name} must be two finite numbers lo < hi, got {window!r}")
    return float(values[0]), float(values[1])


@dataclass(frozen=True)
class InitialData:
    """Nonnegative initial density profile ``u0``, affine between its breakpoints.

    ``u0`` is zero outside its first and last breakpoints, which make the
    ``support_hint``, the region the scheme resolves.  Cell averages, mass
    placement and the initial gap read its pieces in closed form; a smooth
    profile has to be sampled (``sampled_data``).  ``measure_window``, when
    set, is the window on which errors against a reference solution should
    be measured; it is recorded in result metadata.  It must be two finite
    numbers ``lo < hi`` and is stored as a pair of floats.

    ``tv_u0`` and ``sup_u0``, which the error bounds read, are worked out
    from u0's values and zero tails; a variation that overflows raises
    ``ValueError``.
    """

    u0: PiecewiseAffineFn
    tv_u0: float = field(init=False)
    sup_u0: float = field(init=False)
    measure_window: Optional[Tuple[float, float]] = None
    description: str = ""

    def __post_init__(self):
        u0 = self.u0
        if not (u0.x.ndim == 1 and u0.x.size >= 2 and u0.left.shape == u0.right.shape == (u0.x.size - 1,)):
            raise ValueError("u0 needs at least two breakpoints and one left and right value per piece")
        if not (np.all(np.isfinite(u0.x)) and np.all(np.diff(u0.x) > 0.0)):
            raise ValueError("u0's breakpoints must be finite and strictly increasing")
        # left[0], right[0], left[1], ...: the values in order along x
        vals = np.stack([u0.left, u0.right], axis=-1).ravel()
        if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)):
            raise ValueError("u0's values must be finite and nonnegative")
        if u0.below != 0.0 or u0.above != 0.0:
            raise ValueError("u0 must be zero outside its breakpoints")
        # repeats dropped, a step profile's values are its steps
        tv_u0 = total_variation(vals[np.append(True, vals[1:] != vals[:-1])])
        sup_u0 = float(np.max(vals, initial=0.0))
        if not tv_u0 < np.inf:
            raise ValueError(f"variation {tv_u0} and supremum {sup_u0} must be finite and nonnegative")
        object.__setattr__(self, "tv_u0", tv_u0)
        object.__setattr__(self, "sup_u0", sup_u0)
        if self.measure_window is not None:
            object.__setattr__(self, "measure_window", finite_window("measure_window", self.measure_window))

    @property
    def support_hint(self) -> Tuple[float, float]:
        return float(self.u0.x[0]), float(self.u0.x[-1])


@dataclass(frozen=True)
class ParticleState:
    """Particles and the cells between them at one time.

    ``masses`` are fixed at creation (mass between particles is conserved);
    ``densities`` are always mass over ``widths``, the cell widths a run
    evolves (by default the position differences, which they match to
    rounding).

    A state is accepted when it has at least two particles at finite,
    strictly increasing positions, one density, mass and width per cell,
    finite, nonnegative densities and masses, and a finite time;
    otherwise the first check that fails raises ``ValueError`` naming it.
    Each check is one or two reductions, and the fault is told apart only
    once one fails.
    ``positions``, ``densities``, ``masses`` and ``widths`` are stored as
    float arrays, so a state built from lists works like any other; a
    float array is kept as given, not copied.
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
        # finite ends and a strict increase make every position finite; the
        # fault is told apart only once the test fails
        if not (math.isfinite(pos[0]) and math.isfinite(pos[-1]) and np.logical_and.reduce(pos[1:] > pos[:-1])):
            if not np.all(np.isfinite(pos)):
                raise ValueError("non-finite particle position")
            raise ValueError("particle positions must be strictly increasing")
        n_cells = pos.size - 1
        object.__setattr__(self, "positions", pos)
        if self.widths is None:
            # np.diff's bits, without its argument handling
            object.__setattr__(self, "widths", pos[1:] - pos[:-1])
        for name in ("densities", "masses", "widths"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n_cells,):
                raise ValueError(f"{name} must have length {n_cells}")
            object.__setattr__(self, name, arr)
        # NaN propagates through minimum and maximum, so it fails both tests
        dens, mass = self.densities, self.masses
        if not (np.minimum.reduce(dens) >= 0.0 and np.maximum.reduce(dens) < np.inf):
            if not np.all(np.isfinite(dens)):
                raise ValueError("non-finite cell density")
            raise ValueError("negative cell density")
        if not (np.minimum.reduce(mass) >= 0.0 and np.maximum.reduce(mass) < np.inf):
            raise ValueError("cell masses must be finite and nonnegative")
        if not math.isfinite(self.time):
            raise ValueError(f"state time must be finite, got {self.time!r}")

    @property
    def n_particles(self) -> int:
        return self.positions.size

    @property
    def n_cells(self) -> int:
        return self.positions.size - 1

    @property
    def total_mass(self) -> float:
        """The sum of the masses: inf, without numpy's warning, when it overflows."""
        with np.errstate(over="ignore"):
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


def _u0_pieces(data: InitialData, pos: np.ndarray):
    """Cuts at u0's breakpoints and ``pos``, each piece's cell index (-1 or
    n_cells outside ``pos``) and its ``split`` of u0."""
    if np.any(np.diff(pos) <= 0.0):
        raise ValueError("positions must be strictly increasing")
    cuts = np.union1d(data.u0.x, pos)
    cell = np.searchsorted(pos, cuts[:-1], side="right") - 1
    return (cuts, cell) + data.u0.split(cuts)


def _uniform(data: InitialData, n: int) -> np.ndarray:
    u0 = data.u0
    lo, hi = data.support_hint
    pos = np.linspace(lo, hi, n)
    vacuum = (u0.left == 0.0) & (u0.right == 0.0)
    # interior breakpoints where u0 jumps or a vacuum run ends
    inner = u0.x[1:-1][(u0.right[:-1] != u0.left[1:]) | (vacuum[:-1] != vacuum[1:])]
    if n > 2:
        # each such breakpoint takes its nearest grid point, ties to the
        # right, so breakpoints at least dx apart take distinct points and
        # positions stay increasing; one within dx/2 of a hint end takes the
        # interior point next to it, unless a breakpoint nearer that point
        # keeps it
        near = np.floor((inner - lo) * (n - 1) / (hi - lo) + 0.5).astype(int)
        j = np.minimum(np.maximum(near, 1), n - 2)
        pos[j] = inner
        unclipped = j == near
        pos[j[unclipped]] = inner[unclipped]
    # the particles strictly inside each run of pieces where u0 is zero go
    if not vacuum.any():
        return pos
    runs = u0.x[np.flatnonzero(np.diff(np.concatenate([[0], vacuum, [0]])))]
    keep = np.ones(n, dtype=bool)
    for first, stop in zip(np.searchsorted(pos, runs[::2], "right"), np.searchsorted(pos, runs[1::2], "left")):
        keep[first:stop] = False
    return pos[keep]


def place_particles(data: InitialData, n: int, strategy: str = "uniform") -> np.ndarray:
    """Initial particle positions covering the data's support hint.

    ``uniform`` starts from n particles evenly spaced over the hint,
    ``dx = (hi - lo) / (n - 1)`` apart, and moves the interior particle
    nearest each jump of u0 strictly inside the hint onto it (by at most
    dx/2), and likewise each end of a run of pieces where u0 is zero.
    Breakpoints where u0 is continuous move no particle, so sampled data
    keep the even grid.  Then each such run becomes one cell: the
    particles strictly inside it are dropped, and the hint ends always
    stay.  So the result has between 2 and n particles; where the jumps
    and run ends lie at least dx apart, each is a particle and each cell
    with mass is between dx/2 and 2 dx wide.
    ``mass_equidistributed`` puts equal mass between consecutive particles
    by inverting the cumulative mass, exactly on each affine piece of u0.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
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


def total_variation(values):
    """Total variation of the step profile with ``values`` on consecutive
    pieces and zero on both sides; inf, without a numpy warning, where the
    sum overflows.  A float for one profile; for a 2-D array, one value
    per row, each the same bits as a call on that row alone."""
    values = np.asarray(values, dtype=float)
    padded = np.zeros((*values.shape[:-1], values.shape[-1] + 2))
    padded[..., 1:-1] = values
    # np.diff's and np.sum's bits, without their Python-level argument passes
    with np.errstate(over="ignore"):
        tv = np.add.reduce(np.abs(padded[..., 1:] - padded[..., :-1]), axis=-1)
    return float(tv) if tv.ndim == 0 else tv


def _steps(bp, vals, description: str, measure_window=None) -> InitialData:
    """Step profile: ``vals[k]`` on (bp[k], bp[k+1]), zero outside (bp[0], bp[-1])."""
    return InitialData(PiecewiseAffineFn(bp, vals, vals), measure_window, description)


def riemann_data(u_l, u_r, x0=0.0, window=(-1.0, 1.0), measure_window=None) -> InitialData:
    """Two-state step profile, truncated to ``window`` (two finite numbers lo < hi)."""
    u_l, u_r, x0 = float(u_l), float(u_r), float(x0)
    lo, hi = finite_window("window", window)
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
    height, a, b = float(height), float(a), float(b)
    return _steps((a, b), (height,), f"box height {height} on ({a}, {b})")


def piecewise_constant_data(breakpoints, values, measure_window=None) -> InitialData:
    """Profile with the given values between consecutive breakpoints, zero outside."""
    return _steps(breakpoints, values, "piecewise constant profile", measure_window)


def sampled_data(xs, us, measure_window=None) -> InitialData:
    """Piecewise linear interpolation of (x, u0) samples; zero outside."""
    us = np.asarray(us, dtype=float)
    if us.ndim != 1 or np.shape(xs) != us.shape:
        raise ValueError("need matching 1-D sample arrays")
    return InitialData(PiecewiseAffineFn(xs, us[:-1], us[1:]), measure_window, "sampled profile")
