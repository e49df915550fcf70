"""Flux models for scalar conservation laws in continuity-equation form.

A Lipschitz flux f with f(0) = 0 induces the transport velocity
a(u) = f(u)/u, extended continuously by a(0) = f'(0).  Particle dynamics
only ever query a through its extrema over density intervals, so every
model carries an exact array oracle for them, of two kinds: closed form
for a monotone a (``MonotoneOracle``: burgers, lwr), and a node search for
an a monotone between turning points it names (``PiecewiseMonotoneOracle``,
and ``TabulatedOracle`` for a table).  Other fluxes are sampled to tables.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = ["FluxModel", "VelocityExtrema", "MonotoneOracle", "PiecewiseMonotoneOracle", "TabulatedOracle",
           "builtin_flux", "velocity_extrema"]


class VelocityExtrema(NamedTuple):
    min_value: float
    max_value: float


def _velocity_field(eval_f: Callable, fprime0: float, u):
    """a(u) = f(u)/u, with a(0) = fprime0."""
    u_arr = np.asarray(u, dtype=float)
    zero = u_arr == 0.0
    safe = np.where(zero, 1.0, u_arr)
    f_vals = np.asarray(eval_f(u_arr), dtype=float)
    out = np.where(zero, fprime0, f_vals / safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FluxModel:
    """Flux f plus its velocity field a(u) = f(u)/u on the interval [0, u_high].

    ``lip_f`` is the Lipschitz constant of f on [0, u_high]; it also bounds
    |a| there since |a(u)| = |f(u) - f(0)| / |u - 0|.  ``lip_fprime`` is
    optional and only needed for explicit rate bounds.  ``u_high``,
    ``lip_f`` and ``lip_fprime`` (when given) must be nonnegative and not
    NaN, or ``ValueError`` names the field.  The required, keyword-only
    ``extremum_oracle``, a ``MonotoneOracle`` or a ``PiecewiseMonotoneOracle``,
    is the only source of interface velocities; ``extremum_oracle(lo, hi)``
    gives the exact ``VelocityExtrema`` of a over arrays of intervals
    0 <= lo <= hi <= u_high (a(lo) for lo == hi), elementwise on any shape.
    Any other oracle raises ``ValueError``: sample such a flux into
    ``builtin_flux("tabulated", ...)``, exact for the interpolant.  The
    references read where f turns from the oracle too.
    """

    name: str
    eval_f: Callable
    fprime0: float
    lip_f: float
    u_high: float
    lip_fprime: Optional[float] = None
    extremum_oracle: MonotoneOracle | PiecewiseMonotoneOracle = dataclasses.field(kw_only=True)

    def __post_init__(self):
        if not isinstance(self.extremum_oracle, (MonotoneOracle, PiecewiseMonotoneOracle)):
            raise ValueError(f"flux '{self.name}' needs an extremum oracle; sample it into builtin_flux('tabulated')")
        for name in ("u_high", "lip_f", "lip_fprime"):
            value = getattr(self, name)
            # NaN fails the comparison too
            if value is not None and not value >= 0.0:
                raise ValueError(f"flux '{self.name}': {name} must be nonnegative, got {value!r}")

    def eval_a(self, u):
        return _velocity_field(self.eval_f, self.fprime0, u)

    @functools.cached_property
    def density_limit(self) -> float:
        """Largest density accepted as inside [0, u_high] (relative slack 1e-9), formed once.

        A Python float, which overflows to inf without numpy's warning when
        u_high is near the largest float.
        """
        return float(self.u_high) * (1.0 + 1e-9) + 1e-300


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

    The model's oracle answers every interval, a degenerate one with its own
    a(lo), as in the array kernel.  Inputs must be nonnegative, ordered,
    and inside the model's working interval.
    """
    lo = float(lo)
    hi = float(hi)
    if not lo <= hi:
        raise ValueError(f"density interval [{lo}, {hi}] is inverted or NaN")
    check_density_intervals(model, lo, hi)
    return VelocityExtrema(*map(float, model.extremum_oracle(lo, hi)))


class MonotoneOracle:
    """Closed-form extrema of a velocity field monotone on the working interval.

    Elementwise on arrays of any shape: a's values at the interval ends.
    ``a_vacuum`` is a(0), evaluated once, for the vacuum beyond a state's
    end particles; ``nodes`` holds the one monotone piece's start.
    """

    nodes = np.zeros(1)

    def __init__(self, a_of: Callable, increasing: bool):
        self.a_of = a_of
        self.increasing = increasing
        self.a_vacuum = float(a_of(np.zeros(1))[0])

    def __call__(self, lo, hi) -> VelocityExtrema:
        a_lo = self.a_of(lo)
        a_hi = self.a_of(hi)
        if self.increasing:
            return VelocityExtrema(a_lo, a_hi)
        return VelocityExtrema(a_hi, a_lo)


class _RangeExtrema:
    """Sparse table: min and max of values[i0..i1] in O(1).

    Level k holds the min and max of every window of 2**k consecutive
    entries; a query covers [i0, i1] with two overlapping windows of level
    k = floor(log2(i1 - i0 + 1)) (Bender & Farach-Colton, "The LCA problem
    revisited", 2000).  The tables are flat, entry i of level k at k*n + i,
    as 1-D ``take`` is cheaper than 2-D fancy indexing.  Two tables indexed
    by the span d = i1 - i0 hold the level arithmetic, so a query only adds
    its ends: the first window starts at ``_start[d] + i0`` = k*n + i0 and
    the second at ``_second[d] + i1`` = k*n + i1 - (2**k - 1), ending at i1.
    """

    def __init__(self, values: np.ndarray):
        n = values.size
        levels = max(1, int(n).bit_length())
        self.min = np.zeros((levels, n))
        self.max = np.zeros((levels, n))
        self.min[0] = self.max[0] = values
        for k in range(1, levels):
            half = 1 << (k - 1)
            width = n - (1 << k) + 1
            for table, pick in ((self.min, np.minimum), (self.max, np.maximum)):
                table[k, :width] = pick(table[k - 1, :width], table[k - 1, half : half + width])
        self.min, self.max = self.min.ravel(), self.max.ravel()
        k = np.array([length.bit_length() - 1 for length in range(1, n + 1)], dtype=np.intp)  # level of span length - 1
        self._start = k * n
        self._second = self._start - ((1 << k) - 1)

    def query(self, i0, i1):
        """(min, max) over the inclusive index ranges [i0, i1], i0 <= i1."""
        d = i1 - i0
        i = self._start.take(d) + i0
        j = self._second.take(d) + i1
        return np.minimum(self.min.take(i), self.min.take(j)), np.maximum(self.max.take(i), self.max.take(j))


def entropic_row(g: Callable, nodes: np.ndarray, table: _RangeExtrema, row) -> np.ndarray:
    """The entropic rule between consecutive entries of ``row``.

    Between entries l = row[..., k] and r = row[..., k + 1] it gives the
    min of g over [l, r] where l <= r and the max over [r, l] otherwise,
    for a g monotone between consecutive ``nodes`` whose values ``table``
    holds: the candidates are g at l and r and the nodes strictly between
    them.  g is called once, on ``row``, and the nodes are searched once per
    entry; the table is read only where a node lies strictly inside.  Works
    along the last axis of a row or a row block, so g must be elementwise.
    """
    row = np.asarray(row, dtype=float)
    g_row = np.asarray(g(row), dtype=float)
    g_l, g_r = g_row[..., :-1], g_row[..., 1:]
    rising = row[..., :-1] < row[..., 1:]
    # l == r reads g(r) on either branch: np.maximum keeps its second argument on a tie
    out = np.where(rising, np.minimum(g_r, g_l), np.maximum(g_l, g_r))
    above = nodes.searchsorted(row, "right")  # the first node above each entry
    below = above - (nodes.take(above - 1) == row)  # the first node at or above it
    # the nodes strictly inside: from the first above the lower entry to
    # the last below the upper one
    first = np.minimum(above[..., :-1], above[..., 1:])
    last = np.maximum(below[..., :-1], below[..., 1:]) - 1
    inner = np.flatnonzero(first <= last)
    if inner.size:
        node_min, node_max = table.query(first.take(inner), last.take(inner))
        ends = out.take(inner)
        out.put(inner, np.where(rising.take(inner), np.minimum(node_min, ends), np.maximum(node_max, ends)))
    return out


class PiecewiseMonotoneOracle:
    """Exact extrema of a velocity field monotone between given nodes.

    ``a_of`` is a closed-form a, elementwise on arrays of any shape, and
    ``nodes``, strictly increasing from 0, points between which a and
    f = u a are both monotone.  Over any interval a takes its extrema at
    the ends or at nodes inside, which ``entropic_row`` searches in a
    sparse table of a's node values; Godunov's interface flux searches the
    same nodes for f's.
    """

    def __init__(self, a_of: Callable, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or nodes[0] != 0.0 or not np.all(np.diff(nodes) > 0.0):
            raise ValueError(f"oracle nodes must be strictly increasing from 0, got {nodes!r}")
        self.a_of = a_of
        self.nodes = nodes
        self._a_nodes = _RangeExtrema(np.asarray(a_of(nodes), dtype=float))

    def entropic(self, row) -> np.ndarray:
        """The particle velocities between consecutive densities of a row or row block."""
        return entropic_row(self.a_of, self.nodes, self._a_nodes, row)

    def __call__(self, lo, hi) -> VelocityExtrema:
        # the rule takes the min from the row [lo, hi] and the max from [hi, lo]
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        ext = self.entropic(np.stack([np.stack([lo, hi], axis=-1), np.stack([hi, lo], axis=-1)]))
        return VelocityExtrema(ext[0, ..., 0], ext[1, ..., 0])


class TabulatedOracle(PiecewiseMonotoneOracle):
    """Exact extrema of a for a piecewise linear flux f through (us, f(us)).

    On each piece f = s_k u + c_k, so f and a(u) = s_k + c_k/u are monotone
    between the samples ``us``, which become the ``nodes``.  ``a`` is
    evaluated exactly as ``FluxModel.eval_a`` does.
    """

    def __init__(self, us: np.ndarray, eval_f: Callable, fprime0: float):
        super().__init__(lambda u: _velocity_field(eval_f, fprime0, u), us)


def builtin_flux(name: str, u_high: Optional[float] = None, **params) -> FluxModel:
    """Construct a registered flux model.

    Registered kinds:
      * ``burgers``: f(u) = u^2 / 2.
      * ``lwr``: f(u) = v_max * u * (1 - u/u_max); params v_max, u_max.
      * ``tabulated``: linear interpolation of samples; params ``us``, ``fs``
        with strictly increasing us starting at 0, finite fs and fs[0] = 0.
        Extrema are exact: the velocity field is monotone on every linear
        piece.

    ``u_high`` sets the working density interval [0, u_high]; Lipschitz
    constants are taken on it.  A flux that overflows there (``lip_f`` or
    f(u_high) not finite) raises ``ValueError``.
    """
    model = _registered_flux(name, u_high, params)
    with np.errstate(over="ignore", invalid="ignore"):
        f_top = float(model.eval_f(model.u_high))
    if not (np.isfinite(model.lip_f) and np.isfinite(f_top)):
        raise ValueError(f"{name} flux overflows on [0, {model.u_high}]: lip_f = {model.lip_f}, f(u_high) = {f_top}")
    return model


def _registered_flux(name: str, u_high: Optional[float], params: dict) -> FluxModel:
    if name == "burgers":
        if params:
            raise ValueError(f"burgers flux takes no params, got {sorted(params)}")
        top = 1.0 if u_high is None else float(u_high)

        def f_burgers(u):
            u = np.asarray(u, dtype=float)
            return 0.5 * u * u

        def a_burgers(u):
            return 0.5 * np.asarray(u, dtype=float)

        return FluxModel(
            name="burgers",
            eval_f=f_burgers,
            fprime0=0.0,
            lip_f=top,
            u_high=top,
            lip_fprime=1.0,
            extremum_oracle=MonotoneOracle(a_burgers, increasing=True),
        )

    if name == "lwr":
        v_max = float(params.pop("v_max", 1.0))
        u_max = float(params.pop("u_max", 1.0))
        if params:
            raise ValueError(f"unknown lwr params {sorted(params)}")
        if v_max <= 0 or u_max <= 0:
            raise ValueError("lwr requires positive v_max and u_max")
        top = u_max if u_high is None else float(u_high)

        def f_lwr(u):
            u = np.asarray(u, dtype=float)
            return v_max * u * (1.0 - u / u_max)

        def a_lwr(u):
            return v_max * (1.0 - np.asarray(u, dtype=float) / u_max)

        lip_f = v_max * max(1.0, abs(2.0 * top / u_max - 1.0))
        return FluxModel(
            name="lwr",
            eval_f=f_lwr,
            fprime0=v_max,
            lip_f=lip_f,
            u_high=top,
            lip_fprime=2.0 * v_max / u_max,
            extremum_oracle=MonotoneOracle(a_lwr, increasing=False),
        )

    if name == "tabulated":
        us = np.asarray(params.pop("us"), dtype=float)
        fs = np.asarray(params.pop("fs"), dtype=float)
        if params:
            raise ValueError(f"unknown tabulated params {sorted(params)}")
        if us.ndim != 1 or us.shape != fs.shape or us.size < 2:
            raise ValueError("tabulated flux needs matching 1-D sample arrays")
        if us[0] != 0.0:
            raise ValueError("tabulated samples must start at u = 0")
        if np.any(np.diff(us) <= 0):
            raise ValueError("tabulated u samples must be strictly increasing")
        if fs[0] != 0.0:
            raise ValueError(f"tabulated flux has f(0) = {fs[0]}, expected 0")
        if not np.all(np.isfinite(fs)):
            raise ValueError("tabulated flux values fs must be finite")
        top = float(us[-1]) if u_high is None else float(u_high)
        if top > us[-1]:
            raise ValueError("u_high exceeds the tabulated sample range")

        def f_tab(u):
            return np.interp(np.asarray(u, dtype=float), us, fs)

        with np.errstate(over="ignore"):
            slopes = np.diff(fs) / np.diff(us)
        in_range = us[:-1] < top
        lip_f = float(np.max(np.abs(slopes[in_range]))) if in_range.any() else float(abs(slopes[0]))
        if not np.isfinite(lip_f):  # before the oracle divides f by u
            raise ValueError(f"tabulated flux slope overflows: lip_f = {lip_f}")
        # f is linear on the first piece, so f'(0) is its slope
        fprime0 = float(slopes[0])
        return FluxModel(
            name="tabulated",
            eval_f=f_tab,
            fprime0=fprime0,
            lip_f=lip_f,
            u_high=top,
            lip_fprime=None,
            extremum_oracle=TabulatedOracle(us, f_tab, fprime0),
        )

    raise ValueError(f"unknown flux '{name}'")
