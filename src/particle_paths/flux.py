"""Flux models for scalar conservation laws in continuity-equation form.

A Lipschitz flux f with f(0) = 0 induces the transport velocity
a(u) = f(u)/u, extended continuously by a(0) = f'(0).  Particle dynamics
only ever query a through its extrema over density intervals, so every
model carries an exact array oracle for them: closed form for the
monotone velocity fields of burgers and lwr, and a node-range search for
tabulated fluxes, whose velocity field is monotone on every linear piece.
A flux without a closed form is sampled into a tabulated one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = ["FluxModel", "VelocityExtrema", "MonotoneOracle", "TabulatedOracle", "builtin_flux", "velocity_extrema"]


class VelocityExtrema(NamedTuple):
    min_value: float
    max_value: float


def _velocity_field(eval_f: Callable, fprime0: float, u):
    """a(u) = f(u)/u, with a(0) = fprime0."""
    u_arr = np.asarray(u, dtype=float)
    safe = np.where(u_arr == 0.0, 1.0, u_arr)
    f_vals = np.asarray(eval_f(u_arr), dtype=float)
    out = np.where(u_arr == 0.0, fprime0, f_vals / safe)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class FluxModel:
    """Flux f plus its velocity field a(u) = f(u)/u on the interval [0, u_high].

    ``lip_f`` is the Lipschitz constant of f on [0, u_high]; it also bounds
    |a| there since |a(u)| = |f(u) - f(0)| / |u - 0|.  ``lip_fprime`` is
    optional and only needed for explicit rate bounds.  The required,
    keyword-only ``extremum_oracle(lo, hi)`` returns the exact
    ``VelocityExtrema`` of a over arrays of intervals 0 <= lo <= hi <= u_high.
    A flux without a closed form for them is sampled into
    ``builtin_flux("tabulated", ...)``, exact for the interpolant.
    """

    name: str
    eval_f: Callable
    fprime0: float
    lip_f: float
    u_high: float
    lip_fprime: Optional[float] = None
    extremum_oracle: Callable = dataclasses.field(kw_only=True)

    def __post_init__(self):
        if not callable(self.extremum_oracle):
            raise ValueError(f"flux '{self.name}' needs an extremum oracle; sample it into builtin_flux('tabulated')")

    def eval_a(self, u):
        return _velocity_field(self.eval_f, self.fprime0, u)

    @property
    def density_limit(self) -> float:
        """Largest density accepted as inside [0, u_high] (relative slack 1e-9)."""
        return self.u_high * (1.0 + 1e-9) + 1e-300


def check_density_intervals(model: FluxModel, lo: np.ndarray, hi: np.ndarray) -> None:
    """Raise ValueError unless every 0 <= lo[i] and hi[i] <= the working top.

    NaN passes, so callers see it propagate.
    """
    if np.any(lo < 0.0):
        raise ValueError(f"negative density {float(np.min(lo))}")
    if np.any(hi > model.density_limit):
        raise ValueError(
            f"density {float(np.max(hi))} exceeds working interval [0, {model.u_high}]"
        )


def velocity_extrema(model: FluxModel, lo: float, hi: float) -> VelocityExtrema:
    """Extrema of the velocity field a over the density interval [lo, hi].

    Degenerate intervals return the point value of a.  Inputs must be
    nonnegative, ordered, and inside the model's working interval.
    """
    lo = float(lo)
    hi = float(hi)
    if lo > hi:
        raise ValueError(f"inverted density interval [{lo}, {hi}]")
    check_density_intervals(model, lo, hi)
    if lo == hi:
        a_val = float(model.eval_a(lo))
        return VelocityExtrema(a_val, a_val)
    return VelocityExtrema(*map(float, model.extremum_oracle(lo, hi)))


class MonotoneOracle:
    """Closed-form extrema of a velocity field monotone on the working interval."""

    def __init__(self, a_of: Callable, increasing: bool):
        self.a_of = a_of
        self.increasing = increasing

    def __call__(self, lo, hi) -> VelocityExtrema:
        a_lo = self.a_of(lo)
        a_hi = self.a_of(hi)
        if self.increasing:
            return VelocityExtrema(a_lo, a_hi)
        return VelocityExtrema(a_hi, a_lo)


class _RangeExtrema:
    """Sparse table: min and max of values[i0..i1] in O(1).

    Level k holds the min and max of every window of 2**k consecutive
    entries; a query covers [i0, i1] with two overlapping windows of one
    level (Bender & Farach-Colton, "The LCA problem revisited", 2000).
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

    def query(self, i0, i1):
        """(min, max) over the inclusive index ranges [i0, i1], i0 <= i1."""
        k = np.frexp(i1 - i0 + 1)[1] - 1  # floor(log2(length)), exact for ints
        j = i1 - (1 << k) + 1
        return np.minimum(self.min[k, i0], self.min[k, j]), np.maximum(self.max[k, i0], self.max[k, j])


def _piecewise_extrema(g: Callable, nodes: np.ndarray, table: _RangeExtrema, lo, hi) -> VelocityExtrema:
    """Extrema over [lo, hi] of a function monotone between consecutive nodes.

    The candidates are the two ends and the nodes strictly inside the
    interval, whose min and max the sparse table gives directly.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    g_lo = np.asarray(g(lo), dtype=float)
    g_hi = np.asarray(g(hi), dtype=float)
    i0 = np.searchsorted(nodes, lo, side="right")  # first node > lo
    i1 = np.searchsorted(nodes, hi, side="left") - 1  # last node < hi
    inner = i0 <= i1
    node_min, node_max = table.query(np.where(inner, i0, 0), np.where(inner, i1, 0))
    end_min = np.minimum(g_hi, g_lo)
    end_max = np.maximum(g_hi, g_lo)
    return VelocityExtrema(
        np.where(inner, np.minimum(node_min, end_min), end_min),
        np.where(inner, np.maximum(node_max, end_max), end_max),
    )


class TabulatedOracle:
    """Exact extrema for a piecewise linear flux f through nodes (us, f(us)).

    On the piece [u_k, u_{k+1}], f = s_k u + c_k, so a(u) = s_k + c_k/u is
    monotone and both f and a take their extrema over any interval at its
    ends or at table nodes inside it.  ``a`` is evaluated exactly as
    ``FluxModel.eval_a`` does.  ``flux_extrema`` answers the same query for
    f itself (the Godunov interface flux).
    """

    def __init__(self, us: np.ndarray, eval_f: Callable, fprime0: float):
        self.us = us
        self.eval_f = eval_f
        self.eval_a = lambda u: _velocity_field(eval_f, fprime0, u)
        self._a_nodes = _RangeExtrema(np.asarray(self.eval_a(us), dtype=float))
        self._f_nodes = _RangeExtrema(np.asarray(eval_f(us), dtype=float))

    def __call__(self, lo, hi) -> VelocityExtrema:
        return _piecewise_extrema(self.eval_a, self.us, self._a_nodes, lo, hi)

    def flux_extrema(self, lo, hi) -> VelocityExtrema:
        return _piecewise_extrema(self.eval_f, self.us, self._f_nodes, lo, hi)


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
