"""Flux models for scalar conservation laws in continuity-equation form.

A Lipschitz flux f with f(0) = 0 induces the transport velocity
a(u) = f(u)/u, extended continuously by a(0) = f'(0).  Particle dynamics
only ever query a through its extrema over density intervals, so each
model carries an interval-extremum oracle.  The built-in fluxes have
array-native exact oracles: closed form for the monotone velocity fields
of burgers and lwr, and a node-range search for tabulated fluxes, whose
velocity field is monotone on every linear piece.  Other models fall back
to a certified scan-and-refine search, one interval at a time.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

__all__ = [
    "FluxModel",
    "VelocityExtrema",
    "ArrayExtremumOracle",
    "MonotoneOracle",
    "TabulatedOracle",
    "builtin_flux",
    "velocity_extrema",
    "ANALYTIC_TOL",
    "NUMERIC_TOL",
]

ANALYTIC_TOL = 1e-10
NUMERIC_TOL = 1e-8

_SCAN_POINTS = 2049


class VelocityExtrema(NamedTuple):
    min_value: float
    max_value: float
    argmin: float
    argmax: float


@dataclass(frozen=True)
class FluxModel:
    """Flux f plus its velocity field a(u) = f(u)/u on the interval [0, u_high].

    ``lip_f`` is the Lipschitz constant of f on [0, u_high]; it also bounds
    |a| there since |a(u)| = |f(u) - f(0)| / |u - 0|.  ``lip_fprime`` is
    optional and only needed for explicit rate bounds.  ``extremum_oracle``
    returns exact extrema of a over a density interval; when absent a
    numeric scan is used.  An ``ArrayExtremumOracle`` also accepts arrays
    of intervals, which lets ``interface_velocities`` serve every particle
    with one call.
    """

    name: str
    eval_f: Callable
    fprime0: float
    lip_f: float
    u_high: float
    lip_fprime: Optional[float] = None
    extremum_oracle: Optional[Callable] = None
    tol_ext: float = NUMERIC_TOL

    def eval_a(self, u):
        u_arr = np.asarray(u, dtype=float)
        safe = np.where(u_arr == 0.0, 1.0, u_arr)
        f_vals = np.asarray(self.eval_f(u_arr), dtype=float)
        out = np.where(u_arr == 0.0, self.fprime0, f_vals / safe)
        if out.ndim == 0:
            return float(out)
        return out

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


def velocity_extrema(model: FluxModel, lo: float, hi: float, tol: Optional[float] = None) -> VelocityExtrema:
    """Extrema of the velocity field a over the density interval [lo, hi].

    Returns (min, max, argmin, argmax).  Degenerate intervals return the
    point value of a.  Inputs must be nonnegative, ordered, and inside the
    model's working interval.
    """
    lo = float(lo)
    hi = float(hi)
    if lo < 0.0 or hi < 0.0:
        raise ValueError(f"negative density interval [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"inverted density interval [{lo}, {hi}]")
    if hi > model.density_limit:
        raise ValueError(
            f"interval top {hi} exceeds working interval [0, {model.u_high}]"
        )
    if lo == hi:
        a_val = float(model.eval_a(lo))
        return VelocityExtrema(a_val, a_val, lo, lo)
    if model.extremum_oracle is not None:
        res = model.extremum_oracle(lo, hi)
        return VelocityExtrema(*map(float, res))
    return _scan_extrema(model, lo, hi, model.tol_ext if tol is None else tol)


def _golden_refine(eval_a, lo, hi, start_u, start_val, width, sign):
    """Golden-section search for min of sign*a on [lo, hi], tracking best sample."""
    best_u, best_v = start_u, sign * start_val
    g = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = lo, hi
    x1 = a + g * (b - a)
    x2 = b - g * (b - a)
    f1 = sign * float(eval_a(x1))
    f2 = sign * float(eval_a(x2))
    for u, v in ((x1, f1), (x2, f2)):
        if v < best_v:
            best_u, best_v = u, v
    while (b - a) > width:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = a + g * (b - a)
            f1 = sign * float(eval_a(x1))
            if f1 < best_v:
                best_u, best_v = x1, f1
        else:
            a, x1, f1 = x1, x2, f2
            x2 = b - g * (b - a)
            f2 = sign * float(eval_a(x2))
            if f2 < best_v:
                best_u, best_v = x2, f2
    for u in (a, b):
        v = sign * float(eval_a(u))
        if v < best_v:
            best_u, best_v = u, v
    return best_u, sign * best_v


def _scan_extrema(model: FluxModel, lo: float, hi: float, tol: float) -> VelocityExtrema:
    # Uniform scan locates the winning brackets; golden-section refinement
    # shrinks each bracket until its width times the sampled Lipschitz rate
    # of a is below tol, certifying the returned values to that accuracy.
    us = np.linspace(lo, hi, _SCAN_POINTS)
    vals = np.asarray(model.eval_a(us), dtype=float)
    h = (hi - lo) / (_SCAN_POINTS - 1)
    lip = 1.5 * float(np.max(np.abs(np.diff(vals)))) / h + 1e-30
    width = max(tol / max(1.0, lip), (hi - lo) * 1e-14)

    i_min = int(np.argmin(vals))
    i_max = int(np.argmax(vals))
    lo_min = us[max(i_min - 1, 0)]
    hi_min = us[min(i_min + 1, _SCAN_POINTS - 1)]
    lo_max = us[max(i_max - 1, 0)]
    hi_max = us[min(i_max + 1, _SCAN_POINTS - 1)]
    argmin, min_val = _golden_refine(
        model.eval_a, lo_min, hi_min, us[i_min], vals[i_min], width, sign=+1.0
    )
    argmax, max_val = _golden_refine(
        model.eval_a, lo_max, hi_max, us[i_max], vals[i_max], width, sign=-1.0
    )
    return VelocityExtrema(min_val, max_val, argmin, argmax)


class ArrayExtremumOracle:
    """Extremum oracle that takes arrays of intervals as well as scalars.

    ``oracle(lo, hi)`` returns a ``VelocityExtrema`` whose fields have the
    broadcast shape of ``lo`` and ``hi``; intervals must satisfy
    0 <= lo <= hi <= u_high (the caller checks).
    """

    def __call__(self, lo, hi) -> VelocityExtrema:
        raise NotImplementedError


class MonotoneOracle(ArrayExtremumOracle):
    """Closed-form extrema of a velocity field monotone on the working interval."""

    def __init__(self, a_of: Callable, increasing: bool):
        self.a_of = a_of
        self.increasing = increasing

    def __call__(self, lo, hi) -> VelocityExtrema:
        a_lo = self.a_of(lo)
        a_hi = self.a_of(hi)
        if self.increasing:
            return VelocityExtrema(a_lo, a_hi, lo, hi)
        return VelocityExtrema(a_hi, a_lo, hi, lo)


def _winner(values: np.ndarray, better: Callable, left, right):
    """Of the index arrays left and right, the one whose value is better (ties: left)."""
    return np.where(better(values[right], values[left]), right, left)


class _RangeArgExtrema:
    """Sparse table: index of the min and of the max of values[i0..i1] in O(1).

    Level k holds the winners of every window of 2**k consecutive entries;
    a query covers [i0, i1] with two overlapping windows of one level
    (Bender & Farach-Colton, "The LCA problem revisited", 2000).
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        n = values.size
        levels = max(1, int(n).bit_length())
        self.argmin = np.zeros((levels, n), dtype=np.intp)
        self.argmax = np.zeros((levels, n), dtype=np.intp)
        self.argmin[0] = self.argmax[0] = np.arange(n)
        for k in range(1, levels):
            half = 1 << (k - 1)
            width = n - (1 << k) + 1
            for table, better in ((self.argmin, np.less), (self.argmax, np.greater)):
                table[k, :width] = _winner(values, better, table[k - 1, :width], table[k - 1, half : half + width])

    def query(self, i0, i1):
        """(argmin, argmax) over the inclusive index ranges [i0, i1], i0 <= i1."""
        k = np.frexp(i1 - i0 + 1)[1] - 1  # floor(log2(length)), exact for ints
        j = i1 - (1 << k) + 1
        return [
            _winner(self.values, better, table[k, i0], table[k, j])
            for table, better in ((self.argmin, np.less), (self.argmax, np.greater))
        ]


def _piecewise_extrema(g: Callable, nodes: np.ndarray, table: _RangeArgExtrema, lo, hi) -> VelocityExtrema:
    """Extrema over [lo, hi] of a function monotone between consecutive nodes.

    The candidates are the two ends and the nodes strictly inside the
    interval, whose best value the sparse table gives directly.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    g_lo = np.asarray(g(lo), dtype=float)
    g_hi = np.asarray(g(hi), dtype=float)
    i0 = np.searchsorted(nodes, lo, side="right")  # first node > lo
    i1 = np.searchsorted(nodes, hi, side="left") - 1  # last node < hi
    inner = i0 <= i1
    j_min, j_max = table.query(np.where(inner, i0, 0), np.where(inner, i1, 0))

    def best(better, j):
        hi_wins = better(g_hi, g_lo)
        value = np.where(hi_wins, g_hi, g_lo)
        node_wins = inner & better(table.values[j], value)
        return np.where(node_wins, table.values[j], value), np.where(node_wins, nodes[j], np.where(hi_wins, hi, lo))

    min_v, arg_min = best(np.less, j_min)
    max_v, arg_max = best(np.greater, j_max)
    return VelocityExtrema(min_v, max_v, arg_min, arg_max)


class TabulatedOracle(ArrayExtremumOracle):
    """Exact extrema for a piecewise linear flux f through nodes (us, fs).

    On the piece [u_k, u_{k+1}], f = s_k u + c_k, so a(u) = s_k + c_k/u is
    monotone and both f and a take their extrema over any interval at its
    ends or at table nodes inside it.  ``flux_extrema`` answers the same
    query for f itself (the Godunov interface flux).
    """

    def __init__(self, us: np.ndarray, eval_f: Callable, eval_a: Callable):
        self.us = us
        self.eval_f = eval_f
        self.eval_a = eval_a
        self._a_nodes = _RangeArgExtrema(np.asarray(eval_a(us), dtype=float))
        self._f_nodes = _RangeArgExtrema(np.asarray(eval_f(us), dtype=float))

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
        with strictly increasing us starting at 0 and fs[0] = 0.  Extrema
        are exact: the velocity field is monotone on every linear piece.

    ``u_high`` sets the working density interval [0, u_high]; Lipschitz
    constants are taken on it.
    """
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
            tol_ext=ANALYTIC_TOL,
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
            tol_ext=ANALYTIC_TOL,
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
        top = float(us[-1]) if u_high is None else float(u_high)
        if top > us[-1]:
            raise ValueError("u_high exceeds the tabulated sample range")

        def f_tab(u):
            return np.interp(np.asarray(u, dtype=float), us, fs)

        slopes = np.diff(fs) / np.diff(us)
        in_range = us[:-1] < top
        lip_f = float(np.max(np.abs(slopes[in_range]))) if in_range.any() else float(abs(slopes[0]))
        h0 = 1e-7 * top
        fprime0 = float(f_tab(h0)) / h0
        model = FluxModel(
            name="tabulated",
            eval_f=f_tab,
            fprime0=fprime0,
            lip_f=lip_f,
            u_high=top,
            lip_fprime=None,
            tol_ext=ANALYTIC_TOL,
        )
        return dataclasses.replace(model, extremum_oracle=TabulatedOracle(us, f_tab, model.eval_a))

    raise ValueError(f"unknown flux '{name}'")
