"""The audit's tolerances and the error bounds, checked at their edges.

Each trajectory here has two snapshots: four cells at t = 0 and a copy at
t = 0.5 with one defect, sized from the check's own tolerance.  At twice
the tolerance the check fails, and it alone; at half it passes with
every other check.  Nothing here compares against a second copy of the
audit, so a loosened tolerance fails these tests.  The defects move mass
between cells, so a density or mass defect does not also move the total
mass, and the LWR flux with u_max = 1000 lets a density a few ulps above
the maximum keep its velocity inside the audit's bounds.

The density lower bound and the upper separation bound hold a cell to
what the velocity spread a_max - a_min lets it widen by t; those defects
sit at the bound itself, not at the creation data.  On burgers and LWR a
density that moves a velocity by twice its tolerance already fails
max_principle, so the velocity defect uses a tabulated flux whose a is
flat on the data and steep just above their maximum.
"""

import numpy as np
import pytest

import particle_paths as pp

RTOL = 1e-12  # the audit's relative tolerance
DENSITIES = np.array([0.5, 0.25, 0.25, 0.5])  # unit widths, so masses equal densities
MASS = float(DENSITIES.sum())
TV0 = pp.initial.total_variation(DENSITIES)
POSITIONS = np.arange(5.0)  # unit widths
T = 0.5  # time of the second snapshot
MODEL = pp.builtin_flux("lwr", u_high=1.0, v_max=1.0, u_max=1000.0)
EXTREMA = pp.velocity_extrema(MODEL, 0.0, float(DENSITIES.max()))
SPREAD = EXTREMA.max_value - EXTREMA.min_value  # how fast a cell can widen
TOL_SEP = RTOL * max(1.0, 1.0 + abs(SPREAD) * T)  # widest initial cell is 1
# a = f/u is 0.5 on [0, 0.5] and rises as 0.5 + 100 (u - 0.5) above it
STEEP = pp.builtin_flux("tabulated", us=[0.0, 0.5, 1.0], fs=[0.0, 0.25, 25.5])


def mass_identity(f):
    dens, masses = DENSITIES.copy(), DENSITIES.copy()
    delta = f * RTOL * MASS
    masses[0] += delta
    masses[3] -= delta
    return dens, masses


def mass_drift(f):
    dens = DENSITIES.copy()
    dens[1] -= f * RTOL * MASS
    return dens, dens.copy()


def max_principle(f):
    # the maximum 0.5 is below 1, so the tolerance is RTOL itself
    dens = DENSITIES.copy()
    dens[0] += f * RTOL
    dens[1] -= f * RTOL
    return dens, dens.copy()


def tv_diminishing(f):
    # a dip and a bump of eta each raise the variation by 2 eta
    tol = max(1e-10, RTOL * TV0)
    dens = DENSITIES.copy()
    dens[1] += 0.5 * f * tol
    dens[2] -= 0.5 * f * tol
    return dens, dens.copy()


def density_lower_bound(f):
    # cell 0 falls below its mass over the widest it can be; its loss
    # lifts cell 1, so the variation falls
    dens = DENSITIES.copy()
    dens[0] = 0.5 / (1.0 + T * SPREAD) - f * RTOL
    dens[1] += 0.5 - dens[0]
    return dens, dens.copy()


def separation_upper(f):
    # cell 1 grows past the widest it can be, keeping its density with
    # mass from cell 0, so no density rises and the variation falls
    grow = T * SPREAD + f * TOL_SEP
    positions = POSITIONS + np.array([0.0, 0.0, grow, grow, grow])
    dens = DENSITIES.copy()
    dens[0] -= 0.25 * grow
    return dens, dens * np.diff(positions), positions


def separation_lower(f):
    # cell 0, at the maximum density, may not narrow at all: it narrows
    # and hands the mass it sheds to cell 1, keeping its own density
    positions = POSITIONS - np.array([0.0, f * TOL_SEP, 0.0, 0.0, 0.0])
    widths = np.diff(positions)
    masses = DENSITIES.copy()
    masses[0] = 0.5 * widths[0]
    masses[1] += 0.5 - masses[0]
    dens = masses / widths
    return dens, dens * widths, positions


def velocity_bounds(f):
    # on STEEP a density eta above the maximum moves its velocity by 100 eta
    eta = f * RTOL / 100.0
    dens = DENSITIES.copy()
    dens[0] += eta
    dens[1] -= eta
    return dens, dens.copy(), POSITIONS, STEEP


DEFECTS = {"mass_identity": mass_identity, "mass_drift": mass_drift, "max_principle": max_principle,
           "tv_diminishing": tv_diminishing, "density_lower_bound": density_lower_bound,
           "separation_lower": separation_lower, "separation_upper": separation_upper,
           "velocity_bounds": velocity_bounds}


def two_snapshots(dens, masses, positions=POSITIONS, model=MODEL):
    first = pp.ParticleState(POSITIONS, DENSITIES, DENSITIES.copy(), 0.0)
    return pp.Trajectory(snapshots=[first, pp.ParticleState(positions, dens, masses, T)], events=[], model=model)


def test_the_copy_without_a_defect_passes_every_check():
    report = pp.invariant_audit(two_snapshots(DENSITIES, DENSITIES))
    assert report.passed and report.failures() == []


@pytest.mark.parametrize("check", sorted(DEFECTS))
def test_twice_the_tolerance_fails_that_check_alone(check):
    report = pp.invariant_audit(two_snapshots(*DEFECTS[check](2.0)))
    assert report.failures() == [check]
    assert not report.passed


@pytest.mark.parametrize("check", sorted(DEFECTS))
def test_half_the_tolerance_passes(check):
    report = pp.invariant_audit(two_snapshots(*DEFECTS[check](0.5)))
    assert report.passed, report.failures()


@pytest.mark.parametrize(
    "gap, tv, residual, bound",
    [
        (0.25, 2.0, 1.0 / 16.0, 1.25),  # 0.25 + 2 sqrt(2 * 2 / 16)
        (0.0, 1.0, 0.125, 1.0),  # 2 sqrt(2 / 8)
        (0.5, 8.0, 0.0, 0.5),  # no residual leaves the initial gap
    ],
)
def test_stability_bound_by_hand(gap, tv, residual, bound):
    assert pp.stability_error_bound(gap, tv, residual) == bound


@pytest.mark.parametrize(
    "tv, sup, lip, dx, T, bound",
    [
        (3.0, 4.0, 1.0, 0.25, 1.0, 6.75),  # 3 (0.25 + 2 sqrt(1))
        (2.0, 1.0, 2.0, 0.5, 4.0, 9.0),  # 2 (0.5 + 2 sqrt(4))
        (5.0, 1.0, 1.0, 0.0, 1.0, 0.0),  # no spacing, no error
        (4.0, 2.0, 0.5, 0.5, 0.0, 2.0),  # at T = 0 the spacing alone
    ],
)
def test_explicit_rate_bound_by_hand(tv, sup, lip, dx, T, bound):
    assert pp.explicit_rate_bound(tv, sup, lip, dx, T) == bound
