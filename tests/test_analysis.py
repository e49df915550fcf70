import dataclasses
import json

import numpy as np
import pytest

import particle_paths as pp
from particle_paths import SpaceTimeBump
from particle_paths.analysis import StudyError, fit_loglog_slope
from particle_paths.initial import total_variation


def test_stability_bound_monotone_in_residual():
    base = pp.stability_error_bound(0.1, 4.0, 0.01)
    assert pp.stability_error_bound(0.1, 4.0, 0.02) > base
    assert base >= 0.1  # never below the initial gap
    with pytest.raises(ValueError):
        pp.stability_error_bound(-0.1, 4.0, 0.01)


def test_explicit_rate_bound_values():
    # dx* -> 0 drives the bound to zero at rate 1/2
    b1 = pp.explicit_rate_bound(4.0, 3.0, 1.0, 1e-2, 0.25)
    b2 = pp.explicit_rate_bound(4.0, 3.0, 1.0, 1e-4, 0.25)
    assert b2 < b1
    assert b2 / b1 == pytest.approx(0.1, abs=0.02)  # sqrt-dominated


def test_error_report_zero_against_self(burgers3, rarefaction_shock_run):
    # reference that replays the run's own final reconstruction
    final = pp.reconstruct_density(rarefaction_shock_run.final_state)
    exact = pp.ExactSolution(
        profile=lambda t: final,
        description="self",
        t_valid=(0.0, 1.0),
    )
    rep = pp.error_report(rarefaction_shock_run, exact, 0.25)
    assert rep.l1_error_at_T <= 1e-9
    assert rep.stability_bound >= rep.initial_gap
    assert rep.audit_passed


def test_error_report_inequalities(burgers3, rarefaction_shock_run, tmp_path):
    exact = pp.burgers_rarefaction_shock()
    rep = pp.error_report(rarefaction_shock_run, exact, 0.25)
    assert rep.l1_error_at_T <= rep.stability_bound
    assert rep.l1_error_at_T <= rep.rate_bound
    assert rep.window == (-1.0, 2.0)
    pp.exports.write_json(rep, tmp_path / "report.json")
    assert json.loads((tmp_path / "report.json").read_text()) == dict(dataclasses.asdict(rep), window=[-1.0, 2.0])


@pytest.mark.parametrize("T", [0.2, 0.3])
def test_error_report_needs_the_final_time(rarefaction_shock_run, T):
    # the run ends at 0.25; the error is measured at its final state only
    with pytest.raises(ValueError, match="not at T"):
        pp.error_report(rarefaction_shock_run, pp.burgers_rarefaction_shock(), T)


def test_rate_fit_scale_invariance():
    res = [0.2, 0.1, 0.05, 0.025]
    errs = [0.4, 0.28, 0.2, 0.14]
    f1 = fit_loglog_slope(res, errs)
    f2 = fit_loglog_slope(res, [17.0 * e for e in errs])
    assert f1.slope == pytest.approx(f2.slope, abs=1e-12)
    assert f1.intercept != f2.intercept


def test_rate_fit_degenerate_flags():
    fit = fit_loglog_slope([0.2, 0.1, 0.05], [1e-15, 1e-15, 1e-16])
    assert fit.degenerate
    with pytest.raises(ValueError):
        fit_loglog_slope([0.1, 0.2, 0.05], [1, 1, 1])  # not decreasing
    with pytest.raises(ValueError):
        fit_loglog_slope([0.2, 0.1], [1, 1])


def test_convergence_study_aborts_on_audit_failure(burgers3, monkeypatch):
    data = pp.rarefaction_shock_data()
    exact = pp.burgers_rarefaction_shock()
    import particle_paths.analysis as analysis

    failing = pp.AuditReport(checks={"max_principle": pp.CheckResult(False, -1.0)}, passed=False)
    monkeypatch.setattr(analysis, "invariant_audit", lambda traj, **kw: failing)
    with pytest.raises(StudyError, match="n = 9"):
        analysis.convergence_study(burgers3, data, exact, [9, 17, 33], 0.1)


def test_invariant_audit_detects_corruption(burgers3, rarefaction_shock_run):
    # bump one density above the initial maximum: negative control
    state = rarefaction_shock_run.snapshots[30]
    bad_dens = state.densities.copy()
    bad_dens[5] = rarefaction_shock_run.snapshots[0].densities.max() * 1.5
    bad_state = dataclasses.replace(
        state, densities=bad_dens, masses=bad_dens * state.widths
    )
    snaps = list(rarefaction_shock_run.snapshots)
    snaps[30] = bad_state
    corrupted = dataclasses.replace(rarefaction_shock_run, snapshots=snaps)
    report = pp.invariant_audit(corrupted)
    assert not report.passed
    assert "max_principle" in report.failures()


def test_invariant_audit_clean_run(rarefaction_shock_run):
    report = pp.invariant_audit(rarefaction_shock_run)
    assert report.passed
    assert report.checks["tv_diminishing"].ok


def test_tv_tolerance_scales_with_the_data():
    # the unit burgers Riemann run scaled by 1e6 in u and 1e-6 in t: its TV
    # rises by rounding only (about 5e-16 of TV(u0) = 4e6), which passes
    data = pp.riemann_data(2e6, 1e6)
    model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1.0 + 1e-12))
    state0 = pp.cell_average(data, pp.place_particles(data, 37, "uniform"))
    traj = pp.simulate(model, state0, 2.5e-6, dt_max=0.2 * state0.dx_star / 1e6, data=data)
    assert pp.invariant_audit(traj).checks["tv_diminishing"].ok
    # a rise of 1e-9 of the TV is no rounding, and still fails; one of
    # 5e-13 passes, though it is far above 1e-10
    pos = [0.0, 1.0, 2.0, 3.0]
    start = pp.ParticleState.from_cells(pos, [2e6, 1e6, 1e6])
    tv0 = total_variation(start.densities)
    for rise, ok in ((1e-9, False), (5e-13, True)):
        later = pp.ParticleState.from_cells(pos, [2e6, 1e6, 1e6 + 0.5 * rise * tv0], time=1e-9)
        run = pp.Trajectory(snapshots=[start, later], events=[], model=model)
        check = pp.invariant_audit(run).checks["tv_diminishing"]
        assert check.ok is ok, check.detail


def test_bump_shape_and_antiderivative():
    bump = SpaceTimeBump(0.0, 1.0, 0.5, 0.25)
    assert bump.theta(0.0) == 1.0
    assert bump.theta(1.0) == 0.0 and bump.theta(-1.5) == 0.0
    # antiderivative consistent with a Riemann sum
    xs = np.linspace(-1, 0.3, 200001)
    riemann = float(np.sum(bump.theta(0.5 * (xs[1:] + xs[:-1]))) * (xs[1] - xs[0]))
    assert bump.theta_antideriv(0.3) - bump.theta_antideriv(-1.0) == pytest.approx(riemann, abs=1e-8)
    assert bump.gamma(0.5) == 1.0 and bump.gamma(0.76) == 0.0
    h = 1e-7
    assert bump.gamma_prime(0.6) == pytest.approx((bump.gamma(0.6 + h) - bump.gamma(0.6 - h)) / (2 * h), abs=1e-5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("x_width", 0.0),
        ("x_width", -0.3),
        ("x_width", np.nan),
        ("x_width", np.inf),
        ("t_width", 0.0),
        ("t_width", -0.05),
        ("t_width", np.nan),
        ("x_center", np.nan),
        ("x_center", np.inf),
        ("t_center", -np.inf),
    ],
)
def test_bump_rejects_a_bad_field(field, value):
    # in a pairing, a zero width once divided by zero, an inverted or NaN
    # support passed the escape check with a defect of exactly 0.0, and a
    # negative time width flipped the sign of the d/dt term
    good = {"x_center": 0.5, "x_width": 0.8, "t_center": 0.1, "t_width": 0.05}
    with pytest.raises(ValueError, match=field):
        SpaceTimeBump(**{**good, field: value})


@pytest.mark.parametrize("k", [-1e-3, -1.0, np.nan, np.inf])
def test_entropy_defect_rejects_a_negative_or_non_finite_k(rarefaction_shock_run, k):
    with pytest.raises(ValueError, match="k must be finite and nonnegative"):
        pp.entropy_defect(rarefaction_shock_run, k, SpaceTimeBump(0.5, 0.8, 0.1, 0.05), (-1.0, 2.0))


def test_entropy_defect_k_zero_equals_pairing(burgers3):
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    traj = pp.simulate(burgers3, st, 0.2, dt_max=1e-3, every_step=True, data=data)
    bump = SpaceTimeBump(0.5, 0.8, 0.1, 0.05)
    window = (-1.0, 2.0)
    # at k = 0 the entropy pairing is the weak continuity-equation pairing
    assert abs(pp.entropy_defect(traj, 0.0, bump, window)) <= 1e-3


def test_entropy_defect_large_k_vanishes(burgers3):
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    traj = pp.simulate(burgers3, st, 0.2, dt_max=1e-3, every_step=True, data=data)
    bump = SpaceTimeBump(0.5, 0.8, 0.1, 0.05)
    window = (-1.0, 2.0)
    for k in (3.0, 4.5):
        defect = pp.entropy_defect(traj, k, bump, window)
        assert abs(defect) <= pp.entropy_tolerance(traj, k, bump, window)


def test_entropy_budget_charges_no_step_above_the_snapshot_spacing(burgers3):
    # dt_max = inf once made the budget infinite, so every pairing passed;
    # steps end on recorded times, so a dt_max above the spacing is the
    # spacing, and the budget is that of dt_max = spacing
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    bump = SpaceTimeBump(0.5, 0.8, 0.1, 0.05)
    window = (-1.0, 2.0)
    runs = [pp.simulate(burgers3, st, 0.2, dt_max=dt_max, every_step=True, data=data) for dt_max in (np.inf, 1.0)]
    budgets = [pp.entropy_tolerance(traj, 1.0, bump, window) for traj in runs]
    spacing = float(np.max(np.diff(runs[0].times)))
    capped = dataclasses.replace(runs[0], config={**runs[0].config, "dt_max": spacing})
    assert runs[0].stats.steps == 2 and np.isfinite(budgets[0])
    assert budgets == [pp.entropy_tolerance(capped, 1.0, bump, window)] * 2


def test_entropy_defect_rejects_spatially_escaping_bump(rarefaction_shock_run):
    with pytest.raises(ValueError, match="escapes"):
        pp.entropy_defect(rarefaction_shock_run, 1.0, SpaceTimeBump(0.0, 5.0, 0.1, 0.05), (-1.0, 2.0))


def test_entropy_defect_boundary_terms(burgers3):
    # a time profile straddling t = 0 activates the data boundary term; the
    # weak continuity pairing must still cancel to the discretization level
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    traj = pp.simulate(burgers3, st, 0.2, dt_max=1e-3, every_step=True, data=data)
    bump = SpaceTimeBump(0.5, 0.8, 0.0, 0.1)  # gamma(0) = 1
    window = (-1.0, 2.0)
    assert bump.gamma(0.0) == 1.0
    defect = pp.entropy_defect(traj, 0.0, bump, window)
    assert abs(defect) <= 1e-3


def test_richardson_estimate():
    # first-order pair: estimate equals the distance; order-1/2 inflates it
    assert pp.richardson_error_estimate(0.01, 1.0) == pytest.approx(0.01)
    assert pp.richardson_error_estimate(0.01, 0.5) == pytest.approx(0.01 / (np.sqrt(2) - 1))


def test_convergence_study_constant_data_is_degenerate(lwr1):
    # constant profile: cell averages are exact and the interior never
    # deforms, so measured errors sit at the integration floor
    data = pp.riemann_data(0.4, 0.4, x0=0.0, window=(-2.0, 2.0), measure_window=(-0.5, 0.5))
    exact = pp.riemann_solution(lwr1, 0.4, 0.4)
    fit, _ = pp.convergence_study(lwr1, data, exact, [9, 17, 33], 0.1)
    assert fit.degenerate
    assert np.isnan(fit.slope)


def test_convergence_study_lwr_family(lwr1):
    # microscopic follow-the-leader family closing on the macroscopic step
    data = pp.riemann_data(0.2, 0.8, x0=0.0, window=(-2.0, 2.0), measure_window=(-1.0, 1.0))
    exact = pp.riemann_solution(lwr1, 0.2, 0.8, 0.0)
    fit, reports = pp.convergence_study(lwr1, data, exact, [26, 51, 101], 0.5)
    assert fit.slope >= 0.45
    assert all(r.audit_passed for r in reports)


def test_temporal_modulus_uses_snapshot_pairs(burgers3):
    data = pp.rarefaction_shock_data()
    st = pp.cell_average(data, pp.place_particles(data, 31, "uniform"))
    traj = pp.simulate(burgers3, st, 0.1, dt_max=1e-3, data=data, snapshot_count=9)
    assert pp.temporal_modulus_margin(traj) <= 1.05


def _pairing_piece_loop(model, state, k, bump, window):
    """Per-piece reference for ``_pairing_terms``: (I_abs, I_flux, sum of |terms|)."""
    lo, hi = max(bump.x_support[0], window[0]), min(bump.x_support[1], window[1])
    vel = pp.particle_velocities(model, state)
    pos = state.positions
    f_k = float(model.eval_f(k))
    pieces = []
    if lo < min(pos[0], hi):
        pieces.append((lo, min(pos[0], hi), 0.0, vel[0], vel[0]))
    for i in range(state.n_cells):
        a, b = max(pos[i], lo), min(pos[i + 1], hi)
        if b > a:
            pieces.append((a, b, float(state.densities[i]), float(np.interp(a, pos, vel)), float(np.interp(b, pos, vel))))
    if max(pos[-1], lo) < hi:
        pieces.append((max(pos[-1], lo), hi, 0.0, vel[-1], vel[-1]))
    I_abs = I_flux = scale = 0.0
    for a, b, v, A_a, A_b in pieces:
        Th_a, Th_b = float(bump.theta_antideriv(a)), float(bump.theta_antideriv(b))
        term = abs(v - k) * (Th_b - Th_a)
        I_abs += term
        g_a, g_b = A_a * v - f_k, A_b * v - f_k
        slope = (g_b - g_a) / (b - a)
        flux = float(np.sign(v - k)) * (g_b * float(bump.theta(b)) - g_a * float(bump.theta(a)) - slope * (Th_b - Th_a))
        I_flux += flux
        scale += abs(term) + abs(g_b * float(bump.theta(b))) + abs(g_a * float(bump.theta(a))) + abs(slope * (Th_b - Th_a))
    return I_abs, I_flux, scale


def test_pairing_terms_match_piece_loop(burgers3, rarefaction_shock_run):
    # the array form sums in another order: allow a rounding budget per term
    from particle_paths.analysis import _pairing_terms

    window = (-1.0, 2.0)
    bumps = [SpaceTimeBump(0.5, 0.4, 0.12, 0.1), SpaceTimeBump(0.9, 0.5, 0.0, 0.1), SpaceTimeBump(-0.5, 0.5, 0.2, 0.1)]
    for s in rarefaction_shock_run.snapshots[::8]:
        (block,) = pp.Trajectory(snapshots=[s], events=[], model=burgers3).blocks()
        for k in (0.0, 1.0, 2.5, 3.0):
            for bump in bumps:
                (I_abs,), (I_flux,) = _pairing_terms(burgers3, block, k, bump, window)
                want_abs, want_flux, scale = _pairing_piece_loop(burgers3, s, k, bump, window)
                assert abs(I_abs - want_abs) <= 1e-12 * scale
                assert abs(I_flux - want_flux) <= 1e-12 * scale


def test_a_snapshot_is_read_at_its_state_time():
    # each snapshot has one clock, its state's time: a state one unit of
    # time on, every cell 1% wider with its mass kept, passes the audit,
    # whose bounds grow with that time, and sets the residual's spacing
    model = pp.builtin_flux("burgers", u_high=2.0)
    st = pp.ParticleState.from_cells([0.0, 0.2, 0.4, 0.6, 0.8], [2.0, 1.0, 1.5, 0.5])
    widths = 1.01 * st.widths
    pos = np.concatenate([[0.0], np.cumsum(widths)])
    grown = pp.ParticleState(pos, st.masses / widths, st.masses, time=1.0, widths=widths)
    run = pp.Trajectory(snapshots=[st, grown], events=[], model=model)
    assert run.times.tolist() == [0.0, 1.0]
    report = pp.invariant_audit(run)
    assert report.passed, report.failures()
    assert pp.spacetime_flux_residual(run)[1] == 1.0
