"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import numpy as np
import pytest

import particle_paths as pp
from particle_paths import SpaceTimeBump
from particle_paths.field import flux_residual_l1

from conftest import cubic_flux_model

WINDOW = (-1.0, 2.0)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def entropy_runs(burgers3):
    """Demonstration-profile runs with every-step snapshots at dt and dt/2."""
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 51, "uniform"))
    runs = {}
    for dt in (1e-3, 5e-4):
        runs[dt] = pp.simulate(burgers3, state0, 0.25, dt_max=dt, every_step=True, data=data)
    return runs


def _invariant_detail(traj):
    audit = pp.invariant_audit(traj)
    masses = [s.total_mass for _, s in traj.snapshots]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    return audit, drift


def test_criterion_01_invariant_suite(rarefaction_shock_run, lwr_riemann_run):
    details = []
    ok = True
    for name, traj in (("burgers", rarefaction_shock_run), ("lwr", lwr_riemann_run)):
        audit, drift = _invariant_detail(traj)
        ok &= drift <= 1e-12
        ok &= audit.checks["max_principle"].margin >= -1e-12
        ok &= audit.checks["separation_lower"].ok and audit.checks["separation_upper"].ok
        ok &= audit.checks["tv_diminishing"].margin >= 0.0  # rise <= 1e-10
        details.append(
            f"{name}: drift={drift:.1e}, max-principle margin="
            f"{audit.checks['max_principle'].margin:.1e}, "
            f"tv rise<={1e-10 - audit.checks['tv_diminishing'].margin:.1e}"
        )
    report(1, ok, "; ".join(details))


def test_criterion_02_exact_solution_error(burgers3):
    data = pp.rarefaction_shock_data()
    state0 = pp.cell_average(data, pp.place_particles(data, 201, "uniform"))
    traj = pp.simulate(burgers3, state0, 0.25, dt_max=2e-4, data=data)
    exact = pp.burgers_rarefaction_shock()
    rep = pp.error_report(traj, exact, 0.25, window=WINDOW)
    # explicit bound with the profile's own constants on the measurement
    # window: variation 4, supremum 3, flux-derivative Lipschitz constant 1
    pinned = pp.explicit_rate_bound(4.0, 3.0, 1.0, rep.dx0_star, 0.25)
    ok = rep.l1_error_at_T <= rep.stability_bound and rep.l1_error_at_T <= pinned
    report(
        2,
        ok,
        f"l1={rep.l1_error_at_T:.4f} <= theorem={rep.stability_bound:.4f} "
        f"and <= pinned-constant bound={pinned:.4f}",
    )


def test_criterion_03_convergence_rate(burgers3):
    data = pp.rarefaction_shock_data()
    exact = pp.burgers_rarefaction_shock()
    fit, _ = pp.convergence_study(burgers3, data, exact, [26, 51, 101, 201, 401], 0.25)
    ok = fit.slope >= 0.45
    report(3, ok, f"fitted slope={fit.slope:.3f} (three finest: {fit.slope_tail:.3f}) >= 0.45")


def test_criterion_04_residual_bound(rarefaction_shock_run, lwr_riemann_run):
    details = []
    ok = True
    for traj in (rarefaction_shock_run, lwr_riemann_run):
        data = traj.data
        model = traj.model
        state0 = traj.snapshots[0][1]
        bound = 0.5 * model.lip_fprime * data.sup_u0 * float(np.max(state0.widths)) * data.tv_u0
        worst = max(flux_residual_l1(model, s) for _, s in traj.snapshots)
        ok &= worst <= 1.01 * bound
        details.append(f"{model.name}: worst residual {worst:.4f} <= 1.01*{bound:.4f}")
    report(4, ok, "; ".join(details))


def test_criterion_05_ftl_coincidence(lwr1):
    rng = np.random.default_rng(2024)
    pairs = rng.uniform(0.0, lwr1.u_high, size=(10000, 2))
    dev = pp.follow_the_leader_deviation(lwr1, pairs)
    report(5, dev <= 1e-8, f"max |V - a(v_r)| over 10^4 pairs = {dev:.2e} <= 1e-8")


def _sample_bumps(rng, n, T):
    bumps = []
    for _ in range(n):
        xw = rng.uniform(0.3, 1.0)
        xc = rng.uniform(WINDOW[0] + xw, WINDOW[1] - xw)
        tw = rng.uniform(0.04, 0.1)
        tc = rng.uniform(tw, T - tw)
        bumps.append(SpaceTimeBump(xc, xw, tc, tw))
    return bumps


def test_criterion_06_entropy_inequality(entropy_runs):
    T = 0.25
    rng = np.random.default_rng(7)
    bumps = _sample_bumps(rng, 50, T)
    ks = rng.uniform(0.0, 1.2 * 3.0, size=50)
    worst_neg = {}
    all_above = True
    for dt, traj in entropy_runs.items():
        defects = np.array([pp.entropy_defect(traj, float(k), b, WINDOW) for k, b in zip(ks, bumps)])
        tols = np.array([pp.entropy_tolerance(traj, float(k), b, WINDOW) for k, b in zip(ks, bumps)])
        all_above &= bool(np.all(defects >= -tols))
        worst_neg[dt] = max(0.0, -float(defects.min()))
    ratio = worst_neg[5e-4] / worst_neg[1e-3]
    ok = all_above and 0.3 <= ratio <= 0.8
    report(
        6,
        ok,
        f"50 (k, bump) pairs >= -tol at both steps; worst negative defect "
        f"{worst_neg[1e-3]:.2e} -> {worst_neg[5e-4]:.2e}, ratio {ratio:.2f} in [0.3, 0.8]",
    )


def test_criterion_07_continuity_pairing(entropy_runs):
    T = 0.25
    rng = np.random.default_rng(8)
    bumps = _sample_bumps(rng, 10, T)
    worst = {}
    for dt, traj in entropy_runs.items():
        worst[dt] = max(abs(pp.entropy_defect(traj, 0.0, b, WINDOW)) for b in bumps)
    ratio = worst[5e-4] / worst[1e-3]
    ok = 0.3 <= ratio <= 0.8
    report(
        7,
        ok,
        f"k=0 pairing defect {worst[1e-3]:.2e} -> {worst[5e-4]:.2e} under dt halving, "
        f"ratio {ratio:.2f} in [0.3, 0.8]",
    )


def test_criterion_08_temporal_modulus(rarefaction_shock_run):
    ratio = pp.temporal_modulus_margin(rarefaction_shock_run)
    report(8, ratio <= 1.05, f"sup ||v(t)-v(s)||/(4 lip TV |t-s|) = {ratio:.3f} <= 1.05")


def test_criterion_09_collision_handling(burgers3):
    data = pp.piecewise_constant_data([0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0])
    state0 = pp.cell_average(data, pp.place_particles(data, 4, "uniform"))
    traj = pp.simulate(burgers3, state0, 2.0, dt_max=1e-3, data=data)
    audit = pp.invariant_audit(traj)
    one_event = len(traj.events) == 1
    tiny_mass = one_event and traj.events[0].discarded_mass <= 1e-8 * state0.total_mass
    ok = one_event and tiny_mass and audit.passed
    report(
        9,
        ok,
        f"events={len(traj.events)}, discarded mass="
        f"{traj.events[0].discarded_mass if traj.events else float('nan'):.1e}, "
        f"post-event audit {'PASS' if audit.passed else 'FAIL'}",
    )


def test_criterion_10_oracle_cross_check():
    # non-convex flux u^3/3 - u^2/2 + u/2 (inflection at u = 1/2): no closed
    # form is used; both methods estimate their own error by refinement
    data = pp.box_data(1.5, 0.0, 1.0)
    model = cubic_flux_model(data.sup_u0 * (1 + 1e-12))
    T = 0.5

    def scheme(n):
        st = pp.cell_average(data, pp.place_particles(data, n, "uniform"))
        traj = pp.simulate(model, st, T, dt_max=0.2 * float(np.max(st.widths)), data=data)
        assert pp.invariant_audit(traj).passed
        return pp.reconstruct_density(traj.final_state)

    v_mid, v_fine = scheme(201), scheme(401)
    g_mid = pp.godunov_reference(model, data, 2000, T)
    g_fine = pp.godunov_reference(model, data, 4000, T)

    est_scheme = pp.richardson_error_estimate(v_fine.l1_distance(v_mid), 0.5)
    est_oracle = pp.richardson_error_estimate(g_fine.l1_distance(g_mid), 0.5)
    dist = v_fine.l1_distance(g_fine)
    ok = dist <= est_scheme + est_oracle
    report(
        10,
        ok,
        f"scheme-vs-oracle L1 {dist:.4f} <= est_scheme {est_scheme:.4f} + "
        f"est_oracle {est_oracle:.4f}",
    )


def test_criterion_11_order_one_half_at_contacts():
    # a contact discontinuity, where f is linear between the states, is where
    # first-order monotone schemes attain order 1/2 (Sabac 1997; Tang & Teng
    # 1995): the fitted slope stays near 1/2 and the stability bound over the
    # error stays constant.  Only the stability bound is reported: the
    # rate bound needs Lip(f'), which a piecewise linear table lacks.
    model = pp.builtin_flux("tabulated", us=[0.0, 0.2, 0.8, 1.0], fs=[0.0, 0.16, 0.46, 0.5])
    details = []
    ok = True
    for u_l, u_r in ((0.3, 0.7), (0.7, 0.3)):
        data = pp.riemann_data(u_l, u_r, 0.0, window=(-2.0, 2.0), measure_window=(-1.0, 1.5))
        # convergence_study aborts on a failed audit
        fit, reports = pp.convergence_study(model, data, pp.riemann_solution(model, u_l, u_r), [101, 201, 401, 801, 1601], 0.5)
        ratios = [r.stability_bound / r.l1_error_at_T for r in reports]
        ok &= all(r.l1_error_at_T <= r.stability_bound for r in reports)
        ok &= 0.45 <= fit.slope <= 0.55 and max(ratios) <= 1.15 * min(ratios)
        details.append(f"{u_l} -> {u_r}: slope={fit.slope:.3f}, bound/l1 in [{min(ratios):.2f}, {max(ratios):.2f}]")
    report(11, ok, "; ".join(details) + " (slope in [0.45, 0.55], ratio spread <= 1.15)")
