"""Approximate a rarefaction running into a shock and measure the error.

The quadratic flux u^2/2 with initial density 3 on (0, 1) over a
background of 1 develops a fan x/t on (t, 3t) and a shock along
x = 1 + 2t.  We resolve it with mass-carrying particles, compare the
reconstruction with the closed-form solution on the window [-1, 2], and
print the stability bounds the measured error has to respect.

Run:  python demos/01_rarefaction_shock.py
"""

from pathlib import Path


import particle_paths as pp

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

T = 0.25
N = 201

data = pp.rarefaction_shock_data()
model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1 + 1e-12))

print(f"profile: {data.description}; truncated to {data.support_hint}")
print(f"{N} particles, horizon T = {T}, measuring on {data.measure_window}")

positions = pp.place_particles(data, N, "uniform")
state0 = pp.cell_average(data, positions)
trajectory = pp.simulate(model, state0, T, dt_max=2e-4, data=data)
print(f"ran {len(trajectory.snapshots)} snapshots, {len(trajectory.events)} collisions")

exact = pp.burgers_rarefaction_shock()
report = pp.error_report(trajectory, exact, T)
print(f"L1 error at T:          {report.l1_error_at_T:.5f}")
print(f"initial averaging gap:  {report.initial_gap:.2e}")
print(f"space-time residual:    {report.residual_spacetime:.5f}")
print(f"stability bound:        {report.stability_bound:.5f}")
print(f"explicit dx^(1/2) bound: {report.rate_bound:.5f}")
print(f"invariant audit:        {'PASS' if report.audit_passed else 'FAIL'}")

# sampled curves for plotting: scheme vs closed form at T
recon = pp.reconstruct_density(trajectory.final_state)
pp.exports.write_function_csv(recon, OUT / "scheme_T.csv", -1.0, 2.0, 601)
pp.exports.write_function_csv(exact.at(T), OUT / "exact_T.csv", -1.0, 2.0, 601)
pp.exports.write_trajectory_csv(trajectory, OUT / "trajectory.csv")
print(f"wrote scheme_T.csv / exact_T.csv / trajectory.csv under {OUT}")
