"""Verify the weak entropy inequality of a run against random test bumps.

For every shift level k >= 0 and every smooth nonnegative bump, the
Kruzkov-type pairing of the reconstruction must be nonnegative up to a
defect caused by time discretization alone; halving the step should
roughly halve the worst negative defect.

Run:  python demos/05_entropy_check.py
"""

import numpy as np

import particle_paths as pp

WINDOW = (-1.0, 2.0)
T = 0.25

data = pp.rarefaction_shock_data()
model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1 + 1e-12))
state0 = pp.cell_average(data, pp.place_particles(data, 51, "uniform"))

rng = np.random.default_rng(7)
bumps, ks = [], []
for _ in range(25):
    xw = rng.uniform(0.3, 1.0)
    tw = rng.uniform(0.04, 0.1)
    bumps.append(
        pp.SpaceTimeBump(
            x_center=rng.uniform(WINDOW[0] + xw, WINDOW[1] - xw),
            x_width=xw,
            t_center=rng.uniform(tw, T - tw),
            t_width=tw,
        )
    )
    ks.append(rng.uniform(0.0, 1.2 * data.sup_u0))

for dt in (1e-3, 5e-4):
    traj = pp.simulate(model, state0, T, dt_max=dt, every_step=True, data=data)
    defects = [pp.entropy_defect(traj, k, b, WINDOW) for k, b in zip(ks, bumps)]
    pairing = abs(pp.entropy_defect(traj, 0.0, bumps[0], WINDOW))
    print(
        f"dt = {dt:.0e}: worst defect {min(defects):+.2e} (must stay above -tolerance), "
        f"k=0 pairing residue {pairing:.2e}"
    )

print("both quantities shrink linearly with the time step.")
