"""Two boxes separated by vacuum: the faster one catches up and they merge.

Only massless cells can collapse, so the collision deletes the left
particle of the touching pair together with its empty cell; no mass is
lost and every invariant keeps holding through the event.

Run:  python demos/04_vacuum_collision.py
"""

from pathlib import Path

import particle_paths as pp

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

# density 2 on (0,1), vacuum on (1,2), density 1 on (2,3)
data = pp.piecewise_constant_data([0.0, 1.0, 2.0, 3.0], [2.0, 0.0, 1.0])
model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1 + 1e-12))

state0 = pp.cell_average(data, pp.place_particles(data, 4, "uniform"))
print("cells at t=0:", {k: float(v) for k, v in zip(["left box", "vacuum", "right box"], state0.densities)})

trajectory = pp.simulate(model, state0, 2.0, dt_max=1e-3, data=data)
for ev in trajectory.events:
    print(
        f"collision at t = {ev.time:.4f}: deleted particles {[int(j) for j in ev.deleted_cells]}, "
        f"discarded mass {ev.discarded_mass:.2e}"
    )

final = trajectory.final_state
print(f"particles {state0.n_particles} -> {final.n_particles}")
print(f"mass {state0.total_mass} -> {final.total_mass}")
audit = pp.invariant_audit(trajectory)
print(f"invariant audit through the event: {'PASS' if audit.passed else 'FAIL'}")

pp.exports.write_trajectory_csv(trajectory, OUT / "collision_trajectory.csv")
pp.exports.write_events_json(trajectory, OUT / "collision_events.json")
print(f"wrote collision_trajectory.csv / collision_events.json under {OUT}")
