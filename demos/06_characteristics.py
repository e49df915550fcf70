"""Trace characteristics of the interpolated velocity field.

Particles are themselves characteristics of the piecewise linear field,
tracers never cross, and the mass of the reconstruction between two
traced paths is conserved: the solution is the pushforward of its initial
data along the flow.

Run:  python demos/06_characteristics.py
"""

import numpy as np

import particle_paths as pp

data = pp.box_data(1.0, 0.0, 1.0)
model = pp.builtin_flux("burgers", u_high=data.sup_u0 * (1 + 1e-9))
state0 = pp.cell_average(data, pp.place_particles(data, 41, "uniform"))
trajectory = pp.simulate(model, state0, 0.5, dt_max=1e-3, every_step=True, data=data)

# a tracer started on a particle follows that particle
i = 13
_, path = pp.trace_characteristic(trajectory, float(state0.positions[i]), 0.0)
print(f"tracer vs particle {i}: final gap {abs(path[-1] - trajectory.final_state.positions[i]):.2e}")

# mass between two tracers is carried along unchanged
_, left = pp.trace_characteristic(trajectory, 0.3, 0.0)
_, right = pp.trace_characteristic(trajectory, 0.7, 0.0)
v0 = pp.reconstruct_density(state0)
vT = pp.reconstruct_density(trajectory.final_state)
m0 = v0.integral((0.3, 0.7))
mT = vT.integral((left[-1], right[-1]))
print(f"mass between tracers: {m0:.6f} at t=0, {mT:.6f} at T (difference {abs(m0 - mT):.1e})")

# a fan of tracers stays ordered
starts = np.linspace(-0.2, 1.2, 9)
ends = [pp.trace_characteristic(trajectory, float(x), 0.0)[1][-1] for x in starts]
print("tracer fan start -> end:")
for s, e in zip(starts, ends):
    print(f"  {s:+.3f} -> {e:+.3f}")
print(f"ordering preserved: {bool(np.all(np.diff(ends) >= 0))}")
