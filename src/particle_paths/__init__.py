"""Mass-carrying particle scheme for 1-D scalar conservation laws.

Particles partition the initial mass into cells; each particle moves with
the entropic interface velocity of its neighboring densities, densities
follow from the conserved cell masses, and colliding particles are merged
by deleting the left members of the cluster.  The package also ships
closed-form and finite volume reference solutions plus an analysis
harness (error bounds, entropy-defect checks, convergence-rate fits,
invariant audit) and a small experiment CLI.
"""

from . import exports
from .analysis import (
    AuditReport,
    CheckResult,
    ErrorReport,
    RateFit,
    SpaceTimeBump,
    convergence_study,
    entropy_defect,
    entropy_tolerance,
    error_report,
    explicit_rate_bound,
    fit_loglog_slope,
    invariant_audit,
    l1_error_against,
    richardson_error_estimate,
    temporal_modulus_margin,
    stability_error_bound,
)
from .dynamics import (
    CollisionEvent,
    RunStats,
    SimulationError,
    Trajectory,
    default_eps_coll,
    resolve_collisions,
    simulate,
)
from .field import (
    PiecewiseConstantFn,
    flux_residual_l1,
    reconstruct_density,
    spacetime_flux_residual,
    trace_characteristic,
)
from .flux import FluxModel, builtin_flux
from .initial import (
    InitialData,
    ParticleState,
    PiecewiseAffineFn,
    box_data,
    cell_average,
    initial_approximation_gap,
    piecewise_constant_data,
    place_particles,
    rarefaction_shock_data,
    riemann_data,
    sampled_data,
)
from .reference import ExactSolution, burgers_rarefaction_shock, godunov_reference, riemann_solution
from .velocity import VelocityExtrema, follow_the_leader_deviation, particle_velocities, velocity_extrema

__version__ = "0.1.0"
