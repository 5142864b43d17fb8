"""Numerical laboratory for two-peakon collisions in the cubic (a, b) family.

The package integrates the four-dimensional peakon system and its reduced
(q, h, w, z) form, verifies the closed-form invariants of the reduced
flow, locates collision and momentum-vanishing events, measures H^s
distances to the limiting single-peakon profile, and checks the wave
equation pointwise off the peaks.
"""

from .analytic import F1, F2, InvariantContext, f_density, h_sq, w_sq, z_closed_form
from .dynamics import (
    AuxDiagnostics,
    PeakonState,
    ReducedState,
    aux_diagnostics,
    evaluate_u,
    from_reduced,
    full_rhs,
    reduced_rhs,
    to_reduced,
)
from .integrator import (
    EventKind,
    EventRecord,
    IntegrationConfig,
    IntegrationError,
    Representation,
    Trajectory,
    integrate,
    integrate_reversed,
    locate_collision,
)
from .params import (
    ABParams,
    CaseID,
    CaseSpec,
    admissible_c,
    case_epsilon,
    case_spec_for,
    classify,
    collision_time_bound,
    compute_mu,
    l_a,
    make_initial_profile,
)
from .residual import (
    ResidualReport,
    convolution_grid,
    d_minus2,
    d_minus2_dx,
    pde_residual,
    residual_report,
)
from .sobolev import (
    CollisionFunction,
    collision_function,
    divergence_probe,
    hs_distance,
    hs_distances,
    hs_norm,
    pair_integral,
)

__version__ = "0.1.0"

__all__ = [
    "ABParams",
    "AuxDiagnostics",
    "CaseID",
    "CaseSpec",
    "CollisionFunction",
    "EventKind",
    "EventRecord",
    "F1",
    "F2",
    "IntegrationConfig",
    "IntegrationError",
    "InvariantContext",
    "PeakonState",
    "ReducedState",
    "Representation",
    "ResidualReport",
    "Trajectory",
    "admissible_c",
    "aux_diagnostics",
    "case_epsilon",
    "case_spec_for",
    "classify",
    "collision_function",
    "collision_time_bound",
    "compute_mu",
    "convolution_grid",
    "d_minus2",
    "d_minus2_dx",
    "divergence_probe",
    "evaluate_u",
    "f_density",
    "from_reduced",
    "full_rhs",
    "h_sq",
    "hs_distance",
    "hs_distances",
    "hs_norm",
    "integrate",
    "integrate_reversed",
    "l_a",
    "locate_collision",
    "make_initial_profile",
    "pair_integral",
    "pde_residual",
    "reduced_rhs",
    "residual_report",
    "to_reduced",
    "w_sq",
    "z_closed_form",
]
