"""Numerical laboratory for two-peakon collisions in the cubic (a, b) family.

The package integrates the four-dimensional peakon system and its reduced
(q, h, w, z) form, verifies the closed-form invariants of the reduced
flow, locates collision and momentum-vanishing events, measures H^s
distances to the limiting single-peakon profile, and checks the wave
equation pointwise off the peaks.

The library API is ``__all__``: from ``params`` ABParams, CaseID, CaseSpec,
classify, l_a, case_spec_for, make_initial_profile, case_epsilon and
collision_time_bound; from ``dynamics`` PeakonState and to_reduced, the map
of (p1, p2, q1, q2) to the reduced (q, h, w, z); from ``analytic``
InvariantContext, F1, F2, f_density, h_sq, w_sq and z_closed_form; from
``integrator`` IntegrationConfig, Representation, EventKind, EventRecord,
IntegrationError, Trajectory, integrate and integrate_reversed; from
``sobolev`` CollisionFunction, collision_function and hs_distances; from
``residual`` ResidualReport and residual_report, the one residual entry
point.  So are the fields ``full_rhs_array`` and ``reduced_rhs_array`` of
``peakonlab.dynamics``, and ``peak_momenta``, the inverse of ``to_reduced``
on the momenta.  A trajectory keeps its one terminal record as
``Trajectory.terminal_event``; a located event's residual |g(T)| is bounded
by the constant ``integrator.EVENT_TOL``.  Every other name serves the
command line (``peakonlab.cli``) or the module that defines it.
"""

from .analytic import F1, F2, InvariantContext, f_density, h_sq, w_sq, z_closed_form
from .dynamics import PeakonState, to_reduced
from .integrator import (
    EventKind,
    EventRecord,
    IntegrationConfig,
    IntegrationError,
    Representation,
    Trajectory,
    integrate,
    integrate_reversed,
)
from .params import (
    ABParams,
    CaseID,
    CaseSpec,
    case_epsilon,
    case_spec_for,
    classify,
    collision_time_bound,
    l_a,
    make_initial_profile,
)
from .residual import ResidualReport, residual_report
from .sobolev import CollisionFunction, collision_function, hs_distances

__version__ = "0.1.0"

__all__ = [
    "ABParams",
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
    "Representation",
    "ResidualReport",
    "Trajectory",
    "case_epsilon",
    "case_spec_for",
    "classify",
    "collision_function",
    "collision_time_bound",
    "f_density",
    "h_sq",
    "hs_distances",
    "integrate",
    "integrate_reversed",
    "l_a",
    "make_initial_profile",
    "residual_report",
    "to_reduced",
    "w_sq",
    "z_closed_form",
]
