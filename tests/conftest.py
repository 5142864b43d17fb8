"""Shared fixtures: the four canned case runs and the 16-point (a, b) grid."""

import pytest

from peakonlab import (
    ABParams,
    EventKind,
    IntegrationConfig,
    case_spec_for,
    collision_time_bound,
    integrate,
    make_initial_profile,
)

CASE_PRESETS = {
    "case1": (1.0 / 3.0, 3.0),
    "case2": (1.0 / 3.0, 1.0),
    "case3": (-1.0, 3.0),
    "case4": (-1.0, 0.0),
}

GRID_A = (1.0 / 3.0, -1.0 / 3.0, 1.0, -1.0)
GRID_B = (0.0, 1.0, 3.0, 4.0)


def locate_collision(traj):
    """The trajectory's collision event record, or None."""
    for rec in traj.events:
        if rec.kind is EventKind.COLLISION:
            return rec
    return None


def run_point(a: float, b: float, alpha: float = 1.0, delta: float = 0.5):
    """Integrate the case-appropriate preset at (a, b); returns the pipeline."""
    params = ABParams(a, b)
    spec = case_spec_for(params, alpha, delta)
    initial = make_initial_profile(spec)
    cfg = IntegrationConfig(max_time=10.0 * collision_time_bound(spec, params))
    traj = integrate(initial, params, cfg)
    return params, spec, initial, traj


@pytest.fixture(scope="session")
def case_runs():
    return {name: run_point(a, b) for name, (a, b) in CASE_PRESETS.items()}


@pytest.fixture(scope="session")
def grid_runs():
    return {(a, b): run_point(a, b) for a in GRID_A for b in GRID_B}
