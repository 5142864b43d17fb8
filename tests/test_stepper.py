"""The package's own DOP853 stepper.

Checked against scipy's DOP853 through ``solve_ivp`` (``ivp_oracle``) on
the four case presets, the 16-point (a, b) grid and three points with
several rejected steps, in both representations: event kinds and times,
accepted and rejected step counts, states sampled from the dense output,
and time-reversed runs.  The bounds on states are pinned at ten
times the agreement measured when the stepper was written.  Also checked:
its tables against scipy's copy of dop853.f's, its work counters, the root
finder, and what a non-finite dense output at an event becomes.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from peakonlab import (
    ABParams,
    EventKind,
    IntegrationConfig,
    IntegrationError,
    PeakonState,
    Representation,
    integrate,
    integrate_reversed,
)
import peakonlab.integrator as integrator_module
from peakonlab.integrator import MIN_REL_TOL, _root

from conftest import CASE_PRESETS, GRID_A, GRID_B, run_point
from ivp_oracle import integrate_oracle, reversed_oracle

#: sweep points with 2-4 rejected steps, where the rule that a step does not
#: grow right after a rejection changes the step counts
REJECTING = [(1.7, -1.0), (0.09, -1.0), (0.19, 1.26)]
POINTS = [*CASE_PRESETS.values(), *((a, b) for a in GRID_A for b in GRID_B), *REJECTING]
EVENT_TIME_TOL = 1e-12  # measured: 5.8e-16
STATE_TOL = 8.5e-13  # measured: 8.3e-14 (reduced run at a = 0.19, b = 1.26)
REVERSED_TOL = 4e-15  # measured: 3.7e-16


def _runs(rep: Representation):
    for a, b in POINTS:
        params, _, initial, base = run_point(a, b)
        cfg = replace(base.config, representation=rep)
        yield (a, b), integrate(initial, params, cfg), integrate_oracle(initial, a, b, cfg)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
class TestAgainstSolveIvp:
    def test_event_times(self, rep):
        for ab, traj, oracle in _runs(rep):
            assert traj.terminal_event.kind is oracle.kind, ab
            assert abs(traj.terminal_event.time - oracle.time) <= EVENT_TIME_TOL, ab

    def test_same_step_size_control(self, rep):
        """Same starting step, error norm and step-size rule: the same
        numbers of accepted and rejected steps on every run."""
        for ab, traj, oracle in _runs(rep):
            assert (traj.steps, traj.rejected) == (oracle.steps, oracle.rejected), ab

    def test_sampled_states(self, rep):
        for ab, traj, oracle in _runs(rep):
            t_end = min(traj.t_end, oracle.time)
            ts = np.concatenate([np.linspace(0.0, t_end, 57),
                                 [t_end - 10.0**-k for k in range(2, 7)]])
            err = np.max(np.abs(traj.sample_array(ts) - oracle.sample_array(ts)))
            assert err <= STATE_TOL, ab


def test_reversed_round_trip_against_solve_ivp(case_runs):
    for name, (params, _, initial, traj) in case_runs.items():
        for tau in (traj.t_end - 1e-3, 0.5 * traj.t_end):
            start = traj.sample(tau)
            back = integrate_reversed(start, params, traj.config, tau)
            oracle = reversed_oracle(start, params.a, params.b, traj.config, tau)
            assert back.terminal_event.kind is EventKind.HORIZON
            assert back.t_end == tau
            err = np.max(np.abs(back.terminal_event.state.as_array() - oracle.state))
            assert err <= REVERSED_TOL, (name, tau)


def test_tableau_is_dop853():
    """The coefficients equal scipy's tables of dop853.f bit for bit."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    mod = vars(integrator_module)
    a = np.zeros((16, 16))
    for i in range(2, 13):
        for j in range(1, i):
            a[i - 1, j - 1] = mod.get(f"A{i}{j}", 0.0)
    for i, row in enumerate(integrator_module.DENSE_STAGES, start=13):
        for j, c in row:
            a[i, j - 1] = c
    b = [mod.get(f"B{i}", 0.0) for i in range(1, 13)]
    a[12, :12] = b
    assert np.array_equal(a, ref.A)
    e5 = [mod.get(f"ER{i}", 0.0) for i in range(1, 13)] + [0.0]
    assert np.array_equal(e5, ref.E5)
    e3 = [*b, 0.0]
    e3[0], e3[8], e3[11] = integrator_module.E31, integrator_module.E39, integrator_module.E312
    assert np.array_equal(e3, ref.E3)
    d = np.zeros((4, 16))
    for r, row in enumerate(integrator_module.DENSE_ROWS):
        for j, c in row:
            d[r, j - 1] = c
    assert np.array_equal(d, ref.D)


class TestCounters:
    def test_evaluations_per_step(self, case_runs, grid_runs):
        """2 to start, 11 per attempt, the new state's field per accepted
        step and 3 for the event step's dense output; sampling adds 3 per
        remaining step, once."""
        for params, _, initial, base in [*case_runs.values(), *grid_runs.values()]:
            traj = integrate(initial, params, base.config)
            assert traj.steps == len(traj.times) - 1
            dense = 3 if traj.terminal_event.kind is not EventKind.HORIZON else 0
            attempts = traj.steps + traj.rejected
            assert traj.nfev == 2 + 11 * attempts + traj.steps + dense
            traj.sample_array(traj.times)
            traj.sample(traj.t_end)
            assert traj.nfev == 2 + 11 * attempts + 4 * traj.steps

    def test_horizon_run_builds_no_dense_output(self):
        traj = integrate(PeakonState(1.0, 0.0, 0.0, 20.0), ABParams(1 / 3, 3.0),
                         IntegrationConfig(max_time=3.0))
        assert traj.terminal_event.kind is EventKind.HORIZON
        assert traj.nfev == 2 + 12 * traj.steps + 11 * traj.rejected

    def test_zero_duration_run(self):
        back = integrate_reversed(PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0),
                                  IntegrationConfig(), 0.0)
        assert (back.nfev, back.steps, back.rejected) == (0, 0, 0)


class TestRootFinder:
    @pytest.mark.parametrize("root", [0.1, 0.5, 0.999, 1e-9])
    def test_polynomial_roots_to_roundoff(self, root):
        g = lambda t: (t - root) * (1.0 + t * t) * (3.0 - t)
        found = _root(g, 0.0, 1.0)
        assert abs(found - root) <= 8 * math.ulp(root)

    def test_scale_free(self):
        """The bracket is narrowed relative to its own size: a root near
        1e-90 is found to roundoff, not to an absolute 1e-15."""
        found = _root(lambda t: t - 3e-91, 1e-91, 9e-91)
        assert found == pytest.approx(3e-91, rel=1e-15)

    def test_endpoints(self):
        assert _root(lambda t: t, 0.0, 1.0) == 0.0
        assert _root(lambda t: t - 1.0, 0.0, 1.0) == 1.0
        assert _root(lambda t: 1.0 + t, 0.0, 1.0) == 1.0  # no sign change: the step end

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            _root(lambda t: math.nan if t > 0.3 else t - 0.5, 0.0, 1.0)


def test_non_finite_dense_output_is_an_integration_error(monkeypatch):
    params, _, initial, base = run_point(*CASE_PRESETS["case1"])
    monkeypatch.setattr(integrator_module, "_interpolate", lambda x, coeffs, y: math.nan)
    with pytest.raises(IntegrationError, match="not finite"):
        integrate(initial, params, base.config)


def test_rel_tol_floor():
    assert MIN_REL_TOL == 100 * np.finfo(float).eps
    IntegrationConfig(rel_tol=MIN_REL_TOL)
    with pytest.raises(ValueError, match="2.22e-14"):
        IntegrationConfig(rel_tol=1e-300)
    with pytest.raises(ValueError, match="2.22e-14"):
        IntegrationConfig(rel_tol=0.5 * MIN_REL_TOL)
