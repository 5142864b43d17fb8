"""Event-detecting integration of the peakon flow.

The case-1 reference stopping time below was produced by the same
pipeline at rel_tol 1e-13 / abs_tol 1e-15 (self-converged to ~2e-13, see
the tolerance-convergence test); the default-tolerance run must land on
it to well under the event bound.
"""

import numpy as np
import pytest

from peakonlab import (
    ABParams,
    EventKind,
    IntegrationConfig,
    PeakonState,
    Representation,
    case_epsilon,
    collision_time_bound,
    integrate,
    integrate_reversed,
    locate_collision,
    to_reduced,
)
from peakonlab.dynamics import full_rhs_array

from conftest import CASE_PRESETS, run_point

T_CASE1_REFERENCE = 0.11312894695790218  # rel_tol 1e-13 reference run


class TestSinglePeakon:
    def test_constant_speed_forq(self):
        """p2 = 0, a = 1/3: the peak travels at 2/3 exactly."""
        traj = integrate(
            PeakonState(1.0, 0.0, 0.0, 20.0),
            ABParams(1 / 3, 3.0),
            IntegrationConfig(max_time=10.0),
        )
        assert traj.terminal_event.kind is EventKind.HORIZON
        for t in (0.5, 3.0, 10.0):
            assert traj.sample(t).q1 == pytest.approx((2 / 3) * t, abs=1e-8)

    def test_generic_speed(self):
        traj = integrate(
            PeakonState(1.3, 0.0, 0.0, 30.0),
            ABParams(-0.5, 1.0),
            IntegrationConfig(max_time=5.0),
        )
        expected = (1 - (-0.5)) * 1.3**2 * 5.0
        assert traj.sample(5.0).q1 == pytest.approx(expected, abs=1e-8)

    def test_no_spurious_momentum_event(self):
        """A vanishing momentum that starts at zero is not an event."""
        traj = integrate(
            PeakonState(1.0, 0.0, 0.0, 20.0),
            ABParams(1 / 3, 3.0),
            IntegrationConfig(max_time=1.0),
        )
        kinds = {rec.kind for rec in traj.events}
        assert kinds == {EventKind.HORIZON}


class TestCollision:
    def test_case1_reference_time(self, case_runs):
        _, spec, _, traj = case_runs["case1"]
        rec = locate_collision(traj)
        assert rec is not None
        assert rec.time <= 0.24  # mu / epsilon for the preset
        assert rec.time == pytest.approx(T_CASE1_REFERENCE, abs=1e-9)

    def test_event_separation_is_tiny(self, case_runs):
        for name, (params, spec, initial, traj) in case_runs.items():
            rec = traj.terminal_event
            assert rec.kind is EventKind.COLLISION
            assert abs(rec.state.q2 - rec.state.q1) <= 1e-10, name

    def test_bound_and_monotone_rate(self, case_runs):
        """T <= mu/eps and dq/dt <= -eps at every accepted step."""
        for name, (params, spec, initial, traj) in case_runs.items():
            eps = case_epsilon(spec, params)
            assert traj.terminal_event.time <= collision_time_bound(spec, params)
            for t, st in zip(traj.times, traj.states):
                d = full_rhs_array(st.as_array(), params.a, params.b)
                assert d[3] - d[2] <= -eps + 1e-9, (name, t)

    def test_immediate_collision_at_zero_separation(self):
        traj = integrate(
            PeakonState(1.5, -1.0, 0.0, 0.0),
            ABParams(1 / 3, 3.0),
            IntegrationConfig(max_time=1.0),
        )
        rec = locate_collision(traj)
        assert rec is not None
        assert rec.time == 0.0

    def test_separated_peaks_before_horizon(self):
        """Frozen-momentum pair with positive h w drifts apart; no event."""
        traj = integrate(
            PeakonState(1.0, 1.2, 0.0, 8.0),
            ABParams(1 / 3, 2.0),
            IntegrationConfig(max_time=2.0),
        )
        assert locate_collision(traj) is None
        assert traj.terminal_event.kind is EventKind.HORIZON
        assert traj.separation(2.0) > 8.0

    def test_tolerance_convergence(self):
        """Halving rel_tol moves the stopping time by far less than 100x rel_tol."""
        a, b = CASE_PRESETS["case1"]
        _, _, _, tA = run_point(a, b)
        params, spec, initial, _ = run_point(a, b)
        cfg = IntegrationConfig(
            rel_tol=5e-11, max_time=10.0 * collision_time_bound(spec, params)
        )
        tB = integrate(initial, params, cfg)
        assert abs(tA.terminal_event.time - tB.terminal_event.time) <= 100 * 1e-10


class TestDegenerate:
    def test_b2_momenta_frozen(self):
        traj = integrate(
            PeakonState(1.5, 1.0, 0.0, 0.1),
            ABParams(1 / 3, 2.0),
            IntegrationConfig(max_time=5.0),
        )
        arr = np.array([st.as_array() for st in traj.states])
        assert np.max(np.abs(arr[:, 0] - 1.5)) <= 1e-12
        assert np.max(np.abs(arr[:, 1] - 1.0)) <= 1e-12


class TestReducedRepresentation:
    def test_matches_full_separation(self, case_runs):
        for name, (params, spec, initial, traj_full) in case_runs.items():
            cfg = IntegrationConfig(
                representation=Representation.REDUCED,
                max_time=10.0 * collision_time_bound(spec, params),
            )
            traj_red = integrate(initial, params, cfg)
            t_end = min(traj_full.t_end, traj_red.t_end)
            for t in np.linspace(0.0, t_end, 40):
                assert abs(traj_full.separation(t) - traj_red.separation(t)) <= 1e-8, name

    def test_momentum_identity_drift(self, case_runs):
        """h^2 + 4z - w^2 stays at its initial value along every run."""
        for params, spec, initial, traj in case_runs.values():
            red0 = to_reduced(initial)
            c0 = red0.h**2 + 4 * red0.z - red0.w**2
            for st in traj.states:
                red = to_reduced(st)
                assert abs(red.h**2 + 4 * red.z - red.w**2 - c0) <= 1e-10

    def test_requires_positive_separation(self):
        cfg = IntegrationConfig(representation=Representation.REDUCED)
        with pytest.raises(ValueError):
            integrate(PeakonState(1.0, 1.0, 0.5, 0.5), ABParams(1 / 3, 3.0), cfg)


class TestReversal:
    def test_single_peakon_returns_home(self):
        params = ABParams(1 / 3, 3.0)
        cfg = IntegrationConfig(max_time=3.0)
        fwd = integrate(PeakonState(1.0, 0.0, 0.0, 20.0), params, cfg)
        back = integrate_reversed(fwd.sample(3.0), params, cfg, 3.0)
        assert back.terminal_event.state.q1 == pytest.approx(0.0, abs=1e-9)

    def test_case2_round_trip(self, case_runs):
        params, spec, initial, traj = case_runs["case2"]
        tau = traj.terminal_event.time - 1e-3
        back = integrate_reversed(traj.sample(tau), params, traj.config, tau)
        err = np.max(np.abs(back.terminal_event.state.as_array() - initial.as_array()))
        assert err <= 1e-6

    def test_round_trip_tolerance_scaling(self, case_runs):
        """Round-trip error stays within 10 * rel_tol * ||state||."""
        params, spec, initial, traj = case_runs["case1"]
        tau = 0.5 * traj.terminal_event.time
        back = integrate_reversed(traj.sample(tau), params, traj.config, tau)
        err = np.max(np.abs(back.terminal_event.state.as_array() - initial.as_array()))
        scale = np.max(np.abs(initial.as_array()))
        assert err <= 10 * traj.config.rel_tol * scale

    def test_zero_duration_is_identity(self):
        params = ABParams(1 / 3, 3.0)
        state = PeakonState(1.5, -1.0, 0.0, 0.1)
        back = integrate_reversed(state, params, IntegrationConfig(), 0.0)
        assert back.terminal_event.state == state


class TestTrajectoryApi:
    def test_times_strictly_increasing(self, case_runs):
        for _, _, _, traj in case_runs.values():
            assert np.all(np.diff(traj.times) > 0)

    def test_sample_outside_range_rejected(self, case_runs):
        _, _, _, traj = case_runs["case1"]
        with pytest.raises(ValueError):
            traj.sample(traj.t_end + 1.0)

    @pytest.mark.parametrize("rep", [Representation.FULL, Representation.REDUCED])
    def test_sample_array_equals_stacked_samples(self, rep):
        """One interpolant call over a time vector (unsorted, with repeats
        and the step times themselves) reproduces sample() bit for bit."""
        for name, (a, b) in CASE_PRESETS.items():
            params = ABParams(a, b)
            _, _, initial, base = run_point(a, b)
            traj = integrate(initial, params, IntegrationConfig(
                max_time=base.config.max_time, representation=rep))
            ts = np.concatenate([
                np.linspace(traj.t_end, traj.t0, 57),
                traj.times,
                [traj.t_end - 10.0**-k for k in range(2, 7)],
                [traj.t_end, traj.t0],
            ])
            stacked = np.array([traj.sample(t).as_array() for t in ts])
            batch = traj.sample_array(ts)
            assert batch.shape == (len(ts), 4)
            assert np.array_equal(batch, stacked), name

    def test_sample_array_outside_range_rejected(self, case_runs):
        _, _, _, traj = case_runs["case1"]
        for bad in ([traj.t0, traj.t_end + 1.0], [traj.t0 - 1.0]):
            with pytest.raises(ValueError, match="outside"):
                traj.sample_array(bad)

    def test_sample_array_of_zero_duration_run(self):
        state = PeakonState(1.5, -1.0, 0.0, 0.1)
        back = integrate_reversed(state, ABParams(1 / 3, 3.0), IntegrationConfig(), 0.0)
        rows = back.sample_array([0.0, 0.0])
        assert np.array_equal(rows, np.array([state.as_array()] * 2))
        assert back.sample(0.0) == state

    def test_dense_output_matches_steps(self, case_runs):
        _, _, _, traj = case_runs["case1"]
        for t, st in zip(traj.times, traj.states):
            np.testing.assert_allclose(
                traj.sample(float(t)).as_array(), st.as_array(), rtol=1e-9, atol=1e-12
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrationConfig(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            IntegrationConfig(max_time=0.0)
