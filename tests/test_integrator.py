"""Event-detecting integration of the peakon flow.

The case-1 reference stopping time below was produced at rel_tol 1e-13 /
abs_tol 1e-15 with the two-sided field (self-converged to ~2e-13); the
default-tolerance run of the oriented field must land on it to 1e-12.
"""

from dataclasses import astuple, replace
from functools import partial

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
    to_reduced,
)
import peakonlab.integrator as integrator_module
from peakonlab.dynamics import full_rhs_array

from conftest import CASE_PRESETS, locate_collision, run_point

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
        assert traj.terminal_event.kind is EventKind.HORIZON


class TestCollision:
    def test_case1_reference_time(self, case_runs):
        _, spec, _, traj = case_runs["case1"]
        rec = locate_collision(traj)
        assert rec is not None
        assert rec.time <= 0.24  # mu / epsilon for the preset
        assert rec.time == pytest.approx(T_CASE1_REFERENCE, abs=1e-12)

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
            for t, y in zip(traj.times, traj.state_array):
                d = full_rhs_array(y, params.a, params.b)
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
        """Halving the default rel_tol moves the stopping time by far less
        than 100x the default."""
        default = IntegrationConfig().rel_tol
        a, b = CASE_PRESETS["case1"]
        params, spec, initial, tA = run_point(a, b)
        cfg = IntegrationConfig(
            rel_tol=0.5 * default, max_time=10.0 * collision_time_bound(spec, params)
        )
        tB = integrate(initial, params, cfg)
        assert abs(tA.terminal_event.time - tB.terminal_event.time) <= 100 * default


class TestDegenerate:
    def test_b2_momenta_frozen(self):
        traj = integrate(
            PeakonState(1.5, 1.0, 0.0, 0.1),
            ABParams(1 / 3, 2.0),
            IntegrationConfig(max_time=5.0),
        )
        arr = traj.state_array
        assert np.max(np.abs(arr[:, 0] - 1.5)) <= 1e-12
        assert np.max(np.abs(arr[:, 1] - 1.0)) <= 1e-12


def _all_runs(case_runs, grid_runs):
    return [(name, *run) for name, run in case_runs.items()] + [
        (ab, *run) for ab, run in grid_runs.items()
    ]


def _oriented_field(initial, params):
    """The full field as ``integrate`` binds it at ``initial``."""
    args, _, _ = integrator_module._FULL.start(params.a, params.b, *astuple(initial))
    return partial(integrator_module._FULL.func, *args)


class TestOrientedField:
    """The full representation integrates the field oriented once at t = 0."""

    def test_equals_two_sided_field_along_accepted_steps(self, case_runs, grid_runs):
        """Up to the terminal event the oriented field is the two-sided field
        bit for bit, so orienting it changes no accepted solution."""
        for name, params, _, initial, traj in _all_runs(case_runs, grid_runs):
            rhs = _oriented_field(initial, params)
            for t, y in zip(traj.times[:-1], traj.state_array[:-1]):
                assert np.array_equal(rhs(*y), full_rhs_array(y, params.a, params.b)), name

    def test_orientation_from_initial_order(self):
        """Peaks that start in the other order get sigma = -1: the field is the
        mirror image, and the collision is found as for the usual order."""
        params = ABParams(1 / 3, 3.0)
        cfg = IntegrationConfig(max_time=1.0)
        usual = integrate(PeakonState(1.5, -1.0, 0.0, 0.1), params, cfg)
        mirrored = integrate(PeakonState(-1.0, 1.5, 0.1, 0.0), params, cfg)
        assert usual.terminal_event.kind is EventKind.COLLISION
        assert mirrored.terminal_event.kind is EventKind.COLLISION
        assert mirrored.terminal_event.time == pytest.approx(usual.terminal_event.time,
                                                             abs=1e-14)
        y = np.array([-1.0, 1.5, 0.1, 0.05])
        rhs = _oriented_field(PeakonState(*y), params)
        assert np.array_equal(rhs(*y), full_rhs_array(y, params.a, params.b))

    def test_trial_stage_far_past_the_collision(self):
        """Peaks 1000 apart with frozen momenta: the field is nearly constant,
        steps grow, and a trial stage lands about 1250 past the collision,
        where e^{-sigma (q2 - q1)} overflows.  The step is rejected and the
        collision found at T = mu / ((1 - a)(p1^2 - p2^2)) = 1200 exactly."""
        traj = integrate(PeakonState(1.5, 1.0, 0.0, 1000.0), ABParams(1 / 3, 2.0),
                         IntegrationConfig(max_time=20000.0))
        assert traj.terminal_event.kind is EventKind.COLLISION
        assert traj.terminal_event.time == pytest.approx(1200.0, rel=1e-12)

    def test_few_rhs_evaluations(self, case_runs, grid_runs, monkeypatch):
        """No trial stage sees a kink, so few steps are rejected: at most 150
        field evaluations per run (the two-sided field needed 425-626).  The
        count is of the float-level field the stepper calls, and equals the
        stepper's own count."""
        calls = []
        field = integrator_module._FULL.func

        def counting(*args):
            calls.append(1)
            return field(*args)

        monkeypatch.setattr(integrator_module, "_FULL",
                            replace(integrator_module._FULL, func=counting))
        for name, params, _, initial, traj in _all_runs(case_runs, grid_runs):
            calls.clear()
            run = integrate(initial, params, traj.config)
            assert 0 < len(calls) <= 150, name
            assert len(calls) == run.nfev, name

    def test_full_and_reduced_terminal_times_agree(self, case_runs):
        for name, (params, spec, initial, traj_full) in case_runs.items():
            cfg = IntegrationConfig(
                representation=Representation.REDUCED, max_time=traj_full.config.max_time
            )
            traj_red = integrate(initial, params, cfg)
            assert traj_red.terminal_event.kind is traj_full.terminal_event.kind, name
            assert abs(traj_full.t_end - traj_red.t_end) <= 5e-12, name


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
            _, h0, w0, z0 = to_reduced(*initial.as_array())
            c0 = h0**2 + 4 * z0 - w0**2
            _, h, w, z = to_reduced(*traj.state_array.T)
            assert np.all(np.abs(h**2 + 4 * z - w**2 - c0) <= 1e-10)

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

    @pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf, -1.0])
    def test_non_finite_or_negative_duration_rejected(self, duration):
        """A duration must be finite and nonnegative: nan would end at a
        terminal time of nan, and inf only at the step budget."""
        with pytest.raises(ValueError, match="duration must be finite and nonnegative"):
            integrate_reversed(PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0),
                               IntegrationConfig(), duration)


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

    @staticmethod
    def _hex(row) -> list:
        return [float(v).hex() for v in row]

    @pytest.mark.parametrize("rep", [Representation.FULL, Representation.REDUCED])
    @pytest.mark.parametrize("point", [*CASE_PRESETS, (-1e-3, 3.0)])
    def test_sample_equals_one_row_of_sample_array_by_hex(self, rep, point):
        """``sample`` interpolates one step on floats; each time's state is
        ``sample_array([t])[0]`` to the last bit (-0.0 included), at the
        step times, interior times and times inside the end slack, whether
        ``sample`` or ``sample_array`` reads a step first."""
        a, b = CASE_PRESETS.get(point, point)
        _, _, initial, base = run_point(a, b)
        config = IntegrationConfig(max_time=base.config.max_time, representation=rep)
        traj, fresh = (integrate(initial, ABParams(a, b), config) for _ in range(2))
        slack = 4.0 * np.spacing(max(abs(traj.t0), abs(traj.t_end)))
        mids = 0.5 * (traj.times[1:] + traj.times[:-1])
        ts = [*traj.times, *mids, *np.linspace(traj.t0, traj.t_end, 13),
              traj.t0 - slack, -0.0, np.nextafter(traj.t_end, np.inf), traj.t_end + slack]
        for t in map(float, ts):
            assert self._hex(traj.sample(t).as_array()) == self._hex(
                traj.sample_array([t])[0]), (point, t)
            row = fresh.sample_array([t])[0]  # here sample_array builds the step
            assert self._hex(fresh.sample(t).as_array()) == self._hex(row), (point, t)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3, 1.0])
    def test_sample_and_sample_array_refuse_alike(self, case_runs, bad):
        """A time out of range, or nan, raises the same ValueError text from
        both methods; so it does on a zero-duration run."""
        zero = integrate_reversed(PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0),
                                  IntegrationConfig(), 0.0)
        for traj in (case_runs["case1"][3], zero):
            messages = []
            for call in (traj.sample, lambda t: traj.sample_array([t])):
                with pytest.raises(ValueError, match=r"t = .* outside \[") as info:
                    call(bad)
                messages.append(str(info.value))
            assert messages[0] == messages[1]

    def test_sample_array_outside_range_rejected(self, case_runs):
        _, _, _, traj = case_runs["case1"]
        for bad in ([traj.t0, traj.t_end + 1.0], [traj.t0 - 1.0]):
            with pytest.raises(ValueError, match="outside"):
                traj.sample_array(bad)

    def test_sample_range_follows_the_run_time_scale(self):
        """At alpha = 1e76 case1 collides at T ~ 1e-152.  A fixed slack of
        1e-12 let 2T (a state extrapolated past the collision), 1e-140
        (p1 ~ 4e158) and 5e-13 (an overflow) through; the slack is now a
        few ulps of the run's own times."""
        _, _, _, traj = run_point(*CASE_PRESETS["case1"], alpha=1e76)
        T = traj.t_end
        assert 0.0 < T < 1e-150
        for bad in (2.0 * T, 1e-140, 5e-13, -1e-13, -T):
            with pytest.raises(ValueError, match=r"t = .* outside \["):
                traj.sample(bad)
            with pytest.raises(ValueError, match=r"t = .* outside \["):
                traj.sample_array([0.0, bad])
        inside = [traj.t0, 0.5 * T, T, np.nextafter(T, np.inf), -0.0]
        assert np.isfinite(traj.sample_array(inside)).all()
        assert traj.sample(T) == traj.terminal_event.state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_array_non_finite_time_rejected(self, case_runs, bad):
        """nan fails both range comparisons; it is refused as out of range
        too, not returned as a row of nan."""
        _, _, _, traj = case_runs["case1"]
        with pytest.raises(ValueError, match=r"t = .* outside \["):
            traj.sample_array([bad, 0.01])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_sample_non_finite_time_rejected(self, case_runs, bad):
        """The error names the time, not a state component."""
        _, _, _, traj = case_runs["case1"]
        with pytest.raises(ValueError, match=r"t = .* outside \["):
            traj.sample(bad)

    @pytest.mark.parametrize("times", [[[0.0, 0.01]], np.zeros((2, 2)), [[[0.01]]]])
    def test_sample_array_of_2d_times_rejected(self, case_runs, times):
        """Times are a scalar or 1-D; any other shape is a ValueError."""
        _, _, _, traj = case_runs["case1"]
        with pytest.raises(ValueError, match="scalar or 1-D"):
            traj.sample_array(times)

    def test_sample_array_of_zero_duration_run(self):
        state = PeakonState(1.5, -1.0, 0.0, 0.1)
        back = integrate_reversed(state, ABParams(1 / 3, 3.0), IntegrationConfig(), 0.0)
        rows = back.sample_array([0.0, 0.0])
        assert np.array_equal(rows, np.array([state.as_array()] * 2))
        assert back.sample(0.0) == state
        for t in (0.0, -0.0):
            assert self._hex(back.sample(t).as_array()) == self._hex(back.sample_array([t])[0])

    def test_state_array_matches_states(self, case_runs):
        for rep in Representation:
            params, _, initial, base = case_runs["case3"]
            traj = integrate(initial, params, IntegrationConfig(
                max_time=base.config.max_time, representation=rep))
            arr = traj.state_array
            assert arr.shape == (len(traj.times), 4)
            assert np.array_equal(arr[0], initial.as_array())
            assert abs(arr[-1, 3] - arr[-1, 2]) <= 1e-10  # ends at the collision
            arr[:] = 0.0  # a copy: the trajectory is not changed through it
            assert np.array_equal(traj.state_array[0], initial.as_array())

    def test_dense_output_matches_steps(self, case_runs):
        _, _, _, traj = case_runs["case1"]
        for t, y in zip(traj.times, traj.state_array):
            np.testing.assert_allclose(
                traj.sample(float(t)).as_array(), y, rtol=1e-9, atol=1e-12
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IntegrationConfig(rel_tol=-1e-10)
        with pytest.raises(ValueError):
            IntegrationConfig(max_time=0.0)


class TestOneRecord:
    """A trajectory's times and states are its stepper's accepted steps (each
    step's start time and state) followed by the end, read from one record."""

    @staticmethod
    def _hex(array) -> list:
        return [[float(v).hex() for v in row] for row in array]

    @staticmethod
    def _step_times(traj) -> list:
        return [t_old for t_old, *_ in traj._stepper.steps]

    @pytest.mark.parametrize("rep", [Representation.FULL, Representation.REDUCED])
    @pytest.mark.parametrize("case", list(CASE_PRESETS))
    def test_states_are_the_dense_output_at_the_times(self, case, rep):
        """At an event run's step times and at T, ``state_array`` is what the
        dense output gives there, to the last bit."""
        params, _, initial, base = run_point(*CASE_PRESETS[case])
        traj = integrate(initial, params, replace(base.config, representation=rep))
        assert traj.times.tolist() == [*self._step_times(traj), traj.terminal_event.time]
        assert self._hex(traj.state_array) == self._hex(traj.sample_array(traj.times))

    def test_horizon_run_ends_on_the_last_step_state(self, case_runs):
        """A run stopped by its horizon ends at the last step's own state,
        which the interpolant at that step's end need not give to the bit."""
        params, _, initial, base = case_runs["case1"]
        horizon = 0.5 * base.terminal_event.time
        traj = integrate(initial, params, replace(base.config, max_time=horizon))
        assert traj.terminal_event.kind is EventKind.HORIZON
        assert traj.times.tolist() == [*self._step_times(traj), horizon]
        states = traj.state_array
        assert self._hex(states[:-1]) == self._hex(traj.sample_array(traj.times[:-1]))
        assert self._hex(states[-1:]) == self._hex([traj.terminal_event.state.as_array()])

    def test_zero_duration_run_is_its_start(self):
        state = PeakonState(1.5, -1.0, 0.0, 0.1)
        back = integrate_reversed(state, ABParams(1 / 3, 3.0), IntegrationConfig(), 0.0)
        assert back.times.tolist() == [0.0]
        assert self._hex(back.state_array) == self._hex([state.as_array()])
        assert (back.steps, back.nfev, back.rejected) == (0, 0, 0)
