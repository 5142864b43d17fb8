"""Nonlocal operator and pointwise residual of the wave equation.

Oracles: (1 - d^2/dx^2) g = e^{-|x|} solves to g = (1+|x|) e^{-|x|} / 2
by matching the exponential ansatz across the kink, and applying the
operator to (1 - d^2/dx^2) phi for a Gaussian phi must return phi; both
check the Simpson-grid D^{-2} of ``residual_oracle``.  That grid residual
is in turn the independent reference for the closed form.  The residual
itself needs no external reference: a single peakon moving at (1-a) p^2
satisfies the equation identically, and so does the two-peakon pair
along its field, so everything measured is roundoff (closed form) or
quadrature error (grid).
"""

import math

import numpy as np
import pytest
from residual_oracle import convolution_grid, d_minus2, d_minus2_dx, pde_residual_grid

from peakonlab import (
    ABParams,
    IntegrationConfig,
    PeakonState,
    case_spec_for,
    collision_time_bound,
    integrate,
    make_initial_profile,
    pde_residual,
    residual_report,
)
from peakonlab.cli import PRESET_AB
from peakonlab.integrator import Trajectory

from conftest import CASE_PRESETS, run_point


class _ShiftedTrajectory:
    """States shifted in p1 while the motion stays the original one."""

    def __init__(self, base, dp1):
        self._base = base
        self._dp1 = dp1

    def sample(self, t):
        st = self._base.sample(t)
        return PeakonState(st.p1 + self._dp1, st.p2, st.q1, st.q2)

    def sample_derivative(self, t):
        return self._base.sample_derivative(t)


@pytest.fixture(scope="module")
def case1_traj():
    params = ABParams(1 / 3, 3.0)
    traj = integrate(
        PeakonState(1.5, -1.0, 0.0, 0.1), params, IntegrationConfig(max_time=2.4)
    )
    return params, traj


@pytest.fixture(scope="module")
def single_traj():
    params = ABParams(1 / 3, 3.0)
    traj = integrate(
        PeakonState(1.0, 0.0, 0.0, 20.0), params, IntegrationConfig(max_time=1.0)
    )
    return params, traj


class TestDMinus2:
    def test_exponential_closed_form(self):
        """f = e^{-|y|}: the image is (1 + |x|) e^{-|x|} / 2."""
        xs = np.concatenate(
            [np.linspace(-40.0, 0.0, 40001), np.linspace(0.0, 40.0, 40001)]
        )
        fs = np.exp(-np.abs(xs))
        for x in (0.0, 0.5, -1.3, 3.0):
            got = d_minus2(xs, fs, x)
            want = 0.5 * (1 + abs(x)) * math.exp(-abs(x))
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_zero_function(self):
        xs = np.linspace(-10, 10, 2001)
        assert d_minus2(xs, np.zeros_like(xs), 0.3) == 0.0

    def test_gaussian_round_trip(self):
        """f = (1 - d^2/dx^2) phi recovers phi for a Gaussian bump."""
        xs = np.linspace(-30.0, 30.0, 60001)
        phi = np.exp(-(xs**2) / 2.0)
        f = (2.0 - xs**2) * phi  # phi - phi''
        for x in (0.0, 0.7, -2.2):
            np.testing.assert_allclose(
                d_minus2(xs, f, x), math.exp(-(x**2) / 2.0), atol=1e-10
            )

    def test_derivative_variant(self):
        """d/dx of the exponential image: sgn(x)(-|x|/2) e^{-|x|}."""
        xs = np.concatenate(
            [np.linspace(-40.0, 0.0, 40001), np.linspace(0.0, 40.0, 40001)]
        )
        fs = np.exp(-np.abs(xs))
        for x in (0.5, -1.3, 2.0):
            want = -0.5 * x * math.exp(-abs(x))  # derivative of (1+|x|)e^{-|x|}/2
            np.testing.assert_allclose(d_minus2_dx(xs, fs, x), want, atol=1e-9)

    def test_linear_in_f(self):
        xs = np.linspace(-20, 20, 8001)
        f1 = np.exp(-np.abs(xs))
        f2 = np.cos(xs) * np.exp(-(xs**2) / 8)
        a, b = 1.7, -0.4
        got = d_minus2(xs, a * f1 + b * f2, 0.25)
        want = a * d_minus2(xs, f1, 0.25) + b * d_minus2(xs, f2, 0.25)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_narrow_grid_warns(self):
        xs = np.linspace(-2, 2, 401)
        fs = np.exp(-np.abs(xs))
        with pytest.warns(UserWarning, match="narrow"):
            d_minus2(xs, fs, 0.0)

    def test_grid_builder_covers_peaks(self):
        state = PeakonState(1.0, -1.0, -2.0, 3.0)
        xs = convolution_grid(state, x=0.5, half_width=30.0, spacing=1e-2)
        assert xs[0] == pytest.approx(-33.0)
        assert xs[-1] == pytest.approx(33.0)
        for node in (-2.0, 3.0, 0.5):
            assert np.any(np.abs(xs - node) < 1e-12)


class TestPdeResidual:
    def test_zero_state(self):
        params = ABParams(1 / 3, 3.0)
        traj = integrate(
            PeakonState(0.0, 0.0, 0.0, 1.0), params, IntegrationConfig(max_time=0.5)
        )
        assert pde_residual(traj, 0.25, 3.0, params) == 0.0

    @pytest.mark.parametrize("ab", [(1 / 3, 3.0), (1 / 3, 2.0), (-1.0, 0.5), (0.8, 4.0)])
    def test_single_peakon_is_exact(self, ab):
        """Traveling single peakon: residual at off-peak points <= 1e-6."""
        params = ABParams(*ab)
        traj = integrate(
            PeakonState(1.0, 0.0, 0.0, 25.0), params, IntegrationConfig(max_time=0.5)
        )
        for x in (-2.0, 0.8, 1.5, 3.0):
            assert abs(pde_residual(traj, 0.3, x, params)) <= 1e-6

    def test_two_peakon_midflight(self, case1_traj):
        """Interacting pair at t = T/2, sampled left, between and right.
        The between-peaks point drops out here: the peaks are already
        closer than twice the exclusion radius."""
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        report = residual_report(traj, t, params)
        assert len(report.sample_points) >= 2
        assert report.max_abs_residual <= 1e-5

    def test_corruption_has_teeth(self, case1_traj):
        """Shifting p1 by 1e-3 off the true motion inflates the residual
        by far more than 10x."""
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        honest = residual_report(traj, t, params)
        corrupted = residual_report(_ShiftedTrajectory(traj, 1e-3), t, params)
        assert corrupted.max_abs_residual >= 10.0 * max(honest.max_abs_residual, 1e-12)

    def test_translation_invariance(self, case1_traj):
        params, traj = case1_traj
        t = 0.4 * traj.terminal_event.time
        base = traj.sample(t)
        delta = 7.3

        class _Shifted:
            def sample(self, _t):
                return PeakonState(base.p1, base.p2, base.q1 + delta, base.q2 + delta)

            def sample_derivative(self, _t):
                return traj.sample_derivative(t)

        r0 = pde_residual(traj, t, 2.0, params)
        r1 = pde_residual(_Shifted(), t, 2.0 + delta, params)
        np.testing.assert_allclose(r1, r0, atol=1e-10)

    def test_refinement_scaling(self, case1_traj):
        """Refining the oracle's grid drives it to the closed form at the
        composite rule's order.  Adjacent halvings wobble (piece node
        counts are rounded up), so the order shows over a wider ratio:
        three halvings must beat two halvings' worth of the ideal 16x
        factor."""
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        pts = (-2.0, 1.4, 2.7, 0.9)
        closed = {x: pde_residual(traj, t, x, params) for x in pts}

        def worst(spacing):
            return max(
                abs(pde_residual_grid(traj, t, x, params, spacing=spacing) - closed[x])
                for x in pts
            )

        r8, r2, r1 = worst(8e-2), worst(2e-2), worst(1e-2)
        assert r8 >= r2 >= r1
        assert r8 / r1 >= 16.0**2

    def test_exclusion_radius_enforced(self, case1_traj):
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        q1 = traj.sample(t).q1
        with pytest.raises(ValueError, match="exclusion"):
            pde_residual(traj, t, q1 + 0.05, params)

    def test_report_drops_near_peak_points(self, case1_traj):
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        st = traj.sample(t)
        report = residual_report(
            traj, t, params, points=[st.q1 + 0.01, st.q2 + 3.0]
        )
        assert report.sample_points == (st.q2 + 3.0,)


@pytest.fixture(scope="module")
def preset_points():
    """The four case presets at four times, sampled left of the peaks,
    between them (when they are apart by more than twice the exclusion
    radius) and twice to the right: 48 points."""
    out = []
    for case in ("case1", "case2", "case3", "case4"):
        params = ABParams(*PRESET_AB[case])
        spec = case_spec_for(params)
        traj = integrate(
            make_initial_profile(spec), params,
            IntegrationConfig(max_time=10.0 * collision_time_bound(spec, params)),
        )
        for fraction in (0.1, 0.35, 0.6, 0.85):
            t = fraction * traj.t_end
            st = traj.sample(t)
            lo, hi = sorted((st.q1, st.q2))
            for x in (lo - 1.5, 0.5 * (lo + hi), hi + 0.7, hi + 3.0):
                if min(abs(x - lo), abs(x - hi)) >= 0.1:
                    out.append((case, params, traj, t, x))
    return out


class TestClosedForm:
    def test_against_grid_oracle(self, preset_points):
        """The closed form matches the Simpson-grid residual to the grid's
        own accuracy (measured 6.3e-11)."""
        assert len(preset_points) == 48
        for case, params, traj, t, x in preset_points:
            grid = pde_residual_grid(traj, t, x, params, half_width=40.0)
            assert abs(pde_residual(traj, t, x, params) - grid) <= 1e-10, (case, t, x)

    def test_roundoff_on_presets(self, preset_points):
        """Along the true motion the closed-form residual is roundoff
        (measured 1.8e-15); the grid's floor was 1e-11."""
        for case, params, traj, t, x in preset_points:
            assert abs(pde_residual(traj, t, x, params)) <= 1e-13, (case, t, x)

    @pytest.mark.parametrize("offset", [-400.0, 400.0])
    def test_far_field_is_finite(self, case1_traj, offset):
        """Far from the peaks every term is of order e^{-400}; nothing
        overflows on the way, whichever side x lies."""
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        st = traj.sample(t)
        for q in (st.q1, st.q2):
            r = pde_residual(traj, t, q + offset, params)
            assert math.isfinite(r) and abs(r) <= 1e-14

    def test_coincident_peaks(self):
        """At q1 = q2 the middle piece is empty and the pair is the single
        peakon of momentum p1 + p2 at the same place."""
        params = ABParams(1 / 3, 3.0)
        pair = integrate(PeakonState(0.6, 0.4, 0.0, 0.0), params,
                         IntegrationConfig(max_time=0.5))
        single = integrate(PeakonState(1.0, 0.0, 0.0, 30.0), params,
                           IntegrationConfig(max_time=0.5))
        for x in (-1.0, 0.5, 2.0):
            assert abs(pde_residual(pair, 0.0, x, params)
                       - pde_residual(single, 0.0, x, params)) <= 1e-14


class _Counting:
    """A real trajectory that counts its ``sample`` and ``sample_derivative`` calls."""

    def __init__(self, base):
        self._base = base
        self.samples = self.derivatives = 0

    def sample(self, t):
        self.samples += 1
        return self._base.sample(t)

    def sample_derivative(self, t):
        self.derivatives += 1
        return self._base.sample_derivative(t)


class TestReportSamplesOnce:
    """``residual_report`` samples the state and its derivative once per
    report, and each value is still ``pde_residual``'s at its point."""

    @staticmethod
    def _points(traj, t):
        """Left of, between (one inside the exclusion radius) and right of
        the peaks, and far out on both sides."""
        st = traj.sample(t)
        lo, hi = sorted((st.q1, st.q2))
        return [lo - 40.0, lo - 1.5, lo + 0.05, 0.5 * (lo + hi), hi + 0.7, hi + 3.0, hi + 40.0]

    def test_one_sample_whatever_the_number_of_points(self, case_runs):
        for params, _, _, traj in case_runs.values():
            t = 0.5 * traj.t_end
            for points in (None, self._points(traj, t)):
                counting = _Counting(traj)
                residual_report(counting, t, params, points=points)
                assert counting.samples == 1
                assert counting.derivatives <= 1

    def test_values_equal_pde_residual_bit_for_bit(self, case_runs):
        for name, (params, _, _, traj) in case_runs.items():
            for fraction in (0.1, 0.5, 0.9):
                t = fraction * traj.t_end
                for points in (None, self._points(traj, t)):
                    report = residual_report(traj, t, params, points=points)
                    assert report.sample_points
                    want = [pde_residual(traj, t, x, params) for x in report.sample_points]
                    assert list(map(float.hex, report.residual_values)) == list(
                        map(float.hex, want)), (name, t, points)

    def test_one_interpolation_per_report(self, monkeypatch):
        """The report's ``sample`` and ``sample_derivative`` at one time share
        one interpolation: the trajectory keeps its last sampled state."""
        calls = []
        sample_array = Trajectory.sample_array
        monkeypatch.setattr(Trajectory, "sample_array",
                            lambda traj, ts: calls.append(ts) or sample_array(traj, ts))
        for a, b in CASE_PRESETS.values():
            params, _, _, traj = run_point(a, b)
            t = 0.5 * traj.t_end
            calls.clear()
            report = residual_report(traj, t, params, points=self._points(traj, t))
            assert report.sample_points and len(calls) == 1

    def test_no_kept_point_needs_no_derivative(self, case1_traj):
        params, traj = case1_traj
        t = 0.5 * traj.terminal_event.time
        counting = _Counting(traj)
        report = residual_report(counting, t, params, points=[traj.sample(t).q1])
        assert report.sample_points == () and report.max_abs_residual == 0.0
        assert (counting.samples, counting.derivatives) == (1, 0)
