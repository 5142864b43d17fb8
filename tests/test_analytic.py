"""Closed-form invariants of the reduced flow against the ODE oracle.

The trajectory itself is the oracle throughout: z(t) integrated at tight
tolerance must track z_closed_form(q(t)); the density must reproduce
h h' and w w' pointwise; the potentials must close the h^2 and w^2
identities.  Near a = 1/3, where the power form of z loses accuracy,
z and F1 are checked against mpmath at 50 digits.  The frozen a = 1/3
value below is the limit formula z0 * exp(-(3(2-b)/4)(e^{-2q} - e^{-2mu})),
which the one form of z_closed_form reduces to at a = 1/3; it was evaluated
by hand and confirmed by integrating the reduced system at rel_tol 1e-13.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from analytic_oracle import potential_quadrature, z_two_branch

from peakonlab import (
    ABParams,
    F1,
    F2,
    InvariantContext,
    PeakonState,
    f_density,
    h_sq,
    to_reduced,
    w_sq,
    z_closed_form,
)
from peakonlab.analytic import _weighted_density
from peakonlab.dynamics import reduced_rhs_array

# limit-branch value at a=1/3, b=3, z0=1, mu=0.1, q=0
Z_LIMIT_FORQ_B3 = 1.1456268279374306


def _ctx(a, b, state):
    return InvariantContext.from_initial(ABParams(a, b), state)


CASE1_STATE = PeakonState(1.5, -1.0, 0.0, 0.1)

#: |1 - 3a| where the power form of z lost up to 3.8e-8 relative (at 1.5e-9),
#: and 0, where a limit form took over; each is taken on both sides
THIRD_OFFSETS = (0.0, 1e-12, 1.5e-9, 3e-9, 3e-8, 1e-6, 1e-3)


def _near_third(offset):
    """a with 1 - 3a = offset, up to the rounding of a."""
    return (1.0 - offset) / 3.0


def _mp_reduced(ctx):
    """(z, weighted density) of ctx as mpmath functions of the separation,
    at the working precision, from the exact floats a, b, mu and z0."""
    a, b, mu, z0 = map(mpmath.mpf, (ctx.params.a, ctx.params.b, ctx.mu, ctx.z0))
    d = 1 - 3 * a

    def l_a(x):
        return (1 - a) - d * mpmath.exp(-2 * x)

    def z(x):
        if d == 0:
            return z0 * mpmath.exp(-(3 * (2 - b) / 4) * (mpmath.exp(-2 * x) - mpmath.exp(-2 * mu)))
        return z0 * (l_a(x) / l_a(mu)) ** ((2 - b) / (2 * d))

    def weighted_density(x):
        return (1 + mpmath.exp(-x)) * (-(2 - b)) * mpmath.exp(-x) * z(x) / l_a(x)

    return z, weighted_density


def _f2_quadrature(ctx, q):
    """Integral of (1 - e^{-rho}) f(rho) from mu to q by adaptive quadrature,
    the way F2 was computed before the identity F2 = F1 + 2(z - z0); kept as
    the oracle for that identity."""
    from scipy.integrate import quad

    if q == ctx.mu:
        return 0.0
    return quad(lambda rho: (1.0 - math.exp(-rho)) * f_density(ctx, rho), ctx.mu, q,
                epsabs=1e-12, epsrel=1e-12, limit=200)[0]


class TestZClosedForm:
    def test_equals_z0_at_mu(self, case_runs):
        for params, spec, initial, _ in case_runs.values():
            ctx = InvariantContext.from_initial(params, initial)
            np.testing.assert_allclose(z_closed_form(ctx, spec.mu), ctx.z0, rtol=1e-14)

    def test_b2_is_constant(self):
        ctx = _ctx(0.8, 2.0, CASE1_STATE)
        for q in (0.0, 0.05, 0.1, 0.7):
            np.testing.assert_allclose(z_closed_form(ctx, q), ctx.z0, rtol=1e-15)

    def test_a_zero_rejected(self):
        """The closed form needs a != 0 (the Novikov point has no L_a design),
        unless b = 2 freezes the product."""
        with pytest.raises(ValueError, match="a must be nonzero"):
            z_closed_form(_ctx(0.0, 3.0, CASE1_STATE), 0.05)
        assert z_closed_form(_ctx(0.0, 2.0, CASE1_STATE), 0.05) == CASE1_STATE.p1 * CASE1_STATE.p2

    def test_limit_branch_frozen_value(self):
        # h0 = -1.5, w0 = 2.5 gives z0 = 1 exactly
        ctx = InvariantContext(ABParams(1 / 3, 3.0), mu=0.1, z0=1.0, h0=-1.5, w0=2.5)
        np.testing.assert_allclose(z_closed_form(ctx, 0.0), Z_LIMIT_FORQ_B3, rtol=1e-12)

    def test_limit_branch_against_ode(self):
        """Integrate the reduced system to q = 0 at tight tolerance."""
        from scipy.integrate import solve_ivp

        hit = lambda t, y: y[0]
        hit.terminal = True
        sol = solve_ivp(
            lambda t, y: reduced_rhs_array(y, 1 / 3, 3.0),
            (0.0, 10.0),
            [0.1, -1.5, 2.5, 1.0],
            method="DOP853",
            rtol=1e-13,
            atol=1e-15,
            events=[hit],
        )
        z_end = sol.y[3, -1]
        np.testing.assert_allclose(z_end, Z_LIMIT_FORQ_B3, rtol=1e-11)

    def test_branch_continuity_at_one_third(self):
        """The exponent singularity at a = 1/3 is removable: z moves by
        O(|1 - 3a|) from its value at a = 1/3."""
        limit_ctx = InvariantContext(ABParams(1 / 3, 3.0), 0.1, -1.5, -2.5, 0.5)
        for sign in (+1, -1):
            a = 1 / 3 + sign * 1e-6
            near_ctx = InvariantContext(ABParams(a, 3.0), 0.1, -1.5, -2.5, 0.5)
            for q in (0.0, 0.03, 0.09):
                assert abs(z_closed_form(near_ctx, q) - z_closed_form(limit_ctx, q)) <= 1e-4

    @pytest.mark.parametrize("a", sorted({_near_third(sign * off) for off in THIRD_OFFSETS
                                          for sign in (1, -1)}) + [0.8, 0.1, -1.0, -0.3, 2.0])
    @pytest.mark.parametrize("b", [1.0, 3.0])
    def test_against_mpmath(self, a, b):
        """Within 1e-15 relative of z at 50 digits on both sides of a = 1/3
        and at a = 1/3 itself, and at generic a; scalar and array calls
        agree bit for bit."""
        ctx = _ctx(a, b, CASE1_STATE)
        qs = [0.0, 0.03, 0.09, 0.5] if a > 0 else [0.0, 0.03, 0.09]
        with mpmath.workdps(50):
            z_mp = _mp_reduced(ctx)[0]
            want = [z_mp(mpmath.mpf(q)) for q in qs]
        got = z_closed_form(ctx, np.array(qs))
        assert got.tolist() == [z_closed_form(ctx, q) for q in qs]
        for q, value, ref in zip(qs, got, want):
            assert abs(value - ref) <= 1e-15 * abs(ref), (a, b, q)

    def test_two_branch_form_fails_the_mpmath_bound(self):
        """The earlier power form, kept as an oracle, is off by more than
        1e-9 relative at 1 - 3a = 1.5e-9, so the bound above has teeth."""
        ctx = _ctx(_near_third(1.5e-9), 1.0, CASE1_STATE)
        with mpmath.workdps(50):
            ref = _mp_reduced(ctx)[0](mpmath.mpf(0.03))
        assert abs(z_two_branch(ctx, 0.03) - ref) > 1e-9 * abs(ref)

    def test_initial_separation_at_the_zero_of_l_a(self):
        """a = -1, mu = ln(2)/2: L_a(mu) is 0 in floats too, and z, f and F1
        raise the range error instead of dividing by it."""
        ctx = _ctx(-1.0, 3.0, PeakonState(1.0, 1.5, 0.0, math.log(2.0) / 2.0))
        for fn in (z_closed_form, f_density, F1):
            with pytest.raises(ValueError, match="sign-definite range"):
                fn(ctx, 0.1)

    def test_tracks_integrated_z(self, grid_runs):
        for (a, b), (params, spec, initial, traj) in grid_runs.items():
            ctx = InvariantContext.from_initial(params, initial)
            arr = traj.state_array
            z_num = arr[:, 0] * arr[:, 1]
            q_num = arr[:, 3] - arr[:, 2]
            z_pred = z_closed_form(ctx, q_num)
            rel = np.max(np.abs(z_num - z_pred)) / max(1.0, abs(ctx.z0))
            assert rel <= 1e-6, f"(a={a}, b={b}): rel error {rel:.3e}"

    def test_sign_preserved(self, grid_runs):
        for (a, b), (params, spec, initial, traj) in grid_runs.items():
            ctx = InvariantContext.from_initial(params, initial)
            qs = np.linspace(0.0, spec.mu, 50)
            assert np.all(np.sign(z_closed_form(ctx, qs)) == np.sign(ctx.z0))


class TestDensity:
    def test_b2_vanishes(self):
        ctx = _ctx(0.8, 2.0, CASE1_STATE)
        assert f_density(ctx, 0.3) == 0.0

    def test_reproduces_h_and_w_rates(self, case_runs):
        """h h' = (1+e^{-q}) f q' and w w' = (1-e^{-q}) f q' along the flow."""
        for params, spec, initial, traj in case_runs.values():
            ctx = InvariantContext.from_initial(params, initial)
            for t in np.linspace(0.0, traj.t_end * 0.999, 25):
                q, h, w, z = to_reduced(*traj.sample(t).as_array())
                dq, dh, dw, dz = reduced_rhs_array(np.array([q, h, w, z]), params.a, params.b)
                f = f_density(ctx, q)
                np.testing.assert_allclose(
                    h * dh, (1 + math.exp(-q)) * f * dq, rtol=1e-8, atol=1e-10
                )
                np.testing.assert_allclose(
                    w * dw, (1 - math.exp(-q)) * f * dq, rtol=1e-8, atol=1e-10
                )


class TestPotentials:
    def test_zero_at_mu(self):
        ctx = _ctx(1 / 3, 3.0, CASE1_STATE)
        assert F1(ctx, ctx.mu) == 0.0
        assert F2(ctx, ctx.mu) == 0.0
        assert h_sq(ctx, ctx.mu) == ctx.h0**2
        assert w_sq(ctx, ctx.mu) == ctx.w0**2

    def test_b2_identically_zero(self):
        ctx = _ctx(-0.5, 2.0, CASE1_STATE)
        assert F1(ctx, 0.02) == pytest.approx(0.0, abs=1e-15)
        assert F2(ctx, 0.8) == pytest.approx(0.0, abs=1e-15)

    def test_momentum_square_identities(self, case_runs):
        """h^2 = h0^2 + 2 F1(q) and w^2 = w0^2 + 2 F2(q) along trajectories,
        and their sum matches 2 (p1^2 + p2^2)."""
        for params, spec, initial, traj in case_runs.values():
            ctx = InvariantContext.from_initial(params, initial)
            for t in np.linspace(0.0, traj.t_end, 20):
                st = traj.sample(t)
                q, h, w, _ = to_reduced(*st.as_array())
                assert abs(h**2 - h_sq(ctx, q)) <= 1e-6
                assert abs(w**2 - w_sq(ctx, q)) <= 1e-6
                np.testing.assert_allclose(
                    h_sq(ctx, q) + w_sq(ctx, q),
                    2 * (st.p1**2 + st.p2**2),
                    rtol=1e-6,
                    atol=1e-8,
                )

    def test_f2_matches_its_quadrature(self, case_runs):
        """F2 from F1 and the closed form z(q) agrees with the quadrature of
        its own density to 1e-13 across [0, mu] on the four presets, at
        b = 2 and at a = 1/3, and beyond mu where a > 0."""
        contexts = [InvariantContext.from_initial(params, initial)
                    for params, _, initial, _ in case_runs.values()]
        contexts += [_ctx(a, b, CASE1_STATE)
                     for a, b in ((0.8, 2.0), (-0.5, 2.0), (1 / 3, 0.5), (1 / 3, 5.0))]
        for ctx in contexts:
            qs = list(np.linspace(0.0, ctx.mu, 21))
            if ctx.params.a > 0:
                qs += [1.5 * ctx.mu, 0.5, 2.0]
            for q in map(float, qs):
                assert abs(F2(ctx, q) - _f2_quadrature(ctx, q)) <= 1e-13, (ctx.params, q)

    def test_fundamental_theorem(self):
        """Central difference of F1 matches (1+e^{-q}) f(q) to 1e-6."""
        ctx = _ctx(-1.0, 3.0, PeakonState(1.0, 1.5, 0.0, 0.06))
        step = 1e-5
        for q in (0.02, 0.04, 0.055):
            deriv = (F1(ctx, q + step) - F1(ctx, q - step)) / (2 * step)
            expected = (1 + math.exp(-q)) * f_density(ctx, q)
            np.testing.assert_allclose(deriv, expected, atol=1e-6, rtol=1e-6)

    def test_monotone_when_density_sign_fixed(self):
        """F1 is monotone in q wherever f keeps one sign; here f < 0
        (positive momenta, negative separation factor), so F1 decreases."""
        ctx = _ctx(-1.0, 3.0, PeakonState(1.0, 1.5, 0.0, 0.06))
        qs = np.linspace(0.0, 0.0667, 12)
        assert np.all(f_density(ctx, qs) < 0)
        vals = [F1(ctx, float(q)) for q in qs]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_negative_square_returned_verbatim(self):
        """Outside the swept range the w^2 identity can go negative and is
        reported as is, never clamped."""
        ctx = _ctx(1 / 3, 3.0, CASE1_STATE)
        val = w_sq(ctx, 2.0)
        assert val < 0.0
        np.testing.assert_allclose(val, ctx.w0**2 + 2 * F2(ctx, 2.0), rtol=1e-12)

    def test_identity_validation(self):
        with pytest.raises(ValueError):
            InvariantContext(ABParams(1 / 3, 3.0), mu=0.1, z0=1.0, h0=0.0, w0=0.5)

    def test_orientation_enforced(self):
        """The reduced flow is derived for q2 >= q1; a reversed order is
        refused, and one at roundoff level (a located collision) is not."""
        with pytest.raises(ValueError, match=r"orientation q2 >= q1 violated: q1=0.5, q2=0.0"):
            _ctx(1 / 3, 3.0, PeakonState(1.0, 1.0, 0.5, 0.0))
        ctx = _ctx(1 / 3, 3.0, PeakonState(1.0, 1.0, 2.0, 2.0 - 1e-12))
        assert ctx.mu == (2.0 - 1e-12) - 2.0 < 0.0

    @pytest.mark.parametrize("alpha", [1.0, 1e5, 1e10, 3e12, 1e30])
    def test_identity_validation_is_relative_to_the_largest_term(self, alpha):
        """p = (alpha + 1/2, -alpha): h0^2 and 4 z0 grow like alpha^2 and cancel
        to w0^2 = 1/4, leaving their roundoff in the gap.  The exact data
        passes at every scale; z0 off by 1e-6 relative still raises."""
        params = ABParams(1 / 3, 3.0)
        ctx = InvariantContext.from_initial(params, PeakonState(alpha + 0.5, -alpha, 0.0, 0.1))
        with pytest.raises(ValueError, match="violated"):
            InvariantContext(params, mu=ctx.mu, z0=ctx.z0 * (1 + 1e-6), h0=ctx.h0, w0=ctx.w0)


class TestFloatIntegrand:
    """F1 integrates a float-level copy of the density; ``analytic_oracle``
    integrates ``f_density`` itself, as F1 did before."""

    @staticmethod
    def _contexts(case_runs):
        contexts = [InvariantContext.from_initial(params, initial)
                    for params, _, initial, _ in case_runs.values()]
        # a = 1/3 and just beside it, where the power form lost accuracy;
        # b = 2 gives zero
        return contexts + [_ctx(_near_third(-2.5e-10), 3.0, CASE1_STATE),
                           _ctx(_near_third(2.5e-10), 1.0, CASE1_STATE),
                           _ctx(_near_third(1.5e-9), 1.0, CASE1_STATE),
                           _ctx(-0.5, 2.0, CASE1_STATE)]

    def test_f1_agrees_with_the_numpy_quadrature(self, case_runs):
        for ctx in self._contexts(case_runs):
            qs = list(np.linspace(0.0, ctx.mu, 11))
            if ctx.params.a > 0:
                qs += [1.5 * ctx.mu, 2.0]
            for q in map(float, qs):
                assert abs(F1(ctx, q) - potential_quadrature(ctx, q)) <= 1e-14, (ctx.params, q)

    def test_density_pinned_to_f_density(self, case_runs):
        for ctx in self._contexts(case_runs):
            integrand = _weighted_density(ctx)
            for q in np.linspace(0.0, ctx.mu, 41).tolist():
                want = (1.0 + math.exp(-q)) * f_density(ctx, q)
                assert abs(integrand(q) - want) <= 1e-15 * abs(want), (ctx.params, q)

    def test_outside_the_sign_definite_range(self, case_runs):
        """a < 0: L_a changes sign beyond mu, and the quadrature raises the
        ValueError that f_density raises there."""
        params, spec, initial, _ = case_runs["case3"]
        ctx = InvariantContext.from_initial(params, initial)
        for fn in (F1, potential_quadrature):
            with pytest.raises(ValueError, match="sign-definite range"):
                fn(ctx, 2.0)
            with pytest.raises(ValueError, match="sign-definite range"):
                fn(ctx, math.inf)

    def test_overflowing_nodes_end_as_the_oracle_does(self):
        """Far below mu exp(-rho) overflows a float; those nodes follow
        numpy's rules.  Where the oracle's value is finite F1 gives it; where
        it is inf or nan, or the oracle raises OverflowError, F1 (and F2,
        h_sq, w_sq) raises ValueError, and warns of nothing before it (the
        run's filter turns any warning into an error).  The oracle's own
        warnings are its business."""
        def outcome(fn, ctx, q):
            try:
                return fn(ctx, q)
            except (OverflowError, ValueError) as exc:
                return type(exc).__name__

        def oracle(ctx, q):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return outcome(potential_quadrature, ctx, q)

        for a, b in ((1 / 3, 3.0), (1 / 3, 1.0), (0.5, 3.0), (-1.0, 3.0), (0.7, 2.0)):
            ctx = _ctx(a, b, CASE1_STATE)
            for q in (-5.0, -400.0, -800.0, -math.inf):
                got, want = outcome(F1, ctx, q), oracle(ctx, q)
                if isinstance(want, str) or not math.isfinite(want):
                    for fn in (F1, F2, h_sq, w_sq):
                        assert outcome(fn, ctx, q) == "ValueError", (fn, a, b, q)
                else:
                    assert got == pytest.approx(want, rel=1e-14), (a, b, q)

    @pytest.mark.parametrize("offset", [1.5e-9, -1.5e-9, 3e-9, -3e-9])
    @pytest.mark.parametrize("b", [1.0, 3.0])
    def test_f1_near_one_third_against_mpmath(self, offset, b):
        """Beside a = 1/3 the quadrature converges without a warning and
        matches an mpmath quadrature of the exact density to 1e-14."""
        ctx = _ctx(_near_third(offset), b, CASE1_STATE)
        with mpmath.workdps(40):
            density = _mp_reduced(ctx)[1]
            want = [mpmath.quad(density, [mpmath.mpf(ctx.mu), mpmath.mpf(q)])
                    for q in (0.0, 0.03, 0.5)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [F1(ctx, q) for q in (0.0, 0.03, 0.5)]
        for value, ref in zip(got, want):
            assert abs(value - ref) <= 1e-14 * max(1.0, abs(ref)), (offset, b)

    @pytest.mark.parametrize("a, message", [(1e-9, "did not converge"),
                                            (-1e-9, "sign-definite range")])
    def test_small_a_raises_without_a_warning(self, a, message):
        """At a = 1e-9 the quadrature from mu to 0 does not converge, and at
        a = -1e-9 it leaves the range of L_a: F1 (and F2, h_sq, w_sq) raises
        its ValueError, and no warning (scipy's IntegrationWarning at
        a = 1e-9) comes first."""
        ctx = _ctx(a, 3.0, CASE1_STATE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (F1, F2, h_sq, w_sq):
                with pytest.raises(ValueError, match=message):
                    fn(ctx, 0.0)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        """An error estimate above the tolerance is an error, not a warning."""
        ctx = _ctx(1 / 3, 3.0, CASE1_STATE)
        monkeypatch.setattr("scipy.integrate.quad", lambda *args, **kwargs: (0.3, 1e-3))
        for fn in (F1, F2, h_sq, w_sq):
            with pytest.raises(ValueError, match="did not converge"):
                fn(ctx, 0.05)

    def test_nan_separation_raises(self):
        """quad over [mu, nan] would return 0, so h_sq(nan) would be h0^2."""
        ctx = _ctx(1 / 3, 3.0, CASE1_STATE)
        for fn in (F1, F2, h_sq, w_sq):
            with pytest.raises(ValueError, match="separation"):
                fn(ctx, math.nan)
