"""H^s norms, the collision profile and the divergence probe.

The package evaluates every pair integral in closed form (Basset's
integral, DLMF 10.32.11, with the ascending Bessel-K series below
omega = 1).  The references it is checked against live in ``hs_oracle``:

* mpmath's besselk at 40 significant digits, for the pair integral G
  across omega in [1e-15, 40] and for whole distances, including the
  small-|a| regime where the momenta reach about +-120;
* the adaptive quadrature of the defining integrals that the package
  used before, which relies on no Bessel identity at all;
* the direct scipy Bessel-K assembly, while distances are not small;
* the closed form as it was with scipy's special functions and one pass
  per index: on the same seeded separations the package, which uses
  none of them, must be no farther from mpmath than that form.  At s = 1
  the package uses pi (1 - e^{-omega}) (DLMF 10.39.2), pinned to the bits
  of -pi expm1(-|omega|) and no farther from mpmath than that series.

The one pass for every index must reproduce the package's own one-index
calls bit for bit.

The physical-space anchor ||c e^{-|x|}||_{H^1}^2 = 2 c^2 comes from the
hand integral of u^2 + u_x^2.
"""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hs_oracle import (
    _lgamma_slope as lgamma_slope_scipy,
    bessel_distance,
    divergence_probe,
    hs_distance_mp,
    hs_distances_per_index,
    pair_integral_mp,
    pair_integral_per_index,
    pair_integral_quad,
    truncated_distance_sq,
    weight_integral_quad,
)

from peakonlab import (
    ABParams,
    CollisionFunction,
    EventKind,
    IntegrationConfig,
    PeakonState,
    case_spec_for,
    collision_function,
    collision_time_bound,
    hs_distances,
    integrate,
    make_initial_profile,
)
from peakonlab.integrator import EventRecord
from peakonlab.sobolev import _lgamma_slopes, _pair_integrals

from conftest import locate_collision

RNG = np.random.default_rng(42)


def _fake_traj(kind, state):
    return SimpleNamespace(terminal_event=EventRecord(kind=kind, time=1.0, state=state))


class TestCollisionFunction:
    def test_from_collision_event(self, case_runs):
        params, spec, initial, traj = case_runs["case1"]
        rec = locate_collision(traj)
        coll = collision_function(traj)
        assert coll.p_star == pytest.approx(rec.state.p1 + rec.state.p2)
        assert coll.q_star == pytest.approx(rec.state.q1)

    def test_momentum_vanishing_keeps_survivor(self):
        st = PeakonState(0.0, 2.0, 0.3, 1.0)
        coll = collision_function(_fake_traj(EventKind.MOMENTUM_ZERO_1, st))
        assert (coll.p_star, coll.q_star) == (2.0, 1.0)

    def test_momentum_vanishing_keeps_survivor_p1(self):
        st = PeakonState(-1.5, 0.0, 0.3, 1.0)
        coll = collision_function(_fake_traj(EventKind.MOMENTUM_ZERO_2, st))
        assert (coll.p_star, coll.q_star) == (-1.5, 0.3)

    def test_both_momenta_zero_gives_zero_profile(self):
        st = PeakonState(0.0, 0.0, 0.3, 1.0)
        coll = collision_function(_fake_traj(EventKind.MOMENTUM_ZERO_2, st))
        assert coll.p_star == 0.0

    def test_p1_zero_with_negligible_p2_gives_zero_profile(self):
        """p1 vanishes and |p2| <= 1e-12: the zero profile, recorded at q1."""
        st = PeakonState(0.0, -1e-12, 0.3, 1.0)
        coll = collision_function(_fake_traj(EventKind.MOMENTUM_ZERO_1, st))
        assert coll == CollisionFunction(0.0, 0.3)

    def test_horizon_has_no_profile(self):
        st = PeakonState(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            collision_function(_fake_traj(EventKind.HORIZON, st))


ZERO = CollisionFunction(p_star=0.0, q_star=0.0)


class TestNorm:
    """The norm is the distance to the zero profile."""

    def test_h1_anchor(self):
        """||c e^{-|x|}||_{H^1}^2 = 2 c^2 (hand integral of u^2 + u_x^2)."""
        for c in (1.0, -0.7, 2.5):
            norm, = hs_distances([c, 0.0, 0.0, 9.0], ZERO, 1.0)
            np.testing.assert_allclose(norm ** 2, 2 * c * c, atol=1e-8)

    def test_zero_state(self):
        assert hs_distances([0.0, 0.0, 0.0, 1.0], ZERO, 1.0).tolist() == [0.0]

    def test_far_separated_peaks_decouple(self):
        """Cross terms die off: norm^2 -> 2 p1^2 + 2 p2^2 at separation 40."""
        norm, = hs_distances([1.0, 0.7, 0.0, 40.0], ZERO, 1.0)
        np.testing.assert_allclose(norm ** 2, 2 * 1.0 + 2 * 0.49, rtol=1e-8)

    def test_homogeneity(self):
        """Scaling both momenta scales the norm linearly."""
        base, scaled = hs_distances([[0.8, -0.5, 0.0, 0.6], [2.4, -1.5, 0.0, 0.6]], ZERO, 1.2)
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-8)

    def test_triangle_inequality(self):
        """||u - C|| <= ||u|| + ||C|| on random configurations."""
        for _ in range(20):
            p1, p2, pc = RNG.uniform(-2, 2, 3)
            q1 = RNG.uniform(-1, 1)
            state = [p1, p2, q1, q1 + RNG.uniform(0, 2)]
            coll = CollisionFunction(pc, RNG.uniform(-1, 1))
            single = [coll.p_star, 0.0, coll.q_star, coll.q_star + 50.0]
            for s in (0.5, 1.0, 1.4):
                lhs, = hs_distances(state, coll, s)
                norm, norm_c = hs_distances([state, single], ZERO, s)
                assert lhs <= norm + norm_c + 1e-8


class TestDistance:
    def test_zero_when_profiles_coincide(self):
        state = [0.7, 0.0, -0.3, 5.0]
        coll = CollisionFunction(p_star=0.7, q_star=-0.3)
        for s in (0.5, 1.0, 1.4):
            assert hs_distances(state, coll, s)[0] <= 1e-9

    def test_translation_invariance(self):
        state = [1.5, -1.0, 0.0, 0.1]
        coll = CollisionFunction(0.5, -0.05)
        for delta in (-3.7, 0.9, 12.0):
            shifted = [1.5, -1.0, delta, 0.1 + delta]
            coll_shift = CollisionFunction(0.5, -0.05 + delta)
            for s in (0.5, 1.0, 1.4):
                np.testing.assert_allclose(
                    hs_distances(shifted, coll_shift, s),
                    hs_distances(state, coll, s),
                    rtol=1e-9,
                    atol=1e-10,
                )

    def test_supercritical_index_rejected(self):
        state = [1.0, 0.5, 0.0, 1.0]
        for s in (1.5, 1.6, 2.0):
            with pytest.raises(ValueError, match=r"diverges \(up to \|xi\| = R"):
                hs_distances(state, ZERO, s)

    def test_against_bessel_closed_form(self):
        """Closed form vs the direct Bessel assembly on random configurations."""
        for _ in range(25):
            p1, p2, pc = RNG.uniform(-2, 2, 3)
            q1 = RNG.uniform(-2, 2)
            q2 = q1 + RNG.uniform(1e-7, 3.0)
            qc = q1 + RNG.uniform(-1.0, 1.0)
            state = PeakonState(p1, p2, q1, q2)
            coll = CollisionFunction(pc, qc)
            for s in (0.5, 1.0, 1.4, 1.45):
                np.testing.assert_allclose(
                    hs_distances(state.as_array(), coll, s)[0],
                    bessel_distance(state, coll, s),
                    rtol=1e-9,
                    atol=1e-9,
                )

    def test_near_collision_regime_against_bessel(self):
        """Tiny separations exercise the series branch; squared values agree
        to the direct assembly's absolute accuracy."""
        for d in (1e-7, 1e-6, 1e-4, 1e-3):
            state = PeakonState(1.6, -1.1, 0.0, d)
            coll = CollisionFunction(0.52, -d / 3)
            for s in (0.5, 1.0, 1.4):
                np.testing.assert_allclose(
                    hs_distances(state.as_array(), coll, s)[0] ** 2,
                    bessel_distance(state, coll, s) ** 2,
                    rtol=1e-6,
                    atol=5e-10,
                )

    @pytest.mark.parametrize("s, separation", [(-98.0, 3e3), (-98.0, 1e5), (-90.0, 2e4),
                                               (-60.0, 1e8)])
    def test_far_negative_index_at_large_separation_against_mpmath(self, s, separation):
        """Far below s = 0 and far apart, K_nu(omega) underflows to 0 where
        (omega/2)^nu overflows: the distance is the plateau that mpmath
        gives, not NaN, and no overflow warning comes with it."""
        state = PeakonState(0.5, 0.5, 0.0, separation)
        coll = CollisionFunction(1.0, 0.0)
        value = hs_distances(state.as_array(), coll, s)[0]
        ref = hs_distance_mp(state, coll, s)
        assert abs(value - ref) <= 1e-12 * ref, (value, ref)


#: separations from the near-collision regime to where K_nu is negligible
OMEGAS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999999,
          1.0, 1.000001, 1.5, 2.0, 5.0, 10.0, 20.0, 40.0)
ORACLE_INDICES = (0.0, 0.5, 0.7, 1.0, 1.2, 1.4, 1.45, 1.49)


class TestPairIntegral:
    @pytest.mark.parametrize("s", ORACLE_INDICES + (0.5 - 1e-6, 0.5 + 1e-6, -0.5, -2.3))
    def test_against_mpmath(self, s):
        """G(omega) to 1e-13 relative against besselk at 40 digits, on both
        sides of the series / K_nu switch at omega = 1."""
        values, = _pair_integrals(np.array(OMEGAS), [s])
        for omega, value in zip(OMEGAS, values):
            ref = pair_integral_mp(omega, s)
            assert abs(value - ref) <= 1e-13 * ref, (omega, value, ref)

    def test_scalar_and_array_agree(self):
        for s in (0.5, 1.4):
            values, = _pair_integrals(np.array(OMEGAS), [s])
            assert [float(_pair_integrals(w, [s])[0]) for w in OMEGAS] == values.tolist()

    def test_even_and_zero_at_origin(self):
        g1, g12 = _pair_integrals(np.array([0.0, -0.3, 0.3]), [1.0, 1.2])
        assert g1[0] == 0.0 and g12[0] == 0.0
        assert g12[1] == g12[2]

    @pytest.mark.parametrize("s", [0.5, 1.0])
    def test_zero_where_half_the_separation_underflows(self, s):
        """At omega = 5e-324, omega / 2 rounds to 0 and the series gives
        G = 0, as at the origin, with no warning (the suite turns warnings
        into errors).  At s = 1 the closed form -pi expm1(-omega) halves
        nothing: G is the rounded product pi * omega and the distance
        2 sqrt(omega), bit for bit."""
        omegas = [0.0, 5e-324, 1e-323]
        if s == 1.0:
            g, d = [math.pi * w for w in omegas], 2.0 * math.sqrt(5e-324)
        else:
            g, d = [0.0] * 3, 0.0
        assert _pair_integrals(5e-324, [s])[0] == g[1]
        assert _pair_integrals(np.array(omegas), [s])[0].tolist() == g
        assert hs_distances([1.0, -1.0, 0.0, 5e-324], ZERO, s).tolist() == [d]

    @pytest.mark.parametrize("s", [0.0, -10.0, 0.999999999])
    def test_paired_terms_vanish_where_their_powers_underflow(self, s):
        """Below omega of about 1e-308, y = (omega/2)^2 underflows to 0, so the
        series' powers y^p are 0 while expm1(eps l) would overflow where nu lies
        near a half-integer.  No paired term is 0 * inf = NaN, and no warning
        comes with them (the suite turns warnings into errors): G stays
        within 1e-300 of mpmath, and so does the distance of a pair meeting
        the collision profile, which at s = 0.999999999 is about 1e-154
        and is then within 1e-12 relative."""
        omegas = [1e-308, 1e-310, 1e-320]
        g, = _pair_integrals(np.array(omegas), [s])
        for omega, value in zip(omegas, g.tolist()):
            assert abs(value - pair_integral_mp(omega, s)) <= 1e-300, (omega, value)
        state, coll = PeakonState(0.5, 0.5, 0.0, 1e-308), CollisionFunction(1.0, 0.0)
        (value,), = hs_distances(state.as_array(), coll, [s])
        ref = hs_distance_mp(state, coll, s)
        assert abs(value - ref) <= 1e-12 * ref + 1e-300, (value, ref)

    @pytest.mark.parametrize("s, omega", [(1.4, 1e-200), (1.2, 1e-250), (0.999999999, 1e-300)])
    def test_leading_term_survives_where_y_underflows(self, s, omega):
        """Below omega of about 3e-154, y = (omega/2)^2 underflows, while G,
        about (omega/2)^(2 nu) for nu = 3/2 - s < 1, is a normal float
        (1.1e-39, 4.3e-150 and 3.1e-300 here): it keeps the 1e-13 relative
        bound against mpmath instead of reading 0."""
        value = float(_pair_integrals(omega, [s])[0])
        ref = pair_integral_mp(omega, s)
        assert abs(value - ref) <= 1e-13 * ref, (value, ref)

    def test_half_index_elementary_form(self):
        """s = 1 (nu = 1/2): G = pi (1 - e^{-omega}) = -pi expm1(-|omega|),
        bit for bit, for negative separations and on both sides of omega = 1."""
        w = np.concatenate([OMEGAS, np.negative(OMEGAS)])
        want = -math.pi * np.expm1(-np.abs(w))
        assert _pair_integrals(w, [1.0])[0].tobytes() == want.tobytes()
        assert [float(_pair_integrals(v, [1.0])[0]) for v in w] == want.tolist()

    def test_half_index_no_farther_from_mpmath_than_the_series(self):
        """At s = 1 the closed form's largest relative error against besselk
        at 40 digits is no larger than that of the paired series and K_nu it
        replaced (``pair_integral_per_index``), on seeded separations from
        1e-15 to 40."""
        rng = np.random.default_rng(2024)
        w = np.concatenate([10.0 ** rng.uniform(-15.0, 0.0, 150), rng.uniform(1.0, 40.0, 50)])
        ref = np.array([pair_integral_mp(v, 1.0) for v in w])
        closed = np.max(np.abs(_pair_integrals(w, [1.0])[0] - ref) / ref)
        series = np.max(np.abs(pair_integral_per_index(w, 1.0) - ref) / ref)
        assert closed <= series, (closed, series)
        assert closed <= 2.5e-16

    def test_continuity_through_integer_order(self):
        """nu = 1 (s = 1/2) takes the logarithmic series of DLMF 10.31.1.
        Moving s by h = 1e-6 either way changes G at first order in h by
        up to h |ln omega^2|, so the test compares the midpoint of the two
        neighbours with the value at s = 1/2: it agrees to 1e-9, as the
        O(h^2 ln^3 omega) second-order term allows, whereas a branch whose
        limit were off would show the full jump."""
        w = np.array(OMEGAS)
        h = 1e-6
        below, at, above = _pair_integrals(w, [0.5 - h, 0.5, 0.5 + h])
        np.testing.assert_allclose(0.5 * (below + above), at, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("t", (0.0, -0.0))
    def test_integer_order_slope_is_psi(self, t):
        """At t = 0 (nu an integer) the log-gamma slope is psi(a): at
        a = 1..25 within 2 ulp of mpmath's digamma, and +0.0 and -0.0 give
        the same bits."""
        a = np.arange(1.0, 26.0)
        got = _lgamma_slopes(1, 25, t)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.psi(0, v)) for v in a])
        assert np.all(np.abs(got - ref) <= 2.0 * np.spacing(np.abs(ref))), got - ref
        assert got.tobytes() == _lgamma_slopes(1, 25, 0.0).tobytes()

    def test_log_gamma_slopes_against_mpmath(self):
        """(ln Gamma(a + t) - ln Gamma(a)) / t at a = 1..25 is no farther from
        mpmath than scipy's form (psi at t = 0, psi less a Hurwitz-zeta Taylor
        series below |t| = 0.1, a gammaln difference above), over t in all
        three of that form's branches.  One t alone need not be: at t = 0,
        scipy's psi is within 1.5e-16 and the recurrence from Stirling's
        series within 2.6e-16."""
        a = np.arange(1.0, 26.0)
        worst = {"package": 0.0, "scipy": 0.0}
        for t in (0.0, 1e-12, -1e-6, 0.05, -0.0999, 0.1, -0.1, 0.3, -0.5, 0.5):
            with mpmath.workdps(40):
                ref = np.array([float(mpmath.psi(0, v)) if t == 0 else
                                float((mpmath.loggamma(v + mpmath.mpf(t)) - mpmath.loggamma(v)) / t)
                                for v in a])
            for name, got in (("package", _lgamma_slopes(1, 25, t)),
                              ("scipy", lgamma_slope_scipy(a, t))):
                worst[name] = max(worst[name], float(np.max(np.abs(got - ref) / np.abs(ref))))
        assert worst["package"] <= worst["scipy"], worst

    @pytest.mark.parametrize("s", (0.5, 1.0, 1.4, 1.45))
    def test_against_quadrature_oracle(self, s):
        """The quadrature of the defining integral, which uses no Bessel
        identity, agrees within its own accuracy: 1e-9 relative where one
        weighted rule covers the half-line (omega >= 1e-2); on the split
        rule below, 1e-5 relative plus 1e-15 absolute (it is 5e-6 off at
        s = 1, omega = 1e-5, against the exact pi (1 - e^{-omega}))."""
        for omega in (1e-7, 1e-5, 1e-3, 1e-2, 0.3, 1.0, 3.0, 12.0):
            ref, _ = pair_integral_quad(omega, s)
            rtol, atol = (1e-9, 0.0) if omega >= 1e-2 else (1e-5, 1e-15)
            assert abs(_pair_integrals(omega, [s])[0] - ref) <= rtol * ref + atol, omega

    @pytest.mark.parametrize("s", (-0.5, 0.5, 1.0, 1.4, 1.45))
    def test_weight_integral_against_quadrature(self, s):
        """||c e^{-|x|}||^2 = (4/pi) c^2 I0 with I0 the plain weight integral."""
        i0, _ = weight_integral_quad(s)
        norm, = hs_distances([0.8, 0.0, 0.0, 1.0], ZERO, s)
        np.testing.assert_allclose(norm ** 2, 4.0 / math.pi * 0.64 * i0, rtol=1e-12)

    def test_index_range_rejected(self):
        state = [1.5, -1.0, 0.0, 0.1]
        for s in (1.5, 2.0):
            with pytest.raises(ValueError, match=r"diverges \(up to \|xi\| = R"):
                hs_distances(state, ZERO, [0.5, s])
        with pytest.raises(ValueError, match="overflows"):
            hs_distances(state, ZERO, -200.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_index_rejected(self, s):
        """A NaN index passed both range checks and failed deep in the
        series with "cannot convert float NaN to integer"."""
        state = np.array([[1.5, -1.0, 0.0, 0.1]])
        with pytest.raises(ValueError, match="is not a finite Sobolev index"):
            hs_distances(state, CollisionFunction(0.5, 0.0), s)


class TestBatchedDistances:
    def test_batched_equals_scalar_bit_for_bit(self):
        """One call over many states gives each state's one-row distance
        exactly, on both sides of the series switch."""
        n = 60
        q1 = RNG.uniform(-1.0, 1.0, n)
        gaps = 10.0 ** RNG.uniform(-16.0, 0.7, n)
        states = np.column_stack([RNG.uniform(-3, 3, n), RNG.uniform(-3, 3, n), q1, q1 + gaps])
        coll = CollisionFunction(0.7, 0.2)
        for s in (0.5, 1.0, 1.4):
            batch = hs_distances(states, coll, s)
            scalar = [float(hs_distances(row, coll, s)[0]) for row in states]
            assert batch.tolist() == scalar

    def test_single_row_and_empty_batch(self):
        state = PeakonState(1.2, -0.3, 0.0, 0.7)
        coll = CollisionFunction(0.9, 0.1)
        assert hs_distances(state.as_array(), coll, 1.0).shape == (1,)
        assert hs_distances(np.empty((0, 4)), coll, 1.0).shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, bad):
        """A NaN separation read as distance 0 at every index but s = 1, and
        an infinite one warned "invalid value encountered in multiply"; a
        non-finite state component or collision profile is refused before
        any work, also among finite rows."""
        states = np.array([[1.0, -0.5, 0.0, 0.1], [1.2, -0.3, 0.0, 0.7]])
        coll = CollisionFunction(0.5, 0.0)
        for j in range(4):
            rows = states.copy()
            rows[1, j] = bad
            with pytest.raises(ValueError, match="finite states"):
                hs_distances(rows, coll, [0.5, 1.0, 1.4])
        for bad_coll in (CollisionFunction(bad, 0.0), CollisionFunction(0.5, bad)):
            with pytest.raises(ValueError, match="finite collision profile"):
                hs_distances(states, bad_coll, [0.5, 1.0, 1.4])

    def test_small_a_large_momenta_against_mpmath(self):
        """(a, b) = (1e-9, 3): the momenta grow to about +-120 before the
        collision, so each distance is left over from O(1e4)-sized terms.
        The closed form keeps 1e-12 relative against mpmath all the way in.
        The s = 1.4 distances first rise and then fall; the oracle shows
        that this is the dynamics, not the numerics."""
        params = ABParams(1e-9, 3.0)
        spec = case_spec_for(params, 1.0, 0.5)
        cfg = IntegrationConfig(max_time=10.0 * collision_time_bound(spec, params))
        traj = integrate(make_initial_profile(spec), params, cfg)
        coll = collision_function(traj)
        T = traj.terminal_event.time
        times = [0.5 * T, 0.99 * T] + [T - 10.0**-k for k in range(2, 7)]
        states = traj.sample_array(times)
        assert np.max(np.abs(states[:, :2])) > 100.0
        for s in (0.5, 1.0, 1.4):
            for row, value in zip(states, hs_distances(states, coll, s)):
                ref = hs_distance_mp(PeakonState(*row), coll, s)
                assert abs(value - ref) <= 1e-12 * ref, (s, row, value, ref)


#: either side of the integer order nu = 1, s = 1/2 itself, a negative and a
#: far negative index, s = 1 (nu = 1/2, the closed form) and one just below 3/2
MANY_INDICES = (0.5 + 1e-12, 0.5, 0.5 - 1e-12, -0.5, -3.0, 1.0, 1.49)


def _separations(count: int, rng) -> list:
    """Separation vectors of ``count`` entries: one below and one above
    omega = 1 for a single entry, else entries on both sides of it (with a
    zero and a negative one from three entries on)."""
    if count == 1:
        return [np.array([0.37]), np.array([2.5])]
    omega = np.where(np.arange(count) % 2 == 0, 10.0 ** rng.uniform(-15.0, -1e-3, count),
                     rng.uniform(1.0, 40.0, count))
    if count >= 3:
        omega[1], omega[2] = 0.0, -omega[2]
    return [omega]


def _distance_states(n: int):
    """``n`` seeded rows whose separations lie on both sides of omega = 1,
    and the collision profile they are measured against."""
    rng = np.random.default_rng(n)
    q1 = rng.uniform(-1.0, 1.0, n)
    gaps = 10.0 ** rng.uniform(-16.0, 0.7, n)
    states = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), q1, q1 + gaps])
    return states, CollisionFunction(0.7, 2.2)


SEPARATION_COUNTS = (1, 2, 3, 15, 1215)
DISTANCE_ROWS = (1, 5, 405)  # 3, 15 and 1,215 separations
#: of the largest seeded sets, every MP_STRIDE-th entry is checked against mpmath
MP_STRIDE = 45


class TestOnePassForEveryIndex:
    """``hs_distances`` over a sequence of indices shares the separations,
    masks, ln y and powers of y across them; each index's row must equal
    that index's own call bit for bit, whichever the order of the indices
    (at s = 1, the closed form -pi expm1(-|omega|)).  On the same seeded
    separations the package must be no farther from mpmath than the closed
    form as it stood with scipy's special functions."""

    @pytest.mark.parametrize("count", SEPARATION_COUNTS)
    def test_pair_integrals_equal_per_index_passes(self, count):
        rng = np.random.default_rng(count)
        for omega in _separations(count, rng):
            wants = {s: _pair_integrals(omega, [s])[0] for s in MANY_INDICES}
            half = -math.pi * np.expm1(-np.abs(omega))
            assert wants[1.0].tobytes() == half.tobytes()
            for indices in (MANY_INDICES, MANY_INDICES[::-1]):
                rows = _pair_integrals(omega, indices)
                assert len(rows) == len(indices)
                for s, row in zip(indices, rows):
                    assert row.tobytes() == wants[s].tobytes(), (count, s)

    @pytest.mark.parametrize("n", DISTANCE_ROWS)
    def test_distance_rows_equal_per_index_and_scalar_calls(self, n):
        states, coll = _distance_states(n)
        q1, gaps = states[:, 2], states[:, 3] - states[:, 2]
        omega = np.abs(np.concatenate([gaps, 2.2 - q1, 2.2 - q1 - gaps]))
        assert (omega < 1.0).any() and (omega > 1.0).any()
        wants = {s: hs_distances(states, coll, s) for s in MANY_INDICES}
        for indices in (MANY_INDICES, MANY_INDICES[::-1]):
            rows = hs_distances(states, coll, indices)
            assert rows.shape == (len(indices), n)
            for s, row in zip(indices, rows):
                assert row.tobytes() == wants[s].tobytes(), s
        for s, want in wants.items():
            scalar = [float(hs_distances(state, coll, s)[0]) for state in states]
            assert scalar == want.tolist(), s

    def test_no_farther_from_mpmath_than_the_scipy_form(self):
        """The largest relative error against mpmath, over the indices and
        the separations (and rows) of the two tests above, every
        MP_STRIDE-th of the largest sets, is no larger than that of the
        closed form with scipy's special functions, for G and for the
        distances.  For G the largest errors of both are those of the
        series at s = 1/2 - 1e-12 (4.1e-15).  Index by index the two differ
        by a few ulps either way: at s = -3 (nu = 9/2, where scipy's kv and
        gamma are nearly exact) the package's G is up to 2e-15 off against
        the scipy form's 9.4e-16, and its distances up to 1.6e-15 against
        2.7e-15."""
        omega = np.concatenate([w[::MP_STRIDE] for count in SEPARATION_COUNTS
                                for w in _separations(count, np.random.default_rng(count))])
        omega = omega[omega != 0.0]
        worst = {"package": 0.0, "scipy": 0.0}
        for s in MANY_INDICES:
            ref = np.array([pair_integral_mp(w, s) for w in omega])
            for name, got in (("package", _pair_integrals(omega, [s])[0]),
                              ("scipy", pair_integral_per_index(omega, s))):
                worst[name] = max(worst[name], float(np.max(np.abs(got - ref) / ref)))
        assert worst["package"] <= worst["scipy"], ("G", worst)
        worst = {"package": 0.0, "scipy": 0.0}
        for n in DISTANCE_ROWS:
            states, coll = _distance_states(n)
            states = states[::MP_STRIDE]
            for s in MANY_INDICES:
                ref = np.array([hs_distance_mp(PeakonState(*row), coll, s) for row in states])
                for name, got in (("package", hs_distances(states, coll, s)),
                                  ("scipy", hs_distances_per_index(states, coll, s))):
                    worst[name] = max(worst[name], float(np.max(np.abs(got - ref) / ref)))
        assert worst["package"] <= worst["scipy"], ("distances", worst)

    def test_sequence_shapes(self):
        state = PeakonState(1.2, -0.3, 0.0, 0.7)
        coll = CollisionFunction(0.9, 0.1)
        assert hs_distances(state.as_array(), coll, [1.0]).shape == (1, 1)
        assert hs_distances(np.empty((0, 4)), coll, (0.5, 1.0)).shape == (2, 0)
        assert hs_distances(np.zeros((3, 4)), coll, ()).shape == (0, 3)
        assert hs_distances(np.zeros((3, 4)), coll, np.array([0.5, 1.0])).shape == (2, 3)

    def test_every_index_checked(self):
        state = np.array([[1.5, -1.0, 0.0, 0.1]])
        with pytest.raises(ValueError, match="outside the admissible range"):
            hs_distances(state, CollisionFunction(0.5, 0.0), [0.5, 1.5])
        with pytest.raises(ValueError, match="is not a finite Sobolev index"):
            hs_distances(state, CollisionFunction(0.5, 0.0), [math.nan, 0.5])


class TestDivergenceProbe:
    STATE = PeakonState(1.5, -1.0, 0.0, 0.1)
    COLL = CollisionFunction(0.5, 0.0)

    def test_growth_rate_s2(self):
        """s = 2: tail exponent 2s-3 = 1, so ~10x per cutoff decade."""
        vals = [divergence_probe(self.STATE, self.COLL, 2.0, c) for c in (1e2, 1e3, 1e4)]
        for lo, hi in zip(vals, vals[1:]):
            assert 8.0 <= hi / lo <= 12.0

    def test_zero_at_coincidence(self):
        state = PeakonState(0.5, 0.0, 0.0, 3.0)
        coll = CollisionFunction(0.5, 0.0)
        for cutoff in (1e2, 1e3):
            assert abs(divergence_probe(state, coll, 2.0, cutoff)) <= 1e-10

    def test_subcritical_index_rejected(self):
        with pytest.raises(ValueError, match="use hs_distances"):
            divergence_probe(self.STATE, self.COLL, 1.4, 1e3)

    def test_subcritical_truncations_cauchy(self):
        """Just below critical (s = 1.49) the truncation sequence is Cauchy:
        increments between consecutive cutoffs are positive and shrink,
        approaching the convergent full quadrature from below."""
        vals = [truncated_distance_sq(self.STATE, self.COLL, 1.49, c)
                for c in (1e2, 1e3, 1e4, 1e5)]
        increments = [b - a for a, b in zip(vals, vals[1:])]
        assert all(inc > 0 for inc in increments)
        assert increments[0] > increments[1] > increments[2]
        full = hs_distances(self.STATE.as_array(), self.COLL, 1.49)[0] ** 2
        assert vals[-1] < full
