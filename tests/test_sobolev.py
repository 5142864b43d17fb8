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
* the closed form as it was with one pass per index, which the one pass
  for every index must reproduce bit for bit.

The physical-space anchor ||c e^{-|x|}||_{H^1}^2 = 2 c^2 comes from the
hand integral of u^2 + u_x^2.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hs_oracle import (
    bessel_distance,
    hs_distance_mp,
    hs_distances_per_index,
    pair_integral_mp,
    pair_integral_per_index,
    pair_integral_quad,
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
    divergence_probe,
    hs_distance,
    hs_distances,
    hs_norm,
    integrate,
    make_initial_profile,
    pair_integral,
)
from peakonlab.integrator import EventRecord
from peakonlab.sobolev import _SERIES_TERMS, _SLOPE_TERMS, _lgamma_slope, _pair_integrals

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

    def test_both_momenta_zero_gives_zero_profile(self):
        st = PeakonState(0.0, 0.0, 0.3, 1.0)
        coll = collision_function(_fake_traj(EventKind.MOMENTUM_ZERO_2, st))
        assert coll.p_star == 0.0
        assert coll.evaluate(0.7) == 0.0

    def test_horizon_has_no_profile(self):
        st = PeakonState(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            collision_function(_fake_traj(EventKind.HORIZON, st))

    def test_profile_evaluation(self):
        coll = CollisionFunction(p_star=2.0, q_star=1.0)
        assert coll.evaluate(1.0) == 2.0
        assert coll.evaluate(0.0) == pytest.approx(2.0 * math.exp(-1.0))


ZERO = CollisionFunction(p_star=0.0, q_star=0.0)


class TestNorm:
    def test_h1_anchor(self):
        """||c e^{-|x|}||_{H^1}^2 = 2 c^2 (hand integral of u^2 + u_x^2)."""
        for c in (1.0, -0.7, 2.5):
            state = PeakonState(c, 0.0, 0.0, 9.0)
            np.testing.assert_allclose(hs_norm(state, 1.0) ** 2, 2 * c * c, atol=1e-8)

    def test_zero_state(self):
        assert hs_norm(PeakonState(0.0, 0.0, 0.0, 1.0), 1.0) == 0.0

    def test_far_separated_peaks_decouple(self):
        """Cross terms die off: norm^2 -> 2 p1^2 + 2 p2^2 at separation 40."""
        state = PeakonState(1.0, 0.7, 0.0, 40.0)
        np.testing.assert_allclose(
            hs_norm(state, 1.0) ** 2, 2 * 1.0 + 2 * 0.49, rtol=1e-8
        )

    def test_matches_distance_to_zero_profile(self):
        state = PeakonState(1.2, -0.3, 0.0, 0.7)
        for s in (0.5, 1.0, 1.4):
            assert hs_norm(state, s) == hs_distance(state, ZERO, s)

    def test_homogeneity(self):
        """Scaling both momenta scales the norm linearly."""
        base = PeakonState(0.8, -0.5, 0.0, 0.6)
        scaled = PeakonState(2.4, -1.5, 0.0, 0.6)
        np.testing.assert_allclose(
            hs_norm(scaled, 1.2), 3.0 * hs_norm(base, 1.2), atol=1e-8
        )

    def test_triangle_inequality(self):
        """||u - C|| <= ||u|| + ||C|| on random configurations."""
        for _ in range(20):
            p1, p2, pc = RNG.uniform(-2, 2, 3)
            q1 = RNG.uniform(-1, 1)
            state = PeakonState(p1, p2, q1, q1 + RNG.uniform(0, 2))
            coll = CollisionFunction(pc, RNG.uniform(-1, 1))
            single = PeakonState(coll.p_star, 0.0, coll.q_star, coll.q_star + 50.0)
            for s in (0.5, 1.0, 1.4):
                lhs = hs_distance(state, coll, s)
                assert lhs <= hs_norm(state, s) + hs_norm(single, s) + 1e-8


class TestDistance:
    def test_zero_when_profiles_coincide(self):
        state = PeakonState(0.7, 0.0, -0.3, 5.0)
        coll = CollisionFunction(p_star=0.7, q_star=-0.3)
        for s in (0.5, 1.0, 1.4):
            assert hs_distance(state, coll, s) <= 1e-9

    def test_translation_invariance(self):
        state = PeakonState(1.5, -1.0, 0.0, 0.1)
        coll = CollisionFunction(0.5, -0.05)
        for delta in (-3.7, 0.9, 12.0):
            shifted = PeakonState(1.5, -1.0, delta, 0.1 + delta)
            coll_shift = CollisionFunction(0.5, -0.05 + delta)
            for s in (0.5, 1.0, 1.4):
                np.testing.assert_allclose(
                    hs_distance(shifted, coll_shift, s),
                    hs_distance(state, coll, s),
                    rtol=1e-9,
                    atol=1e-10,
                )

    def test_supercritical_index_rejected(self):
        state = PeakonState(1.0, 0.5, 0.0, 1.0)
        for s in (1.5, 1.6, 2.0):
            with pytest.raises(ValueError, match="divergence_probe"):
                hs_distance(state, ZERO, s)

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
                    hs_distance(state, coll, s),
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
                    hs_distance(state, coll, s) ** 2,
                    bessel_distance(state, coll, s) ** 2,
                    rtol=1e-6,
                    atol=5e-10,
                )


#: separations from the near-collision regime to where K_nu is negligible
OMEGAS = (1e-15, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9, 0.999999,
          1.0, 1.000001, 1.5, 2.0, 5.0, 10.0, 20.0, 40.0)
ORACLE_INDICES = (0.0, 0.5, 0.7, 1.0, 1.2, 1.4, 1.45, 1.49)


class TestPairIntegral:
    @pytest.mark.parametrize("s", ORACLE_INDICES + (0.5 - 1e-6, 0.5 + 1e-6, -0.5, -2.3))
    def test_against_mpmath(self, s):
        """G(omega) to 1e-13 relative against besselk at 40 digits, on both
        sides of the series / K_nu switch at omega = 1."""
        values = pair_integral(np.array(OMEGAS), s)
        for omega, value in zip(OMEGAS, values):
            ref = pair_integral_mp(omega, s)
            assert abs(value - ref) <= 1e-13 * ref, (omega, value, ref)

    def test_scalar_and_array_agree(self):
        for s in (0.5, 1.4):
            values = pair_integral(np.array(OMEGAS), s)
            assert [pair_integral(w, s) for w in OMEGAS] == values.tolist()

    def test_even_and_zero_at_origin(self):
        assert pair_integral(0.0, 1.0) == 0.0
        assert pair_integral(-0.3, 1.2) == pair_integral(0.3, 1.2)

    def test_half_index_elementary_form(self):
        """s = 1 (nu = 1/2): G = pi (1 - e^{-omega}) exactly."""
        w = np.array(OMEGAS)
        np.testing.assert_allclose(pair_integral(w, 1.0), -math.pi * np.expm1(-w),
                                   rtol=1e-14)

    def test_continuity_through_integer_order(self):
        """nu = 1 (s = 1/2) takes the logarithmic series of DLMF 10.31.1.
        Moving s by h = 1e-6 either way changes G at first order in h by
        up to h |ln omega^2|, so the test compares the midpoint of the two
        neighbours with the value at s = 1/2: it agrees to 1e-9, as the
        O(h^2 ln^3 omega) second-order term allows, whereas a branch whose
        limit were off would show the full jump."""
        w = np.array(OMEGAS)
        h = 1e-6
        mid = 0.5 * (pair_integral(w, 0.5 - h) + pair_integral(w, 0.5 + h))
        np.testing.assert_allclose(mid, pair_integral(w, 0.5), rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("t", (0.0, -0.0))
    def test_integer_order_slope_is_psi(self, t):
        """At t = 0 (nu an integer) the log-gamma slope is psi(a) as it
        stands; the Taylor series, whose terms are all +-0 there, gives the
        same bits."""
        from scipy.special import psi, zeta

        a = np.arange(1.0, 2.0 * _SERIES_TERMS + 2.0)
        j = np.arange(2, _SLOPE_TERMS + 2, dtype=float)[:, None]
        taylor = psi(a) - np.sum(zeta(j, a) * (-t) ** (j - 1) / j, axis=0)
        assert _lgamma_slope(a, t).tobytes() == taylor.tobytes()

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
            assert abs(pair_integral(omega, s) - ref) <= rtol * ref + atol, omega

    @pytest.mark.parametrize("s", (-0.5, 0.5, 1.0, 1.4, 1.45))
    def test_weight_integral_against_quadrature(self, s):
        """||c e^{-|x|}||^2 = (4/pi) c^2 I0 with I0 the plain weight integral."""
        i0, _ = weight_integral_quad(s)
        state = PeakonState(0.8, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(hs_norm(state, s) ** 2, 4.0 / math.pi * 0.64 * i0,
                                   rtol=1e-12)

    def test_index_range_rejected(self):
        for s in (1.5, 2.0):
            with pytest.raises(ValueError, match="divergence_probe"):
                pair_integral(0.1, s)
        with pytest.raises(ValueError, match="overflows"):
            pair_integral(0.1, -200.0)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    def test_non_finite_index_rejected(self, s):
        """A NaN index passed both range checks and failed deep in the
        series with "cannot convert float NaN to integer"."""
        state = np.array([[1.5, -1.0, 0.0, 0.1]])
        for call in (lambda: pair_integral(0.1, s),
                     lambda: hs_distances(state, CollisionFunction(0.5, 0.0), s)):
            with pytest.raises(ValueError, match="is not a finite Sobolev index"):
                call()


class TestBatchedDistances:
    def test_batched_equals_scalar_bit_for_bit(self):
        """One call over many states gives each state's scalar distance
        exactly, on both sides of the series switch."""
        n = 60
        q1 = RNG.uniform(-1.0, 1.0, n)
        gaps = 10.0 ** RNG.uniform(-16.0, 0.7, n)
        states = np.column_stack([RNG.uniform(-3, 3, n), RNG.uniform(-3, 3, n), q1, q1 + gaps])
        coll = CollisionFunction(0.7, 0.2)
        for s in (0.5, 1.0, 1.4):
            batch = hs_distances(states, coll, s)
            scalar = [hs_distance(PeakonState(*row), coll, s) for row in states]
            assert batch.tolist() == scalar

    def test_single_row_and_empty_batch(self):
        state = PeakonState(1.2, -0.3, 0.0, 0.7)
        coll = CollisionFunction(0.9, 0.1)
        assert hs_distances(state.as_array(), coll, 1.0).shape == (1,)
        assert hs_distances(np.empty((0, 4)), coll, 1.0).shape == (0,)

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
#: far negative index, and one just below 3/2
MANY_INDICES = (0.5 + 1e-12, 0.5, 0.5 - 1e-12, -0.5, -3.0, 1.49)


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


class TestOnePassForEveryIndex:
    """``hs_distances`` over a sequence of indices shares the separations,
    masks, ln y and powers of y across them; each index's row must equal
    that index's own pass, as the package made it before, bit for bit."""

    @pytest.mark.parametrize("count", [1, 2, 3, 15, 1215])
    def test_pair_integrals_equal_per_index_passes(self, count):
        rng = np.random.default_rng(count)
        for omega in _separations(count, rng):
            rows = _pair_integrals(omega, MANY_INDICES)
            assert len(rows) == len(MANY_INDICES)
            for s, row in zip(MANY_INDICES, rows):
                want = pair_integral_per_index(omega, s)
                assert row.tobytes() == want.tobytes(), (count, s)
                assert pair_integral(omega, s).tobytes() == want.tobytes(), (count, s)

    @pytest.mark.parametrize("n", [1, 5, 405])  # 3, 15 and 1,215 separations
    def test_distance_rows_equal_per_index_and_scalar_calls(self, n):
        rng = np.random.default_rng(n)
        q1 = rng.uniform(-1.0, 1.0, n)
        gaps = 10.0 ** rng.uniform(-16.0, 0.7, n)
        states = np.column_stack([rng.uniform(-3, 3, n), rng.uniform(-3, 3, n), q1, q1 + gaps])
        coll = CollisionFunction(0.7, 2.2)
        omega = np.abs(np.concatenate([gaps, 2.2 - q1, 2.2 - q1 - gaps]))
        assert (omega < 1.0).any() and (omega > 1.0).any()
        rows = hs_distances(states, coll, MANY_INDICES)
        assert rows.shape == (len(MANY_INDICES), n)
        for s, row in zip(MANY_INDICES, rows):
            want = hs_distances_per_index(states, coll, s)
            assert row.tobytes() == want.tobytes(), s
            assert hs_distances(states, coll, s).tobytes() == want.tobytes(), s
            scalar = [hs_distance(PeakonState(*state), coll, s) for state in states]
            assert row.tolist() == scalar, s

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
        with pytest.raises(ValueError, match="hs_distance"):
            divergence_probe(self.STATE, self.COLL, 1.4, 1e3)

    def test_subcritical_truncations_cauchy(self):
        """Just below critical (s = 1.49) the truncation sequence is Cauchy:
        increments between consecutive cutoffs are positive and shrink,
        approaching the convergent full quadrature from below."""
        from peakonlab.sobolev import _quad_checked

        def truncated(cutoff):
            amps = (self.STATE.p1, self.STATE.p2, -self.COLL.p_star)
            pos = (self.STATE.q1, self.STATE.q2, self.COLL.q_star)
            wt = lambda xi: (1 + xi * xi) ** (1.49 - 2.0)
            i0, _ = _quad_checked(wt, 0, cutoff, epsabs=1e-12, epsrel=1e-12, limit=500)
            total = sum(amps) ** 2 * i0
            for j in range(3):
                for k in range(j + 1, 3):
                    om = abs(pos[j] - pos[k])
                    if om == 0 or amps[j] == 0 or amps[k] == 0:
                        continue
                    ic, _ = _quad_checked(
                        wt, 0, cutoff, weight="cos", wvar=om, epsabs=1e-12, limit=500
                    )
                    total -= amps[j] * amps[k] * 2 * (i0 - ic)
            return 4 / math.pi * total

        vals = [truncated(c) for c in (1e2, 1e3, 1e4, 1e5)]
        increments = [b - a for a, b in zip(vals, vals[1:])]
        assert all(inc > 0 for inc in increments)
        assert increments[0] > increments[1] > increments[2]
        full = hs_distance(self.STATE, self.COLL, 1.49) ** 2
        assert vals[-1] < full
