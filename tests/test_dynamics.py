"""Field evaluations and the full/reduced change of variables.

The fields in coefficient form are checked bit for bit against the
two-branch fields they replaced (``field_oracle``), on floats and on arrays.

The reduced system is cross-checked against the full one through the
product-rule image of the change of variables: q' = q2' - q1',
h' = p2' - p1', w' = p1' + p2', z' = p1' p2 + p1 p2'.  That mapping is
the independent oracle; the two right-hand sides must agree to roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peakonlab import ABParams, PeakonState, ReducedState, to_reduced
from peakonlab.dynamics import (_exp, _full_coefficients, _full_rhs, _reduced_coefficients,
                                _reduced_rhs, full_rhs_array, reduced_rhs_array)

import field_oracle

RNG = np.random.default_rng(0)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


class TestFullRhs:
    def test_single_peakon_degeneracy(self):
        """With p2 = 0 the surviving peak moves at (1-a) p1^2, momenta frozen."""
        for a, b in [(1 / 3, 3.0), (0.7, 0.0), (-1.0, 5.0)]:
            dp1, dp2, dq1, _ = full_rhs_array(np.array([1.0, 0.0, 0.0, 5.0]), a, b)
            assert dq1 == pytest.approx(1 - a, rel=1e-15)
            assert dp1 == 0.0 and dp2 == 0.0

    def test_hand_value_forq_b2(self):
        # a = 1/3, b = 2, p1 = p2 = 1, separation ln 2:
        # q1' = 2/3 + 2*(1/2) + 0 = 5/3, momenta frozen by the (2-b) factor
        dp1, dp2, dq1, dq2 = full_rhs_array(np.array([1.0, 1.0, 0.0, math.log(2.0)]), 1 / 3, 2.0)
        assert dq1 == pytest.approx(5 / 3, rel=1e-14)
        assert dq2 == pytest.approx(5 / 3, rel=1e-14)
        assert dp1 == 0.0 and dp2 == 0.0

    def test_b2_freezes_momenta_everywhere(self):
        for _ in range(50):
            y = RNG.uniform(-2, 2, size=4)
            d = full_rhs_array(y, a=RNG.uniform(-2, 2), b=2.0)
            assert d[0] == 0.0 and d[1] == 0.0

    @given(
        p1=finite_floats, p2=finite_floats,
        q1=st.floats(min_value=-3, max_value=3),
        dq=st.floats(min_value=0.01, max_value=4),
        shift=st.floats(min_value=-10, max_value=10),
    )
    def test_translation_equivariance(self, p1, p2, q1, dq, shift):
        """Shifting both positions leaves every derivative unchanged."""
        params = ABParams(0.6, 3.3)
        d0 = full_rhs_array(np.array([p1, p2, q1, q1 + dq]), params.a, params.b)
        d1 = full_rhs_array(np.array([p1, p2, q1 + shift, q1 + dq + shift]), params.a, params.b)
        np.testing.assert_allclose(d1, d0, rtol=1e-9, atol=1e-9)


    @given(p1=finite_floats, p2=finite_floats, q1=finite_floats,
           dq=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
           a=finite_floats, b=finite_floats)
    def test_oriented_field_on_its_side(self, p1, p2, q1, dq, a, b):
        """On the side sigma (q2 - q1) > 0 the oriented field is the two-sided
        one bit for bit; at q1 = q2 only the sgn(0) = 0 convention differs."""
        y = np.array([p1, p2, q1, q1 + dq])
        two_sided = full_rhs_array(y, a, b)
        if y[3] == y[2]:
            oriented = full_rhs_array(y, a, b, 1.0)
            assert np.array_equal(oriented[2:], two_sided[2:])
            assert np.array_equal(two_sided[:2], [0.0, 0.0])
        else:
            sigma = 1.0 if y[3] > y[2] else -1.0
            assert np.array_equal(full_rhs_array(y, a, b, sigma), two_sided)

    def test_oriented_field_continues_smoothly_past_coincidence(self):
        """Just past q1 = q2 the oriented field is the continuation of the
        near side (within 1e-6 of its limit); the two-sided one jumps."""
        a, b = 1 / 3, 3.0
        before = np.array([1.5, -1.0, 0.0, 1e-9])
        after = np.array([1.5, -1.0, 0.0, -1e-9])
        oriented = full_rhs_array(after, a, b, 1.0)
        np.testing.assert_allclose(oriented, full_rhs_array(before, a, b), atol=1e-6)
        assert np.max(np.abs(full_rhs_array(after, a, b) - oriented)) > 1.0

    def test_oriented_overflow_is_not_an_exception(self):
        """A trial stage far past the collision overflows e^{-d} to inf; the
        field reports it as non-finite values for the step controller."""
        d = full_rhs_array(np.array([1.0, -1.0, 0.0, -800.0]), 1 / 3, 3.0, 1.0)
        assert not np.all(np.isfinite(d))


class TestReducedRhs:
    def test_b2_freezes_h_w_z(self):
        _, dh, dw, dz = reduced_rhs_array(np.array([0.1, -2.5, 0.5, -1.5]), 1 / 3, 2.0)
        assert (dh, dw, dz) == (0.0, 0.0, 0.0)

    def test_far_apart_decoupling(self):
        dq, dh, dw, dz = reduced_rhs_array(np.array([80.0, 1.0, 3.0, 2.0]), 0.25, 3.0)
        assert dq == pytest.approx(1.0 * 3.0 * (1 - 0.25), rel=1e-12)
        assert abs(dh) < 1e-30 and abs(dw) < 1e-30 and abs(dz) < 1e-30

    def test_consistency_with_full_system(self):
        """1000 random states: reduced field equals the product-rule image
        of the full field under (q, h, w, z) = (q2-q1, p2-p1, p1+p2, p1 p2)."""
        a, b = 0.7, 3.3
        worst = 0.0
        for _ in range(1000):
            p1, p2 = RNG.uniform(-2, 2, 2)
            q1 = RNG.uniform(-3, 3)
            q = RNG.uniform(0.01, 5)
            dp1, dp2, dq1, dq2 = full_rhs_array(np.array([p1, p2, q1, q1 + q]), a, b)
            image = np.array([dq2 - dq1, dp2 - dp1, dp1 + dp2, dp1 * p2 + p1 * dp2])
            red = reduced_rhs_array(np.array([q, p2 - p1, p1 + p2, p1 * p2]), a, b)
            worst = max(worst, float(np.max(np.abs(red - image))))
        assert worst <= 1e-12

    def test_conserves_momentum_identity(self):
        """d/dt (h^2 + 4z - w^2) = 0 follows from the right-hand sides."""
        for _ in range(200):
            q = RNG.uniform(0.01, 5)
            h, w = RNG.uniform(-2, 2, 2)
            z = (w * w - h * h) / 4.0
            dq, dh, dw, dz = reduced_rhs_array(
                np.array([q, h, w, z]), RNG.uniform(-2, 2), RNG.uniform(-1, 5)
            )
            assert abs(2 * h * dh + 4 * dz - 2 * w * dw) < 1e-13


class TestChangeOfVariables:
    """The inverse map, given q1, is p1 = (w-h)/2, p2 = (h+w)/2, q2 = q1 + q."""

    def test_hand_example(self):
        red = to_reduced(PeakonState(1.5, -1.0, 0.0, 0.1))
        assert (red.q, red.h, red.w, red.z) == (0.1, -2.5, 0.5, -1.5)

    def test_coincident_symmetric_peaks(self):
        red = to_reduced(PeakonState(0.7, 0.7, 1.3, 1.3))
        assert (red.q, red.h) == (0.0, 0.0)
        assert red.w == pytest.approx(1.4)
        assert red.z == pytest.approx(0.49)

    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            to_reduced(PeakonState(1.0, 1.0, 0.5, 0.0))

    def test_inverse_hand_examples(self):
        red, q1 = ReducedState(0.1, -2.5, 0.5, -1.5), 0.0
        assert ((red.w - red.h) / 2, (red.h + red.w) / 2, q1, q1 + red.q) == (1.5, -1.0, 0.0, 0.1)
        red = ReducedState(1.0, 2.0, 0.0, -1.0)
        assert ((red.w - red.h) / 2, (red.h + red.w) / 2, q1 + red.q) == (-1.0, 1.0, 1.0)

    def test_equal_momenta_from_zero_difference(self):
        red = ReducedState(0.3, 0.0, 1.6, 0.64)
        assert (red.w - red.h) / 2 == (red.h + red.w) / 2 == pytest.approx(0.8)

    @given(
        p1=finite_floats, p2=finite_floats,
        q1=st.floats(min_value=-3, max_value=3),
        dq=st.floats(min_value=0.0, max_value=4),
    )
    def test_round_trip(self, p1, p2, q1, dq):
        state = PeakonState(p1, p2, q1, q1 + dq)
        red = to_reduced(state)
        back = [(red.w - red.h) / 2, (red.h + red.w) / 2, state.q1, state.q1 + red.q]
        np.testing.assert_allclose(back, state.as_array(), rtol=1e-12, atol=1e-12)

    def test_diagnostics_identity(self):
        """p2^2 - p1^2 factors as h*w, and p1*p2 is z."""
        for _ in range(100):
            p1, p2, q1 = RNG.uniform(-2, 2, 3)
            red = to_reduced(PeakonState(p1, p2, q1, q1 + 1.0))
            np.testing.assert_allclose(p2**2 - p1**2, red.h * red.w, rtol=1e-12, atol=1e-14)
            assert p1 * p2 == pytest.approx(red.z)

    def test_state_requires_finite_fields(self):
        with pytest.raises(ValueError):
            PeakonState(math.nan, 0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# the fields in coefficient form against the two-branch fields they replaced


def _same_bits(got, want) -> bool:
    """Equal values, NaN in the same places and zeros of the same sign, on
    floats or arrays (a NaN's own sign bit is not compared)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    return bool(np.array_equal(got, want, equal_nan=True)
                and np.array_equal(np.signbit(got)[~nan], np.signbit(want)[~nan]))


def _edge_states():
    """(a, b, p1, p2, q1, q2) rows: seeded random states and a, b anywhere;
    coincident peaks (-0.0 against 0.0 too); a state far past the collision,
    where e^{-sigma (q2 - q1)} overflows to inf and inf * 0 is NaN; b = 2,
    a = 1/3 and zero momenta of both signs, where products are signed zeros."""
    rng = np.random.default_rng(15)
    rows = [list(row) for row in np.column_stack([
        rng.uniform(-2, 2, 200), rng.uniform(-1, 5, 200), rng.uniform(-3, 3, (200, 2)),
        rng.uniform(-2, 2, (200, 2))])]
    for a, b in [(1 / 3, 3.0), (-1.0, 2.0), (1 / 3, 2.0), (0.7, -0.5)]:
        rows += [
            [a, b, 1.5, -1.0, 0.3, 0.3], [a, b, -0.0, 1.0, -0.0, 0.0],
            [a, b, 1.0, -1.0, 0.0, -800.0], [a, b, 0.0, -1.0, 800.0, 0.0],
            [a, b, 0.0, 0.0, 0.0, -800.0], [a, b, 1.5, -0.0, 0.0, 0.1],
            [a, b, -0.0, 2.0, 0.2, 0.1], [a, b, 1e200, -1e200, 0.0, 0.5],
        ]
    return np.array(rows)


class TestFieldsAgainstTheOracle:
    """``_full_rhs`` and ``_reduced_rhs`` take their coefficients precomputed;
    every component has the bits of ``field_oracle``'s two-branch form."""

    ROWS = _edge_states()

    @pytest.mark.parametrize("sigma", [1.0, -1.0])
    def test_oriented_full_field(self, sigma):
        a, b, p1, p2, q1, q2 = self.ROWS.T
        with np.errstate(all="ignore"):
            lanes = _full_rhs(*_full_coefficients(a, b, np.full(a.size, sigma)), p1, p2, q1, q2)
            for row, *got in zip(self.ROWS.tolist(), *lanes):
                want = field_oracle.full_rhs(row[0], row[1], sigma, *row[2:])
                assert _same_bits(got, want), row
                assert _same_bits(_full_rhs(*_full_coefficients(row[0], row[1], sigma),
                                            *row[2:]), want), row
                assert _same_bits(full_rhs_array(np.array(row[2:]), row[0], row[1], sigma),
                                  want), row

    def test_two_sided_full_field(self):
        """sigma = sgn(q2 - q1), and 0 where the peaks coincide."""
        a, b, p1, p2, q1, q2 = self.ROWS.T
        assert (q1 == q2).sum() >= 8
        with np.errstate(all="ignore"):
            lanes = _full_rhs(*_full_coefficients(a, b, np.sign(q2 - q1)), p1, p2, q1, q2)
            for row, *got in zip(self.ROWS.tolist(), *lanes):
                want = field_oracle.full_rhs(row[0], row[1], None, *row[2:])
                assert _same_bits(got, want), row
                assert _same_bits(full_rhs_array(np.array(row[2:]), row[0], row[1]), want), row

    def test_reduced_field(self):
        a, b, p1, p2, q1, q2 = self.ROWS.T
        with np.errstate(all="ignore"):
            y = [q2 - q1, p2 - p1, p1 + p2, p1 * p2, q1]
            lanes = _reduced_rhs(*_reduced_coefficients(a, b), *y)
            for j, (row, *got) in enumerate(zip(self.ROWS.tolist(), *lanes)):
                state = [float(v[j]) for v in y]
                want = field_oracle.reduced_rhs(row[0], row[1], *state)
                assert _same_bits(got, want), row
                assert _same_bits(_reduced_rhs(*_reduced_coefficients(row[0], row[1]), *state),
                                  want), row
                assert _same_bits(reduced_rhs_array(np.array(state[:4]), row[0], row[1]),
                                  field_oracle.reduced_rhs(row[0], row[1], *state[:4])[:4]), row

    def test_the_edges_produce_nan_inf_and_signed_zeros(self):
        """The edge rows reach what the comparison must see."""
        with np.errstate(all="ignore"):
            values = np.array([field_oracle.full_rhs(row[0], row[1], 1.0, *row[2:])
                               for row in self.ROWS.tolist()])
        assert np.isnan(values).any() and np.isinf(values).any()
        assert (np.signbit(values) & (values == 0.0)).any()


def test_exp_on_an_array_has_the_bits_of_math_exp():
    """``_exp`` of an array equals ``_exp`` element by element, bit for bit:
    over [-750, 712], in (709, 709.8] where the C library's complex exp
    rescales and the array path falls back to ``math.exp``, near -740 where
    the results are subnormal, and at +-0, +-inf and NaN.  The sweep grids
    never reach the fallback, so this is its only check; and if numpy ever
    computes its complex exp itself, this is where it shows."""
    rng = np.random.default_rng(16)
    x = np.concatenate([rng.uniform(-750.0, 712.0, 200_000), rng.uniform(709.0, 709.8, 100_000),
                        rng.uniform(-745.2, -735.0, 20_000),
                        [0.0, -0.0, math.inf, -math.inf, math.nan, 709.0, 709.0 + 1e-13,
                         709.782712893384, 709.7827128933841]])
    with np.errstate(all="ignore"):
        got = _exp(x)
    want = np.array([_exp(v) for v in x.tolist()])
    assert (want == 0.0).any() and np.isinf(want).any()
    assert ((want > 0.0) & (want < np.finfo(float).tiny)).sum() > 1000
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
