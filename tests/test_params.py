"""Parameter classification, separation design and initial profiles.

Frozen constants below were produced by hand evaluation of the defining
formulas (mu = -ln(((c+1)a-1)/(3a-1))/2 and L_a) and are cross-checked
in-test against the L_a(mu) = c*a design equation they must satisfy.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from peakonlab import (
    ABParams,
    CaseID,
    case_epsilon,
    case_spec_for,
    classify,
    collision_time_bound,
    l_a,
    make_initial_profile,
)
from peakonlab.params import DEFAULT_SMALL_MU, CaseSpec

MU_A1_C15 = 0.14384103622589045  # -0.5*ln(1.5/2)
MU_AM1_C15 = 0.06676569631226131  # -0.5*ln(0.875)


class TestClassify:
    @pytest.mark.parametrize(
        "a,b,case",
        [
            (1 / 3, 3.0, CaseID.CASE1),
            (1 / 3, 1.0, CaseID.CASE2),
            (-1.0, 3.0, CaseID.CASE3),
            (-1.0, 0.0, CaseID.CASE4),
            (2.0, 10.0, CaseID.CASE1),
            (-0.5, 1.99, CaseID.CASE4),
        ],
    )
    def test_quadrants(self, a, b, case):
        assert classify(ABParams(a, b)) is case

    def test_b2_rejected(self):
        with pytest.raises(ValueError, match="b = 2: momenta are frozen and no case profile"):
            classify(ABParams(1 / 3, 2.0))

    def test_a_zero_rejected(self):
        with pytest.raises(ValueError):
            classify(ABParams(0.0, 3.0))


class TestSeparationFactor:
    def test_limit_at_zero_separation(self):
        """L_a(0) = 2a."""
        for a in (0.5, 1 / 3, -1.0, 2.0):
            np.testing.assert_allclose(l_a(a, 0.0), 2 * a, rtol=1e-15)
        assert l_a(0.5, 0.0) == pytest.approx(1.0)

    def test_forq_value_is_constant(self):
        """At a = 1/3 the factor collapses to 2/3 for every separation."""
        for q in (0.0, 0.1, 1.0, 37.0):
            np.testing.assert_allclose(l_a(1 / 3, q), 2 / 3, rtol=1e-15)

    def test_hand_value(self):
        # a = 1, q = ln 2: 1 - 1/4 + 3/4 - 1 = 0.5
        np.testing.assert_allclose(l_a(1.0, math.log(2.0)), 0.5, rtol=1e-14)

    def test_far_separation_limit(self):
        np.testing.assert_allclose(l_a(0.7, 50.0), 1 - 0.7, rtol=1e-12)

    @pytest.mark.parametrize("a", [1 / 3, -1 / 3, 1.0, -1.0, 0.5, -0.5, 2.0, -2.0, 0.2])
    def test_sign_definite_on_design_interval(self, a):
        """L_a carries the sign of a on [0, mu] for the designed separation."""
        mu = case_spec_for(ABParams(a, 3.0)).mu
        qs = np.linspace(0.0, mu, 200)
        vals = l_a(a, qs)
        assert np.all(vals != 0.0)
        assert np.all(np.sign(vals) == np.sign(a))


class TestComputeMu:
    def test_frozen_values(self):
        for a, want in ((1.0, MU_A1_C15), (-1.0, MU_AM1_C15)):
            mu = case_spec_for(ABParams(a, 3.0), c=1.5).mu
            np.testing.assert_allclose(mu, want, rtol=1e-15)

    def test_design_equation(self):
        """The designed mu inverts L_a: L_a(mu) = c*a to roundoff."""
        for a, c in [(1.0, 1.5), (-1.0, 1.5), (-1 / 3, 1.2), (2.0, 1.9), (0.45, 1.5)]:
            mu = case_spec_for(ABParams(a, 3.0), c=c).mu
            assert 0 < mu < 1
            np.testing.assert_allclose(l_a(a, mu), c * a, rtol=1e-12)

    def test_c_near_two_gives_vanishing_mu(self):
        assert case_spec_for(ABParams(1.0, 3.0), c=1.999999).mu < 1e-5

    def test_inadmissible_c_raises(self):
        with pytest.raises(ValueError, match="inadmissible"):
            case_spec_for(ABParams(0.2, 3.0), c=1.5)  # 0 < a < 1/3 has no admissible c
        with pytest.raises(ValueError, match="inadmissible"):
            case_spec_for(ABParams(0.35, 3.0), c=1.5)  # needs c > 1/a - 1 ~ 1.857
        for c in (1.0, 2.0, 2.5, math.nan):
            with pytest.raises(ValueError, match=r"c must lie in \(1, 2\)"):
                case_spec_for(ABParams(1.0, 3.0), c=c)

    def test_a_third_and_zero_take_no_design(self):
        """a = 0 has no construction; a = 1/3 takes the small separation
        and ignores a given c."""
        with pytest.raises(ValueError, match="a = 0"):
            case_spec_for(ABParams(0.0, 3.0), c=1.5)
        spec = case_spec_for(ABParams(1 / 3, 3.0), c=1.5)
        assert (spec.mu, spec.c) == (0.1, None)

    @given(
        a=st.floats(min_value=-3.0, max_value=-0.05),
        c=st.floats(min_value=1.01, max_value=1.99),
    )
    def test_negative_a_always_admissible(self, a, c):
        mu = case_spec_for(ABParams(a, 3.0), c=c).mu
        assert 0 < mu < 1
        np.testing.assert_allclose(l_a(a, mu), c * a, rtol=1e-11, atol=1e-14)


class TestCaseSpecPolicy:
    def test_scan_finds_c_above_third(self):
        # a = 0.35 needs c > 1/0.35 - 1; the 0.05 scan must land on one
        spec = case_spec_for(ABParams(0.35, 3.0))
        assert spec.c is not None and 1 / 0.35 - 1 < spec.c < 2
        assert 0 < spec.mu <= 1

    def test_scan_fails_below_third(self):
        for b in (3.0, 1.0):
            spec = case_spec_for(ABParams(0.2, b))
            assert (spec.mu, spec.c) == (0.1, None)

    def test_small_a_falls_back_to_fixed_separation(self):
        spec = case_spec_for(ABParams(0.2, 3.0))
        assert spec.mu == pytest.approx(0.1)
        assert spec.c is None

    def test_scan_fails_just_above_third(self):
        """a = 0.335 needs c > 1/0.335 - 1 = 1.985, past the scan's last 1.95:
        the small fixed separation, which cases 1-2 can use."""
        spec = case_spec_for(ABParams(0.335, 3.0))
        assert (spec.mu, spec.c) == (0.1, None)

    def test_scanned_c_designing_mu_above_one_takes_small_separation(self):
        """a = 0.395: the first admissible scanned c, 1.55, designs
        mu = 1.6197 > 1, which ``CaseSpec`` refuses; cases 1-2 take the small
        fixed separation instead.  A given c or mu is never replaced."""
        for b in (3.0, 1.0):
            spec = case_spec_for(ABParams(0.395, b))
            assert (spec.mu, spec.c) == (DEFAULT_SMALL_MU, None)
        for override in ({"c": 1.55}, {"mu": 1.5}):
            with pytest.raises(ValueError, match=r"mu must lie in \(0, 1\]"):
                case_spec_for(ABParams(0.395, 3.0), **override)

    def test_small_separation_keeps_the_rate_bound_above_third(self):
        """For a > 1/3, L_a falls from 2a, and L_a(q) >= a where
        e^{-2q} >= (2a - 1)/(3a - 1), a ratio below 2/3: so L_a >= a on
        [0, DEFAULT_SMALL_MU], and epsilon = a(2 alpha delta + delta^2) bounds
        the collision rate there."""
        a = np.concatenate([np.geomspace(np.nextafter(1 / 3, 1.0), 1e6, 20001),
                            np.linspace(1 / 3, 3.0, 20001)[1:]])
        assert np.all(l_a(a, DEFAULT_SMALL_MU) >= a)
        assert np.all(l_a(a, 0.5 * math.log(1.5)) >= a)

    @pytest.mark.parametrize("a", [-1e308, -6.5e307, -1e-300])
    def test_negative_a_whose_design_fails_in_floats_raises(self, a):
        """Every c in (1, 2) is admissible for a < 0 in exact arithmetic, but
        the log argument overflows (large |a|) or rounds to 1 (tiny |a|).
        That is named, not answered with the small separation, which leaves
        cases 3-4 without the c their epsilon needs."""
        for b in (3.0, 0.0):
            with pytest.raises(ValueError, match=r"overflows or rounds out of \(0, 1\)"):
                case_spec_for(ABParams(a, b))

    def test_forq_branch_uses_default_mu(self):
        spec = case_spec_for(ABParams(1 / 3, 3.0))
        assert spec.mu == pytest.approx(0.1)
        assert spec.c is None

    def test_designed_mu_satisfies_invariant(self):
        spec = case_spec_for(ABParams(-1.0, 3.0))
        np.testing.assert_allclose(l_a(-1.0, spec.mu), spec.c * -1.0, rtol=1e-12)

    def test_explicit_mu_validated_for_negative_a(self):
        with pytest.raises(ValueError):
            case_spec_for(ABParams(-1.0, 3.0), mu=0.9)  # L_a(0.9)/a outside (1,2)

    def test_explicit_mu_validated_above_third(self):
        # for a > 1/3 a large separation breaks the L_a >= a rate bound
        with pytest.raises(ValueError):
            case_spec_for(ABParams(1.0, 3.0), mu=0.9)
        # small-a branch accepts any separation (L_a >= 2a regardless)
        spec = case_spec_for(ABParams(0.2, 3.0), mu=0.3)
        assert spec.mu == 0.3 and spec.c is None

    def test_b2_rejected(self):
        with pytest.raises(ValueError):
            case_spec_for(ABParams(1 / 3, 2.0))

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            CaseSpec(CaseID.CASE1, alpha=-1.0)
        with pytest.raises(ValueError):
            CaseSpec(CaseID.CASE1, mu=1.5)
        with pytest.raises(ValueError):
            CaseSpec(CaseID.CASE1, c=2.5)


class TestInitialProfiles:
    def test_case1_values(self):
        spec = CaseSpec(CaseID.CASE1, alpha=1.0, delta=0.5, mu=0.1)
        st_ = make_initial_profile(spec)
        assert (st_.p1, st_.q1, st_.p2, st_.q2) == (1.5, 0.0, -1.0, 0.1)

    def test_case3_values(self):
        spec = CaseSpec(CaseID.CASE3, alpha=1.0, delta=0.5, mu=0.1)
        st_ = make_initial_profile(spec)
        assert (st_.p1, st_.p2) == (1.0, 1.5)

    @pytest.mark.parametrize("case", list(CaseID)[:4])
    def test_momentum_square_gap(self, case):
        """p2^2 - p1^2 starts at -(2ad+d^2) for cases 1-2, +(2ad+d^2) for 3-4."""
        alpha, delta = 1.0, 0.5  # dyadic, so the identity is exact in floats
        st_ = make_initial_profile(CaseSpec(case, alpha, delta, mu=0.1))
        gap = 2 * alpha * delta + delta**2
        expected = -gap if case in (CaseID.CASE1, CaseID.CASE2) else gap
        assert st_.p2**2 - st_.p1**2 == expected

    @pytest.mark.parametrize("case", list(CaseID)[:4])
    def test_momentum_product_sign(self, case):
        st_ = make_initial_profile(CaseSpec(case, 1.0, 0.5, mu=0.1))
        prod = st_.p1 * st_.p2
        if case in (CaseID.CASE1, CaseID.CASE4):
            assert prod < 0
        else:
            assert prod > 0


class TestEpsilon:
    def test_case1_rate(self):
        params = ABParams(1 / 3, 3.0)
        spec = case_spec_for(params)
        np.testing.assert_allclose(case_epsilon(spec, params), (1 / 3) * 1.25, rtol=1e-15)
        np.testing.assert_allclose(
            collision_time_bound(spec, params), 0.1 / ((1 / 3) * 1.25), rtol=1e-15
        )

    def test_case3_rate_uses_design_constant(self):
        params = ABParams(-1.0, 3.0)
        spec = case_spec_for(params)
        np.testing.assert_allclose(case_epsilon(spec, params), 1.5 * 1.25, rtol=1e-15)

    @pytest.mark.parametrize("case", [CaseID.CASE3, CaseID.CASE4])
    def test_cases_3_4_without_design_constant_rejected(self, case):
        with pytest.raises(ValueError, match="cases 3-4 need the designed separation"):
            case_epsilon(CaseSpec(case, mu=0.1, c=None), ABParams(-1.0, 3.0))
