"""Special-function kernel tests.

The independent oracles here are: direct Kahan-compensated term summation
(no log space, no tail correction), scipy.special, mpmath, and exact
gamma-function identities.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special as sc

from ginicorr.errors import ConvergenceError, DomainError, SeriesCapError
from ginicorr.specfun import (
    SERIES_TERM_CAP,
    HypergeometricSpec,
    hyp_pfq,
    ln_beta,
    reg_inc_beta,
)

# frozen pre-build by direct 64-bit Kahan summation (6938 terms), confirmed
# against mpmath.hyper to 20 digits
FROZEN_3F2 = 1.2101893274335043


def direct_series(upper, lower, z, n_terms=2_000_000):
    """Brute-force oracle: ratio-recurrence summation with Kahan compensation."""
    s = c = 0.0
    t = 1.0
    for k in range(n_terms):
        y = t - c
        tt = s + y
        c = (tt - s) - y
        s = tt
        r = 1.0
        for a in upper:
            r *= a + k
        for b in lower:
            r /= b + k
        t *= r * z / (k + 1)
        if abs(t) < 1e-18 * abs(s) and k > 10:
            break
    return s


class TestLnBeta:
    def test_b11_is_zero(self):
        assert ln_beta(1.0, 1.0) == 0.0

    def test_integer_factorials(self):
        # B(2,3) = 1! 2! / 4! = 1/12
        assert ln_beta(2.0, 3.0) == pytest.approx(math.log(1.0 / 12.0), rel=1e-14)

    @pytest.mark.parametrize("a", [0.5, 2.0, 7.3])
    def test_b_a1_is_1_over_a(self, a):
        assert ln_beta(a, 1.0) == pytest.approx(-math.log(a), rel=1e-13)

    def test_large_arguments_relative_accuracy(self):
        # B(a, 1) = 1/a stays exact through the Stirling path
        for a in (1e3, 1e5, 1e6):
            assert ln_beta(a, 1.0) == pytest.approx(-math.log(a), rel=1e-12)
        # symmetric large case vs scipy's own large-argument handling
        assert ln_beta(1e6, 1e6) == pytest.approx(sc.betaln(1e6, 1e6), rel=1e-12)

    def test_symmetry_and_oracle_agreement(self):
        import mpmath
        mpmath.mp.dps = 40
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 5, 2)
            assert ln_beta(a, b) == ln_beta(b, a)
            ref = float(mpmath.log(mpmath.beta(a, b)))
            assert ln_beta(a, b) == pytest.approx(ref, rel=1e-12)
            # scipy cross-check at its own (looser) accuracy
            assert ln_beta(a, b) == pytest.approx(sc.betaln(a, b), rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            ln_beta(a, b)


class TestRegIncBeta:
    def test_endpoints(self):
        for a, b in ((2.0, 3.0), (0.4, 9.0)):
            assert reg_inc_beta(0.0, a, b) == 0.0
            assert reg_inc_beta(1.0, a, b) == 1.0

    def test_power_reduction_examples(self):
        assert reg_inc_beta(0.3, 2.0, 1.0) == pytest.approx(0.09, abs=1e-12)
        assert reg_inc_beta(0.7, 0.5, 1.0) == pytest.approx(math.sqrt(0.7), abs=1e-12)

    def test_symmetric_midpoint(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-13)

    def test_power_reduction_grid(self):
        # 20 x 20 grid of (t, a): I_t(a, 1) = t^a
        ts = np.linspace(0.0, 1.0, 20)
        for a in np.linspace(0.1, 8.0, 20):
            assert np.max(np.abs(reg_inc_beta(ts, a, 1.0) - ts ** a)) < 1e-10

    def test_reflection_identity_grid(self):
        ts = np.linspace(0.0, 1.0, 41)
        for a, b in ((2.0, 3.0), (0.3, 0.8), (5.0, 0.5), (4.0, 4.0)):
            lhs = reg_inc_beta(ts, a, b) + reg_inc_beta(1.0 - ts, b, a)
            assert np.max(np.abs(lhs - 1.0)) < 1e-10

    def test_monotone_in_t(self):
        ts = np.linspace(0.0, 1.0, 200)
        vals = reg_inc_beta(ts, 1.7, 0.4)
        assert np.all(np.diff(vals) >= 0.0)

    @given(t=st.floats(0.0, 1.0), a=st.floats(0.05, 50.0), b=st.floats(0.05, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy(self, t, a, b):
        assert reg_inc_beta(t, a, b) == pytest.approx(sc.betainc(a, b, t), abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(-0.1, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, 0.0, 2.0)


class TestHypPfq:
    @pytest.mark.parametrize("gamma,delta", [(1.0, 2.0), (2.0, 1.5), (0.5, 3.0)])
    def test_2f1_2_1_ratio(self, gamma, delta):
        # 2F1(2, 1; c; 1) = (c-1)/(c-3), c = (gamma+1) delta + 2
        c = (gamma + 1.0) * delta + 2.0
        got = hyp_pfq(HypergeometricSpec((2.0, 1.0), (c,), 1.0))
        assert got == pytest.approx((c - 1.0) / (c - 3.0), rel=1e-11)

    def test_frozen_3f2(self):
        got = hyp_pfq(HypergeometricSpec((1.5, 2.0, 1.0), (4.0, 5.0), 1.0))
        assert got == pytest.approx(FROZEN_3F2, rel=1e-12)

    def test_unit_vs_direct_series_fast_decay(self):
        # large-margin case where plain summation is itself accurate
        spec = HypergeometricSpec((1.2, 0.8), (9.0,), 1.0)
        assert hyp_pfq(spec) == pytest.approx(
            direct_series(spec.upper, spec.lower, 1.0), rel=1e-11)

    @given(a=st.floats(0.2, 4.0), b=st.floats(0.2, 4.0), h=st.floats(0.6, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_gauss_summation(self, a, b, h):
        c = a + b + h
        want = math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                        - math.lgamma(c - a) - math.lgamma(c - b))
        assert hyp_pfq(HypergeometricSpec((a, b), (c,), 1.0)) == pytest.approx(want, rel=1e-9)

    @given(a=st.floats(0.2, 4.0), b=st.floats(0.2, 4.0), h=st.floats(0.6, 6.0),
           shared=st.floats(0.5, 6.0))
    @settings(max_examples=60, deadline=None)
    def test_parameter_cancellation(self, a, b, h, shared):
        # (a, b, shared; c, shared) collapses to 2F1(a, b; c; 1), Gauss's sum
        c = a + b + h
        want = math.exp(math.lgamma(c) + math.lgamma(c - a - b)
                        - math.lgamma(c - a) - math.lgamma(c - b))
        got = hyp_pfq(HypergeometricSpec((a, b, shared), (c, shared), 1.0))
        assert got == pytest.approx(want, rel=1e-9)

    def test_parameter_cancellation_3f2(self):
        # a shared upper/lower pair reduces 3F2 to 2F1
        full = hyp_pfq(HypergeometricSpec((1.5, 2.0, 3.3), (3.3, 7.0), 1.0))
        reduced = hyp_pfq(HypergeometricSpec((1.5, 2.0), (7.0,), 1.0))
        assert full == pytest.approx(reduced, rel=1e-11)

    def test_divergent_margin_raises(self):
        with pytest.raises(ConvergenceError):
            hyp_pfq(HypergeometricSpec((2.0, 2.0), (3.5,), 1.0))  # h = -0.5

    def test_cap_error_carries_diagnostics(self):
        spec = HypergeometricSpec((2.0, 1.0), (4.5,), 1.0)
        with pytest.raises(SeriesCapError) as err:
            hyp_pfq(spec, term_cap=50)
        assert err.value.terms == 50
        assert 0.0 < err.value.partial_sum < 7.0 / 3.0
        assert err.value.last_term > 0.0

    def test_thomae_cap_error_names_representation(self):
        # h = 0.5; the pivot a = 1.5 < min(3, 2) makes the summed margin 1.5
        spec = HypergeometricSpec((1.5, 2.0, 1.0), (3.0, 2.0), 1.0)
        with pytest.raises(SeriesCapError) as err:
            hyp_pfq(spec, term_cap=50)
        assert "thomae representation (margin 1.5)" in str(err.value)
        assert err.value.terms == 50

    def test_largest_margin_representation(self):
        # direct margin 4.5 beats every legal pivot: summed as written
        big = hyp_pfq(HypergeometricSpec((1.5, 2.0, 1.0), (4.0, 5.0), 1.0))
        assert (big.representation, big.margin) == ("direct", 4.5)
        # h = 0.131: pivots 1 and 2 are legal, 3 is not (3 > 2.111)
        small = hyp_pfq(HypergeometricSpec((3.0, 2.0, 1.0), (4.02, 2.111), 1.0))
        assert (small.representation, small.margin) == ("thomae", 2.0)
        assert 0 < small.terms < SERIES_TERM_CAP // 100
        # 2F1 keeps its direct path whatever its margin
        unit_2f1 = hyp_pfq(HypergeometricSpec((0.5, 0.5), (1.5,), 1.0))
        assert unit_2f1.representation == "direct"

    @given(h=st.floats(0.01, 1.0), a=st.floats(0.5, 4.0), b=st.floats(0.5, 4.0),
           pivot=st.integers(0, 2), split=st.floats(0.05, 0.95),
           order=st.permutations(range(3)))
    @settings(max_examples=20, deadline=None)
    def test_unit_3f2_small_margin_vs_mpmath(self, h, a, b, pivot, split, order):
        # lower parameters d, e both above upper[pivot], so that parameter
        # can serve as the Thomae pivot (it does when it exceeds h).  mpmath
        # gets the unit upper parameter last, which keeps its own z = 1
        # Euler-Maclaurin summation fast; hyp_pfq gets every order
        import mpmath
        upper = (a, b, 1.0)
        room = h + sum(upper) - 2.0 * upper[pivot]
        assume(room > 0.0)
        lower = (upper[pivot] + split * room, upper[pivot] + (1.0 - split) * room)
        spec = HypergeometricSpec(tuple(upper[i] for i in order), lower, 1.0)
        want = float(mpmath.hyp3f2(*upper, *lower, 1))
        assert hyp_pfq(spec) == pytest.approx(want, rel=1e-10)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HypergeometricSpec((2.0,), (3.0,), 1.0)  # not q+1 / q
        with pytest.raises(DomainError):
            HypergeometricSpec((2.0, -1.0), (3.0,), 1.0)

    @pytest.mark.parametrize("z", [1.5, 0.5, 0.0, -1.0])
    def test_argument_other_than_one_rejected(self, z):
        # every closed form sums at z = 1; no other argument is summed
        with pytest.raises(DomainError, match="argument must be 1"):
            HypergeometricSpec((2.0, 1.0), (5.0,), z)

    def test_convergence_margin_field(self):
        spec = HypergeometricSpec((1.5, 2.0, 1.0), (4.0, 5.0), 1.0)
        assert spec.h == pytest.approx(4.5)
