"""Special-function kernel tests.

The independent oracles here are: direct Kahan-compensated term summation
(no log space, no tail correction), scipy.special, mpmath, and exact
gamma-function identities.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sc

from ginicorr import specfun
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


def _mp_unit_3f2(upper, lower):
    """3F2(upper; lower; 1) in mpmath.  mpmath.hyp3f2 1.3.0 goes wrong past
    margin ~16, and at 20 working digits already from margin ~4 (see
    mp_unit_hyp), so past margin 5 the series is summed by mpmath.nsum,
    which was within 1e-21 there in spot checks but 6e-7 off at margin 3."""
    if sum(lower) - sum(upper) <= 5.0:
        return mp.hyp3f2(*upper, *lower, 1)
    (a, b, c), (d, e) = upper, lower
    return mp.nsum(lambda j: mp.rf(a, j) * mp.rf(b, j) * mp.rf(c, j)
                   / (mp.rf(d, j) * mp.rf(e, j) * mp.factorial(j)), [0, mp.inf])


def mp_unit_hyp(upper, lower):
    """(q+1)F(q)(upper; lower; 1) at 30 working digits, for q = 1 or 2.

    mpmath's own z = 1 summation of a 3F2 fails to converge at margins near
    0.05, so a 3F2 with an upper parameter a, h < a < min(lower), is first
    taken through Thomae's transformation (DLMF 16.4.11) on the largest such
    a, which makes its margin a.  At 20 working digits mpmath.hyp3f2 1.3.0
    is off by up to 1.8e-10 at margins 4-10 with parameters near 10
    (3F2(9.92, 4.33, 5; 6.49, 19.44; 1) = 15.7965284398 comes back as
    15.7965283068), in 21 of 117 random draws of test_matches_mpmath's
    domain; at 30 digits it agreed with 45 digits to 1e-14 in all 117.
    """
    with mp.workdps(30):
        upper, lower = [mp.mpf(a) for a in upper], [mp.mpf(b) for b in lower]
        if len(upper) == 2:
            return mp.hyp2f1(*upper, *lower, 1)
        h = sum(lower) - sum(upper)
        pivots = [a for a in upper if h < a < min(lower)]
        if not pivots:
            return _mp_unit_3f2(upper, lower)
        a = max(pivots)
        upper.remove(a)
        (b, c), (d, e) = upper, lower
        return (mp.gamma(d) * mp.gamma(e) * mp.gamma(h)
                / (mp.gamma(a) * mp.gamma(h + b) * mp.gamma(h + c))
                * _mp_unit_3f2((d - a, e - a, h), (h + b, h + c)))


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
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = 10.0 ** rng.uniform(-2, 5, 2)
            assert ln_beta(a, b) == ln_beta(b, a)
            with mpmath.workdps(40):  # leaves the precision of later tests as it was
                ref = float(mpmath.log(mpmath.beta(a, b)))
            assert ln_beta(a, b) == pytest.approx(ref, rel=1e-12)
            # scipy cross-check at its own (looser) accuracy
            assert ln_beta(a, b) == pytest.approx(sc.betaln(a, b), rel=1e-9, abs=1e-10)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            ln_beta(a, b)

    @pytest.mark.parametrize("a,b", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DomainError, match="finite"):
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

    @pytest.mark.parametrize("a,b", [(math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0)])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(DomainError, match="finite"):
            reg_inc_beta(0.5, a, b)


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

    def test_cap_error_carries_diagnostics(self, monkeypatch):
        # 2F1(1/2, 1/2; 3/2; 1) = pi/2 needs ~2600 terms
        spec = HypergeometricSpec((0.5, 0.5), (1.5,), 1.0)
        monkeypatch.setattr(specfun, "SERIES_TERM_CAP", 50)
        with pytest.raises(SeriesCapError) as err:
            hyp_pfq(spec)
        assert err.value.terms == 50
        assert 0.0 < err.value.partial_sum < math.pi / 2.0
        assert err.value.last_term > 0.0

    @pytest.mark.parametrize("cap", [100, 1000, 2000])
    def test_cap_inside_a_later_block_sums_exactly_cap_terms(self, monkeypatch, cap):
        # terms are formed in blocks of 64, 128, 256, ...; a cap inside a
        # block still stops the sum after exactly `cap` terms
        spec = HypergeometricSpec((0.5, 0.5), (1.5,), 1.0)
        monkeypatch.setattr(specfun, "SERIES_TERM_CAP", cap)
        with pytest.raises(SeriesCapError) as err:
            hyp_pfq(spec)
        with mp.workdps(30):
            terms = [mp.rf(0.5, j) ** 2 / (mp.rf(1.5, j) * mp.factorial(j))
                     for j in range(cap + 1)]
            partial, last = mp.fsum(terms[:cap]), terms[cap]
        assert err.value.terms == cap
        assert err.value.partial_sum == pytest.approx(float(partial), rel=1e-14)
        assert err.value.last_term == pytest.approx(float(last), rel=1e-11)

    def test_thomae_cap_error_names_representation(self, monkeypatch):
        # h = 0.5; the pivot a = 1.5 < min(3, 2) makes the summed margin 1.5
        spec = HypergeometricSpec((1.5, 2.0, 1.0), (3.0, 2.0), 1.0)
        monkeypatch.setattr(specfun, "SERIES_TERM_CAP", 50)
        with pytest.raises(SeriesCapError) as err:
            hyp_pfq(spec)
        assert "thomae representation (margin 1.5)" in str(err.value)
        assert err.value.terms == 50

    def test_rel_tol_is_read_at_each_call(self, monkeypatch):
        # 2F1(1/2, 1/2; 3/2; 1) = pi/2 by Gauss's sum; a looser stop rule sums
        # fewer terms and stays within its own tolerance
        spec = HypergeometricSpec((0.5, 0.5), (1.5,), 1.0)
        tight = hyp_pfq(spec)
        monkeypatch.setattr(specfun, "SERIES_REL_TOL", 1e-6)
        loose = hyp_pfq(spec)
        assert loose.terms < tight.terms
        assert loose == pytest.approx(math.pi / 2.0, rel=1e-6)

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

    def test_tail_share_is_the_part_beyond_the_terms_summed(self):
        # 2F1(2, 1; 4.5; 1) = 7/3 by Gauss's sum
        got = hyp_pfq(HypergeometricSpec((2.0, 1.0), (4.5,), 1.0))
        partial = mp.nsum(lambda j: mp.rf(2, j) * mp.rf(1, j) / (mp.rf(4.5, j) * mp.factorial(j)),
                          [0, got.terms - 1])
        assert got.tail_share == pytest.approx(float(1 - partial * 3 / 7), rel=1e-6)
        # a Thomae sum reports the share of the series it summed
        small = hyp_pfq(HypergeometricSpec((3.0, 2.0, 1.0), (4.02, 2.111), 1.0))
        assert small.representation == "thomae" and 0.0 < small.tail_share < 1e-3

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

    @given(h=st.floats(0.05, 10.0), upper=st.tuples(*[st.floats(0.5, 10.0)] * 3),
           pivot=st.integers(0, 2), split=st.floats(0.05, 0.95), q=st.integers(1, 2))
    @example(h=1.0, upper=(2.0, 4.0, 1.0), pivot=0, split=0.5, q=1)
    @example(h=0.05, upper=(4.94, 7.24, 4.94), pivot=0, split=0.05, q=2)
    @example(h=9.5, upper=(3.0, 2.0, 1.0), pivot=2, split=0.5, q=2)
    @example(h=6.6796875, upper=(9.921875, 4.33203125, 5.0), pivot=1, split=0.125, q=2)
    @settings(max_examples=15, deadline=None)
    def test_matches_mpmath(self, h, upper, pivot, split, q):
        # 2F1(a, b; a+b+h) and 3F2 whose lower parameters both exceed
        # upper[pivot], so that it can serve as the Thomae pivot.  The
        # examples: 2F1(2, 4; 7; 1) = 15, where a tail of two terms stops
        # 1.5e-12 short; a Thomae sum at margin 0.05; a direct 3F2 at
        # margin 9.5, past mpmath.hyp3f2's range; a direct 3F2 at margin
        # 6.7 that mpmath.hyp3f2 at 20 digits puts 8.4e-9 off (see
        # mp_unit_hyp).  A 2F1, and a 3F2 that no
        # pivot serves, are summed as written, and below margin 0.6 with
        # parameters near 10 those need more than SERIES_TERM_CAP terms.
        if q == 1:
            assume(h >= 0.6)
            spec = HypergeometricSpec(upper[:2], (upper[0] + upper[1] + h,), 1.0)
        else:
            assume(h >= 0.6 or upper[pivot] > h)
            room = h + sum(upper) - 2.0 * upper[pivot]
            assume(room > 0.0)
            lower = (upper[pivot] + split * room, upper[pivot] + (1.0 - split) * room)
            spec = HypergeometricSpec(upper, lower, 1.0)
        want = float(mp_unit_hyp(spec.upper, spec.lower))
        assert hyp_pfq(spec) == pytest.approx(want, rel=1e-12)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            HypergeometricSpec((2.0,), (3.0,), 1.0)  # not q+1 / q
        with pytest.raises(DomainError):
            HypergeometricSpec((2.0, -1.0), (3.0,), 1.0)

    @pytest.mark.parametrize("upper,lower", [
        ((1.5, math.nan, 1.0), (4.0, 5.0)),
        ((1.5, 2.0, 1.0), (math.inf, 5.0)),
        ((math.inf, 1.0), (3.0,)),
    ])
    def test_non_finite_parameter_rejected(self, upper, lower):
        # refused before any term is summed: its margin would be nan
        with pytest.raises(DomainError, match="finite"):
            HypergeometricSpec(upper, lower, 1.0)

    def test_term_that_underflows_ends_the_sum(self):
        # t_1 = 6e-151 and t_3 underflows to 0, after which no term falls
        # below the one before it; the value is 1 in double precision
        got = hyp_pfq(HypergeometricSpec((1.5, 2.0, 1.0), (1e150, 5.0), 1.0))
        assert got == 1.0 and got.terms <= 41

    def test_terms_beyond_double_precision_raise(self):
        # the terms pass 1e308 long before they fall: no double holds the sum
        with pytest.raises(ConvergenceError, match="overflows double precision"):
            hyp_pfq(HypergeometricSpec((1000.0, 1000.0, 1000.0), (0.5, 3001.0), 1.0))

    @pytest.mark.parametrize("z", [1.5, 0.5, 0.0, -1.0])
    def test_argument_other_than_one_rejected(self, z):
        # every closed form sums at z = 1; no other argument is summed
        with pytest.raises(DomainError, match="argument must be 1"):
            HypergeometricSpec((2.0, 1.0), (5.0,), z)

    def test_convergence_margin_field(self):
        spec = HypergeometricSpec((1.5, 2.0, 1.0), (4.0, 5.0), 1.0)
        assert spec.h == pytest.approx(4.5)
