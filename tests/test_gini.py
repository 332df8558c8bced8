"""Correlation-core tests: estimator identities, closed forms (the BVP3
one over its whole domain), the regression route and lambda_w."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from ginicorr import gini
from ginicorr.cli import main
from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    EllipticalT,
    Normal,
    PairedSample,
    ParetoIIMargin,
    margins,
    pearson_closed_form,
    regression_line,
    sample,
)
from ginicorr.errors import (
    DegenerateSampleError,
    DomainError,
    MomentError,
    NoLinearRegressionError,
    UnsupportedPairError,
)
from ginicorr.gini import (
    _ranks,
    _sort_order,
    closed_cw,
    cov_x_weighted,
    cw_via_regression,
    empirical_cw,
    empirical_pearson,
    lambda_w,
    lambda_w_empirical,
    lambda_w_margin,
)
from ginicorr.oracle import hoeffding_cw, mc_reference, quad_cov_margin
from ginicorr.specfun import SERIES_TERM_CAP
from ginicorr.weights import WeightFunction
from ginicorr.wipm import gini_premium, gini_wipm_rhs, margin_gini_premium

W_ID = WeightFunction.identity()
W_POW2 = WeightFunction.power(2.0)
W_BETA = WeightFunction.beta_cdf(2.0, 2.0)


def _random_sample(rng, n=200):
    return PairedSample(rng.standard_normal(n), rng.standard_normal(n))


def _mpmath_3f2_at_one(upper, lower):
    """3F2(upper; lower; 1) by mpmath.

    Above margin 8 the terms are summed by mpmath.nsum instead of
    mpmath.hyp3f2, whose expansion at z = 1 loses all accuracy at large
    margins in mpmath 1.3 (3F2(3, 2, 1; 4, 25; 1) comes back as 0.037, not
    1.066); there the terms decay fast enough for plain summation.
    """
    import mpmath
    if sum(lower) - sum(upper) < 8.0:
        return mpmath.hyp3f2(*upper, *lower, 1)
    (a, b, c), (d, e) = upper, lower
    return mpmath.nsum(lambda k: mpmath.rf(a, k) * mpmath.rf(b, k) * mpmath.rf(c, k)
                       / (mpmath.rf(d, k) * mpmath.rf(e, k) * mpmath.factorial(k)),
                       [0, mpmath.inf])


def _bvp3_cw_mpmath(delta, delta_x, delta_y, gamma):
    """BVP3 extended Gini correlation with every 3F2 summed by mpmath.

    The standardized density is sum_i d_i (1+x)^-(dX+i1) (1+y)^-(dY+i2)
    (1+x+y)^-(delta+i3) over i1+i2+i3 = 2, d_i the coefficients of the
    joint ddf's mixed partial derivative; each term's weighted moment is
    one 3F2(delta+i3, 2, 1; dX*+i1+i3, (gamma+1) dY*+i2+i3; 1).
    """
    import mpmath
    dxs, dys = delta + delta_x, delta + delta_y
    coeff = {(0, 0, 2): delta * (delta + 1.0), (0, 1, 1): delta * delta_y,
             (1, 0, 1): delta * delta_x, (1, 1, 0): delta_x * delta_y}
    moment = mpmath.mpf(0)
    for (i1, i2, i3), d in coeff.items():
        m = dxs + i1 + i3
        c = (gamma + 1.0) * dys + i2 + i3
        f = _mpmath_3f2_at_one((delta + i3, 2.0, 1.0), (m, c))
        moment += d * f / ((m - 2.0) * (m - 1.0) * (c - 1.0))
    cov_num = moment - 1.0 / ((dxs - 1.0) * (gamma + 1.0))
    cov_den = -(gamma / (gamma + 1.0)) * dxs / ((dxs - 1.0) * (dxs * (gamma + 1.0) - 1.0))
    return float(cov_num / cov_den)


# The heavy-tail corner (delta, delta_x, delta_y, gamma): direct 3F2
# margins h = 0.13, 0.25 and 0.35
BVP3_CORNER = [(1.0, 0.02, 0.01, 0.1), (0.9, 0.2, 0.1, 0.05), (0.9, 0.3, 0.1, 0.05)]


class TestEmpiricalCw:
    def test_self_correlation_is_exactly_one(self):
        rng = np.random.default_rng(0)
        xs = rng.standard_gamma(1.5, 500)
        for w in (W_ID, W_POW2, W_BETA):
            s = PairedSample(xs, xs.copy())
            assert empirical_cw(s, w, n_boot=0).value == 1.0

    def test_antithetic_is_minus_one_for_identity(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_exponential(401)
        got = empirical_cw(PairedSample(xs, -xs), W_ID, n_boot=0).value
        assert got == pytest.approx(-1.0, abs=1e-12)

    def test_antithetic_equals_minus_lambda_bitwise(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_gamma(2.0, 350)
        for w in (W_ID, W_POW2, W_BETA):
            c = empirical_cw(PairedSample(xs, -xs), w, n_boot=0).value
            assert c == -lambda_w_empirical(xs, w)

    def test_independent_within_se(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(100_000)
        ys = rng.permutation(rng.standard_normal(100_000))
        rep = empirical_cw(PairedSample(xs, ys), W_POW2, n_boot=100, seed=7)
        assert rep.std_error is not None
        assert abs(rep.value) < 3.0 * rep.std_error

    def test_rank_invariance_bitwise(self):
        rng = np.random.default_rng(4)
        s = _random_sample(rng)
        base = empirical_cw(s, W_BETA, n_boot=0).value
        warped = PairedSample(s.xs, np.exp(s.ys))
        assert empirical_cw(warped, W_BETA, n_boot=0).value == base

    def test_affine_invariance_power_of_two_exact(self):
        # b a power of two and a = 0 keeps every float op exact
        rng = np.random.default_rng(5)
        s = _random_sample(rng)
        base = empirical_cw(s, W_POW2, n_boot=0).value
        scaled = PairedSample(4.0 * s.xs, s.ys)
        assert empirical_cw(scaled, W_POW2, n_boot=0).value == base

    @given(a=st.floats(-5.0, 5.0), b=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_affine_invariance_general(self, a, b):
        rng = np.random.default_rng(6)
        s = _random_sample(rng, n=100)
        base = empirical_cw(s, W_ID, n_boot=0).value
        moved = PairedSample(a + b * s.xs, s.ys)
        assert empirical_cw(moved, W_ID, n_boot=0).value == pytest.approx(base, rel=1e-11)

    @given(cube=st.floats(0.01, 3.0), lin=st.floats(0.01, 3.0),
           shift=st.floats(-4.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance_bitwise(self, cube, lin, shift):
        # h(y) = cube y^3 + lin y + shift is strictly increasing
        rng = np.random.default_rng(8)
        s = _random_sample(rng, n=120)
        base = empirical_cw(s, W_POW2, n_boot=0).value
        warped = PairedSample(s.xs, cube * s.ys ** 3 + lin * s.ys + shift)
        assert empirical_cw(warped, W_POW2, n_boot=0).value == base

    def test_bounds_hold(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            s = _random_sample(rng, n=60)
            for w in (W_ID, W_POW2, W_BETA):
                c = empirical_cw(s, w, n_boot=0).value
                lam = lambda_w_empirical(s.xs, w)
                assert -lam - 1e-12 <= c <= 1.0 + 1e-12

    def test_comonotone_sign(self):
        rng = np.random.default_rng(8)
        xs = rng.standard_normal(300)
        s_up = PairedSample(xs, np.exp(xs))       # comonotone -> C_w >= 0
        s_dn = PairedSample(xs, -np.exp(xs))      # antimonotone -> C_w <= 0
        for w in (W_ID, W_POW2, W_BETA):
            assert empirical_cw(s_up, w, n_boot=0).value >= 0.0
            assert empirical_cw(s_dn, w, n_boot=0).value <= 0.0

    def test_exchangeable_symmetry(self):
        s = sample(Normal(rho=0.6), 150_000, seed=12)
        a = empirical_cw(s, W_POW2, n_boot=0).value
        b = empirical_cw(s.swapped(), W_POW2, n_boot=0).value
        assert a == pytest.approx(b, abs=0.02)
        s1 = sample(BVP1(delta=3.0), 150_000, seed=13)
        a = empirical_cw(s1, W_BETA, n_boot=0).value
        b = empirical_cw(s1.swapped(), W_BETA, n_boot=0).value
        assert a == pytest.approx(b, abs=0.02)

    def test_degenerate_raises(self):
        s = PairedSample(np.ones(10), np.arange(10.0))
        with pytest.raises(DegenerateSampleError):
            empirical_cw(s, W_ID, n_boot=0)

    def test_constant_xs_with_rounded_mean_raise(self):
        # np.full(10, 0.11).mean() != 0.11: the deviations are not zero
        xs = np.full(10, 0.11)
        with pytest.raises(DegenerateSampleError):
            empirical_cw(PairedSample(xs, np.arange(10.0)), W_POW2, n_boot=0)
        with pytest.raises(DegenerateSampleError):
            lambda_w_empirical(xs, W_POW2)

    def test_bootstrap_se_present_and_stable(self):
        rng = np.random.default_rng(9)
        s = _random_sample(rng, n=500)
        r1 = empirical_cw(s, W_ID, n_boot=50, seed=3)
        r2 = empirical_cw(s, W_ID, n_boot=50, seed=3)
        assert r1.std_error == r2.std_error and r1.std_error > 0.0
        assert r1.detail["n_boot_used"] + r1.detail["n_boot_skipped"] == 50

    @pytest.mark.parametrize("n_boot", [-5, -1, 1, 5, 9])
    def test_resample_counts_that_cannot_work_are_refused(self, monkeypatch, n_boot):
        # 10 non-degenerate resamples are the fewest a standard error uses
        s = _random_sample(np.random.default_rng(9), n=50)
        monkeypatch.setattr(gini, "_bootstrap_se", None)  # nothing is drawn
        for estimate in (lambda: empirical_cw(s, W_ID, n_boot=n_boot),
                         lambda: empirical_pearson(s, n_boot=n_boot)):
            with pytest.raises(DomainError, match="0 .no bootstrap. or at least 10"):
                estimate()

    def test_ten_resamples_are_enough(self):
        s = _random_sample(np.random.default_rng(9), n=50)
        for rep in (empirical_cw(s, W_ID, n_boot=10), empirical_pearson(s, n_boot=10)):
            assert rep.std_error > 0.0 and rep.detail["n_boot_used"] == 10


class TestEmpiricalPearson:
    def test_perfect_linearity(self):
        xs = np.linspace(0.0, 1.0, 50)
        assert empirical_pearson(PairedSample(xs, 2 * xs + 1), n_boot=0).value \
            == pytest.approx(1.0, abs=1e-12)
        assert empirical_pearson(PairedSample(xs, -xs), n_boot=0).value \
            == pytest.approx(-1.0, abs=1e-12)

    def test_normal_sample(self):
        s = sample(Normal(rho=0.5), 200_000, seed=20)
        assert empirical_pearson(s, n_boot=0).value == pytest.approx(0.5, abs=0.01)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            empirical_pearson(PairedSample(np.ones(5), np.arange(5.0)), n_boot=0)
        # np.full(10, 0.11).std() is 1.4e-17, not 0
        with pytest.raises(DegenerateSampleError):
            empirical_pearson(PairedSample(np.full(10, 0.11), np.arange(10.0)), n_boot=0)

    def test_bootstrap_skips_constant_resamples(self):
        # at n = 4, some of 200 resamples redraw a single point
        rep = empirical_pearson(PairedSample([1, 2, 3, 4], [2, 1, 4, 3]), n_boot=200)
        assert np.isfinite(rep.std_error) and rep.std_error > 0.0
        assert rep.detail["n_boot_skipped"] > 0
        assert rep.detail["n_boot_used"] + rep.detail["n_boot_skipped"] == 200

    def test_skips_exactly_the_constant_margin_resamples(self):
        # fl(fl(5 v) / 5) != v for these values, so a resample that draws
        # only copies of one value has a rounding-born nonzero variance; the
        # rounding screen must still send it to the exact range test
        xs = np.array([0.11, 0.21, 0.42, 0.83, 0.94])
        ys = np.array([0.21, 0.21, 0.94, 0.94, 0.11])
        assert all(5.0 * v / 5.0 != v for v in (0.11, 0.21, 0.94))
        rng = np.random.default_rng(3)
        constant = 0
        for _ in range(200):
            idx = rng.integers(0, 5, 5)
            constant += np.ptp(xs[idx]) == 0.0 or np.ptp(ys[idx]) == 0.0
        rep = empirical_pearson(PairedSample(xs, ys), n_boot=200, seed=3)
        assert constant > 0
        assert rep.detail["n_boot_skipped"] == constant


# ---------------------------------------------------------------------------
# the ranking kernel and the multiplicity-count bootstrap, against scipy's
# rankdata and against the resample-and-rerank bootstrap they replaced
# ---------------------------------------------------------------------------

def _rerank_cw(xs, ys, w):
    n = xs.size
    dev = xs - xs.mean()
    num = dev @ w(1.0 - rankdata(ys, method="average") / (n + 1.0))
    wx = w(1.0 - rankdata(xs, method="average") / (n + 1.0))
    den = dev @ wx
    scale = np.abs(dev).sum() * max(np.abs(wx).max(), 1e-300)
    if abs(den) <= 1e-12 * scale:
        raise DegenerateSampleError("degenerate resample")
    return num / den


def _rerank_bootstrap_se(stat, xs, ys, n_boot, seed):
    """Re-index each resample and recompute stat on it (ranks re-sorted)."""
    rng = np.random.default_rng(seed)
    n = xs.size
    vals = []
    for _ in range(n_boot):
        idx = rng.integers(0, n, n)
        try:
            vals.append(stat(xs[idx], ys[idx]))
        except DegenerateSampleError:
            continue
    return float(np.std(vals, ddof=1)), len(vals)


W_TABLE = WeightFunction.table([0.0, 0.3, 0.7, 1.0], [0.0, 0.2, 0.6, 1.0])


class TestRankKernel:
    @given(values=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=300),
           decimals=st.sampled_from([None, 1, 0]))
    @settings(max_examples=200, deadline=None)
    def test_matches_rankdata_bitwise(self, values, decimals):
        # rounding to 1 or 0 decimals leaves at most 61 or 7 distinct values
        v = np.array(values)
        if decimals is not None:
            v = np.round(v, decimals)
        r = _ranks(v)
        assert r.dtype == np.float64
        assert np.array_equal(r, rankdata(v))
        assert np.array_equal(r / (v.size + 1.0), rankdata(v) / (v.size + 1.0))
        o, starts = _sort_order(r)
        assert np.array_equal(o, np.argsort(v, kind="stable"))
        want = np.flatnonzero(np.diff(v[o], prepend=-np.inf))
        assert (starts is None) == (want.size == v.size)
        assert starts is None or np.array_equal(starts, want)


def _record_sorts(monkeypatch):
    """Route gini's ranking kernel through a recorder of the arrays it ranks."""
    ranked = []
    kernel = gini._ranks

    def recording(v):
        ranked.append(v)
        return kernel(v)

    monkeypatch.setattr(gini, "_ranks", recording)
    return ranked


def _tied_sample():
    s = sample(BVP2(delta=2.1, delta_y=0.5254), 400, seed=17)
    return PairedSample(np.round(s.xs, 1), np.round(s.ys))


def _cw_fields(rep):
    return rep.value, rep.std_error, rep.detail


class TestRankCache:
    @pytest.mark.parametrize("n_boot", [0, 200])
    def test_each_margin_is_sorted_once(self, monkeypatch, n_boot):
        s = _tied_sample()
        ranked = _record_sorts(monkeypatch)
        empirical_cw(s, W_POW2, n_boot=n_boot)
        gini_premium(s, W_POW2)
        gini_wipm_rhs(s, W_POW2)
        lambda_w(s, W_POW2)
        assert len(ranked) == 2
        assert ranked[0] is s.xs and ranked[1] is s.ys

    def test_bootstrap_on_a_warm_cache_sorts_nothing(self, monkeypatch):
        s = _tied_sample()
        gini_premium(s, W_BETA)
        gini_wipm_rhs(s, W_BETA)
        ranked = _record_sorts(monkeypatch)
        warm = empirical_cw(s, W_BETA, n_boot=200, seed=5)
        assert ranked == []
        cold = empirical_cw(PairedSample(s.xs, s.ys), W_BETA, n_boot=200, seed=5)
        assert len(ranked) == 2
        assert _cw_fields(warm) == _cw_fields(cold)

    def test_one_array_twice_is_sorted_once(self, monkeypatch):
        xs = np.random.default_rng(2).standard_gamma(2.0, 300)
        s = PairedSample(xs, xs)
        ranked = _record_sorts(monkeypatch)
        assert empirical_cw(s, W_POW2, n_boot=50).value == 1.0
        gini_premium(s, W_POW2)
        assert len(ranked) == 1

    def test_swapped_sample_shares_the_ranks(self, monkeypatch):
        s = _tied_sample()
        empirical_cw(s, W_TABLE, n_boot=0)
        ranked = _record_sorts(monkeypatch)
        warm = empirical_cw(s.swapped(), W_TABLE, n_boot=100, seed=2)
        assert ranked == []
        cold = empirical_cw(PairedSample(s.ys, s.xs), W_TABLE, n_boot=100, seed=2)
        assert _cw_fields(warm) == _cw_fields(cold)
        # ranks a swapped sample fills are seen by the sample it came from
        t = PairedSample(s.xs, s.ys)
        gini_premium(t.swapped(), W_TABLE)
        lambda_w(t, W_TABLE)
        assert len(ranked) == 3 and ranked[2] is t.xs

    @pytest.mark.parametrize("w", [W_ID, W_POW2, W_BETA, W_TABLE],
                             ids=["identity", "power", "beta", "table"])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    def test_cold_and_warm_cache_agree_bitwise(self, w, tied):
        s = _tied_sample() if tied else sample(BVP2(delta=2.1, delta_y=0.5254), 400, seed=17)
        cold = [_cw_fields(empirical_cw(PairedSample(s.xs, s.ys), w, n_boot=100, seed=9)),
                lambda_w(PairedSample(s.xs, s.ys), w)]
        gini_premium(s, w)
        gini_wipm_rhs(s, w)
        warm = [_cw_fields(empirical_cw(s, w, n_boot=100, seed=9)), lambda_w(s, w)]
        assert warm == cold
        assert warm[1] == lambda_w_empirical(s.xs, w)


class TestCountsBootstrap:
    @pytest.mark.parametrize("w", [W_POW2, W_BETA, W_TABLE, None],
                             ids=["power", "beta", "table", "pearson"])
    @pytest.mark.parametrize("tied, n", [(False, 400), (True, 400), (False, 5000), (True, 5000)],
                             ids=["untied", "tied", "untied-n5000", "tied-n5000"])
    def test_matches_rerank_bootstrap(self, w, tied, n):
        s = sample(BVP2(delta=2.1, delta_y=0.5254), n, seed=17)
        if tied:  # 11 to 81 distinct values per margin
            s = PairedSample(np.round(s.xs), np.round(s.ys, 1))
        if w is None:
            rep = empirical_pearson(s, n_boot=200, seed=5)
            stat = lambda x, y: float(np.corrcoef(x, y)[0, 1])  # noqa: E731
        else:
            rep = empirical_cw(s, w, n_boot=200, seed=5)
            stat = lambda x, y: _rerank_cw(x, y, w)  # noqa: E731
        se, used = _rerank_bootstrap_se(stat, s.xs, s.ys, 200, seed=5)
        assert rep.std_error == pytest.approx(se, rel=1e-12)
        assert rep.detail["n_boot_used"] == used

    @given(seed=st.integers(0, 2**32 - 1),
           w=st.sampled_from([W_ID, W_POW2, W_BETA, W_TABLE]))
    @settings(max_examples=30, deadline=None)
    def test_matches_rerank_bootstrap_any_seed(self, seed, w):
        rng = np.random.default_rng(seed)
        s = PairedSample(rng.standard_normal(60), np.round(rng.standard_normal(60), 1))
        rep = empirical_cw(s, w, n_boot=50, seed=seed)
        se, used = _rerank_bootstrap_se(lambda x, y: _rerank_cw(x, y, w),
                                        s.xs, s.ys, 50, seed)
        assert rep.std_error == pytest.approx(se, rel=1e-12)
        assert rep.detail["n_boot_used"] == used

    def test_n5_skips_the_same_degenerate_resamples(self):
        # integer values keep every resample mean exact on both sides
        s = PairedSample([3.0, 1.0, 4.0, 1.0, 5.0], [9.0, 2.0, 6.0, 5.0, 3.0])
        rep = empirical_cw(s, W_POW2, n_boot=200, seed=3)
        se, used = _rerank_bootstrap_se(lambda x, y: _rerank_cw(x, y, W_POW2),
                                        s.xs, s.ys, 200, 3)
        assert used < 200
        assert rep.detail == {"n_boot_used": used, "n_boot_skipped": 200 - used}
        assert rep.std_error == pytest.approx(se, rel=1e-12)

    def test_skips_exactly_the_constant_x_resamples(self):
        # for these values fl(fl(5 v) / 5) != v, so a resample that redraws
        # one point five times has a rounding-born nonzero deviation that
        # the scale test alone would let through
        xs = np.array([0.11, 0.21, 0.42, 0.83, 0.94])
        s = PairedSample(xs, np.array([0.5, 0.1, 0.9, 0.3, 0.7]))
        rng = np.random.default_rng(3)
        constant = sum(np.ptp(xs[rng.integers(0, 5, 5)]) == 0.0 for _ in range(200))
        rep = empirical_cw(s, W_POW2, n_boot=200, seed=3)
        assert constant > 0
        assert rep.detail["n_boot_skipped"] == constant


class TestCovXWeighted:
    def test_delta2_power1(self):
        got = cov_x_weighted(ParetoIIMargin(0.0, 1.0, 2.0), W_ID)
        assert got == pytest.approx(-1.0 / 3.0, rel=1e-14)

    def test_tiny_gamma_vanishes(self):
        got = cov_x_weighted(ParetoIIMargin(0.0, 1.0, 3.0), WeightFunction.power(1e-12))
        assert abs(got) < 1e-11

    def test_beta_b1_equals_power(self):
        m = ParetoIIMargin(0.0, 2.0, 3.0)
        for a in (0.5, 1.0, 2.0, 4.0):
            closed_power = cov_x_weighted(m, WeightFunction.power(a))
            closed_beta = cov_x_weighted(m, WeightFunction.beta_cdf(a, 1.0))
            assert closed_beta == pytest.approx(closed_power, abs=1e-10)

    def test_against_quadrature_grid(self):
        # criterion-10 style: closed forms vs the quadrature oracle
        for d in (1.3, 1.8, 2.5, 4.0):
            m = ParetoIIMargin(0.0, 1.0, d)
            for g in (0.5, 1.0, 2.0, 5.0):
                assert cov_x_weighted(m, WeightFunction.power(g)) == pytest.approx(
                    quad_cov_margin(m, WeightFunction.power(g)), abs=1e-7)
            for a, b in ((2.0, 2.0), (0.7, 3.0), (4.0, 0.6)):
                w = WeightFunction.beta_cdf(a, b)
                assert cov_x_weighted(m, w) == pytest.approx(
                    quad_cov_margin(m, w), abs=1e-7)

    def test_negative_for_increasing_weights(self):
        m = ParetoIIMargin(1.0, 2.0, 2.2)
        for w in (W_ID, W_POW2, W_BETA):
            assert cov_x_weighted(m, w) < 0.0

    def test_table_routes_to_quadrature(self):
        m = ParetoIIMargin(0.0, 1.0, 3.0)
        w = WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.4, 1.0])
        assert cov_x_weighted(m, w) == pytest.approx(quad_cov_margin(m, w), rel=1e-9)

    def test_moment_error(self):
        with pytest.raises(MomentError):
            cov_x_weighted(ParetoIIMargin(0.0, 1.0, 1.0), W_ID)


class TestLambdaW:
    def test_identity_weight_is_one_margin(self):
        got = lambda_w_margin(ParetoIIMargin(0.0, 1.0, 3.0), W_ID)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_identity_weight_is_one_empirical(self):
        rng = np.random.default_rng(10)
        xs = rng.standard_gamma(2.0, 2000)
        assert lambda_w_empirical(xs, W_ID) == pytest.approx(1.0, abs=1e-12)

    def test_pareto_power2_frozen_value(self):
        # frozen pre-build: exact beta-integral arithmetic gives 1.4
        got = lambda_w_margin(ParetoIIMargin(0.0, 1.0, 3.0), W_POW2)
        assert got == pytest.approx(1.4, abs=1e-8)

    def test_dispatch(self):
        rng = np.random.default_rng(11)
        xs = rng.standard_normal(500)
        s = PairedSample(xs, xs)
        assert lambda_w(s, W_POW2) == lambda_w_empirical(xs, W_POW2)
        assert lambda_w(xs, W_POW2) == lambda_w_empirical(xs, W_POW2)
        m = ParetoIIMargin(0.0, 1.0, 3.0)
        assert lambda_w(m, W_POW2) == pytest.approx(1.4, abs=1e-8)

    def test_empirical_converges_to_margin_value(self):
        m = ParetoIIMargin(0.0, 1.0, 3.0)
        u = (np.arange(50_000) + 0.5) / 50_000
        xs = m.quantile(u)  # deterministic stratified sample
        assert lambda_w_empirical(xs, W_POW2) == pytest.approx(1.4, abs=2e-3)

    @pytest.mark.parametrize("xs", [[1.0, 2.0], np.arange(9.0).reshape(3, 3),
                                    [1.0, np.nan, 2.0, 3.0]],
                             ids=["n=2", "2-d", "not finite"])
    def test_sample_domain_is_that_of_a_paired_sample(self, xs):
        # an array is taken as PairedSample(xs, xs), which C_w itself needs
        for f in (lambda_w, lambda_w_empirical):
            with pytest.raises(DomainError):
                f(xs, W_POW2)


class TestClosedCw:
    def test_normal_any_weight(self):
        f = Normal(rho=0.37)
        for w in (W_ID, W_POW2, W_BETA, WeightFunction.beta_cdf(2.0, 3.0)):
            rep = closed_cw(f, w)
            assert rep.value == 0.37
            assert rep.method == "closed_form" and rep.std_error is None

    def test_elliptical_t(self):
        f = EllipticalT(sigma_x=2.0, sigma_y=0.5, sigma_xy=0.3, nu=1.5)
        assert closed_cw(f, W_BETA).value == pytest.approx(0.3 / (2.0 * 0.5))

    def test_bvp1_every_weight_and_gamma(self):
        # against the Hoeffding-identity quadrature, which shares no formula
        f = BVP1(delta=5.87)
        for w in (*(WeightFunction.power(g) for g in (0.5, 1.0, 2.0)), W_BETA, W_TABLE):
            got = closed_cw(f, w).value
            assert got == pytest.approx(hoeffding_cw(f, w), rel=1e-12)
            assert got == pytest.approx(0.17036, abs=1e-5)

    def test_bvp2_power_example(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        got = closed_cw(f, W_ID).value
        assert got == pytest.approx(hoeffding_cw(f, W_ID), rel=1e-12)
        assert got == pytest.approx(0.358476, abs=1e-6)

    def test_bvp2_beta_reduction_to_power(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        for a in (0.5, 1.0, 2.0, 3.7):
            pw = closed_cw(f, WeightFunction.power(a)).value
            bt = closed_cw(f, WeightFunction.beta_cdf(a, 1.0)).value
            assert bt == pytest.approx(pw, abs=1e-10)

    def test_bvp2_table_unsupported_names_route(self):
        w = WeightFunction.table([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(UnsupportedPairError) as err:
            closed_cw(BVP2(delta=2.1, delta_y=0.5254), w)
        assert "regression" in err.value.suggestion or "empirical" in err.value.suggestion

    @pytest.mark.parametrize("w", [W_BETA, WeightFunction.table([0.0, 1.0], [0.0, 1.0])])
    def test_bvp3_unsupported_names_hoeffding_route(self, w):
        with pytest.raises(UnsupportedPairError) as err:
            closed_cw(BVP3(delta=1.8, delta_x=1.2, delta_y=0.7), w)
        assert "oracle.hoeffding_cw" in err.value.suggestion

    def test_bvp1_moment_error(self):
        with pytest.raises(MomentError):
            closed_cw(BVP1(delta=1.0), W_ID)

    def test_bvp3_convention_resolution(self):
        # the mixed-partial coefficients, the only convention, reproduce the
        # 2-d quadrature oracle at the probe point
        probe = BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)
        assert abs(closed_cw(probe, W_ID).value - hoeffding_cw(probe, W_ID)) < 1e-4
        f = BVP3(delta=1.8, delta_x=1.2, delta_y=0.7)
        assert closed_cw(f, W_ID).value == closed_cw(f, WeightFunction.power(1.0)).value

    def test_bvp3_matches_quadrature_oracle(self):
        f = BVP3(delta=1.8, delta_x=1.2, delta_y=0.7)
        w = WeightFunction.power(1.5)
        assert closed_cw(f, w).value == pytest.approx(hoeffding_cw(f, w), abs=1e-6)

    def test_bvp3_mc_cross_check(self):
        f = BVP3(delta=1.8, delta_x=1.2, delta_y=0.7)
        mean, se = mc_reference(f, "cw", 50_000, seed=31, replications=12,
                                weight=W_ID)
        assert abs(mean - closed_cw(f, W_ID).value) < 4 * se

    def test_bvp3_beta_weight_unsupported(self):
        with pytest.raises(UnsupportedPairError):
            closed_cw(BVP3(delta=1.8, delta_x=1.2, delta_y=0.7), W_BETA)

    def test_bvp3_moment_error_precedes_margin(self):
        # delta_x* > 1 forces h = delta_x + (gamma+1) delta_y* - 1
        #   > gamma delta + (gamma+1) delta_y > 0,
        # so the moment check is the only reachable gate for valid families
        f = BVP3(delta=0.2, delta_x=0.5, delta_y=0.05)
        with pytest.raises(MomentError):
            closed_cw(f, WeightFunction.power(0.1))

    @given(delta=st.floats(0.05, 5.0), dx=st.floats(0.01, 5.0),
           dy=st.floats(0.01, 5.0), gamma=st.floats(0.01, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_bvp3_margin_positive_whenever_mean_finite(self, delta, dx, dy, gamma):
        if delta + dx > 1.0:
            h = dx + (gamma + 1.0) * (delta + dy) - 1.0
            assert h > 0.0

    @given(delta=st.floats(0.05, 5.0), dx=st.floats(0.01, 5.0),
           dy=st.floats(0.01, 5.0), gamma=st.floats(0.01, 10.0))
    @settings(max_examples=20, deadline=None)
    def test_bvp3_domain_sweep_vs_mpmath(self, delta, dx, dy, gamma):
        assume(delta + dx > 1.0)
        got = closed_cw(BVP3(delta=delta, delta_x=dx, delta_y=dy),
                        WeightFunction.power(gamma)).value
        assert got == pytest.approx(_bvp3_cw_mpmath(delta, dx, dy, gamma), abs=1e-9)

    @pytest.mark.parametrize("point", BVP3_CORNER)
    def test_bvp3_heavy_tail_corner_vs_mpmath(self, point):
        delta, dx, dy, gamma = point
        rep = closed_cw(BVP3(delta=delta, delta_x=dx, delta_y=dy),
                        WeightFunction.power(gamma))
        assert np.isfinite(rep.value)
        assert rep.detail["h"] < 0.4
        assert rep.value == pytest.approx(_bvp3_cw_mpmath(*point), abs=1e-9)

    def test_bvp3_heavy_tail_corner_mc_cross_check(self):
        # dX* = 1.02: a sample of n draws sees E[X; X < n] of E[X] = 50 only
        # in part, so the replication spread understates the estimator's
        # error here (see CHANGES.md); the mpmath checks above are the
        # sharp ones
        f = BVP3(delta=1.0, delta_x=0.02, delta_y=0.01)
        w = WeightFunction.power(0.1)
        mean, se = mc_reference(f, "cw", 1_000_000, seed=31, replications=10,
                                weight=w)
        assert abs(mean - closed_cw(f, w).value) < 4 * se

    def test_bvp3_series_diagnostics(self):
        # every live 3F2 has a legal Thomae pivot 1 (and often 2), so the
        # smallest margin summed is at least 1 however small h gets
        grid = itertools.product((0.05, 0.5, 1.0, 2.0, 5.0), (0.01, 0.3, 1.0, 5.0),
                                 (0.01, 0.5, 5.0), (0.01, 0.1, 1.0, 10.0))
        worst_terms = 0
        for delta, dx, dy, gamma in grid:
            if delta + dx <= 1.0:
                continue
            detail = closed_cw(BVP3(delta=delta, delta_x=dx, delta_y=dy),
                               WeightFunction.power(gamma)).detail
            assert detail["h"] == pytest.approx(dx + (gamma + 1.0) * (delta + dy) - 1.0)
            assert detail["series_margin"] >= 1.0
            assert detail["series_margin"] >= min(detail["h"], 2.0)
            assert 0.0 < detail["series_tail_share"] < 1e-3
            worst_terms = max(worst_terms, detail["series_terms"])
        # four series together, against the cap on each one
        assert worst_terms < SERIES_TERM_CAP // 5


class TestFamilyBoundaries:
    """The limits that let one formula serve neighbouring families.

    closed_cw sums BVP3's 3F2 series only for delta_x > 0 and takes BVP2's
    algebraic form at delta_x = 0; BVP1 is BVP2's formulas at delta_y = 0.
    Each pair must meet as the index that tells them apart vanishes.
    """

    @given(delta=st.floats(1.01, 50.0), dy=st.floats(0.01, 10.0),
           gamma=st.floats(0.03, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_bvp3_meets_bvp2_as_delta_x_vanishes(self, delta, dy, gamma):
        # the BVP3 form cancels to about 6.4e-13/gamma (ROADMAP item 6)
        w = WeightFunction.power(gamma)
        got = closed_cw(BVP3(delta=delta, delta_x=1e-12, delta_y=dy), w).value
        want = closed_cw(BVP2(delta=delta, delta_y=dy), w).value
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    @given(delta=st.floats(1.01, 50.0), gamma=st.floats(0.03, 10.0),
           a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0),
           mu=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           sigma=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)))
    @settings(max_examples=60, deadline=None)
    def test_bvp2_meets_bvp1_as_delta_y_vanishes(self, delta, gamma, a, b, mu, sigma):
        loc = dict(mu_x=mu[0], mu_y=mu[1], sigma_x=sigma[0], sigma_y=sigma[1], delta=delta)
        f2, f1 = BVP2(delta_y=1e-12, **loc), BVP1(**loc)
        for w in (WeightFunction.power(gamma), WeightFunction.beta_cdf(a, b)):
            assert closed_cw(f2, w).value == pytest.approx(1.0 / delta, rel=1e-9, abs=0.0)
            assert closed_cw(f1, w).value == 1.0 / delta
        line2, line1 = regression_line(f2), regression_line(f1)
        assert line2.beta == pytest.approx(line1.beta, rel=1e-9, abs=0.0)
        # alpha = mu_x + (sigma_x/delta)(1 - mu_y/sigma_y) may cancel
        scale = abs(mu[0]) + sigma[0] / delta * (1.0 + abs(mu[1]) / sigma[1])
        assert line2.alpha == pytest.approx(line1.alpha, rel=0.0, abs=1e-9 * scale)
        if delta >= 2.01:
            assert pearson_closed_form(f1) == 1.0 / delta
            assert pearson_closed_form(f2) == pytest.approx(1.0 / delta, rel=1e-9, abs=0.0)


# tail index of the X margin at most 1: BVP1 and BVP2 through delta, BVP3
# through delta + delta_x
INFINITE_X_MEAN = [BVP1(delta=1.0), BVP1(delta=0.4), BVP2(delta=1.0, delta_y=0.3),
                   BVP2(delta=0.7, delta_y=2.5), BVP3(delta=0.5, delta_x=0.5, delta_y=1.0),
                   BVP3(delta=0.2, delta_x=0.3, delta_y=0.05)]


class TestFiniteMeanCheck:
    """Every route over the X margin raises MomentError where E[X] is infinite.

    One check, ParetoIIMargin.mean(), serves them all.
    """

    @pytest.mark.parametrize("f", INFINITE_X_MEAN, ids=lambda f: f.describe())
    def test_routes_raise_moment_error(self, f):
        w = WeightFunction.power(1.5)
        mx = margins(f)[0]
        routes = [lambda: closed_cw(f, w), lambda: hoeffding_cw(f, w),
                  lambda: cov_x_weighted(mx, w), lambda: quad_cov_margin(mx, w),
                  lambda: lambda_w_margin(mx, w), lambda: margin_gini_premium(mx, w)]
        if not isinstance(f, BVP3):  # BVP3 has no regression line to begin with
            routes += [lambda: regression_line(f), lambda: cw_via_regression(f, w),
                       lambda: gini_wipm_rhs(f, w)]
        for route in routes:
            with pytest.raises(MomentError):
                route()

    @pytest.mark.parametrize("f", INFINITE_X_MEAN, ids=lambda f: f.describe())
    def test_cli_closed_exits_2(self, f, capsys):
        argv = ["corr", "--family", f.name, "--weight", "power:1.5", "--method", "closed"]
        for fl in dataclasses.fields(f)[4:]:  # delta and the family's own indices
            argv += [f"--{fl.name.replace('_', '-')}", repr(getattr(f, fl.name))]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


class TestRegressionRoute:
    def test_bvp1_collapses_to_1_over_delta(self):
        for w in (W_ID, W_POW2, W_BETA):
            got = cw_via_regression(BVP1(mu_x=1.0, mu_y=-2.0, sigma_x=2.0,
                                         sigma_y=0.7, delta=2.5), w).value
            assert got == pytest.approx(1.0 / 2.5, rel=1e-12)

    def test_normal_gives_rho(self):
        got = cw_via_regression(Normal(rho=0.5), WeightFunction.power(3.0)).value
        assert got == pytest.approx(0.5, rel=1e-8)

    def test_elliptical_t_gives_dispersion_correlation(self):
        f = EllipticalT(sigma_x=1.5, sigma_y=0.8, sigma_xy=0.6, nu=2.5)
        got = cw_via_regression(f, W_POW2).value
        assert got == pytest.approx(0.6 / (1.5 * 0.8), rel=1e-8)

    def test_consistency_triangle_bvp2(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        for w in (W_ID, W_POW2, W_BETA, WeightFunction.beta_cdf(2.0, 3.0)):
            closed = closed_cw(f, w).value
            regress = cw_via_regression(f, w).value
            assert regress == pytest.approx(closed, abs=1e-9)

    def test_triangle_empirical_leg(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        w = W_BETA
        closed = closed_cw(f, w).value
        mean, se = mc_reference(f, "cw", 100_000, seed=44, replications=10, weight=w)
        assert abs(mean - closed) < 3 * se

    def test_bvp2_table_weight_via_quadrature(self):
        # the route closed_cw points to for unsupported pairs
        f = BVP2(delta=2.1, delta_y=0.5254)
        w = WeightFunction.table([0.0, 0.5, 1.0], [0.0, 0.2, 1.0])
        got = cw_via_regression(f, w).value
        mean, se = mc_reference(f, "cw", 100_000, seed=45, replications=10, weight=w)
        assert abs(mean - got) < 3 * se

    def test_bvp3_propagates(self):
        with pytest.raises(NoLinearRegressionError):
            cw_via_regression(BVP3(delta=2.0, delta_x=1.0, delta_y=0.5), W_ID)

    @pytest.mark.parametrize("f", [BVP2(delta=2.1, delta_y=0.5), Normal(rho=0.5)])
    def test_constant_weight_is_degenerate(self, f):
        # a zero margin covariance is a typed error, not a ZeroDivisionError
        with pytest.raises(DegenerateSampleError, match="constant weight"):
            cw_via_regression(f, WeightFunction.table((0, 1), (0.5, 0.5)))

    def test_detail_records_quadrature_diagnostics(self):
        # closed-form Pareto covariances add nothing; quadrature ones add both
        closed = cw_via_regression(BVP2(delta=2.1, delta_y=0.5254), W_BETA).detail
        assert closed["quad_error"] == 0.0 and closed["quad_nfev"] == 0
        table = cw_via_regression(BVP2(delta=2.1, delta_y=0.5254), W_TABLE).detail
        normal = cw_via_regression(Normal(rho=0.5), W_BETA).detail
        for d in (table, normal):
            assert 0.0 <= d["quad_error"] < 1e-8 and d["quad_nfev"] > 0
