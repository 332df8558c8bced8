"""Premium-principle and capital-allocation tests."""

import numpy as np
import pytest

from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    Normal,
    PairedSample,
    ParetoIIMargin,
    sample,
)
from ginicorr.errors import (
    DegenerateSampleError,
    DomainError,
    NoLinearRegressionError,
)
from ginicorr.gini import (
    empirical_cw,
    empirical_pearson,
    lambda_w,
    lambda_w_empirical,
)
from ginicorr.oracle import mc_reference
from ginicorr.weights import WeightFunction
from ginicorr.wipm import (
    Portfolio,
    allocate,
    classical_wipm_rhs,
    gini_premium,
    gini_wipm_rhs,
    margin_gini_premium,
    weighted_premium,
)

W_ID = WeightFunction.identity()
W_POW1 = WeightFunction.power(1.0)
W_BETA = WeightFunction.beta_cdf(2.0, 2.0)


class TestWeightedPremium:
    def test_constant_value_function_gives_mean(self):
        rng = np.random.default_rng(0)
        s = PairedSample(rng.standard_gamma(2.0, 500), rng.standard_normal(500))
        res = weighted_premium(s, lambda y: np.ones_like(y))
        assert res.premium == pytest.approx(s.xs.mean(), rel=1e-14)
        assert res.premium == res.base + res.loading

    def test_self_pricing_has_nonnegative_loading(self):
        # Chebyshev sum inequality: increasing v on Y = X loads the premium
        rng = np.random.default_rng(1)
        xs = rng.standard_gamma(1.5, 400)
        s = PairedSample(xs, xs.copy())
        res = weighted_premium(s, lambda y: np.maximum(y, 0.0) ** 2)
        assert res.loading >= 0.0

    def test_indicator_gives_conditional_mean(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal(400)
        ys = rng.standard_normal(400)
        s = PairedSample(xs, ys)
        med = np.median(ys)
        res = weighted_premium(s, lambda y: (y > med).astype(float))
        assert res.premium == pytest.approx(xs[ys > med].mean(), rel=1e-12)

    def test_zero_denominator(self):
        s = PairedSample(np.arange(5.0), np.arange(5.0))
        with pytest.raises(DegenerateSampleError):
            weighted_premium(s, lambda y: np.zeros_like(y))


class TestGiniPremium:
    def test_independent_reference_gives_mean(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal(100_000)
        ys = rng.permutation(rng.standard_normal(100_000))
        res = gini_premium(PairedSample(xs, ys), W_ID)
        # premium - mean within 3 replication-style SEs of zero
        se = xs.std() / np.sqrt(xs.size)
        assert abs(res.premium - xs.mean()) < 3 * 2 * se

    def test_pareto_self_premium_closed_value(self):
        # pi_{G,w}[X] for ParetoII(0,1,2), gamma=1 -> sigma/(delta(g+1)-1) = 1/3
        m = ParetoIIMargin(0.0, 1.0, 2.0)
        assert margin_gini_premium(m, W_POW1) == pytest.approx(1.0 / 3.0, rel=1e-12)
        u = (np.arange(200_000) + 0.5) / 200_000
        xs = m.quantile(u)
        res = gini_premium(PairedSample(xs, xs.copy()), W_POW1)
        assert res.premium == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_near_constant_weight_gives_mean(self):
        rng = np.random.default_rng(4)
        s = PairedSample(rng.standard_gamma(2.0, 1000), rng.standard_normal(1000))
        res = gini_premium(s, WeightFunction.power(1e-9))
        assert res.premium == pytest.approx(s.xs.mean(), rel=1e-6)

    def test_survival_orientation_loads_comonotone_negative(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.standard_gamma(2.0, 500))
        s = PairedSample(xs, xs.copy())
        assert gini_premium(s, W_POW1, orientation="survival").loading <= 0.0
        assert gini_premium(s, W_POW1, orientation="risk_loading").loading >= 0.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        s = PairedSample(rng.standard_gamma(2.0, 400), rng.standard_normal(400))
        base = gini_premium(s, W_BETA).premium
        moved = gini_premium(PairedSample(3.0 + 2.0 * s.xs, s.ys), W_BETA).premium
        assert moved == pytest.approx(3.0 + 2.0 * base, rel=1e-12)

    def test_rank_invariance_bitwise(self):
        rng = np.random.default_rng(7)
        s = PairedSample(rng.standard_normal(400), rng.standard_normal(400))
        base = gini_premium(s, W_BETA).premium
        warped = gini_premium(PairedSample(s.xs, np.exp(s.ys)), W_BETA).premium
        assert warped == base

    def test_degenerate_ranks(self):
        s = PairedSample(np.arange(6.0), np.ones(6))
        with pytest.raises(DegenerateSampleError):
            gini_premium(s, W_ID)

    def test_bad_orientation(self):
        s = PairedSample(np.arange(6.0), np.arange(6.0))
        with pytest.raises(DomainError):
            gini_premium(s, W_ID, orientation="upside_down")


class TestRankCacheBitwise:
    @pytest.mark.parametrize("w", [W_ID, W_POW1, W_BETA], ids=["identity", "power", "beta"])
    @pytest.mark.parametrize("decimals", [None, 0], ids=["untied", "tied"])
    def test_cold_and_warm_cache_agree(self, w, decimals):
        s = sample(BVP2(delta=2.1, delta_y=0.5254), 500, seed=8)
        if decimals is not None:
            s = PairedSample(np.round(s.xs, decimals), np.round(s.ys, decimals))

        def results(t):
            rhs = gini_wipm_rhs(t, w)
            return [gini_premium(t, w), gini_premium(t, w, orientation="risk_loading"),
                    (rhs.premium, rhs.base, rhs.detail)]

        cold = results(PairedSample(s.xs, s.ys))
        empirical_cw(s, w, n_boot=20)
        assert results(s) == cold
        cold_swapped = results(PairedSample(s.ys, s.xs))
        assert results(s.swapped()) == cold_swapped


class TestGiniWipmRhs:
    def test_independent_normal_reduces_to_mean(self):
        rhs = gini_wipm_rhs(Normal(mu_x=3.0, rho=0.0), W_BETA)
        assert rhs.premium == pytest.approx(3.0, abs=1e-9)
        assert rhs.method == "closed_identity"

    def test_self_reference_sample_identity(self):
        # Y = X: C_w = 1 and the covariance ratio is 1, so rhs = pi exactly
        rng = np.random.default_rng(8)
        xs = rng.standard_gamma(2.0, 701)
        s = PairedSample(xs, xs.copy())
        pi = gini_premium(s, W_POW1).premium
        rhs = gini_wipm_rhs(s, W_POW1).premium
        assert rhs == pytest.approx(pi, rel=1e-12)

    def test_sample_identity_exact_generic(self):
        # the rank plug-ins make the pricing identity exact on samples
        s = sample(BVP2(delta=2.1, delta_y=0.5254), 20_000, seed=14)
        for w in (W_ID, W_BETA):
            lhs = gini_premium(s, w).premium
            rhs = gini_wipm_rhs(s, w).premium
            assert rhs == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("fam,seed", [
        (Normal(rho=0.5), 100),
        (BVP1(delta=3.0), 101),
        (BVP2(delta=2.1, delta_y=0.5254), 102),
    ])
    def test_family_rhs_matches_empirical_premium(self, fam, seed):
        w = W_BETA
        rhs = gini_wipm_rhs(fam, w).premium
        mean, se = mc_reference(fam, "gini_premium", 50_000, seed=seed,
                                replications=10, weight=w)
        assert abs(mean - rhs) < 3.5 * se

    def test_elliptical_t_rhs_matches_empirical_premium(self):
        # infinite-variance regime (nu = 2.2 dispersion is not the variance)
        from ginicorr.distributions import EllipticalT
        fam = EllipticalT(sigma_xy=0.4, nu=2.2)
        for w in (W_ID, W_BETA):
            rhs = gini_wipm_rhs(fam, w).premium
            mean, se = mc_reference(fam, "gini_premium", 50_000, seed=42,
                                    replications=10, weight=w)
            assert abs(mean - rhs) < 3.5 * se

    def test_normal_slope_specialization(self):
        # loading slope equals rho sqrt(Var X / Var Y) for the normal family
        f = Normal(sigma_x=2.0, sigma_y=0.5, rho=0.6)
        res = gini_wipm_rhs(f, W_POW1)
        assert res.detail["slope"] == pytest.approx(0.6 * 2.0 / 0.5, rel=1e-9)
        assert res.detail["slope"] == pytest.approx(res.detail["regression_beta"],
                                                    rel=1e-9)

    def test_elliptical_slope_specialization(self):
        from ginicorr.distributions import EllipticalT
        f = EllipticalT(sigma_x=1.5, sigma_y=0.8, sigma_xy=0.4, nu=1.8)
        res = gini_wipm_rhs(f, W_POW1)
        assert res.detail["slope"] == pytest.approx(0.4 / 0.8 ** 2, rel=1e-8)

    def test_bvp3_hypothesis_violated(self):
        with pytest.raises(NoLinearRegressionError):
            gini_wipm_rhs(BVP3(delta=2.0, delta_x=1.0, delta_y=0.5), W_ID)

    def test_constant_weight_is_degenerate(self):
        # a zero margin covariance is a typed error, not a ZeroDivisionError
        with pytest.raises(DegenerateSampleError, match="constant weight"):
            gini_wipm_rhs(Normal(rho=0.5), WeightFunction.table((0, 1), (0.5, 0.5)))

    def test_family_detail_records_quadrature_diagnostics(self):
        closed = gini_wipm_rhs(BVP1(delta=3.0), W_BETA).detail
        assert closed["quad_error"] == 0.0 and closed["quad_nfev"] == 0
        normal = gini_wipm_rhs(Normal(rho=0.5), W_BETA).detail
        assert 0.0 <= normal["quad_error"] < 1e-8 and normal["quad_nfev"] > 0


class TestClassicalWipm:
    def test_independent_reduces_to_mean(self):
        rng = np.random.default_rng(9)
        s = PairedSample(rng.standard_normal(100_000),
                         rng.standard_normal(100_000))
        res = classical_wipm_rhs(s, lambda y: np.exp(np.clip(y, -5, 5)))
        assert res.premium == pytest.approx(0.0, abs=0.02)

    def test_self_reference_identity(self):
        # Y = X, v = identity on positives: rhs must equal Pi_v[X, X]
        rng = np.random.default_rng(10)
        xs = rng.standard_gamma(2.0, 50_000)
        s = PairedSample(xs, xs.copy())
        v = lambda y: y
        direct = weighted_premium(s, v).premium
        rhs = classical_wipm_rhs(s, v).premium
        assert rhs == pytest.approx(direct, rel=1e-9)

    def test_degenerate(self):
        s = PairedSample(np.arange(5.0), np.ones(5))
        with pytest.raises(DegenerateSampleError):
            classical_wipm_rhs(s, lambda y: y)

    def test_constant_margin_whose_mean_rounds(self):
        # the mean of ten 0.11s rounds off 0.11, so their std is 1.4e-17
        s = PairedSample(np.full(10, 0.11), np.arange(10.0))
        with pytest.raises(DegenerateSampleError):
            classical_wipm_rhs(s, lambda y: y + 1)


class TestAllocate:
    def test_identical_columns_split_equally(self):
        rng = np.random.default_rng(11)
        col = rng.standard_gamma(2.0, 900)
        p = Portfolio(("a", "b"), np.column_stack([col, col]))
        allocs = allocate(p, W_POW1)
        agg = p.aggregate
        total = gini_premium(PairedSample(agg, agg), W_POW1).premium
        assert allocs[0].premium == pytest.approx(allocs[1].premium, rel=1e-12)
        assert allocs[0].premium == pytest.approx(total / 2.0, rel=1e-12)

    def test_constant_column_allocates_itself(self):
        rng = np.random.default_rng(12)
        p = Portfolio(("risky", "fixed"),
                      np.column_stack([rng.standard_gamma(2.0, 500),
                                       np.full(500, 7.0)]))
        allocs = allocate(p, W_BETA)
        assert allocs[1].premium == pytest.approx(7.0, rel=1e-12)

    def test_additivity_bvp1_portfolio(self):
        s = sample(BVP1(delta=3.0), 50_000, seed=15)
        p = Portfolio(("x", "y"), np.column_stack([s.xs, s.ys]))
        allocs = allocate(p, W_POW1)
        agg = p.aggregate
        total = gini_premium(PairedSample(agg, agg), W_POW1).premium
        assert sum(a.premium for a in allocs) == pytest.approx(total, abs=1e-10 * abs(total))

    def test_detail_records_the_aggregate_premium(self):
        rng = np.random.default_rng(13)
        p = Portfolio(("a", "b", "c"), rng.standard_gamma(2.0, (700, 3)))
        agg = p.aggregate
        for orientation in ("survival", "risk_loading"):
            total = gini_premium(PairedSample(agg, agg), W_BETA, orientation).premium
            for a in allocate(p, W_BETA, orientation):
                assert a.detail["aggregate_premium"] == total

    def test_needs_two_columns(self):
        with pytest.raises(DomainError):
            allocate(Portfolio(("only",), np.arange(9.0).reshape(-1, 1)), W_ID)

    def test_degenerate_aggregate(self):
        p = Portfolio(("a", "b"), np.column_stack([np.ones(5), np.ones(5)]))
        with pytest.raises(DegenerateSampleError):
            allocate(p, W_ID)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_aggregate_is_a_domain_error(self):
        # each loss is finite, the first row's sum is not: no RuntimeWarning
        p = Portfolio(("a", "b"), [[1e308, 1e308], [1, 2], [3, 1], [5, 7]])
        with pytest.raises(DomainError, match="row sum"):
            allocate(p, W_POW1)


class TestPortfolio:
    def test_from_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("fire,flood\n1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        p = Portfolio.from_csv(path)
        assert p.names == ("fire", "flood")
        assert np.array_equal(p.aggregate, np.array([3.0, 7.0, 11.0]))

    def test_aggregate_is_summed_once_and_read_only(self):
        cols = np.random.default_rng(3).pareto(2.5, (50, 3))
        p = Portfolio(("a", "b", "c"), cols)
        assert p.aggregate is p.aggregate
        assert p.aggregate.tobytes() == cols.sum(axis=1).tobytes()
        with pytest.raises(ValueError):
            p.aggregate[0] = 0.0
        assert "aggregate" not in repr(p)

    def test_from_csv_rejects_a_bad_row_and_a_missing_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("fire,flood\n1.0,2.0\n3.0,n/a\n5.0,6.0\n")
        with pytest.raises(DomainError, match="line 3"):
            Portfolio.from_csv(path)
        path.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        with pytest.raises(DomainError, match="header"):
            Portfolio.from_csv(path)

    def test_validation(self):
        with pytest.raises(DomainError):
            Portfolio(("a",), np.array([[1.0], [np.inf], [2.0]]))


_BVP2 = BVP2(delta=2.1, delta_y=0.5254)
# every number a sample-based estimator hands back, by name
_ESTIMATES = {
    "empirical_cw.value": lambda s: empirical_cw(s, W_POW1, n_boot=20).value,
    "empirical_cw.std_error": lambda s: empirical_cw(s, W_POW1, n_boot=20).std_error,
    "empirical_pearson.value": lambda s: empirical_pearson(s, n_boot=20).value,
    "empirical_pearson.std_error": lambda s: empirical_pearson(s, n_boot=20).std_error,
    "lambda_w_empirical": lambda s: lambda_w_empirical(s.xs, W_BETA),
    "lambda_w(sample)": lambda s: lambda_w(s, W_POW1),
    "weighted_premium.premium": lambda s: weighted_premium(s, np.sqrt).premium,
    "weighted_premium.base": lambda s: weighted_premium(s, np.sqrt).base,
    "gini_premium.premium": lambda s: gini_premium(s, W_POW1).premium,
    "gini_premium.loading": lambda s: gini_premium(s, W_POW1).loading,
    "gini_wipm_rhs.premium": lambda s: gini_wipm_rhs(s, W_POW1).premium,
    "gini_wipm_rhs.base": lambda s: gini_wipm_rhs(s, W_POW1).base,
    "gini_wipm_rhs.cw": lambda s: gini_wipm_rhs(s, W_POW1).detail["cw"],
    "gini_wipm_rhs.slope": lambda s: gini_wipm_rhs(s, W_POW1).detail["slope"],
    "gini_wipm_rhs.pi_y": lambda s: gini_wipm_rhs(s, W_POW1).detail["pi_y"],
    "classical_wipm_rhs.premium": lambda s: classical_wipm_rhs(s, np.sqrt).premium,
    "classical_wipm_rhs.base": lambda s: classical_wipm_rhs(s, np.sqrt).base,
    "classical_wipm_rhs.rho": lambda s: classical_wipm_rhs(s, np.sqrt).detail["rho"],
    "classical_wipm_rhs.sd_ratio":
        lambda s: classical_wipm_rhs(s, np.sqrt).detail["sd_ratio"],
    "classical_wipm_rhs.pi_v": lambda s: classical_wipm_rhs(s, np.sqrt).detail["pi_v"],
    "allocate.premium": lambda s: allocate(
        Portfolio(("x", "y"), np.column_stack([s.xs, s.ys])), W_POW1)[0].premium,
    "mc_reference.mean": lambda s: mc_reference(_BVP2, "cw", 1000, 1, 10,
                                                weight=W_POW1)[0],
    "mc_reference.se": lambda s: mc_reference(_BVP2, "cw", 1000, 1, 10,
                                              weight=W_POW1)[1],
}


@pytest.mark.parametrize("name", list(_ESTIMATES))
def test_estimates_are_python_floats(name):
    # a numpy scalar would print as np.float64(...) in reports
    s = sample(_BVP2, 500, seed=1)
    assert type(_ESTIMATES[name](s)) is float
