"""Family and margin tests.

Independent oracles: the samplers (stochastic representations) validate
the ddf formulas and vice versa; finite differences of the joint ddf
validate the BVP3 density coefficients; binomial standard errors bound
the sampler/evaluator gap.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats as sps

from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    EllipticalT,
    Normal,
    NormalMargin,
    PairedSample,
    ParetoIIMargin,
    StudentTMargin,
    bvp3_pdf_terms,
    chunk_seeds,
    joint_ddf,
    margins,
    pearson_closed_form,
    regression_line,
    sample,
)
from ginicorr.errors import (
    DomainError,
    MomentError,
    NoLinearRegressionError,
    UnsupportedPairError,
)
from ginicorr import gini
from ginicorr.gini import closed_cw, cw_via_regression, empirical_cw, empirical_pearson
from ginicorr.oracle import hoeffding_cw, mc_reference
from ginicorr.weights import WeightFunction
from ginicorr.wipm import gini_wipm_rhs

ALL_FAMILIES = [
    Normal(rho=0.5),
    Normal(mu_x=1.0, mu_y=-2.0, sigma_x=2.0, sigma_y=0.5, rho=-0.6),
    EllipticalT(sigma_xy=0.4, nu=3.0),
    BVP1(delta=3.0),
    BVP2(delta=2.1, delta_y=0.5254),
    BVP3(delta=1.8, delta_x=1.2, delta_y=0.7),
]


class TestParetoMargin:
    def test_quantile_examples(self):
        m = ParetoIIMargin(0.0, 1.0, 2.0)
        assert m.quantile(0.0) == 0.0
        assert m.quantile(0.75) == pytest.approx(1.0, abs=1e-14)

    def test_quantile_roundtrip(self):
        m = ParetoIIMargin(-1.0, 0.7, 1.3)
        u = np.linspace(0.0, 0.999, 50)
        assert np.max(np.abs(m.ddf(m.quantile(u)) - (1.0 - u))) < 1e-12

    def test_quantile_strictly_increasing(self):
        m = ParetoIIMargin(0.0, 1.0, 4.0)
        q = m.quantile(np.linspace(0.0, 0.99, 100))
        assert np.all(np.diff(q) > 0.0)

    def test_mean_examples(self):
        assert ParetoIIMargin(0.0, 1.0, 2.0).mean() == 1.0
        assert ParetoIIMargin(3.0, 2.0, 5.0).mean() == 3.5
        big = ParetoIIMargin(0.0, 1.0, 1.0001).mean()
        assert big == pytest.approx(10_000.0, rel=1e-8)

    def test_infinite_mean(self):
        with pytest.raises(MomentError):
            ParetoIIMargin(0.0, 1.0, 1.0).mean()

    def test_quantile_domain(self):
        with pytest.raises(DomainError):
            ParetoIIMargin(0.0, 1.0, 2.0).quantile(1.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            ParetoIIMargin(0.0, -1.0, 2.0)
        with pytest.raises(DomainError):
            ParetoIIMargin(0.0, 1.0, 0.0)


class TestJointDdf:
    def test_corner_is_one(self):
        assert joint_ddf(BVP1(delta=2.0), 0.0, 0.0) == 1.0

    def test_bvp3_marginal_consistency_at_boundary(self):
        f = BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)
        x = 2.0
        want = (1.0 + x) ** (-f.delta_x_star)
        assert joint_ddf(f, x, 0.0) == pytest.approx(want, rel=1e-14)

    def test_bvp2_direct_substitution(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        want = 3.0 ** (-2.1) * 2.0 ** (-0.5254)
        assert joint_ddf(f, 1.0, 1.0) == pytest.approx(want, rel=1e-14)

    def test_below_support_clamps(self):
        f = BVP2(mu_x=1.0, mu_y=2.0, delta=2.0, delta_y=1.0)
        assert joint_ddf(f, 0.0, 1.0) == 1.0

    def test_monotone_along_axes(self):
        for f in ALL_FAMILIES:
            xs = np.linspace(f.mu_x, f.mu_x + 4.0, 9)
            vals = joint_ddf(f, xs, np.full_like(xs, f.mu_y + 0.5))
            assert np.all(np.diff(vals) <= 1e-9), f

    def test_normal_survival_identity(self):
        # P[X>x, Y>y] = 1 - F_X(x) - F_Y(y) + F(x, y)
        f = Normal(rho=0.37)
        x, y = 0.4, -0.3
        fx = sps.norm.cdf(x)
        fy = sps.norm.cdf(y)
        fxy = sps.multivariate_normal(mean=[0, 0], cov=[[1, 0.37], [0.37, 1]]).cdf([x, y])
        assert joint_ddf(f, x, y) == pytest.approx(1 - fx - fy + fxy, abs=1e-8)

    def test_normal_is_scipys_multivariate_normal(self):
        # the one multivariate_t call dispatches to it at df = inf
        f = Normal(mu_x=1.0, mu_y=-2.0, sigma_x=2.0, sigma_y=0.5, rho=-0.6)
        x, y = np.meshgrid(np.linspace(-4.0, 5.0, 7), np.linspace(-3.5, -0.5, 7))
        pts = np.column_stack([-x.ravel(), -y.ravel()])
        want = sps.multivariate_normal(mean=[-1.0, 2.0], cov=f.dispersion).cdf(pts)
        assert np.array_equal(joint_ddf(f, x, y), np.clip(want, 0.0, 1.0).reshape(x.shape))


class TestSampler:
    def test_deterministic(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        s1 = sample(f, 100, seed=7)
        s2 = sample(f, 100, seed=7)
        assert np.array_equal(s1.xs, s2.xs) and np.array_equal(s1.ys, s2.ys)
        s3 = sample(f, 100, seed=8)
        assert not np.array_equal(s1.xs, s3.xs)

    def test_chunked_deterministic(self):
        # mc_reference draws replication r from chunk_seeds(seed, R)[r]: one
        # seed repeats the streams, and stream r does not depend on R
        def streams(seeds):
            return [np.random.default_rng(ss).standard_exponential(1000) for ss in seeds]

        four = streams(chunk_seeds(3, 4))
        for a, b in zip(four, streams(chunk_seeds(3, 4))):
            assert np.array_equal(a, b)
        for a, b in zip(four[:2], streams(chunk_seeds(3, 2))):
            assert np.array_equal(a, b)
        assert not np.array_equal(four[0], four[1])
        assert not np.array_equal(four[0], streams(chunk_seeds(4, 1))[0])

    def test_meta_records_provenance(self):
        s = sample(Normal(rho=0.2), 50, seed=11)
        assert s.meta["seed"] == 11 and s.meta["n"] == 50
        assert "normal" in s.meta["family"]

    def test_bvp1_marginal_ddf(self):
        # empirical marginal ddf at x = 1 vs (1+1)^-delta, 3 binomial SEs
        f = BVP1(delta=2.0)
        s = sample(f, 100_000, seed=42)
        p = 2.0 ** -2.0
        emp = np.mean(s.xs > 1.0)
        se = math.sqrt(p * (1 - p) / s.n)
        assert abs(emp - p) < 3 * se

    def test_elliptical_draws_are_a_normal_pair_over_a_chi_scale(self):
        # Normal is the nu = inf member: the same pair, and no chi-square draw
        fn = Normal(mu_x=1.5, mu_y=-2.0, sigma_x=2.5, sigma_y=0.3, rho=-0.7)
        ft = EllipticalT(mu_x=1.5, mu_y=-2.0, sigma_x=2.5, sigma_y=0.3, sigma_xy=-0.525,
                         nu=2.5)
        assert ft.rho == -0.525 / (2.5 * 0.3)
        for f in (fn, ft):
            s = sample(f, 1001, seed=9)
            rng = np.random.default_rng(9)
            z1, z2 = rng.standard_normal(1001), rng.standard_normal(1001)
            x = f.sigma_x * z1
            y = f.sigma_y * (f.rho * z1 + math.sqrt(1.0 - f.rho ** 2) * z2)
            if f is ft:
                chi = np.sqrt(rng.chisquare(f.nu, 1001) / f.nu)
                x, y = x / chi, y / chi
            assert np.array_equal(s.xs, f.mu_x + x) and np.array_equal(s.ys, f.mu_y + y)

    def test_normal_independence(self):
        s = sample(Normal(rho=0.0), 100_000, seed=1)
        r = np.corrcoef(s.xs, s.ys)[0, 1]
        assert abs(r) < 3.0 / math.sqrt(s.n)

    @pytest.mark.parametrize("f", ALL_FAMILIES, ids=lambda f: type(f).__name__)
    def test_sampler_matches_ddf_on_grid(self, f):
        # joint sampler vs joint ddf at 25 grid points, 200k draws
        s = sample(f, 200_000, seed=1234)
        qx = np.quantile(s.xs, [0.2, 0.4, 0.6, 0.8, 0.9])
        qy = np.quantile(s.ys, [0.2, 0.4, 0.6, 0.8, 0.9])
        for x in qx:
            surv = joint_ddf(f, np.full_like(qy, x), qy)
            for y, p in zip(qy, surv):
                emp = np.mean((s.xs > x) & (s.ys > y))
                se = math.sqrt(max(p * (1.0 - p), 1e-12) / s.n)
                assert abs(emp - p) < 3.0 * se, (f, x, y)

    def test_margin_mean_clt(self):
        # sample mean within 3 SEs of the closed mean when variance exists
        for f in (BVP1(delta=3.0), BVP2(delta=2.5, delta_y=1.0)):
            s = sample(f, 200_000, seed=5)
            mx, _ = margins(f)
            se = s.xs.std(ddof=1) / math.sqrt(s.n)
            assert abs(s.xs.mean() - mx.mean()) < 3.0 * se

    def test_bvp3_small_shape_limit_ks(self):
        # Ga(eps, 1) -> 0, so BVP3 margins collapse to BVP1's
        n = 20_000
        s3 = sample(BVP3(delta=2.5, delta_x=1e-9, delta_y=1e-9), n, seed=97)
        s1 = sample(BVP1(delta=2.5), n, seed=98)
        assert sps.ks_2samp(s3.xs, s1.xs).pvalue > 0.01
        assert sps.ks_2samp(s3.ys, s1.ys).pvalue > 0.01

    def test_conditional_mean_linearity(self):
        # binned E[X | Y in bin] sits on alpha + beta E[Y | bin]
        for f in (Normal(rho=0.6), BVP1(delta=3.0), BVP2(delta=2.5, delta_y=1.0)):
            line = regression_line(f)
            s = sample(f, 400_000, seed=31)
            edges = np.quantile(s.ys, np.linspace(0.05, 0.85, 9))
            idx = np.digitize(s.ys, edges)
            for k in range(1, len(edges)):
                mask = idx == k
                cnt = mask.sum()
                want = line.alpha + line.beta * s.ys[mask].mean()
                se = s.xs[mask].std(ddof=1) / math.sqrt(cnt)
                assert abs(s.xs[mask].mean() - want) < 5.0 * se, (f, k)


class TestRegressionLine:
    def test_bvp1_example(self):
        line = regression_line(BVP1(delta=5.87))
        assert line.beta == pytest.approx(1.0 / 5.87, rel=1e-14)

    def test_normal_equal_scales(self):
        line = regression_line(Normal(rho=0.5))
        assert line.beta == 0.5
        assert line.alpha == 0.0

    def test_bvp2_example(self):
        f = BVP2(delta=2.1, delta_y=0.5254)
        line = regression_line(f)
        want = (2.6254 - 1.0) / (2.6254 * 1.1)
        assert line.beta == pytest.approx(want, rel=1e-12)

    def test_mean_identity(self):
        # E[X] = alpha + beta E[Y], including shifted/scaled parameters
        for f in (BVP1(mu_x=2.0, mu_y=-1.0, sigma_x=3.0, sigma_y=0.5, delta=2.5),
                  BVP2(mu_x=-1.0, mu_y=4.0, sigma_x=2.0, sigma_y=1.5,
                       delta=2.2, delta_y=0.8),
                  Normal(mu_x=1.0, mu_y=2.0, sigma_x=2.0, sigma_y=3.0, rho=0.3),
                  EllipticalT(mu_x=0.5, mu_y=-0.5, sigma_xy=0.3, nu=2.5)):
            mx, my = margins(f)
            line = regression_line(f)
            assert mx.mean() == pytest.approx(line.alpha + line.beta * my.mean(),
                                              rel=1e-12)

    def test_bvp2_slope_vs_conditional_mean_mc(self):
        # cross-check (sf-parameters) by Monte Carlo linear fit
        f = BVP2(delta=2.1, delta_y=0.5254)
        s = sample(f, 500_000, seed=77)
        slope, intercept = np.polyfit(s.ys, s.xs, 1)
        line = regression_line(f)
        assert slope == pytest.approx(line.beta, abs=0.05)
        assert intercept == pytest.approx(line.alpha, abs=0.05)

    def test_bvp3_raises(self):
        with pytest.raises(NoLinearRegressionError):
            regression_line(BVP3(delta=2.0, delta_x=1.0, delta_y=0.5))

    def test_infinite_mean_raises(self):
        with pytest.raises(MomentError):
            regression_line(BVP1(delta=0.9))


class TestPearson:
    def test_bvp1(self):
        assert pearson_closed_form(BVP1(delta=5.87)) == pytest.approx(1 / 5.87)
        assert pearson_closed_form(BVP1(delta=5.87)) == pytest.approx(0.17, abs=5e-3)

    def test_bvp2_example(self):
        got = pearson_closed_form(BVP2(delta=2.1, delta_y=0.5254))
        want = math.sqrt(0.1 / (2.1 * 2.6254 * 0.6254))
        assert got == pytest.approx(want, rel=1e-14)
        assert got == pytest.approx(0.1703, abs=5e-4)

    def test_normal_identity(self):
        assert pearson_closed_form(Normal(rho=0.5)) == 0.5

    def test_moment_errors(self):
        with pytest.raises(MomentError):
            pearson_closed_form(BVP1(delta=2.0))
        with pytest.raises(MomentError):
            pearson_closed_form(EllipticalT(sigma_xy=0.2, nu=2.0))

    def test_bvp3_unsupported(self):
        with pytest.raises(UnsupportedPairError):
            pearson_closed_form(BVP3(delta=2.0, delta_x=1.0, delta_y=0.5))


class TestBvp3PdfTerms:
    def test_no_zero_coefficients(self):
        # only the four live triplets are kept; none has a zero coefficient
        for f in (BVP3(delta=1.5, delta_x=1.5, delta_y=1.0),
                  BVP3(delta=0.3, delta_x=4.0, delta_y=0.02)):
            terms = dict(bvp3_pdf_terms(f))
            assert set(terms) == {(0, 0, 2), (1, 0, 1), (0, 1, 1), (1, 1, 0)}
            assert all(c > 0.0 for c in terms.values())

    def test_candidate_values(self):
        f = BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)
        terms = dict(bvp3_pdf_terms(f))
        assert terms[(0, 0, 2)] == pytest.approx(1.5 * 2.5)
        assert terms[(1, 0, 1)] == pytest.approx(1.5 * 1.5)
        assert terms[(0, 1, 1)] == pytest.approx(1.5 * 1.0)
        assert terms[(1, 1, 0)] == pytest.approx(1.5 * 1.0)

    def test_matches_mixed_partial_of_ddf(self):
        # independent finite-difference oracle on the joint ddf
        f = BVP3(delta=1.7, delta_x=1.1, delta_y=0.9)
        terms = bvp3_pdf_terms(f)

        def density(x, y):
            return sum(
                c * (1 + x) ** -(f.delta_x + i1) * (1 + y) ** -(f.delta_y + i2)
                * (1 + x + y) ** -(f.delta + i3)
                for (i1, i2, i3), c in terms
            )

        h = 1e-5
        for x, y in ((0.3, 0.4), (1.0, 2.0), (0.1, 3.0)):
            fd = (joint_ddf(f, x + h, y + h) - joint_ddf(f, x + h, y - h)
                  - joint_ddf(f, x - h, y + h) + joint_ddf(f, x - h, y - h)) / (4 * h * h)
            assert fd == pytest.approx(density(x, y), rel=1e-5)

    def test_bvp1_limit(self):
        # delta_x, delta_y -> 0: density reduces to delta(delta+1)(1+x+y)^-(delta+2)
        f = BVP3(delta=2.0, delta_x=1e-12, delta_y=1e-12)
        terms = dict(bvp3_pdf_terms(f))
        assert terms[(0, 0, 2)] == pytest.approx(6.0)
        for trip in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            assert abs(terms[trip]) < 1e-11

    def test_requires_bvp3(self):
        with pytest.raises(DomainError):
            bvp3_pdf_terms(BVP1(delta=2.0))


class TestValidation:
    def test_rho_bounds(self):
        with pytest.raises(DomainError):
            Normal(rho=1.0)

    def test_dispersion_pd(self):
        with pytest.raises(DomainError):
            EllipticalT(sigma_x=1.0, sigma_y=1.0, sigma_xy=1.5, nu=3.0)

    def test_positive_tails(self):
        with pytest.raises(DomainError):
            BVP2(delta=2.0, delta_y=0.0)

    def test_sample_needs_n(self):
        with pytest.raises(DomainError):
            sample(BVP1(delta=2.0), 0, seed=1)

    def test_negative_seed_is_refused_by_every_seeded_draw(self):
        f, w = BVP1(delta=3.0), WeightFunction.power(1.0)
        s = sample(f, 50, seed=1)
        for draw in (lambda: sample(f, 50, seed=-1),
                     lambda: empirical_cw(s, w, n_boot=10, seed=-3),
                     lambda: empirical_pearson(s, n_boot=10, seed=-3),
                     lambda: mc_reference(f, "cw", 1000, seed=-3, replications=10, weight=w)):
            with pytest.raises(DomainError, match=r"^seed must be >= 0, got -[13]$"):
                draw()
        # without a bootstrap the seed is not used
        assert empirical_cw(s, w, n_boot=0, seed=-3).value == empirical_cw(s, w, n_boot=0).value


@pytest.mark.parametrize("call", [
    lambda f: sample(f, 10, seed=1),
    margins,
    lambda f: joint_ddf(f, 0.0, 0.0),
    regression_line,
    pearson_closed_form,
    lambda f: closed_cw(f, WeightFunction.power(1.0)),
    lambda f: cw_via_regression(f, WeightFunction.power(1.0)),
    lambda f: gini_wipm_rhs(f, WeightFunction.power(1.0)),
    lambda f: hoeffding_cw(f, WeightFunction.power(1.0)),
], ids=["sample", "margins", "joint_ddf", "regression_line", "pearson_closed_form",
        "closed_cw", "cw_via_regression", "gini_wipm_rhs", "hoeffding_cw"])
def test_an_object_that_is_not_a_family_is_refused(call):
    with pytest.raises(DomainError, match="^unknown family "):
        call(object())


def _non_finite_cases(*instances):
    return [pytest.param(obj, fl.name, bad, id=f"{type(obj).__name__}-{fl.name}-{bad}")
            for obj in instances for fl in dataclasses.fields(obj)
            for bad in (math.inf, -math.inf, math.nan)]


@pytest.mark.parametrize("f, name, bad", _non_finite_cases(
    Normal(rho=0.5), EllipticalT(sigma_xy=0.5, nu=3.0), BVP1(), BVP2(), BVP3()))
def test_family_parameters_must_be_finite(f, name, bad):
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        dataclasses.replace(f, **{name: bad})


@pytest.mark.parametrize("m, name, bad", _non_finite_cases(
    ParetoIIMargin(0.0, 1.0, 2.0), NormalMargin(0.0, 1.0), StudentTMargin(0.0, 1.0, 3.0)))
def test_margin_parameters_must_be_finite(m, name, bad):
    with pytest.raises(DomainError, match=rf"^{name} must be "):
        dataclasses.replace(m, **{name: bad})


class TestParetoConstruction:
    """BVP1 and BVP2 keep their own laws as BVP3 with zero indices."""

    @pytest.mark.parametrize("f, want", [
        (Normal(1.5, -2.0, 2.0, 0.25, -0.6),
         "normal(mu_x=1.5, mu_y=-2, sigma_x=2, sigma_y=0.25, rho=-0.6)"),
        (EllipticalT(0.5, 1.0, 1.5, 2.0, 0.9, 2.123456789),
         "elliptical_t(mu_x=0.5, mu_y=1, sigma_x=1.5, sigma_y=2, sigma_xy=0.9, nu=2.12346)"),
        (BVP1(1.0, 2.0, 0.5, 3.0, 1.3),
         "bvp1(mu_x=1, mu_y=2, sigma_x=0.5, sigma_y=3, delta=1.3)"),
        (BVP2(-1.0, 0.5, 2.0, 0.7, 1.2, 0.0125),
         "bvp2(mu_x=-1, mu_y=0.5, sigma_x=2, sigma_y=0.7, delta=1.2, delta_y=0.0125)"),
        (BVP3(0.0, 1.0, 1.0, 2.0, 0.9, 0.4, 3e-7),
         "bvp3(mu_x=0, mu_y=1, sigma_x=1, sigma_y=2, delta=0.9, delta_x=0.4, delta_y=3e-07)"),
    ])
    def test_describe(self, f, want):
        assert f.describe() == want

    @pytest.mark.parametrize("cls, indices", [
        (BVP1, {}), (BVP2, {"delta_y": 1.0}), (BVP3, {"delta_x": 1.0, "delta_y": 1.0}),
    ])
    def test_fields(self, cls, indices):
        want = dict(mu_x=0.0, mu_y=0.0, sigma_x=1.0, sigma_y=1.0, delta=2.0, **indices)
        assert {fl.name: fl.default for fl in dataclasses.fields(cls)} == want
        assert list(want) == [fl.name for fl in dataclasses.fields(cls)]
        assert cls(*range(1, len(want) + 1)) == cls(**dict(zip(want, range(1, len(want) + 1))))

    def test_absent_indices_are_not_arguments(self):
        with pytest.raises(TypeError):
            BVP1(delta_x=1.0)
        with pytest.raises(TypeError):
            BVP2(delta_x=1.0)
        assert repr(BVP1(delta=3.0)) == \
            "BVP1(mu_x=0.0, mu_y=0.0, sigma_x=1.0, sigma_y=1.0, delta=3.0)"
        assert BVP1() != BVP2(delta_y=1.0) and BVP1() == BVP1()

    def test_first_invalid_field_is_named(self):
        with pytest.raises(DomainError, match=r"^sigma_y must be > 0, got -1\.0$"):
            BVP3(sigma_y=-1.0, delta=0.0, delta_x=0.0)
        with pytest.raises(DomainError, match=r"^delta_x must be > 0, got 0\.0$"):
            BVP3(delta_x=0.0, delta_y=-1.0)
        with pytest.raises(DomainError, match=r"^delta_y must be > 0, got 0\.0$"):
            BVP2(delta_y=0.0)

    @pytest.mark.parametrize("seed", [5, 2024])
    def test_bvp1_bvp2_draws(self, seed):
        n = 257
        f1 = BVP1(1.0, -2.0, 0.5, 3.0, 1.7)
        rng = np.random.default_rng(seed)
        ex, ey = rng.standard_exponential(n), rng.standard_exponential(n)
        g = rng.standard_gamma(f1.delta, n)
        s = sample(f1, n, seed)
        assert s.xs.tobytes() == (f1.mu_x + f1.sigma_x * ex / g).tobytes()
        assert s.ys.tobytes() == (f1.mu_y + f1.sigma_y * ey / g).tobytes()

        f2 = BVP2(-1.0, 0.5, 2.0, 0.7, 2.1, 0.5254)
        rng = np.random.default_rng(seed)
        ex, ey = rng.standard_exponential(n), rng.standard_exponential(n)
        g = rng.standard_gamma(f2.delta, n)
        gy = rng.standard_gamma(f2.delta_y, n)
        s = sample(f2, n, seed)
        assert s.xs.tobytes() == (f2.mu_x + f2.sigma_x * ex / g).tobytes()
        assert s.ys.tobytes() == (f2.mu_y + f2.sigma_y * ey / (gy + g)).tobytes()

    @pytest.mark.parametrize("f", [BVP1(1.0, -2.0, 0.5, 3.0, 1.7),
                                   BVP2(-1.0, 0.5, 2.0, 0.7, 2.1, 0.5254),
                                   BVP3(2.0, -0.5, 1.5, 0.25, 1.5, 1.2, 0.7)],
                             ids=lambda f: f.name)
    def test_pareto_draws_match_the_out_of_place_expression(self, f):
        n, seed = 1001, 11
        rng = np.random.default_rng(seed)
        ex, ey = rng.standard_exponential(n), rng.standard_exponential(n)
        g = rng.standard_gamma(f.delta, n)
        gx, gy = (rng.standard_gamma(d, n) if d > 0.0 else 0.0
                  for d in (f.delta_x, f.delta_y))
        s = sample(f, n, seed)
        assert s.xs.tobytes() == (f.mu_x + f.sigma_x * ex / (gx + g)).tobytes()
        assert s.ys.tobytes() == (f.mu_y + f.sigma_y * ey / (gy + g)).tobytes()

    def test_bvp1_bvp2_ddf(self):
        x = np.linspace(-1.0, 9.0, 41)
        y = np.linspace(-2.0, 5.0, 41)[::-1]
        f1 = BVP1(0.5, -1.0, 2.0, 0.5, 2.7)
        f2 = BVP2(0.5, -1.0, 2.0, 0.5, 2.7, 0.31)
        xt = np.maximum((x - 0.5) / 2.0, 0.0)
        yt = np.maximum((y + 1.0) / 0.5, 0.0)
        want1 = (1.0 + xt + yt) ** (-2.7)
        want2 = want1 * (1.0 + yt) ** (-0.31)
        assert joint_ddf(f1, x, y).tobytes() == want1.tobytes()
        assert joint_ddf(f2, x, y).tobytes() == want2.tobytes()
        for i in range(0, 41, 5):
            assert joint_ddf(f1, x[i], y[i]) == float(want1[i])
            assert joint_ddf(f2, float(x[i]), float(y[i])) == float(want2[i])


class TestPairedSample:
    def test_values_are_read_only_views(self):
        xs, ys = np.arange(5.0), np.arange(5.0) ** 2
        s = PairedSample(xs, ys)
        assert np.shares_memory(s.xs, xs) and np.shares_memory(s.ys, ys)
        for margin in (s.xs, s.ys, s.swapped().xs):
            with pytest.raises(ValueError):
                margin[0] = 1.0
        xs[0] = -1.0  # the caller's own array stays writable
        assert s.xs[0] == -1.0

    def test_equality_and_repr_ignore_the_rank_cache(self):
        s = sample(BVP1(delta=3.0), 50, seed=4)
        t = PairedSample(s.xs.copy(), s.ys.copy(), dict(s.meta))
        before = repr(s)
        empirical_cw(s, WeightFunction.power(1.0), n_boot=0)
        assert gini._DERIVED[id(s.xs)].order is not None and id(t.xs) not in gini._DERIVED
        assert s == t
        assert repr(s) == before == repr(t)
        assert [f.name for f in dataclasses.fields(s)] == ["xs", "ys", "meta"]

    def test_equality_is_by_value(self):
        xs, ys = np.arange(5.0), np.arange(5.0) ** 2
        assert PairedSample(xs, ys) == PairedSample(xs, ys)
        assert PairedSample(xs, ys) == PairedSample(list(xs), ys.copy())
        assert PairedSample(xs, ys) != PairedSample(ys, xs)
        assert PairedSample(xs, ys) != PairedSample(xs, ys, {"seed": 1})


_ONE_OF_EACH = [Normal(rho=0.5), EllipticalT(sigma_xy=0.4, nu=3.0), BVP1(delta=5.87),
                BVP2(delta=2.1, delta_y=0.5254), BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)]


@pytest.mark.parametrize("f", _ONE_OF_EACH, ids=lambda f: f.name)
def test_margins_are_built_once_per_family_and_stay_out_of_its_fields(f):
    f, twin = dataclasses.replace(f), dataclasses.replace(f)
    before = repr(f), hash(f)
    pair = margins(f)
    again = margins(f)
    assert again[0] is pair[0] and again[1] is pair[1]
    assert pair == margins(twin) and pair[0] is not margins(twin)[0]
    assert (repr(f), hash(f)) == before and f == twin
