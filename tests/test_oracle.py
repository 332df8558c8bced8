"""Oracle self-consistency: the validators must be right before anything else."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    EllipticalT,
    Normal,
    NormalMargin,
    ParetoIIMargin,
    StudentTMargin,
    margins,
)
from ginicorr.errors import DomainError, MomentError, QuadratureError
from ginicorr.gini import closed_cw, cov_x_weighted, cw_via_regression, lambda_w_margin
from ginicorr.oracle import (
    QuadratureSpec,
    mc_reference,
    quad2_bvp3_moment,
    quad_cov_margin,
)
from ginicorr.weights import WeightFunction, reflect
from ginicorr.wipm import gini_wipm_rhs


class TestQuadCovMargin:
    def test_normal_identity_weight(self):
        # Cov[X, 1 - F(X)] = -GMD/4 = -sigma / (2 sqrt(pi)) for a normal margin
        for sigma in (1.0, 2.5):
            got = quad_cov_margin(NormalMargin(3.0, sigma), WeightFunction.identity())
            assert got == pytest.approx(-sigma / (2.0 * math.sqrt(math.pi)), abs=1e-10)

    def test_near_constant_weight_vanishes(self):
        got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, 3.0),
                              WeightFunction.power(1e-9))
        assert abs(got) < 1e-8

    def test_pareto_delta2_power1(self):
        got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, 2.0),
                              WeightFunction.power(1.0))
        assert got == pytest.approx(-1.0 / 3.0, abs=1e-8)

    def test_location_invariance(self):
        w = WeightFunction.beta_cdf(2.0, 2.0)
        a = quad_cov_margin(ParetoIIMargin(0.0, 1.0, 2.5), w)
        b = quad_cov_margin(ParetoIIMargin(10.0, 1.0, 2.5), w)
        assert a == pytest.approx(b, abs=1e-8)


# ---------------------------------------------------------------------------
# independent references for the tail-variable quadrature
# ---------------------------------------------------------------------------

def _mp_weight(w):
    """w as a function of an mpmath number in [0, 1]."""
    if w.kind == "identity":
        return lambda u: u
    if w.kind == "power":
        return lambda u: u ** w.gamma
    if w.kind == "beta_cdf":
        return lambda u: mp.betainc(w.a, w.b, 0, u, regularized=True)
    ts, vs = [float(t) for t in w.knots_t], [float(v) for v in w.knots_w]

    def table(u):
        if u <= ts[0]:
            return mp.mpf(vs[0])
        if u >= ts[-1]:
            return mp.mpf(vs[-1])
        i = max(j for j in range(len(ts) - 1) if ts[j] <= u)
        return vs[i] + (vs[i + 1] - vs[i]) * (u - ts[i]) / (ts[i + 1] - ts[i])

    return table


def _pareto_table_cov(delta, w):
    """Cov[X, w(1 - F)] of the unit Pareto II margin for a table weight, exactly.

    int_0^1 (t^(-p) - 1)(w(t) - wbar) dt = int t^(-p) w(t) dt - wbar/(1 - p)
    with p = 1/delta, summed piece by piece of the linear interpolant.
    """
    with mp.workdps(30):
        p = 1 / mp.mpf(delta)
        ts = [mp.mpf(0), *(mp.mpf(float(t)) for t in w.knots_t), mp.mpf(1)]
        vs = [float(w.knots_w[0]), *(float(v) for v in w.knots_w), float(w.knots_w[-1])]
        total = wbar = mp.mpf(0)
        for a, b, va, vb in zip(ts[:-1], ts[1:], vs[:-1], vs[1:]):
            if b == a:
                continue
            slope = (vb - va) / (b - a)
            icpt = va - slope * a
            total += (icpt * (b ** (1 - p) - a ** (1 - p)) / (1 - p)
                      + slope * (b ** (2 - p) - a ** (2 - p)) / (2 - p))
            wbar += (va + vb) * (b - a) / 2
        return float(total - wbar / (1 - p))


def _pareto_cov_reference(delta, w):
    """Closed form (cov_x_weighted) or, for a table, the exact piecewise sum."""
    if w.kind == "table":
        return _pareto_table_cov(delta, w)
    return cov_x_weighted(ParetoIIMargin(0.0, 1.0, delta), w)


def _student_t_cov_mpmath(nu, w):
    """Cov[T, w(1 - F(T))] of the standard Student t by mpmath, x = e^y.

    By symmetry Cov = int_0^inf x f(x) (w(S) - w(1 - S)) dx with S = P[T > x].
    The substitution x = e^y turns the x^(-nu) decay into e^((1-nu) y),
    which mp.quad follows out to y = 1000; table knots are break points.
    """
    with mp.workdps(20):
        nu_ = mp.mpf(nu)
        wf = _mp_weight(w)
        dens = mp.gamma((nu_ + 1) / 2) / (mp.sqrt(nu_ * mp.pi) * mp.gamma(nu_ / 2))

        def integrand(y):
            x = mp.exp(y)
            u = mp.betainc(nu_ / 2, mp.mpf(1) / 2, 0, nu_ / (nu_ + x * x),
                           regularized=True) / 2
            return x * x * dens * (1 + x * x / nu_) ** (-(nu_ + 1) / 2) * (wf(u) - wf(1 - u))

        cuts = [-5.0, 0.0, 5.0, 20.0, 60.0, 200.0, 1000.0]
        if w.kind == "table":
            for t in w.knots_t:
                t = min(t, 1.0 - t)
                if 0.0 < t < 0.5:
                    cuts.append(math.log(-special.stdtrit(nu, t)))
        return float(mp.quad(integrand, [-mp.inf, *sorted(cuts), mp.inf]))


@st.composite
def _weights(draw):
    kind = draw(st.sampled_from(["identity", "power", "beta_cdf", "table"]))
    if kind == "identity":
        return WeightFunction.identity()
    if kind == "power":
        return WeightFunction.power(draw(st.floats(0.05, 5.0)))
    if kind == "beta_cdf":
        return WeightFunction.beta_cdf(draw(st.floats(0.3, 5.0)), draw(st.floats(0.3, 5.0)))
    ts = sorted(set(draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4))))
    vs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(ts), max_size=len(ts))))
    return WeightFunction.table([0.0, *ts, 1.0], [0.0, *vs, 1.0])


class TestTailQuadrature:
    """quad_cov_margin and lambda_w_margin against independent values to 1e-9."""

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(1.01, 10.0), w=_weights())
    def test_pareto_sweep(self, delta, w):
        m = ParetoIIMargin(0.0, 1.0, delta)
        want = _pareto_cov_reference(delta, w)
        want_star = _pareto_cov_reference(delta, reflect(w))
        assert quad_cov_margin(m, w) == pytest.approx(want, rel=1e-9)
        assert lambda_w_margin(m, w) == pytest.approx(want_star / want, rel=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(nu=st.floats(1.05, 10.0), w=_weights())
    def test_student_t_sweep(self, nu, w):
        m = StudentTMargin(0.0, 1.0, nu)
        assert quad_cov_margin(m, w) == pytest.approx(_student_t_cov_mpmath(nu, w),
                                                      rel=1e-9)
        assert lambda_w_margin(m, w) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("nu,want", [(1.2, -0.8654991183347271),
                                         (1.1, -2.040314060234968),
                                         (1.05, -4.793689926111523)])
    def test_student_t_heavy_tail_values(self, nu, want):
        # mpmath values of _student_t_cov_mpmath(nu, power(0.1)) at 30 digits
        got = quad_cov_margin(StudentTMargin(0.0, 1.0, nu), WeightFunction.power(0.1))
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("nu,want", [(1.2, -0.4760245150840999),
                                         (1.1, -1.122172733129232),
                                         (1.05, -2.636529459361338)])
    def test_elliptical_t_heavy_tail_routes(self, nu, want):
        # the heavy-tail regime: finite mean, nu near 1
        f, w = EllipticalT(sigma_xy=0.5, nu=nu), WeightFunction.power(0.1)
        assert cw_via_regression(f, w).value == pytest.approx(0.5, rel=1e-12)
        assert lambda_w_margin(margins(f)[0], w) == pytest.approx(1.0, abs=1e-9)
        # E[X] + 0.5 (pi_Y - E[Y]) = 0.5 Cov / E[w] = 0.5 * 1.1 * Cov
        assert gini_wipm_rhs(f, w).premium == pytest.approx(want, rel=1e-9)

    def test_table_knots_inside_the_unit_interval(self):
        # the knots are break points; without them tanh-sinh stalls on the kinks
        w = WeightFunction.table([0.0, 0.2, 0.45, 0.8, 1.0], [0.0, 0.05, 0.5, 0.6, 1.0])
        for delta in (1.02, 1.5, 4.0):
            got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, delta), w)
            assert got == pytest.approx(_pareto_table_cov(delta, w), rel=1e-11)
        got = quad_cov_margin(StudentTMargin(0.0, 1.0, 1.5), w)
        assert got == pytest.approx(_student_t_cov_mpmath(1.5, w), rel=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_knots_one_ulp_apart(self):
        # reflect separates knots that 1 - t maps onto one value, and the
        # quadrature skips the interval with no double inside it
        w = WeightFunction.table([0.0, 0.01, np.nextafter(0.01, 1.0), 1.0],
                                 [0.0, 0.0, 0.0, 1.0])
        same = WeightFunction.table([0.0, 0.01, 1.0], [0.0, 0.0, 1.0])
        for m in (NormalMargin(0.0, 1.0), ParetoIIMargin(0.0, 1.0, 2.0)):
            assert quad_cov_margin(m, w) == pytest.approx(quad_cov_margin(m, same),
                                                          rel=1e-12)
            assert lambda_w_margin(m, w) == pytest.approx(lambda_w_margin(m, same),
                                                          rel=1e-12)
        # a step: its reflection is a step too, and lambda_w = 1 on a symmetric margin
        step = WeightFunction.table([0.0, 0.25, np.nextafter(0.25, 1.0), 1.0],
                                    [0.0, 0.0, 1.0, 1.0])
        for m in (NormalMargin(0.0, 1.0), StudentTMargin(0.0, 1.0, 2.0)):
            assert lambda_w_margin(m, step) == pytest.approx(1.0, abs=1e-12)
        assert quad_cov_margin(ParetoIIMargin(0.0, 1.0, 2.0), step) == pytest.approx(
            _pareto_table_cov(2.0, step), rel=1e-12)

    def test_stalled_integral_raises_with_its_estimate(self, monkeypatch):
        import functools

        import scipy.integrate

        # three levels leave this integrand's error estimate near 2e-9
        stalled = functools.partial(scipy.integrate.tanhsinh, maxlevel=2)
        monkeypatch.setattr(scipy.integrate, "tanhsinh", stalled)
        with pytest.raises(QuadratureError) as info:
            quad_cov_margin(ParetoIIMargin(0.0, 1.0, 1.5), WeightFunction.beta_cdf(3.0, 0.5),
                            QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14))
        assert info.value.estimate < 0.0 and info.value.error_estimate > 0.0

    @pytest.mark.parametrize("delta", [1.001, 1.01, 1.5])
    @pytest.mark.parametrize("w", [WeightFunction.power(0.005), WeightFunction.power(0.01),
                                   WeightFunction.beta_cdf(0.01, 2.0)])
    def test_small_weight_exponent_where_the_tail_variable_underflows(self, delta, w):
        # t = s^k underflows while t^0.01 is still ~1e-3: w is formed from log s
        m = ParetoIIMargin(0.0, 1.0, delta)
        assert quad_cov_margin(m, w) == pytest.approx(cov_x_weighted(m, w), rel=1e-12)

    def test_infinite_mean_raises_moment_error(self):
        with pytest.raises(MomentError):
            quad_cov_margin(ParetoIIMargin(0.0, 1.0, 1.0), WeightFunction.identity())


# the probe, the bench points and the heavy-tail corners (h = 0.13, 0.25, 0.35)
BVP3_POINTS = [((1.5, 1.5, 1.0), 1.0), ((1.5, 1.5, 1.0), 2.0), ((1.2, 0.3, 0.2), 0.5),
               ((0.8, 0.4, 0.2), 0.1), ((1.0, 0.02, 0.01), 0.1), ((0.9, 0.2, 0.1), 0.05),
               ((0.9, 0.3, 0.1), 0.05)]


class TestBvp3Quadrature:
    """The Hoeffding-identity oracle against the four-3F2 closed form to 1e-9."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params,gamma", BVP3_POINTS)
    def test_matches_closed_form(self, params, gamma):
        d, dx, dy = params
        f = BVP3(delta=d, delta_x=dx, delta_y=dy)
        want = closed_cw(f, WeightFunction.power(gamma)).value
        assert quad2_bvp3_moment(f, gamma) == pytest.approx(want, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.05, 5.0), dx=st.floats(0.01, 5.0), dy=st.floats(0.01, 5.0),
           gamma=st.floats(0.01, 10.0))
    def test_domain_sweep(self, delta, dx, dy, gamma):
        assume(delta + dx > 1.0)
        f = BVP3(delta=delta, delta_x=dx, delta_y=dy)
        want = closed_cw(f, WeightFunction.power(gamma)).value
        # warnings are errors inside the body only: under a filterwarnings
        # mark a failing example ends in a pytest INTERNALERROR instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quad2_bvp3_moment(f, gamma)
        assert got == pytest.approx(want, abs=1e-9)

    def test_stalled_integral_raises_with_its_estimate(self, monkeypatch):
        import functools

        import scipy.integrate

        import ginicorr.oracle

        # the 2-d integral must raise, not the denominator's 1-d one
        monkeypatch.setattr(ginicorr.oracle, "quad_cov_margin", lambda *args: -1.0)
        stalled = functools.partial(scipy.integrate.tanhsinh, maxlevel=2)
        monkeypatch.setattr(scipy.integrate, "tanhsinh", stalled)
        with pytest.raises(QuadratureError, match="Hoeffding") as info:
            quad2_bvp3_moment(BVP3(delta=1.0, delta_x=0.02, delta_y=0.01), 0.1,
                              QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14))
        assert info.value.estimate < 0.0 and info.value.error_estimate > 0.0

    def test_bvp1_reduction(self):
        # delta_x = delta_y -> 0: oracle Gamma_gamma -> 1/delta
        f = BVP3(delta=2.0, delta_x=1e-8, delta_y=1e-8)
        assert quad2_bvp3_moment(f, 1.0) == pytest.approx(0.5, abs=1e-4)

    def test_bvp2_reduction(self):
        # delta_x -> 0: oracle matches the BVP2 closed form
        delta, dy, g = 2.0, 0.5254, 1.0
        f = BVP3(delta=delta, delta_x=1e-8, delta_y=dy)
        dys = delta + dy
        want = (1.0 / delta) * (delta * (g + 1) - 1.0) / (dys * (g + 1) - 1.0)
        assert quad2_bvp3_moment(f, g) == pytest.approx(want, abs=1e-4)

    def test_moment_precondition(self):
        with pytest.raises(MomentError):
            quad2_bvp3_moment(BVP3(delta=0.5, delta_x=0.3, delta_y=0.5), 1.0)


class TestMcReference:
    def test_deterministic(self):
        f = Normal(rho=0.5)
        w = WeightFunction.power(2.0)
        a = mc_reference(f, "cw", 2000, seed=9, replications=10, weight=w)
        b = mc_reference(f, "cw", 2000, seed=9, replications=10, weight=w)
        assert a == b

    def test_normal_cw(self):
        mean, se = mc_reference(Normal(rho=0.5), "cw", 20_000, seed=2,
                                replications=12, weight=WeightFunction.power(2.0))
        assert abs(mean - 0.5) < 4 * se

    def test_bvp1_cw(self):
        mean, se = mc_reference(BVP1(delta=5.87), "cw", 20_000, seed=3,
                                replications=12, weight=WeightFunction.identity())
        assert abs(mean - 1.0 / 5.87) < 4 * se

    def test_bvp1_pearson(self):
        # delta = 5.87 keeps fourth moments finite, so the CLT applies
        mean, se = mc_reference(BVP1(delta=5.87), "pearson", 100_000, seed=4,
                                replications=10)
        assert abs(mean - 1.0 / 5.87) < 4 * se

    def test_gini_premium_statistic(self):
        mean, se = mc_reference(BVP1(delta=3.0), "gini_premium", 10_000, seed=5,
                                replications=10, weight=WeightFunction.power(1.0))
        # Pi[X, Y] = E[X] + beta (pi_Y - E[Y]) = 1/2 + (1/3)(1/5 - 1/2) = 0.4
        assert abs(mean - 0.4) < 4 * se

    def test_validation(self):
        with pytest.raises(DomainError):
            mc_reference(Normal(rho=0.1), "cw", 500, seed=1, replications=10,
                         weight=WeightFunction.identity())
        with pytest.raises(DomainError):
            mc_reference(Normal(rho=0.1), "pearson", 2000, seed=1, replications=5)
        with pytest.raises(DomainError):
            mc_reference(Normal(rho=0.1), "nope", 2000, seed=1, replications=10)
        with pytest.raises(DomainError):
            mc_reference(Normal(rho=0.1), "cw", 2000, seed=1, replications=10)

    def test_quad_and_mc_agree_on_cov(self):
        # oracle self-consistency: quadrature covariance vs MC covariance
        m = ParetoIIMargin(0.0, 1.0, 2.5)
        w = WeightFunction.beta_cdf(2.0, 2.0)
        want = quad_cov_margin(m, w)
        rng = np.random.default_rng(8)
        vals = []
        for _ in range(12):
            u = rng.uniform(size=30_000)
            x = m.quantile(u)
            vals.append(np.mean((x - x.mean()) * w(1.0 - u)))
        got = np.mean(vals)
        se = np.std(vals, ddof=1) / math.sqrt(len(vals))
        assert abs(got - want) < 3.5 * se


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-10 and spec.rel_tol == 1e-8

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureSpec(abs_tol=0.0)
