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
from ginicorr.errors import DegenerateSampleError, DomainError, MomentError, QuadratureError
from ginicorr.gini import closed_cw, cov_x_weighted, cw_via_regression, lambda_w_margin
from ginicorr.oracle import (
    QUAD_REL_TOL,
    _gap_covs,
    _tanhsinh,
    hoeffding_cw,
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
    with p = 1/delta, summed piece by piece of the linear interpolant.  The
    two terms cancel down to the scale of the smallest positive knot, so
    the working precision grows with its exponent.
    """
    low = min(float(t) for t in w.knots_t if t > 0.0)
    with mp.workdps(30 + max(0, -math.floor(math.log10(low)))):
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
    @given(delta=st.floats(1.001, 10.0), w=_weights())
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

    @pytest.mark.parametrize("nu", [1e16, 1e24, 1e40, 1e100, 1e300])
    def test_student_t_normal_limit(self, nu):
        # log K as three lgammas was 18 off at nu = 1e16, and past nu ~ 1e40
        # every point took the tail term, which is O(nu/z^2) off there
        for w in (WeightFunction.power(0.3), WeightFunction.beta_cdf(2.0, 2.0),
                  WeightFunction.table([0.0, 0.4, 1.0], [0.0, 0.1, 1.0])):
            got = cov_x_weighted(StudentTMargin(0.0, 1.0, nu), w)
            assert got == pytest.approx(cov_x_weighted(NormalMargin(0.0, 1.0), w), rel=1e-11)

    def test_elliptical_t_wipm_at_large_nu_is_the_normal_one(self):
        # the premium read -4.7e-9 here, against the normal -0.3316
        w = WeightFunction.beta_cdf(2.0, 2.0)
        got = gini_wipm_rhs(EllipticalT(sigma_xy=0.5, nu=1e16), w).premium
        assert got == pytest.approx(gini_wipm_rhs(Normal(rho=0.5), w).premium, rel=1e-11)

    def test_table_knots_inside_the_unit_interval(self):
        # the knots are break points; without them tanh-sinh stalls on the kinks
        w = WeightFunction.table([0.0, 0.2, 0.45, 0.8, 1.0], [0.0, 0.05, 0.5, 0.6, 1.0])
        for delta in (1.02, 1.5, 4.0):
            got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, delta), w)
            assert got == pytest.approx(_pareto_table_cov(delta, w), rel=1e-11)
        got = quad_cov_margin(StudentTMargin(0.0, 1.0, 1.5), w)
        assert got == pytest.approx(_student_t_cov_mpmath(1.5, w), rel=1e-10)

    @pytest.mark.parametrize("delta,knot", [(1.16329, 1e-29), (1.16329, 1e-35),
                                            (1.33985, 1e-22), (1.77741, 1e-8),
                                            (2.0, 1e-6), (1.5, 1e-12), (1.01, 1e-300)])
    def test_table_knot_far_below_the_next(self, delta, knot):
        # the integrand bends at v ~ knot, far below the next knot, where
        # coarse levels can agree on a wrong value (they were up to 3e-6 off)
        w = WeightFunction.table([0.0, knot, 0.3, 1.0], [0.0, 0.2, 0.5, 1.0])
        got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, delta), w)
        assert got == pytest.approx(_pareto_table_cov(delta, w), rel=1e-12)

    def test_table_rise_far_below_any_absolute_tolerance(self):
        # the covariance is ~1.7e-183: the integrand -L dw is not negative,
        # so the relative tolerance alone resolves it
        w = WeightFunction.table([0.0, 6.1e-187], [0.0, 1.0])
        got = quad_cov_margin(ParetoIIMargin(0.0, 1.0, 50.0), w)
        assert got == pytest.approx(_pareto_table_cov(50.0, w), rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_knots_one_ulp_apart(self):
        # the quadrature skips the interval with no double inside it, for the
        # gap and, in lambda_w, for the swapped gap alike
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
        import ginicorr.oracle

        # three levels leave this integrand's error estimate near 3e-12, 1e-11 of it
        monkeypatch.setattr(ginicorr.oracle, "_MAX_LEVEL", 2)
        monkeypatch.setattr(ginicorr.oracle, "QUAD_REL_TOL", 1e-14)
        with pytest.raises(QuadratureError) as info:
            quad_cov_margin(ParetoIIMargin(0.0, 1.0, 1.5), WeightFunction.beta_cdf(3.0, 0.5))
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
# X tail indices delta + delta_x near 1: 1.005, 1.002 and 1.001 (twice)
BVP3_POINTS += [(params, gamma)
                for params in ((0.5, 0.505, 0.3), (1.0, 0.002, 0.5), (0.2, 0.801, 2.0),
                               (0.9, 0.101, 0.01))
                for gamma in (0.5, 1.0, 3.0)]


class TestBvp3Quadrature:
    """The Hoeffding-identity oracle against the four-3F2 closed form to 1e-9."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("params,gamma", BVP3_POINTS)
    def test_matches_closed_form(self, params, gamma):
        d, dx, dy = params
        f = BVP3(delta=d, delta_x=dx, delta_y=dy)
        w = WeightFunction.power(gamma)
        assert hoeffding_cw(f, w) == pytest.approx(closed_cw(f, w).value, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(delta=st.floats(0.05, 5.0), dx=st.floats(0.01, 5.0), dy=st.floats(0.01, 5.0),
           gamma=st.floats(0.01, 10.0))
    def test_domain_sweep(self, delta, dx, dy, gamma):
        assume(delta + dx > 1.0)
        f, w = BVP3(delta=delta, delta_x=dx, delta_y=dy), WeightFunction.power(gamma)
        want = closed_cw(f, w).value
        # warnings are errors inside the body only: under a filterwarnings
        # mark a failing example ends in a pytest INTERNALERROR instead
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hoeffding_cw(f, w)
        assert got == pytest.approx(want, abs=1e-9)

    def test_stalled_integral_raises_with_its_estimate(self, monkeypatch):
        import ginicorr.oracle

        # the 2-d integral must raise, not the denominator's 1-d one
        monkeypatch.setattr(ginicorr.oracle, "quad_cov_margin", lambda *args: -1.0)
        monkeypatch.setattr(ginicorr.oracle, "_MAX_LEVEL", 2)
        monkeypatch.setattr(ginicorr.oracle, "QUAD_REL_TOL", 1e-14)
        with pytest.raises(QuadratureError, match="Hoeffding") as info:
            hoeffding_cw(BVP3(delta=1.0, delta_x=0.02, delta_y=0.01),
                         WeightFunction.power(0.1))
        assert info.value.estimate < 0.0 and info.value.error_estimate > 0.0

    def test_bvp1_reduction(self):
        # delta_x = delta_y -> 0: oracle Gamma_gamma -> 1/delta
        f = BVP3(delta=2.0, delta_x=1e-8, delta_y=1e-8)
        assert hoeffding_cw(f, WeightFunction.identity()) == pytest.approx(0.5, abs=1e-4)

    def test_bvp2_reduction(self):
        # delta_x -> 0: oracle matches the BVP2 closed form
        delta, dy, g = 2.0, 0.5254, 1.0
        f = BVP3(delta=delta, delta_x=1e-8, delta_y=dy)
        dys = delta + dy
        want = (1.0 / delta) * (delta * (g + 1) - 1.0) / (dys * (g + 1) - 1.0)
        assert hoeffding_cw(f, WeightFunction.power(g)) == pytest.approx(want, abs=1e-4)

    def test_moment_precondition(self):
        with pytest.raises(MomentError):
            hoeffding_cw(BVP3(delta=0.5, delta_x=0.3, delta_y=0.5), WeightFunction.identity())


@st.composite
def _pareto_families(draw):
    """BVP1, BVP2 or BVP3 with both tail indices in [1.001, 15]."""
    kind = draw(st.sampled_from(["bvp1", "bvp2", "bvp3"]))
    if kind == "bvp1":
        return BVP1(delta=draw(st.floats(1.001, 10.0)))
    if kind == "bvp2":
        return BVP2(delta=draw(st.floats(1.001, 10.0)), delta_y=draw(st.floats(0.01, 5.0)))
    delta = draw(st.floats(0.05, 5.0))
    return BVP3(delta=delta, delta_x=draw(st.floats(max(0.01, 1.001 - delta), 10.0)),
                delta_y=draw(st.floats(0.01, 5.0)))


@st.composite
def _any_weights(draw):
    """Any weight kind; a table rises by at least 1e-6, with knots 0 or >= 1e-300."""
    kind = draw(st.sampled_from(["identity", "power", "beta_cdf", "table"]))
    if kind == "identity":
        return WeightFunction.identity()
    if kind == "power":
        return WeightFunction.power(draw(st.floats(0.01, 10.0)))
    if kind == "beta_cdf":
        return WeightFunction.beta_cdf(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    knot = st.one_of(st.just(0.0), st.floats(1e-300, 1.0))
    ts = sorted(set(draw(st.lists(knot, min_size=2, max_size=5))))
    vs = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(ts), max_size=len(ts))))
    assume(len(ts) >= 2 and vs[-1] - vs[0] >= 1e-6)
    return WeightFunction.table(ts, vs)


# heavy-tail points each of which a simpler inner integral gets wrong: one
# rule over all of t (the two BVP2 points, off by 1.4e-8 and 2.4e-9 with
# status 0; BVP1(1.01) fails to converge), a split in t alone above the
# ridge (the second BVP2 point), a narrow table interval in s (the step)
HOEFFDING_CORNERS = [
    (BVP1(delta=1.01), WeightFunction.power(0.01)),
    (BVP1(delta=1.01), WeightFunction.beta_cdf(0.5, 0.5)),
    (BVP1(delta=1.01), WeightFunction.beta_cdf(0.2, 5.0)),
    (BVP1(delta=1.01), WeightFunction.table([0.0, 1e-6, 0.3, 1.0], [0.0, 0.2, 0.5, 1.0])),
    (BVP1(delta=1.01), WeightFunction.table([0.0, 0.5, 0.5000001, 1.0], [0.0, 0.0, 1.0, 1.0])),
    (BVP2(delta=1.22231, delta_y=0.0170751), WeightFunction.power(0.0718505)),
    (BVP2(delta=1.27053, delta_y=0.0481117), WeightFunction.power(0.12479)),
]


class TestHoeffdingCw:
    """One Hoeffding-identity oracle for the three Pareto families and every weight."""

    @settings(max_examples=40, deadline=None)
    @given(f=_pareto_families(), w=_any_weights())
    def test_domain_sweep(self, f, w):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hoeffding_cw(f, w)
        if not isinstance(f, BVP3):
            assert got == pytest.approx(cw_via_regression(f, w).value, abs=1e-9)
        if isinstance(f, BVP1) or w.kind != "table" and (
                isinstance(f, BVP2) or w.kind != "beta_cdf"):
            assert got == pytest.approx(closed_cw(f, w).value, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("f,w", HOEFFDING_CORNERS)
    def test_heavy_tail_corners(self, f, w):
        got = hoeffding_cw(f, w)
        assert got == pytest.approx(cw_via_regression(f, w).value, abs=1e-9)
        if w.kind != "table":
            assert got == pytest.approx(closed_cw(f, w).value, abs=1e-9)

    @pytest.mark.parametrize("w", [WeightFunction.beta_cdf(2.0, 2.0),
                                   WeightFunction.table([0.0, 0.4, 1.0], [0.0, 0.1, 1.0])])
    def test_bvp3_weights_without_closed_form_vs_monte_carlo(self, w):
        f = BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)
        mean, se = mc_reference(f, "cw", 50_000, seed=7, replications=12, weight=w)
        assert abs(hoeffding_cw(f, w) - mean) < 4 * se

    @pytest.mark.parametrize("params,gamma,want", [
        ((1.5, 1.5, 1.0), 1.0, 0.17402262168147134),
        ((1.5, 1.5, 1.0), 2.0, 0.18326037866733982),
        ((1.2, 0.3, 0.2), 0.5, 0.4910845252142001)])
    def test_quad2_bvp3_moment_values(self, params, gamma, want):
        # quad2_bvp3_moment is hoeffding_cw with a power weight; values frozen
        # from its nested tanh-sinh over all of t before the ridge split
        d, dx, dy = params
        f = BVP3(delta=d, delta_x=dx, delta_y=dy)
        assert quad2_bvp3_moment(f, gamma) == pytest.approx(want, abs=1e-13)

    def test_beta_a_1_is_power(self):
        f = BVP3(delta=1.0, delta_x=0.02, delta_y=0.01)
        for a in (0.1, 1.0, 3.0):
            assert hoeffding_cw(f, WeightFunction.beta_cdf(a, 1.0)) == pytest.approx(
                hoeffding_cw(f, WeightFunction.power(a)), abs=1e-12)

    def test_table_rise_far_below_the_absolute_tolerance(self):
        # C_w of BVP1(2) is exactly 1/delta = 0.5 for every weight; its
        # covariances are ~1e-93, which an absolute tolerance would not resolve
        w = WeightFunction.table([0.0, 6.1e-187], [0.0, 1.0])
        assert hoeffding_cw(BVP1(delta=2.0), w) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t1", [1e-14, 1e-20, 1e-100, 6.1e-187, 1e-300])
    def test_table_rise_at_any_scale(self, t1):
        # the tolerances are relative, so a weight that rises from 0 to 1 over
        # [0, t1] is resolved as finely however small its covariances are
        f, w = BVP2(delta=2.1, delta_y=0.5254), WeightFunction.table([0.0, t1], [0.0, 1.0])
        # C_w is ~1e-28 at t1 = 1e-300: approx's default abs would pass anything
        assert hoeffding_cw(f, w) == pytest.approx(cw_via_regression(f, w).value, rel=1e-9,
                                                   abs=0.0)

    def test_typed_errors(self):
        with pytest.raises(DomainError, match="Pareto"):
            hoeffding_cw(Normal(rho=0.5), WeightFunction.identity())
        with pytest.raises(MomentError):
            hoeffding_cw(BVP1(delta=1.0), WeightFunction.identity())
        with pytest.raises(DegenerateSampleError, match="constant weight"):
            hoeffding_cw(BVP2(delta=2.1, delta_y=0.5), WeightFunction.table((0, 1), (0.5, 0.5)))


class TestDiagnostics:
    """Every covariance route's value carries its error and evaluation count."""

    F2 = BVP2(delta=2.1, delta_y=0.5254)
    W_TABLE = WeightFunction.table([0.0, 0.4, 1.0], [0.0, 0.1, 1.0])
    W_BETA = WeightFunction.beta_cdf(2.0, 2.0)

    @pytest.mark.parametrize("w", [WeightFunction.power(2.0), W_BETA],
                             ids=lambda w: w.describe())
    def test_pareto_closed_forms_carry_no_quadrature(self, w):
        got = cov_x_weighted(ParetoIIMargin(0.0, 1.0, 2.1), w)
        assert (got.error, got.nfev) == (0.0, 0)

    @pytest.mark.parametrize("m,w", [(ParetoIIMargin(0.0, 1.0, 2.1), W_TABLE),
                                     (NormalMargin(1.0, 2.0), W_BETA),
                                     (StudentTMargin(0.0, 1.0, 3.0), W_TABLE)])
    def test_cov_x_weighted_is_the_quadrature_elsewhere(self, m, w):
        got, want = cov_x_weighted(m, w), quad_cov_margin(m, w)
        assert (got, got.error, got.nfev) == (want, want.error, want.nfev)
        assert got.error >= 0.0 and got.nfev > 0

    @pytest.mark.parametrize("f,w", [(F2, W_TABLE), (Normal(rho=0.5), W_BETA)])
    def test_regression_detail_sums_its_two_covariances(self, f, w):
        covs = [cov_x_weighted(m, w) for m in margins(f)]
        detail = cw_via_regression(f, w).detail
        assert detail["quad_nfev"] == sum(c.nfev for c in covs)
        assert detail["quad_error"] == sum(c.error for c in covs)

    @pytest.mark.parametrize("f,w", [(F2, WeightFunction.power(1.0)), (F2, W_BETA),
                                     (BVP3(delta=1.5, delta_x=1.5, delta_y=1.0),
                                      WeightFunction.power(1.0))])
    def test_hoeffding_counts_more_than_its_denominator(self, f, w):
        got = hoeffding_cw(f, w)
        den = quad_cov_margin(margins(f)[0], w)  # standard units, as hoeffding_cw's
        assert got.error >= 0.0 and got.nfev > den.nfev
        if isinstance(f, BVP3):
            front = quad2_bvp3_moment(f, w.gamma)
            assert (front, front.error, front.nfev) == (got, got.error, got.nfev)

    def test_lambda_w_margin_sums_both_quadratures(self):
        m = ParetoIIMargin(0.0, 1.0, 2.1)
        got = lambda_w_margin(m, self.W_TABLE)
        covs = quad_cov_margin(m, self.W_TABLE), _gap_covs(self.W_TABLE, (m, True))[0]
        assert got.nfev == covs[0].nfev + covs[1].nfev
        assert got.error >= covs[1].error / abs(covs[0])


@st.composite
def _gap_pairs(draw):
    """1 to 4 (margin, swap) pairs of Pareto II, Student t and normal margins."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        mu, sigma = draw(st.floats(-10.0, 10.0)), draw(st.floats(0.1, 10.0))
        kind = draw(st.sampled_from(["pareto", "t", "normal"]))
        if kind == "pareto":
            m = ParetoIIMargin(mu, sigma, draw(st.floats(1.01, 50.0)))
        elif kind == "t":
            m = StudentTMargin(mu, sigma, draw(st.floats(1.2, 30.0)))
        else:
            m = NormalMargin(mu, sigma)
        pairs.append((m, draw(st.booleans())))
    return pairs


class TestBatchedGapCovs:
    """One _gap_covs call gives each pair what it gives alone, bit for bit."""

    @staticmethod
    def _bits(cov):
        return cov.hex(), cov.error.hex(), cov.nfev

    @settings(max_examples=60, deadline=None)
    @given(pairs=_gap_pairs(), w=_weights())
    def test_batch_equals_one_at_a_time(self, pairs, w):
        alone = []
        for i, pair in enumerate(pairs):
            try:
                alone.append(self._bits(_gap_covs(w, pair)[0]))
            except QuadratureError as exc:
                # the batch raises for the first pair that fails alone
                with pytest.raises(QuadratureError, match=f"of pair {i} ") as info:
                    _gap_covs(w, *pairs)
                assert info.value.estimate == exc.estimate
                return
        assert [self._bits(c) for c in _gap_covs(w, *pairs)] == alone

    @pytest.mark.parametrize("failing", [0, 1])
    def test_the_error_names_the_pair_that_failed(self, monkeypatch, failing):
        import ginicorr.oracle

        # at these settings the Pareto(1.5) integral stalls, the Pareto(5) one ends
        monkeypatch.setattr(ginicorr.oracle, "_MAX_LEVEL", 2)
        monkeypatch.setattr(ginicorr.oracle, "QUAD_REL_TOL", 1e-12)
        w, bad, good = WeightFunction.power(1.0), ParetoIIMargin(0.0, 1.0, 1.5), \
            ParetoIIMargin(0.0, 1.0, 5.0)
        with pytest.raises(QuadratureError) as alone:
            _gap_covs(w, (bad, False))
        pairs = [(good, False)]
        pairs.insert(failing, (bad, False))
        with pytest.raises(QuadratureError, match=f"of pair {failing} \\(ParetoIIMargin") as info:
            _gap_covs(w, *pairs)
        assert "delta=1.5" in str(info.value)
        assert (info.value.estimate, info.value.error_estimate) == (
            alone.value.estimate, alone.value.error_estimate)
        assert info.value.estimate < 0.0


class TestTailIndexNearOne:
    """BVP1 at fixed tail indices down to 1.001, where the hypothesis sweeps stop."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w", [WeightFunction.power(1.0), WeightFunction.power(0.05),
                                   WeightFunction.beta_cdf(0.5, 0.5)],
                             ids=lambda w: w.describe())
    @pytest.mark.parametrize("delta", [1.005, 1.002, 1.001])
    def test_oracles_agree_with_the_closed_forms(self, delta, w):
        f = BVP1(delta=delta)
        m = margins(f)[0]
        cw, quad, closed = hoeffding_cw(f, w), quad_cov_margin(m, w), cov_x_weighted(m, w)
        assert abs(cw - 1.0 / delta) <= 1e-12
        assert abs(quad - closed) <= 1e-12 * abs(closed)
        for got in (cw, quad):
            assert got.error >= 0.0 and got.nfev > 0


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def _small_exponent_weights(draw):
    """power(gamma) or beta(a, b), each parameter log-uniform over [1e-12, 1e3]."""
    if draw(st.booleans()):
        return WeightFunction.power(draw(_log_uniform(1e-12, 1e3)))
    return WeightFunction.beta_cdf(draw(_log_uniform(1e-12, 1e3)),
                                   draw(_log_uniform(1e-12, 1e3)))


def _bvp2_beta_mpmath(f, a, b):
    """_bvp2_beta's closed form of C_w for BVP2 with a beta(a, b) weight, at 50 digits."""
    with mp.workdps(50):
        def shape(d):
            return 1 - mp.beta(a + 1 - 1 / d, b) / mp.beta(a, b) - b / (a + b)

        d, dys = mp.mpf(f.delta), mp.mpf(margins(f)[1].delta)
        return float(shape(dys) / shape(d) / d)


def _pareto_lambda_table(delta, w):
    """int L(1 - v) dw / int L(v) dw of the unit Pareto II margin for a table weight.

    dw is constant on a knot interval, and with k = 2 - 1/delta and
    c = delta/(delta - 1) the gap integrates to G(t) = int_0^t L =
    c (t^k/k - t^2/2) and H(t) = int_0^t L(1 - u) du = c (-expm1(k log1p(-t))/k
    - t + t^2/2).  H cancels down to O(t^2), so knots near 1e-300 need ~330 digits.
    """
    with mp.workdps(330):
        d = mp.mpf(delta)
        k, c = 2 - 1 / d, d / (d - 1)
        ts, vs = [mp.mpf(float(t)) for t in w.knots_t], [mp.mpf(float(v)) for v in w.knots_w]
        num = den = mp.mpf(0)
        for t0, t1, v0, v1 in zip(ts[:-1], ts[1:], vs[:-1], vs[1:]):
            slope = (v1 - v0) / (t1 - t0)
            num += slope * c * (mp.expm1(k * mp.log1p(-t0)) - mp.expm1(k * mp.log1p(-t1))) / k
            num += slope * c * (t0 - t1 + (t1 * t1 - t0 * t0) / 2)
            den += slope * c * ((t1**k - t0**k) / k - (t1 * t1 - t0 * t0) / 2)
        return float(num / den)


class TestSmallWeightExponents:
    """Weight exponents down to 1e-12: the dw map follows the gap's end exponents."""

    EPS = [1e-7, 1e-8, 1e-9, 1e-10, 1e-12]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", EPS)
    @pytest.mark.parametrize("kind", ["beta(2, eps)", "beta(eps, 2)", "power(eps)"])
    def test_bvp1_is_one_over_delta(self, kind, eps):
        # these raised QuadratureError or were up to 0.18 off while the map
        # took its variable from the weight alone
        w = {"beta(2, eps)": WeightFunction.beta_cdf(2.0, eps),
             "beta(eps, 2)": WeightFunction.beta_cdf(eps, 2.0),
             "power(eps)": WeightFunction.power(eps)}[kind]
        assert hoeffding_cw(BVP1(delta=3.0), w) == pytest.approx(1.0 / 3.0, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", EPS)
    def test_normal_lambda_w_is_one(self, eps):
        got = lambda_w_margin(NormalMargin(0.0, 1.0), WeightFunction.power(eps))
        assert got == pytest.approx(1.0, rel=0.0, abs=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b", [1e-6, 1e-9, 1e-12])
    def test_bvp2_beta_weight_with_tiny_b(self, b):
        f = BVP2(delta=2.1, delta_y=0.5254)
        got = hoeffding_cw(f, WeightFunction.beta_cdf(2.0, b))
        assert got == pytest.approx(_bvp2_beta_mpmath(f, 2.0, b), rel=1e-12, abs=0.0)

    @settings(max_examples=30, deadline=None)
    @given(w=_small_exponent_weights(), delta=st.floats(1.001, 50.0), nu=st.floats(1.05, 10.0))
    def test_sweep(self, w, delta, nu):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cw = hoeffding_cw(BVP1(delta=delta), w)
            lams = [lambda_w_margin(m, w) for m in (NormalMargin(0.0, 1.0),
                                                    StudentTMargin(0.0, 1.0, nu))]
        assert cw == pytest.approx(1.0 / delta, rel=1e-12 if delta >= 1.5 else 1e-9, abs=0.0)
        assert lams == pytest.approx([1.0, 1.0], rel=0.0, abs=1e-12)

    # beta weights with a parameter above ~15, whose bulk lies in a peak or
    # below a cliff at v ~ 1/b: one power map of all of [0, 1] ended on
    # coarse levels that agreed by chance (the first three: 6e-5, 2e-7 and
    # 3e-8 off at status 0); the rest have a thin half-peak just above m
    LARGE_B = [(1.5, WeightFunction.beta_cdf(5.93004e-10, 274.548)),
               (1.01, WeightFunction.beta_cdf(4.79309e-08, 16.5706)),
               (50.0, WeightFunction.beta_cdf(5.24471, 36.0831)),
               (1.5, WeightFunction.beta_cdf(18.8873, 278.445)),
               (33.6336, WeightFunction.beta_cdf(53.2625, 703.297)),
               (46.5408, WeightFunction.beta_cdf(0.046169, 212.905)),
               (20.2082, WeightFunction.beta_cdf(454.204, 525.254))]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("delta,w", LARGE_B)
    def test_large_beta_parameter(self, delta, w):
        got = hoeffding_cw(BVP1(delta=delta), w)
        assert got == pytest.approx(1.0 / delta, rel=1e-12 if delta >= 1.5 else 1e-9, abs=0.0)


class TestLambdaWOfTinyTables:
    """lambda_w of a table rising over [0, t]: one measure for both gaps, no reflected weight."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-15, 1e-20, 1e-300])
    def test_symmetric_margins_read_exactly_one(self, t):
        # the reflected table read 0.9992, 9884 and 2.5e283 here
        w = WeightFunction.table([0.0, t], [0.0, 1.0])
        for m in (NormalMargin(0.0, 1.0), StudentTMargin(0.0, 1.0, 3.0),
                  StudentTMargin(0.0, 1.0, 1.05)):
            assert lambda_w_margin(m, w) == 1.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-15, 1e-20, 1e-300])
    def test_pareto_against_mpmath(self, t):
        w = WeightFunction.table([0.0, t], [0.0, 1.0])
        got = lambda_w_margin(ParetoIIMargin(0.0, 1.0, 1.5), w)
        assert got == pytest.approx(_pareto_lambda_table(1.5, w), rel=1e-12, abs=0.0)


class TestQuadratureTolerances:
    def test_defaults(self):
        assert QUAD_REL_TOL == 1e-8


class TestTanhSinhKernel:
    """oracle._tanhsinh against scipy.integrate.tanhsinh, the rule it reproduces."""

    CASES = {
        "smooth": (lambda x, a, b: np.exp(-a * x) * np.cos(b * x), [1.0, 2.0, 0.5, 3.0],
                   ([1.0, 3.0, 0.1, 10.0], [0.0, 5.0, 2.0, 30.0])),
        "endpoint_singularity": (lambda x, c: c * x ** -0.95, [1.0, 0.5, 2.0],
                                 ([1.0, 2.0, 1e-3],)),
        # inf (k = 1) or nan (k = 0) within 1e-200 of 0 and 1e-12 of 1
        "not_finite_at_the_ends": (
            lambda x, k: np.where((x < 1e-200) | (x > 1.0 - 1e-12),
                                  np.where(k > 0.0, np.inf, np.nan), np.sqrt(x)),
            [1.0, 1.0, 0.5], ([1.0, 0.0, 1.0],)),
        "tiny_integral": (lambda x, c: c * x * x, [1.0, 1.0], ([3e-300, 1e-305],)),
        "hi_zero": (lambda x, c: c * np.sin(x), [0.0, 1.0, 0.0, 2.0], ([1.0, 2.0, 3.0, 4.0],)),
        # one call whose intervals stop at levels 3, 4 and 5 or later, with nan
        # within 1e-200 of 0 and 1e-12 of 1 in the rows with k = 1 only
        "mixed_levels": (
            lambda x, b, k: np.where((k > 0.0) & ((x < 1e-200) | (x > 1.0 - 1e-12)), np.nan,
                                     np.cos(b * x)),
            [1.0, 1.0, 1.0, 1.0, 0.5, 1.0, 1.0],
            ([1.0, 1.0, 20.0, 20.0, 100.0, 50.0, 120.0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])),
    }

    @staticmethod
    def _scipy(f, hi, args, rtol, **kw):
        from scipy.integrate import tanhsinh

        wide = hi > 0.0
        hi, args = hi[wide], [a[wide] for a in args]
        res = tanhsinh(lambda u, hi, *args: f(hi * u, *args) * hi, np.zeros_like(hi),
                       np.ones_like(hi), args=(hi, *args), minlevel=3, rtol=rtol,
                       atol=np.finfo(float).tiny, **kw)
        out = np.zeros((4, wide.size))
        out[:, wide] = res.integral, res.error, res.status, res.nfev
        return out

    def _check(self, case, rtol, **kw):
        f, hi, args = self.CASES[case]
        hi, args = np.array(hi), [np.array(a) for a in args]
        got = _tanhsinh(f, hi, args, rtol=rtol)
        want = self._scipy(f, hi, args, rtol, **kw)
        np.testing.assert_array_equal(got[:3], want[:3])  # bit for bit, nan = nan
        # scipy also evaluates each interval's midpoint once, to learn the shape of f
        np.testing.assert_array_equal(got[3], want[3] - (hi > 0.0))
        return got

    @pytest.mark.parametrize("rtol", [1e-8, 1e-12, 1e-14])
    @pytest.mark.parametrize("case", list(CASES))
    def test_matches_scipy_bit_for_bit(self, case, rtol):
        self._check(case, rtol)

    def test_nan_at_the_midpoint_ends_the_interval(self):
        # scipy evaluates there first, and stops at once on a NaN
        def f(x, c):
            return np.where(x == 0.5 * c, np.nan, x)

        hi, args = np.ones(2), [np.array([1.0, 3.0])]
        got = _tanhsinh(f, hi, args, rtol=1e-8)
        np.testing.assert_array_equal(got[:3], self._scipy(f, hi, args, 1e-8)[:3])
        assert got[2].tolist() == [-3.0, 0.0]

    def test_stalled_at_level_2(self, monkeypatch):
        import ginicorr.oracle

        monkeypatch.setattr(ginicorr.oracle, "_MAX_LEVEL", 2)
        got = self._check("endpoint_singularity", 1e-14, maxlevel=2)
        assert np.all(got[2] == -2)


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
