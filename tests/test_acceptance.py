"""Acceptance suite: ten numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every criterion passes.  Criterion 3 checks the BVP2 Pearson
closed form by estimating the covariance by Monte Carlo and dividing by
the known margin standard deviations, because the plug-in sample
correlation cannot converge at delta = 2.1 (see its docstring).
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from ginicorr.distributions import (
    BVP1,
    BVP2,
    BVP3,
    Normal,
    PairedSample,
    ParetoIIMargin,
    pearson_closed_form,
    sample,
)
from ginicorr.gini import (
    closed_cw,
    cov_x_weighted,
    empirical_cw,
    lambda_w_empirical,
)
from ginicorr.oracle import hoeffding_cw, mc_reference, quad_cov_margin
from ginicorr.specfun import HypergeometricSpec, hyp_pfq, reg_inc_beta
from ginicorr.weights import WeightFunction
from ginicorr.wipm import Portfolio, allocate, gini_premium, gini_wipm_rhs

SEED = 42


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_elliptical_identity():
    """Normal pairs: C_w equals rho for every admissible weight."""
    t0 = time.monotonic()
    weights = [WeightFunction.identity(), WeightFunction.power(2.0),
               WeightFunction.power(0.5), WeightFunction.beta_cdf(2.0, 3.0)]
    worst_emp = 0.0
    closed_exact = True
    for i, rho in enumerate((-0.6, 0.0, 0.37, 0.8)):
        f = Normal(rho=rho)
        s = sample(f, 200_000, seed=SEED + i)
        for w in weights:
            closed_exact &= closed_cw(f, w).value == rho
            worst_emp = max(worst_emp,
                            abs(empirical_cw(s, w, n_boot=0).value - rho))
    elapsed = time.monotonic() - t0
    ok = closed_exact and worst_emp < 0.02 and elapsed < 30.0
    _report(1, ok, f"closed exact={closed_exact}, worst empirical error "
                   f"{worst_emp:.4f} (tol 0.02), runtime {elapsed:.1f}s (< 30s)")
    assert closed_exact
    assert worst_emp < 0.02
    assert elapsed < 30.0


def test_criterion_2_bvp1_one_over_delta():
    """BVP1: closed form 1/delta; empirical extended Gini within 0.02."""
    worst = 0.0
    for d in (1.5, 3.0, 5.87):
        f = BVP1(delta=d)
        s = sample(f, 200_000, seed=SEED)
        for g in (0.5, 1.0, 2.0):
            w = WeightFunction.power(g)
            assert closed_cw(f, w).value == 1.0 / d
            worst = max(worst, abs(empirical_cw(s, w, n_boot=0).value - 1.0 / d))
    narrative = closed_cw(BVP1(delta=5.87), WeightFunction.identity()).value
    ok = worst < 0.02 and abs(narrative - 0.17036) < 5e-6
    _report(2, ok, f"closed = 1/delta exact; worst empirical error {worst:.4f} "
                   f"(tol 0.02); delta=5.87 value {narrative:.5f} = 0.17036")
    assert worst < 0.02
    assert narrative == pytest.approx(0.17036, abs=5e-6)
    assert narrative == pytest.approx(0.17, abs=5e-3)


def test_criterion_3_bvp2_pearson_closed_form():
    """BVP2 Pearson closed form: 0.1703 to 5e-4 by arithmetic."""
    got = pearson_closed_form(BVP2(delta=2.1, delta_y=0.5254))
    ok = abs(got - 0.1703) < 5e-4
    _report(3, ok, f"closed Pearson {got:.6f} vs 0.1703 (tol 5e-4)")
    assert ok


def test_criterion_3_bvp2_pearson_monte_carlo():
    """BVP2 Pearson closed form against Monte Carlo at n = 10^6, tol 0.03.

    Only the joint part of the Pearson formula, the covariance, is
    estimated from the exact sampler; it is divided by the population
    standard deviations of the two Lomax (Pareto II) margins, taken from
    scipy.stats.lomax rather than from ginicorr.  The plug-in sample
    correlation cannot do this job: with delta = 2.1 the squared margin
    has tail index 1.05, so E[X^4] is infinite, the sample variance of X
    obeys no CLT and converges only at the stable-law rate
    n^(1 - 2/delta) = n^(-0.048).  The cross product X*Y, by contrast, has
    tail index min(delta, (delta + delta_y)/2) ~ 1.31 > 1, so its mean is
    finite and the sample covariance converges at n^(-0.24).

    Measured at n = 10^6 over seeds 0-199: the mended estimate lands within
    0.03 of 0.1703 in 93.5% of runs (median 0.1565, 5-95% range
    0.142-0.196), the plug-in correlation in only 8.5% (median 0.248).  The
    ~6.5% of seeds that miss come from the estimator's skew under a tail
    index of 1.31, not from a fault; a change to the BVP2 draw order that
    moves the seed-42 value into that band is no reason to reseed.  The
    plug-in value is still printed in the report line, so the heavy-tail
    failure stays on record; the rank-based Gini correlation at the same
    parameters converges without such help (criterion 4).
    """
    f = BVP2(delta=2.1, delta_y=0.5254)
    target = pearson_closed_form(f)
    s = sample(f, 1_000_000, seed=SEED)
    sd_x = stats.lomax(c=f.delta).std()
    sd_y = stats.lomax(c=f.delta_y_star).std()
    estimate = np.cov(s.xs, s.ys)[0, 1] / (sd_x * sd_y)
    plug_in = np.corrcoef(s.xs, s.ys)[0, 1]
    ok = abs(estimate - target) < 0.03
    _report(3, ok, f"Monte-Carlo Cov / population sd at n=1e6: {estimate:.4f} "
                   f"vs {target:.4f} (tol 0.03); plug-in sample Pearson "
                   f"{plug_in:.4f} (no CLT at delta=2.1, not asserted)")
    assert ok, (
        f"Monte-Carlo covariance over the Lomax margin sds gives {estimate:.4f}, "
        f"not within 0.03 of the closed form {target:.4f} at n=1e6; the "
        "estimator misses in ~6.5% of seeds from its skew at tail index 1.31, "
        "so check the closed form and the sampler before the seed"
    )


def test_criterion_4_bvp2_extended_gini():
    """BVP2 extended Gini: formula value and empirical at n = 10^6."""
    f = BVP2(delta=2.1, delta_y=0.5254)
    w = WeightFunction.power(1.0)
    closed = closed_cw(f, w).value
    emp = empirical_cw(sample(f, 1_000_000, seed=SEED), w, n_boot=0).value
    ok = abs(closed - 0.35847) < 1e-5 and abs(emp - closed) < 0.02
    _report(4, ok, f"formula {closed:.6f} = 0.35847; empirical {emp:.4f} "
                   f"(tol 0.02 at n=1e6)")
    assert closed == pytest.approx(0.35847, abs=1e-5)
    assert emp == pytest.approx(closed, abs=0.02)


def test_criterion_5_beta_weight_reduction():
    """Beta-c.d.f. weight with b = 1 equals the power weight to 1e-10."""
    worst = 0.0
    for a in (0.5, 1.0, 2.0, 3.0, 4.7):
        for d in (1.3, 1.8, 2.1, 3.0, 5.0):
            f = BVP2(delta=d, delta_y=0.5254)
            pw = closed_cw(f, WeightFunction.power(a)).value
            bt = closed_cw(f, WeightFunction.beta_cdf(a, 1.0)).value
            worst = max(worst, abs(bt - pw))
    ok = worst < 1e-10
    _report(5, ok, f"worst |beta(a,1) - power(a)| = {worst:.2e} over the "
                   f"5x5 (a, delta) grid (tol 1e-10)")
    assert worst < 1e-10


def test_criterion_6_curve_shapes():
    """Across delta: extended Gini decreasing, Pearson has an interior max."""
    deltas = np.linspace(2.05, 10.0, 80)
    dy = 0.5254
    ginis = np.array([
        closed_cw(BVP2(delta=d, delta_y=dy), WeightFunction.power(1.0)).value
        for d in deltas
    ])
    pearsons = np.array([
        pearson_closed_form(BVP2(delta=d, delta_y=dy)) for d in deltas
    ])
    decreasing = bool(np.all(np.diff(ginis) < 0.0))
    k = int(np.argmax(pearsons))
    interior_max = 0 < k < len(pearsons) - 1
    non_monotone = pearsons[k] > pearsons[0] and pearsons[k] > pearsons[-1]
    ok = decreasing and interior_max and non_monotone
    _report(6, ok, f"Gini strictly decreasing={decreasing}; Pearson interior "
                   f"max at delta={deltas[k]:.2f} (value {pearsons[k]:.4f})")
    assert decreasing
    assert interior_max and non_monotone


def test_criterion_7_bvp3_formula_vs_oracle():
    """BVP3 closed form vs the 2-d quadrature oracle and its two limits."""
    probe = BVP3(delta=1.5, delta_x=1.5, delta_y=1.0)
    w_id = WeightFunction.identity()
    assert abs(closed_cw(probe, w_id).value - hoeffding_cw(probe, w_id)) < 1e-4
    worst = 0.0
    for d in (1.2, 1.8, 2.4):                 # dX* = 3, dY* = 2.5
        for g in (0.5, 1.0, 2.0):
            f = BVP3(delta=d, delta_x=3.0 - d, delta_y=2.5 - d)
            w = WeightFunction.power(g)
            diff = abs(closed_cw(f, w).value - hoeffding_cw(f, w))
            worst = max(worst, diff)
    # limiting reductions of the triple-index formula
    worst_lim1 = max(
        abs(closed_cw(BVP3(delta=d, delta_x=1e-6, delta_y=1e-6), w_id).value - 1.0 / d)
        for d in (1.5, 3.0)
    )
    d, g = 1.8, 1.0
    dys = 2.5
    fs0 = (1.0 / d) * (d * (g + 1) - 1.0) / (dys * (g + 1) - 1.0)
    lim2 = abs(closed_cw(BVP3(delta=d, delta_x=1e-6, delta_y=dys - d),
                         WeightFunction.power(g)).value - fs0)
    ok = worst < 1e-4 and worst_lim1 < 1e-3 and lim2 < 1e-3
    _report(7, ok, f"worst |closed - oracle| = {worst:.2e} on the 3x3 grid "
                   f"(tol 1e-4); limits: to-1/delta {worst_lim1:.2e}, "
                   f"to-two-index {lim2:.2e} (tol 1e-3)")
    assert worst < 1e-4
    assert worst_lim1 < 1e-3
    assert lim2 < 1e-3


def test_criterion_8_estimator_property_suite():
    """Exactness, independence, invariance and bounds of the estimator."""
    rng = np.random.default_rng(SEED)
    weights = (WeightFunction.identity(), WeightFunction.power(2.0),
               WeightFunction.beta_cdf(2.0, 2.0))

    xs = rng.standard_gamma(2.0, 1001)
    self_one = all(
        empirical_cw(PairedSample(xs, xs.copy()), w, n_boot=0).value == 1.0
        for w in weights
    )
    reflect_exact = all(
        empirical_cw(PairedSample(xs, -xs), w, n_boot=0).value
        == -lambda_w_empirical(xs, w)
        for w in weights
    )

    # independence: |C_w| below 3 bootstrap standard errors
    xi = rng.standard_normal(50_000)
    yi = rng.permutation(rng.standard_normal(50_000))
    rep = empirical_cw(PairedSample(xi, yi), WeightFunction.power(2.0),
                       n_boot=100, seed=SEED)
    indep_ok = abs(rep.value) < 3.0 * rep.std_error

    # invariance: bit-exact under h(y) = exp(y); exact under b = 2^k, a = 0;
    # 1e-12 under general affine maps (floating summation order)
    s = PairedSample(rng.standard_normal(400), rng.standard_normal(400))
    w = WeightFunction.beta_cdf(2.0, 2.0)
    base = empirical_cw(s, w, n_boot=0).value
    rank_exact = empirical_cw(PairedSample(s.xs, np.exp(s.ys)), w,
                              n_boot=0).value == base
    affine_pow2 = empirical_cw(PairedSample(4.0 * s.xs, s.ys), w,
                               n_boot=0).value == base
    affine_gen = abs(
        empirical_cw(PairedSample(1.7 + 2.3 * s.xs, s.ys), w, n_boot=0).value
        - base) < 1e-12 * max(1.0, abs(base))

    # bounds on 1000 random samples x 3 weights
    violations = 0
    generators = (
        lambda n: rng.standard_normal(n),
        lambda n: rng.standard_exponential(n),
        lambda n: rng.pareto(1.5, n),
        lambda n: rng.lognormal(0.0, 1.0, n),
    )
    for i in range(1000):
        n = int(rng.integers(20, 200))
        sx = generators[i % 4](n)
        sy = generators[(i + 1) % 4](n)
        samp = PairedSample(sx, sy)
        for w in weights:
            c = empirical_cw(samp, w, n_boot=0).value
            lam = lambda_w_empirical(sx, w)
            if not (-lam - 1e-12 <= c <= 1.0 + 1e-12):
                violations += 1

    ok = (self_one and reflect_exact and indep_ok and rank_exact
          and affine_pow2 and affine_gen and violations == 0)
    _report(8, ok, f"C(x,x)=1 exact={self_one}; C(x,-x)=-lambda exact="
                   f"{reflect_exact}; independence |z|="
                   f"{abs(rep.value) / rep.std_error:.2f} (<3); rank/affine "
                   f"invariance={rank_exact and affine_pow2 and affine_gen}; "
                   f"bound violations {violations}/3000")
    assert self_one and reflect_exact
    assert indep_ok
    assert rank_exact and affine_pow2 and affine_gen
    assert violations == 0


def test_criterion_9_gini_wipm_identity():
    """Empirical Gini premium matches the assembled identity; additivity."""
    families = [Normal(rho=0.5), BVP1(delta=3.0), BVP2(delta=2.1, delta_y=0.5254)]
    weights = [WeightFunction.identity(), WeightFunction.power(2.0),
               WeightFunction.beta_cdf(2.0, 2.0)]
    worst_z = 0.0
    for fam in families:
        for w in weights:
            rhs = gini_wipm_rhs(fam, w).premium
            mean, se = mc_reference(fam, "gini_premium", 100_000, seed=SEED,
                                    replications=10, weight=w)
            worst_z = max(worst_z, abs(mean - rhs) / se)

    s = sample(BVP1(delta=3.0), 100_000, seed=SEED)
    p = Portfolio(("x", "y"), np.column_stack([s.xs, s.ys]))
    w = WeightFunction.power(1.0)
    allocs = allocate(p, w)
    agg = p.aggregate
    total = gini_premium(PairedSample(agg, agg), w).premium
    add_defect = abs(sum(a.premium for a in allocs) - total) / abs(total)

    ok = worst_z < 3.0 and add_defect < 1e-10
    _report(9, ok, f"worst |empirical - assembled| = {worst_z:.2f} SEs (< 3) "
                   f"over 3 families x 3 weights at n=1e6; allocation "
                   f"additivity defect {add_defect:.2e} (tol 1e-10)")
    assert worst_z < 3.0
    assert add_defect < 1e-10


def test_criterion_10_special_function_grids():
    """Series values, incomplete-beta identities, covariance closed forms."""
    worst_2f1 = max(
        abs(hyp_pfq(HypergeometricSpec((2.0, 1.0), (c,), 1.0)) - (c - 1.0) / (c - 3.0))
        for c in (4.5, 6.0, 10.0)
    )

    ts = np.linspace(0.0, 1.0, 21)
    worst_power = max(
        float(np.max(np.abs(reg_inc_beta(ts, a, 1.0) - ts ** a)))
        for a in (0.3, 1.0, 2.0, 5.0)
    )
    worst_reflect = max(
        float(np.max(np.abs(reg_inc_beta(ts, a, b)
                            + reg_inc_beta(1.0 - ts, b, a) - 1.0)))
        for a, b in ((2.0, 3.0), (0.4, 5.0), (6.0, 0.7), (2.0, 2.0))
    )

    worst_cov = 0.0
    for d in (1.3, 1.8, 2.5, 4.0):
        m = ParetoIIMargin(0.0, 1.0, d)
        for g in (0.5, 1.0, 2.0, 5.0):
            w = WeightFunction.power(g)
            worst_cov = max(worst_cov,
                            abs(cov_x_weighted(m, w) - quad_cov_margin(m, w)))
        for a in (0.7, 2.0, 4.0):
            for b in (0.6, 2.0, 3.0):
                w = WeightFunction.beta_cdf(a, b)
                worst_cov = max(worst_cov,
                                abs(cov_x_weighted(m, w) - quad_cov_margin(m, w)))

    ok = worst_2f1 < 1e-9 and worst_power < 1e-10 and worst_reflect < 1e-10 \
        and worst_cov < 1e-7
    _report(10, ok, f"2F1 ratio {worst_2f1:.1e} (tol 1e-9); beta power "
                    f"{worst_power:.1e} / reflection {worst_reflect:.1e} "
                    f"(tol 1e-10); covariance vs quadrature {worst_cov:.1e} "
                    f"(tol 1e-7)")
    assert worst_2f1 < 1e-9
    assert worst_power < 1e-10
    assert worst_reflect < 1e-10
    assert worst_cov < 1e-7
