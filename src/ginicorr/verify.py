"""Self-verification harness behind the `verify` CLI subcommand.

Each suite is a list of named checks; a check returns (passed, detail).
Each compares two routes that share no formula; gini:routes_vs_hoeffding
holds the Pareto closed forms, the regression route and the WIPM identity
to the Hoeffding-identity oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gini, oracle, wipm
from .distributions import (BVP1, BVP2, BVP3, Normal, PairedSample, ParetoIIMargin,
                            margins, sample)
from .specfun import HypergeometricSpec, hyp_pfq, reg_inc_beta
from .weights import WeightFunction

FROZEN_3F2_1p5_2_1__4_5 = 1.2101893274335043  # direct Kahan summation, frozen pre-build


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _max_abs(err_iter) -> float:
    return max(abs(e) for e in err_iter)


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

def _check_gauss_ratio():
    worst = _max_abs(
        hyp_pfq(HypergeometricSpec((2.0, 1.0), (c,), 1.0)) - (c - 1.0) / (c - 3.0)
        for c in (4.5, 6.0, 10.0)
    )
    return worst < 1e-9, f"max |2F1(2,1;c;1) - (c-1)/(c-3)| = {worst:.3e}"


def _check_beta_power():
    grid = np.linspace(0.0, 1.0, 21)
    worst = max(
        _max_abs(reg_inc_beta(grid, a, 1.0) - grid ** a)
        for a in (0.5, 1.0, 2.0, 3.0, 7.3)
    )
    return worst < 1e-10, f"max |I_t(a,1) - t^a| = {worst:.3e}"


def _check_beta_reflection():
    grid = np.linspace(0.0, 1.0, 21)
    worst = max(
        _max_abs(reg_inc_beta(grid, a, b) + reg_inc_beta(1.0 - grid, b, a) - 1.0)
        for a, b in ((2.0, 3.0), (0.4, 5.0), (6.0, 0.7))
    )
    return worst < 1e-10, f"max reflection defect = {worst:.3e}"


def _check_frozen_3f2():
    got = hyp_pfq(HypergeometricSpec((1.5, 2.0, 1.0), (4.0, 5.0), 1.0))
    err = abs(got - FROZEN_3F2_1p5_2_1__4_5) / FROZEN_3F2_1p5_2_1__4_5
    return err < 1e-12, f"relative error vs frozen value = {err:.3e}"


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

def _check_quantile_roundtrip():
    m = ParetoIIMargin(3.0, 2.0, 1.7)
    u = np.linspace(0.0, 0.999, 40)
    worst = _max_abs(m.ddf(m.quantile(u)) - (1.0 - u))
    return worst < 1e-12, f"max |ddf(Q(u)) - (1-u)| = {worst:.3e}"


def _check_sampler_ddf():
    from .distributions import joint_ddf
    f = BVP2(delta=2.1, delta_y=0.5254)
    s = sample(f, 50_000, seed=711)
    worst = 0.0
    for x in (0.2, 1.0, 3.0):
        for y in (0.2, 1.0):
            p = joint_ddf(f, x, y)
            emp = np.mean((s.xs > x) & (s.ys > y))
            se = math.sqrt(p * (1.0 - p) / s.n)
            worst = max(worst, abs(emp - p) / se)
    return worst < 4.0, f"max |empirical - ddf| = {worst:.2f} binomial SEs"


# ---------------------------------------------------------------------------
# gini
# ---------------------------------------------------------------------------

def _check_routes_vs_hoeffding():
    # the WIPM premium E[X] + C_w Cov[X, w(1-F_X)] / E[w], with the oracle's C_w;
    # the table's covariances are ~1e-150, so this also holds the quadratures'
    # tolerances to be relative
    f2 = BVP2(delta=2.1, delta_y=0.5254)
    worst = 0.0
    for f, w in ((BVP1(delta=5.87), WeightFunction.power(2.0)),
                 (f2, WeightFunction.power(1.0)),
                 (f2, WeightFunction.beta_cdf(2.0, 2.0)),
                 (BVP3(delta=1.5, delta_x=1.5, delta_y=1.0), WeightFunction.power(1.0)),
                 (BVP1(delta=2.0), WeightFunction.table([0.0, 1e-300], [0.0, 1.0]))):
        cw = oracle.hoeffding_cw(f, w)
        diffs = [gini.closed_cw(f, w).value - cw]
        if not isinstance(f, BVP3):
            mx = margins(f)[0]
            premium = mx.mean() + cw * oracle.quad_cov_margin(mx, w) / w.mean_on_unit()
            diffs += [gini.cw_via_regression(f, w).value - cw,
                      wipm.gini_wipm_rhs(f, w).premium - premium]
        worst = max(worst, _max_abs(diffs))
    return worst < 1e-9, f"max |route - Hoeffding oracle| = {worst:.3e}"


def _check_cw_self():
    rng = np.random.default_rng(5)
    xs = rng.standard_gamma(2.0, 400)
    w = WeightFunction.power(2.0)
    s_id = PairedSample(xs, xs.copy())
    s_neg = PairedSample(xs, -xs)
    upper = gini.empirical_cw(s_id, w, n_boot=0).value
    lower = gini.empirical_cw(s_neg, w, n_boot=0).value
    lam = gini.lambda_w_empirical(xs, w)
    ok = upper == 1.0 and lower == -lam
    return ok, f"C(x,x) = {upper!r}, C(x,-x) + lambda = {lower + lam!r}"


def _check_cov_vs_quadrature():
    worst = 0.0
    for d in (1.5, 2.0, 3.0):
        for w in (WeightFunction.power(1.0), WeightFunction.power(2.0),
                  WeightFunction.beta_cdf(2.0, 2.0)):
            m = ParetoIIMargin(0.0, 1.0, d)
            closed = gini.cov_x_weighted(m, w)
            quad = oracle.quad_cov_margin(m, w)
            worst = max(worst, abs(closed - quad))
    return worst < 1e-7, f"max |closed cov - quadrature| = {worst:.3e}"


def _check_bounds_small():
    rng = np.random.default_rng(17)
    w = WeightFunction.beta_cdf(2.0, 2.0)
    bad = 0
    for _ in range(50):
        xs = rng.standard_normal(60)
        ys = rng.standard_normal(60)
        c = gini.empirical_cw(PairedSample(xs, ys), w, n_boot=0).value
        lam = gini.lambda_w_empirical(xs, w)
        if not (-lam - 1e-12 <= c <= 1.0 + 1e-12):
            bad += 1
    return bad == 0, f"{bad}/50 bound violations"


# ---------------------------------------------------------------------------
# wipm
# ---------------------------------------------------------------------------

def _check_premium_pareto_closed():
    got = wipm.margin_gini_premium(ParetoIIMargin(0.0, 1.0, 2.0),
                                   WeightFunction.power(1.0))
    return abs(got - 1.0 / 3.0) < 1e-12, f"pi = {got:.10f} (want 1/3)"


def _check_allocation_additivity():
    s = sample(BVP1(delta=3.0), 4_000, seed=21)
    p = wipm.Portfolio(("a", "b"), np.column_stack([s.xs, s.ys]))
    w = WeightFunction.power(1.0)
    allocs = wipm.allocate(p, w)
    agg = PairedSample(p.aggregate, p.aggregate)
    total = wipm.gini_premium(agg, w).premium
    err = abs(sum(a.premium for a in allocs) - total) / abs(total)
    return err < 1e-10, f"relative additivity defect = {err:.3e}"


def _check_classical_vs_gini_normal():
    s = sample(Normal(rho=0.5), 100_000, seed=4242)
    w = WeightFunction.power(2.0)
    g = wipm.gini_premium(s, w).premium
    wv = gini._rank_weights(w, gini._margin_ranks(s, 1), s.n)
    cls = wipm.classical_wipm_rhs(s, lambda ys: wv)  # evaluated only at s.ys
    err = abs(cls.premium - g)
    return err < 0.02, f"|classical - gini| = {err:.4f}"


SUITES = {
    "specfun": [
        ("gauss_2f1_ratio", _check_gauss_ratio),
        ("beta_power_reduction", _check_beta_power),
        ("beta_reflection", _check_beta_reflection),
        ("frozen_3f2_value", _check_frozen_3f2),
    ],
    "distributions": [
        ("quantile_roundtrip", _check_quantile_roundtrip),
        ("sampler_vs_ddf", _check_sampler_ddf),
    ],
    "gini": [
        ("routes_vs_hoeffding", _check_routes_vs_hoeffding),
        ("exact_self_and_reflection", _check_cw_self),
        ("cov_xx_vs_quadrature", _check_cov_vs_quadrature),
        ("normalization_bounds", _check_bounds_small),
    ],
    "wipm": [
        ("pareto_premium_closed", _check_premium_pareto_closed),
        ("allocation_additivity", _check_allocation_additivity),
        ("classical_vs_gini_normal", _check_classical_vs_gini_normal),
    ],
}


def run(suite: str) -> list:
    """Run one suite (or "all"); returns CheckResult rows in order."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; pick from "
                         f"{list(SUITES) + ['all']}")
    results = []
    for sname in names:
        for cname, fn in SUITES[sname]:
            try:
                passed, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            results.append(CheckResult(sname, cname, bool(passed), detail))
    return results


def format_table(results) -> str:
    width = max(len(f"{r.suite}:{r.name}") for r in results)
    lines = []
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(f"{tag}  {r.suite + ':' + r.name:<{width}}  {r.detail}")
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} checks passed")
    return "\n".join(lines)
