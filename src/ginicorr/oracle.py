"""Independent brute-force validators.

Vectorised tanh-sinh quadrature of marginal covariances in the tail variable
t = 1 - F(x) (which tames the heavy tails: the integrand lives on (0,1), and
a substitution t = s^k keeps the part near the tail that doubles cannot
reach negligible), the three-index Pareto correlation from Hoeffding's
identity over its joint survival function, and seeded Monte Carlo reference
estimates whose standard errors come from replication spread rather than
within-run asymptotics (heavy tails make the latter unreliable).  Every
quadrature is tanh-sinh; any non-zero status raises QuadratureError.

Everything here is trusted *before* any closed form and arbitrates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    BVP3,
    BivariateFamily,
    PairedSample,
    ParetoIIMargin,
    chunk_seeds,
    _draw,
)
from .errors import DegenerateSampleError, DomainError, MomentError, QuadratureError
from .weights import WeightFunction, reflect


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")


DEFAULT_QUAD = QuadratureSpec()


def _tail_power(tail_index: float) -> float:
    """The least k >= 1 that leaves the s-integrand no worse than s^(-19/20).

    Qbar(t) ~ t^(-1/alpha) for tail index alpha, so in t = s^k the integrand
    near s = 0 goes like s^(k (1 - 1/alpha) - 1).  tanh-sinh samples s down
    to the smallest normal double, 2.2e-308, and the part below it is then
    under (2.2e-308)^(1/20) * 20 = 1e-14 of the scale.  A larger k squeezes
    the bulk of t into a thin layer below s = 1 and costs accuracy.
    """
    if tail_index <= 1.0:
        raise MomentError(f"covariance needs a finite mean, got tail index {tail_index}")
    return max(1.0, 0.05 / (1.0 - 1.0 / tail_index))


def _tail_cov(margin, w: WeightFunction, spec: QuadratureSpec):
    """Cov[X, w(1 - F_X(X))] by tanh-sinh: (value, error estimate, evaluations).

    Integrates the one centred integrand Qbar(t) (w(t) - wbar) over the tail
    variable t = 1 - F_X(x), with Qbar(t) = Q(1 - t) from the margin's
    `tail_quantile` in t = s^k (see _tail_power).  Symmetric margins fold
    the upper half onto the lower, Qbar(1 - t) = -Qbar(t), and integrate
    Qbar(t) (w(t) + w*(t) - 1) over (0, 1/2], with w*(t) = 1 - w(1 - t)
    evaluated as reflect(w) so no 1 - t rounds.  The knots of a table
    weight are break points; the intervals between them, bar those one ulp
    wide, go to one vectorised tanhsinh call.  The rule starts at level 3,
    not 2: its error estimate compares the last levels, and three coarse
    levels that agree by chance end it early (a table weight at Pareto
    delta = 5.15 stopped after 67 points with an estimate of 4e-15 and an
    error of 3e-11).
    """
    from scipy.integrate import tanhsinh

    wbar = w.mean_on_unit()
    kinks = w.knots_t if w.kind == "table" else np.empty(0)
    k = _tail_power(margin.tail_index)
    if margin.symmetric:
        end = 0.5
        ws = reflect(w)
        kinks = np.concatenate([kinks, 1.0 - kinks])

        def f(s):
            return margin.tail_quantile(s, k) * (w.at_power(s, k) + ws.at_power(s, k)
                                                 - 1.0)
    else:
        end = 1.0

        def f(s):
            return margin.tail_quantile(s, k) * (w.at_power(s, k) - wbar)
    t_edges = np.unique(np.concatenate([[0.0, end], kinks[(kinks > 0.0) & (kinks < end)]]))
    edges = t_edges ** (1.0 / k)
    # an interval with no double inside it holds no node and nothing to sum
    lo, hi = edges[:-1], edges[1:]
    wide = hi > np.nextafter(lo, 2.0)
    res = tanhsinh(f, lo[wide], hi[wide], minlevel=3, atol=spec.abs_tol,
                   rtol=spec.rel_tol)
    value, error = float(res.integral.sum()), float(res.error.sum())
    if np.any(res.status != 0):
        raise QuadratureError(
            f"tanh-sinh covariance quadrature did not converge (status "
            f"{res.status.tolist()}, {int(res.nfev.sum())} evaluations)",
            estimate=value, error_estimate=error,
        )
    return value, error, int(res.nfev.sum())


def quad_cov_margin(margin, w: WeightFunction,
                    spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Cov[X, w(1 - F_X(X))] by tail-variable tanh-sinh quadrature.

    `margin` is a ParetoIIMargin, NormalMargin or StudentTMargin.  Requires
    a finite mean.
    """
    return _tail_cov(margin, w, spec)[0]


# ---------------------------------------------------------------------------
# BVP3 oracle from Hoeffding's identity
# ---------------------------------------------------------------------------

def quad2_bvp3_moment(f: BVP3, gamma: float,
                      spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Oracle extended Gini correlation for BVP3, built from quadrature only.

    The numerator Cov[X, S_Y(Y)^gamma] of the standard BVP3 is Hoeffding's
    -int int [S - S_X S_Y] dx ds with s = S_Y(y)^gamma (Hoeffding 1940;
    Cuadras 2002).  Here S - S_X S_Y = S_X S_Y expm1(delta L), and
    L = -log(p + q (1 - p)) with p = 1/(1+x), q = 1/(1+y) is formed from
    log p and log q (x and y overflow), by log1p while (1-p)(1-q) is small.
    x runs in the tail variable u = S_X(x) = t^k (see _tail_power).  The
    outer tanhsinh over s is vectorised over the inner one over t; both
    start at level 3, with the tolerances scaled by 1e-2 per nesting level.
    The denominator is 1-d tail-variable quadrature.  Neither uses the
    density expansion or a hypergeometric series, as the closed form does.
    """
    from scipy.integrate import tanhsinh

    d, dxs, dys = f.delta, f.delta_x_star, f.delta_y_star
    # first, since it rejects gamma <= 0 and dX* <= 1
    cov_den = quad_cov_margin(ParetoIIMargin(0.0, 1.0, dxs), WeightFunction.power(gamma),
                              spec)
    k = _tail_power(dxs)
    cx, px = k / dxs, k * (1.0 - 1.0 / dxs) - 1.0
    inner_fails, inner_error = 0, 0.0

    def bracket(t, lq):
        lp = cx * np.log(t)                                 # log p
        c = np.expm1(lp) * np.expm1(lq)                     # (1-p)(1-q)
        far = -np.logaddexp(lp, lq + np.log1p(-np.minimum(np.exp(lp), 0.5)))
        el = d * np.where(c < 0.5, -np.log1p(-np.minimum(c, 0.5)), far)
        # S_X dx = cx t^px dt; S_Y expm1(el) = e^(dys lq + el) (1 - e^(-el)) <= 1
        return cx * t ** px * np.exp(dys * lq + el) * -np.expm1(-el)

    def inner(s):
        nonlocal inner_fails, inner_error
        res = tanhsinh(bracket, np.zeros_like(s), np.ones_like(s),
                       args=(np.log(s) / (gamma * dys),), minlevel=3,
                       atol=spec.abs_tol * 1e-4, rtol=spec.rel_tol * 1e-4)
        inner_fails += int(np.count_nonzero(res.status))
        inner_error = max(inner_error, float(res.error.max()))
        return res.integral

    res = tanhsinh(inner, 0.0, 1.0, minlevel=3, atol=spec.abs_tol * 1e-2,
                   rtol=spec.rel_tol * 1e-2)
    cov_num = -float(res.integral)
    if res.status != 0 or inner_fails:
        raise QuadratureError(
            f"BVP3 Hoeffding quadrature did not converge (outer status "
            f"{int(res.status)}, {inner_fails} inner integrals failed)",
            estimate=cov_num, error_estimate=float(res.error) + inner_error,
        )
    return cov_num / cov_den


# ---------------------------------------------------------------------------
# Monte Carlo reference
# ---------------------------------------------------------------------------

MC_STATISTICS = ("cw", "pearson", "gini_premium")


def mc_reference(f: BivariateFamily, statistic: str, n: int, seed: int,
                 replications: int, weight: WeightFunction | None = None):
    """Replicated Monte Carlo estimate of a statistic under the family.

    Returns (mean, std_error) with the standard error taken from the spread
    of the replication values. Deterministic for a fixed seed: replication
    r uses the child seed (seed, r).

    The standard error does not cover truncation bias: a sample of n draws
    sees only E[X; X < ~n] of a margin whose tail index is near 1, and every
    replication misses the same part.  At BVP3(1, 0.02, 0.01), gamma = 0.1
    (dX* = 1.02) the mean of "cw" sits 2.4 standard errors below the closed
    form at n = 10^6 x 10 replications (seed 31).
    """
    from . import gini as _gini  # deferred: gini imports this module
    from . import wipm as _wipm

    if statistic not in MC_STATISTICS:
        raise DomainError(f"unknown statistic {statistic!r}; pick from {MC_STATISTICS}")
    if statistic != "pearson" and weight is None:
        raise DomainError(f"statistic {statistic!r} needs a weight function")
    if n < 1000:
        raise DomainError(f"need n >= 1000 per replication, got {n}")
    if replications < 10:
        raise DomainError(f"need >= 10 replications, got {replications}")

    values = np.empty(replications)
    for r, ss in enumerate(chunk_seeds(seed, replications)):
        x, y = _draw(f, n, np.random.default_rng(ss))
        s = PairedSample(x, y, {"family": f.describe(), "seed": seed, "rep": r})
        try:
            if statistic == "cw":
                values[r] = _gini.empirical_cw(s, weight, n_boot=0).value
            elif statistic == "pearson":
                values[r] = _gini.empirical_pearson(s, n_boot=0).value
            else:
                values[r] = _wipm.gini_premium(s, weight).premium
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(
                f"statistic {statistic!r} undefined on replication {r}: {exc}"
            ) from exc
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(replications))
