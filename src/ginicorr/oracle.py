"""Independent brute-force validators.

Vectorised tanh-sinh quadrature of marginal covariances in the tail variable
t = 1 - F(x) (which tames the heavy tails: the integrand lives on (0,1), and
a substitution t = s^k keeps the part near the tail that doubles cannot
reach negligible), the weighted Gini correlation of the three Pareto
families for every weight from Hoeffding's identity over their joint
survival function, and seeded Monte Carlo reference estimates whose
standard errors come from replication spread rather than within-run
asymptotics (heavy tails make the latter unreliable).  Every
quadrature is tanh-sinh; any non-zero status raises QuadratureError.

Everything here is trusted *before* any closed form and arbitrates them.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    BVP3,
    PARETO_FAMILIES,
    BivariateFamily,
    PairedSample,
    ParetoIIMargin,
    chunk_seeds,
    margins,
    _draw,
)
from .errors import DegenerateSampleError, DomainError, MomentError, QuadratureError
from .specfun import ln_beta
from .weights import WeightFunction, reflect


# Tolerances of every covariance quadrature, read at each call
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8


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


def _tanhsinh(f, lo, hi, args=(), **kw):
    """tanhsinh of f(x, *args) over each [lo, hi]: (integral, error, status, nfev).

    From lo > 0 the variable is log(x / lo): over [a, b], a << b, a power
    of x bends at x ~ a, too deep for the coarse levels, which then agree
    on a wrong value, and a narrow interval's nodes round onto its ends,
    where tanhsinh drops them.  From 0 it is x / hi.  Below the smallest
    normal double, which holds under 1e-14 of these integrals (see
    _tail_power), an interval starts at 0 instead or is left at 0.
    """
    from scipy.integrate import tanhsinh

    tiny = np.finfo(float).tiny
    lo = np.where(lo < tiny, 0.0, lo)
    wide = hi > np.maximum(np.nextafter(lo, 2.0), tiny)
    lo, hi, args = lo[wide], hi[wide], [a[wide] for a in args]
    lo1 = np.where(lo > 0.0, lo, 1.0)

    def g(u, la, lo, hi, *args):
        # exp rounds up past hi at the top node at worst
        x = np.where(lo > 0.0, np.minimum(np.exp(la + u), hi), hi * u)
        return f(x, *args) * np.where(lo > 0.0, x, hi)

    res = tanhsinh(g, np.zeros_like(lo), np.where(lo > 0.0, np.log1p((hi - lo) / lo1), 1.0),
                   args=(np.log(lo1), lo, hi, *args), **kw)
    out = np.zeros((4, wide.size))
    out[:, wide] = res.integral, res.error, res.status, res.nfev
    return out


def _tail_cov(margin, w: WeightFunction):
    """Cov[X, w(1 - F_X(X))] by tanh-sinh: (value, error estimate, evaluations).

    Integrates the one centred integrand Qbar(t) (w(t) - wbar) over the tail
    variable t = 1 - F_X(x), with Qbar(t) = Q(1 - t) from the margin's
    `tail_quantile` in t = s^k (see _tail_power).  Symmetric margins fold
    the upper half onto the lower, Qbar(1 - t) = -Qbar(t), and integrate
    Qbar(t) (w(t) + w*(t) - 1) over (0, 1/2], with w*(t) = 1 - w(1 - t)
    evaluated as reflect(w) so no 1 - t rounds.  The knots of a table
    weight are break points; the intervals between them go to one
    vectorised tanhsinh call (see _tanhsinh).  The rule starts at level 3,
    not 2: its error estimate compares the last levels, and three coarse
    levels that agree by chance end it early (a table weight at Pareto
    delta = 5.15 stopped after 67 points with an estimate of 4e-15 and an
    error of 3e-11).
    """
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
    value, error, status, nfev = _tanhsinh(f, edges[:-1], edges[1:], minlevel=3,
                                           atol=QUAD_ABS_TOL, rtol=QUAD_REL_TOL)
    value, error, nfev = float(value.sum()), float(error.sum()), int(nfev.sum())
    if np.any(status != 0):
        raise QuadratureError(
            f"tanh-sinh covariance quadrature did not converge (status "
            f"{status.astype(int).tolist()}, {nfev} evaluations)",
            estimate=value, error_estimate=error,
        )
    return value, error, nfev


def quad_cov_margin(margin, w: WeightFunction) -> float:
    """Cov[X, w(1 - F_X(X))] by tail-variable tanh-sinh quadrature.

    `margin` is a ParetoIIMargin, NormalMargin or StudentTMargin.  Requires
    a finite mean.
    """
    return _tail_cov(margin, w)[0]


# ---------------------------------------------------------------------------
# Pareto oracle from Hoeffding's identity
# ---------------------------------------------------------------------------

def hoeffding_cw(f: BivariateFamily, w: WeightFunction) -> float:
    """Weighted Gini correlation of BVP1, BVP2 or BVP3 by quadrature alone.

    All three have S - S_X S_Y = S_X S_Y expm1(delta L), L = -log(p + q (1-p)),
    p = 1/(1+x), q = 1/(1+y) in standard units, and differ only in the tail
    indices dX*, dY* of margins(f).  Hoeffding's identity (Hoeffding 1940;
    Cuadras 2002) gives the numerator Cov[X, w(v)], v = S_Y(Y), as
    -int w'(v) int (S - S_X S_Y) dx dv: the outer integral in s = v^p with
    dw = c (1 - v)^(b-1) ds (for a table, across each knot interval), the
    inner one in the tail variable S_X(x) = t^k (see _tail_power), split
    at the ridge p = q where L bends once q < 1/e; L comes from log p and
    log q.  Both are tanhsinh from level 3, with the tolerances scaled by
    1e-2 per level of nesting.  The denominator is quad_cov_margin.  No
    density expansion, 3F2 series or regression line enters.
    """
    if not isinstance(f, PARETO_FAMILIES):
        raise DomainError(f"the Hoeffding oracle covers the Pareto families, not {f!r}")
    d, dxs, dys = f.delta, *(m.delta for m in margins(f))
    t, v = w.knots_t, w.knots_w
    if w.kind == "table" and v[-1] > v[0]:  # C_w is that of (w - w(0)) / (w(1) - w(0))
        w = WeightFunction.table(t, (v - v[0]) / (v[-1] - v[0]))
    cov_den = quad_cov_margin(ParetoIIMargin(0.0, 1.0, dxs), w)  # rejects dX* <= 1
    if cov_den == 0.0:
        raise DegenerateSampleError("C_w undefined: constant weight")
    if w.kind == "table":       # s = v = s0 + r ds, dw = rise dr, r in [0, 1]
        rise = np.diff(w.knots_w)
        up = rise > 0.0
        p, b, s0, ds, scale = 1.0, 1.0, t[:-1][up], np.diff(t)[up], rise[up]
    elif w.kind == "beta_cdf":  # I_v(a, b): c = 1/(a B(a, b))
        p, b, s0, ds = w.a, w.b, np.zeros(1), np.ones(1)
        scale = np.exp(np.full(1, -np.log(w.a) - ln_beta(w.a, w.b)))
    else:                       # v^gamma = I_v(gamma, 1): c = 1
        p, b, s0, ds, scale = w.gamma, 1.0, np.zeros(1), np.ones(1), np.ones(1)
    k = _tail_power(dxs)
    cx, px = k / dxs, k * (1.0 - 1.0 / dxs) - 1.0
    tol = dict(minlevel=3, atol=QUAD_ABS_TOL * 1e-4, rtol=QUAD_REL_TOL * 1e-4)
    inner_fails, inner_error = 0, 0.0

    def bracket(t, lq):
        lp = cx * np.log(t)                                 # log p
        c = np.expm1(lp) * np.expm1(lq)                     # (1-p)(1-q)
        far = -np.logaddexp(lp, lq + np.log1p(-np.minimum(np.exp(lp), 0.5)))
        el = d * np.where(c < 0.5, -np.log1p(-np.minimum(c, 0.5)), far)
        # S_X dx = cx t^px dt; S_Y expm1(el) = e^(dys lq + el) (1 - e^(-el)) <= 1
        return cx * t ** px * np.exp(dys * lq + el) * -np.expm1(-el)

    def inner(r, s0, ds, scale):
        nonlocal inner_fails, inner_error
        ls = np.log(s0 + r * ds)
        lq, lv = ls / (p * dys), ls / p                     # log q, log v
        tail = -np.expm1(lv)                                # 1 - v
        g = scale * np.where(tail > 0.0, tail, 1.0) ** (b - 1.0)
        # 0 <= S - S_X S_Y <= min(S_X (1 - v), S_X, v) bounds the inner integral;
        # it is left at 0 where the bound times g is below the tolerance on C_w
        bound = np.minimum(tail, dxs * np.exp(lv * (1.0 - 1.0 / dxs))) / (dxs - 1.0)
        live = g * bound > tol["atol"] * min(1.0, -cov_den)
        lq = lq[live]
        # once q < 1/e the bend of L at p = q is too deep in t for the coarse levels
        ridge = np.where(lq < -1.0, np.exp(lq / cx), 1.0)
        t0 = np.concatenate([np.zeros_like(ridge), ridge])
        t1 = np.concatenate([ridge, np.ones_like(ridge)])
        part, error, status, _ = _tanhsinh(bracket, t0, t1, args=(np.tile(lq, 2),), **tol)
        inner_fails += int(np.count_nonzero(status))
        inner_error = max(inner_error, float(error.max(initial=0.0)))
        value = np.zeros(r.shape)
        value[live] = part.reshape(2, -1).sum(axis=0)
        return value * g

    value, error, status, _ = _tanhsinh(inner, np.zeros_like(s0), np.ones_like(s0),
                                        args=(s0, ds, scale), minlevel=3,
                                        atol=QUAD_ABS_TOL * 1e-2, rtol=QUAD_REL_TOL * 1e-2)
    cov_num = -float(value.sum())
    if np.any(status != 0) or inner_fails:
        raise QuadratureError(
            f"Hoeffding quadrature did not converge (outer status "
            f"{status.astype(int).tolist()}, {inner_fails} inner integrals failed)",
            estimate=cov_num, error_estimate=float(error.sum()) + inner_error,
        )
    return cov_num / cov_den


def quad2_bvp3_moment(f: BVP3, gamma: float) -> float:
    """hoeffding_cw with the power weight t^gamma, the name bench/ imports."""
    return hoeffding_cw(f, WeightFunction.power(gamma))


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
