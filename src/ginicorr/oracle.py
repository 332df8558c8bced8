"""Independent brute-force validators.

Tanh-sinh quadrature of the weighted Gini correlation's two covariances,
and seeded Monte Carlo reference estimates whose standard errors come from
replication spread rather than within-run asymptotics (heavy tails make
the latter unreliable).

Both covariances are -int dw(v) of a gap that is not negative (Hoeffding
1940; Cuadras 2002).  The denominator Cov[X, w(S_X(X))] takes the margin's
Lorenz gap L_X(v) = int_0^v (Q(1 - u) - E[X]) du, the numerator
Cov[X, w(S_Y(Y))] the gap H(v) = int (S - S_X S_Y) dx at S_Y(y) = v, and
0 <= H <= L_X, L_X being the Frechet upper bound of H.  So C_w is a
dw-average of H/L_X, and every tolerance is relative to the integral it
ends, whatever the scale of the covariances.  Every quadrature is
tanh-sinh; any non-zero status raises QuadratureError.

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
from .specfun import _Diagnosed, ln_beta
from .weights import WeightFunction


# Relative tolerance of every quadrature, read at each call; hoeffding_cw
# scales it by 1e-2 per level of nesting
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


def _tanhsinh(f, hi, args=(), *, rtol, atol=np.finfo(float).tiny):
    """tanhsinh of f(x, *args) over each [0, hi], in x / hi: (integral, error, status, nfev).

    An interval with hi = 0 is left at 0.  atol defaults to the smallest
    normal double, so that an integral that underflows (a subnormal rise
    of a table) ends.  The rule starts at level 3, not 2: its error
    estimate compares the last levels, and three coarse levels that agree
    by chance end it early.
    """
    from scipy.integrate import tanhsinh

    wide = hi > 0.0
    hi, args = hi[wide], [a[wide] for a in args]
    res = tanhsinh(lambda u, hi, *args: f(hi * u, *args) * hi, np.zeros_like(hi),
                   np.ones_like(hi), args=(hi, *args), minlevel=3, rtol=rtol, atol=atol)
    out = np.zeros((4, wide.size))
    out[:, wide] = res.integral, res.error, res.status, res.nfev
    return out


def _against_dw(g, w: WeightFunction, **tol):
    """int_0^1 g(v) dw(v) over the pieces of w's measure: (integral, error, status, nfev).

    g(log_v, log_u, dw) returns g at v from log v and log u = log(1 - v),
    each formed where it is accurate; dw is the density of the measure
    there, for a cut-off.  I_v(a, b), and t^gamma as I_v(gamma, 1), run in
    s = v^p with dw = c v^(a-p) (1 - v)^(b-1) ds, c = 1/(p B(a, b)):
    p = gamma makes s = w(v) for t^gamma, p = min(a, 1) keeps the density
    of I_v(a, b) bounded at 0 without putting its mass below the smallest
    s.  For b < 1 the density is singular at v = 1, where v is too coarse
    to follow it, so above v = 1/2 the integral runs as that of the
    reflected weight I_u(b, a) in u = 1 - v (a flipped piece).  A table
    spans v = s0 + r ds, dw = rise dr, r in [0, 1], across each knot
    interval that rises.  Below s = 1/2, log s = log ds + log(r + s0/ds)
    does not underflow however close to 0 a piece lies; above it, log s
    comes from 1 - s = (1 - s0) - r ds, since a knot interval just below 1
    can be narrower than the spacing of doubles there.
    """
    if w.kind == "table":
        rise = np.diff(w.knots_w)
        up = rise > 0.0
        s0, ds, log_c = w.knots_t[:-1][up], np.diff(w.knots_t)[up], np.log(rise[up])
        p = a = b = np.ones_like(s0)
        flip = np.zeros(s0.shape, dtype=bool)
    else:
        a, b = (w.a, w.b) if w.kind == "beta_cdf" else (w.gamma, 1.0)
        top, log_b = (0.5 if b < 1.0 else 1.0), ln_beta(a, b)  # v or u atop each piece
        flip = np.arange(1 + (b < 1.0)) == 1
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        p = np.minimum(a, 1.0) if w.kind == "beta_cdf" else a
        s0, ds = np.zeros(flip.shape), top ** p
        log_c = np.log(ds / p) - log_b if w.kind == "beta_cdf" else np.zeros(flip.shape)

    def integrand(r, s0, ds, log_c, p, a, b, flip):
        ls = np.where(s0 + r * ds < 0.5, np.log(ds) + np.log(r + s0 / ds),
                      np.log1p(np.maximum(r * ds - (1.0 - s0), -0.5)))
        lx = np.minimum(ls, 0.0) / p                        # log v, or log u if flipped
        ly = np.where(flip, np.log1p(-np.minimum(np.exp(lx), 0.5)),
                      np.log(np.maximum(-np.expm1(lx), np.finfo(float).tiny)))
        dw = np.exp(log_c + (a - p) * lx + (b - 1.0) * ly)
        log_v, log_u = np.where(flip, ly, lx), np.where(flip, lx, ly)
        return g(log_v, log_u, dw) * dw

    return _tanhsinh(integrand, np.ones_like(s0), args=(s0, ds, log_c, p, a, b, flip), **tol)


def quad_cov_margin(margin, w: WeightFunction) -> float:
    """Cov[X, w(1 - F_X(X))] = -int_0^1 L(v) dw(v) by tanh-sinh quadrature.

    `margin` is a ParetoIIMargin, NormalMargin or StudentTMargin with a
    finite mean (else MomentError).  In v = 1 - F_X(x) the covariance is
    int_0^1 (Q(1 - v) - E[X]) w(v) dv, and by parts -int L dw with the
    margin's Lorenz gap L(v) = int_0^v (Q(1 - u) - E[X]) du, which is in
    closed form (`lorenz_gap`), not negative, and 0 at v = 0 and 1.  With
    no cancellation in the integrand the tolerance is QUAD_REL_TOL alone,
    on each piece of w's measure (see _against_dw), whatever the scale of
    the covariance.  The float returned also carries the quadrature's
    error estimate (`error`) and its evaluations (`nfev`).
    """
    margin.mean()  # raises MomentError where the mean is infinite
    value, error, status, nfev = _against_dw(
        lambda log_v, log_u, dw: margin.lorenz_gap(log_v, log_u), w, rtol=QUAD_REL_TOL)
    value, error, nfev = -float(value.sum()), float(error.sum()), int(nfev.sum())
    if np.any(status != 0):
        raise QuadratureError(
            f"tanh-sinh covariance quadrature did not converge (status "
            f"{status.astype(int).tolist()}, {nfev} evaluations)",
            estimate=value, error_estimate=error,
        )
    return _Diagnosed(value, error=error, nfev=nfev)


def _ratio(num: float, den: float) -> float:
    """num / den, carrying the error of both to first order and their summed nfev."""
    value = num / den
    return _Diagnosed(value, error=(num.error + abs(value) * den.error) / abs(den),
                      nfev=num.nfev + den.nfev)


# ---------------------------------------------------------------------------
# Pareto oracle from Hoeffding's identity
# ---------------------------------------------------------------------------

def hoeffding_cw(f: BivariateFamily, w: WeightFunction) -> float:
    """Weighted Gini correlation of BVP1, BVP2 or BVP3 by quadrature alone.

    All three have S - S_X S_Y = S_X S_Y expm1(delta L), L = -log(p + q (1-p)),
    p = 1/(1+x), q = 1/(1+y) in standard units, and differ only in the tail
    indices dX*, dY* of margins(f).  By Hoeffding's identity (Hoeffding 1940;
    Cuadras 2002) C_w = int H dw / int L_X dw, H(v) = int (S - S_X S_Y) dx
    at v = S_Y(y): a dw-average of H/L_X, as 0 <= H <= L_X.  The
    denominator, quad_cov_margin of the X margin, comes first; the
    numerator runs over the same measure (see _against_dw), and leaves H at
    0 where dw L_X, the most it adds, is below QUAD_REL_TOL 1e-4 of the
    denominator.  H runs in the tail variable S_X(x) = t^k (see
    _tail_power), split at the ridge p = q where L bends once q < 1/e:
    below it in t / ridge, above it in log(t / ridge), both formed from
    log t, so a ridge below the smallest double loses nothing; L comes from
    log p and log q.  The tolerances are relative, QUAD_REL_TOL scaled by
    1e-2 per level of nesting; the outer one is also absolute, times the
    denominator, since below the scale of the cut-off its integrand jumps.
    No density expansion, 3F2 series or regression line enters.  The float
    returned carries `nfev`, the outer, inner and denominator evaluations,
    and `error`: the numerator's (outer plus largest inner) and the
    denominator's, propagated to the ratio.
    """
    if not isinstance(f, PARETO_FAMILIES):
        raise DomainError(f"the Hoeffding oracle covers the Pareto families, not {f!r}")
    d, dxs, dys = f.delta, *(m.delta for m in margins(f))
    mx = ParetoIIMargin(0.0, 1.0, dxs)
    cov_den = quad_cov_margin(mx, w)  # rejects dX* <= 1
    if cov_den == 0.0:
        raise DegenerateSampleError("C_w undefined: constant weight")
    k = _tail_power(dxs)
    cx, px = k / dxs, k * (1.0 - 1.0 / dxs) - 1.0
    inner_fails, inner_error, inner_nfev = 0, 0.0, 0

    def bracket(x, lq, lr, below):
        # t = e^lr x below the ridge t = e^lr, x in [0, 1]; t = e^(lr + x) above it
        lt = lr + np.where(below, np.log(x), x)             # log t
        lp = cx * lt                                        # log p
        c = np.expm1(lp) * np.expm1(lq)                     # (1-p)(1-q)
        far = -np.logaddexp(lp, lq + np.log1p(-np.minimum(np.exp(lp), 0.5)))
        el = d * np.where(c < 0.5, -np.log1p(-np.minimum(c, 0.5)), far)
        # S_X dx = cx t^px dt, dt = e^lr dx below and t dx above the ridge;
        # S_Y expm1(el) = e^(dys lq + el) (1 - e^(-el)) <= 1
        return (cx * np.exp(px * lt + np.where(below, lr, lt) + dys * lq + el)
                * -np.expm1(-el))

    def inner(log_v, log_u, dw):
        nonlocal inner_fails, inner_error, inner_nfev
        # 0 <= H <= L_X: dw L_X bounds what H adds to the numerator here
        live = dw * mx.lorenz_gap(log_v, log_u) > QUAD_REL_TOL * 1e-4 * -cov_den
        lq = log_v[live] / dys                              # log q
        # once q < 1/e the bend of L at p = q is too deep in t for the coarse
        # levels; the ridge is formed in logs, since it underflows for v
        # far below the smallest double
        lr = np.where(lq < -1.0, lq / cx, 0.0)
        below = np.arange(2 * lq.size) < lq.size
        part, error, status, nfev = _tanhsinh(
            bracket, np.where(below, 1.0, -np.tile(lr, 2)),
            args=(np.tile(lq, 2), np.tile(lr, 2), below), rtol=QUAD_REL_TOL * 1e-4)
        inner_fails += int(np.count_nonzero(status))
        inner_error = max(inner_error, float(error.max(initial=0.0)))
        inner_nfev += int(nfev.sum())
        value = np.zeros(log_v.shape)
        value[live] = part.reshape(2, -1).sum(axis=0)
        return value

    value, error, status, nfev = _against_dw(inner, w, rtol=QUAD_REL_TOL * 1e-2,
                                             atol=QUAD_REL_TOL * 1e-2 * -cov_den)
    cov_num = -float(value.sum())
    error = float(error.sum()) + inner_error
    if np.any(status != 0) or inner_fails:
        raise QuadratureError(
            f"Hoeffding quadrature did not converge (outer status "
            f"{status.astype(int).tolist()}, {inner_fails} inner integrals failed)",
            estimate=cov_num, error_estimate=error,
        )
    return _ratio(_Diagnosed(cov_num, error=error, nfev=int(nfev.sum()) + inner_nfev),
                  cov_den)


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
