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
ends, whatever the scale of the covariances.  Every quadrature is the
tanh-sinh rule of _tanhsinh (Takahasi & Mori 1974; error estimate of
Bailey, Jeyabalan & Li 2005), that of scipy's tanhsinh in numpy alone;
any non-zero status raises QuadratureError.

Everything here is trusted *before* any closed form and arbitrates them.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import (
    BVP3,
    BivariateFamily,
    PairedSample,
    ParetoIIMargin,
    chunk_seeds,
    margins,
    _draw,
    _elliptical,
)
from .errors import DegenerateSampleError, DomainError, QuadratureError
from .specfun import _Diagnosed, ln_beta
from .weights import WeightFunction


# Relative tolerance of every quadrature, read at each call; hoeffding_cw
# scales it by 1e-2 per level of nesting
QUAD_REL_TOL = 1e-8


# Levels of the tanh-sinh rule, read at each call: the first pass sums
# levels 0 to _MIN_LEVEL, each later pass adds one level up to _MAX_LEVEL.
# Both are at least 2, so that the first pass has an error estimate.
_MIN_LEVEL, _MAX_LEVEL = 3, 10
# Level 0's step: 8 steps out, 1 - x is about 4 times the smallest normal double
_H0 = math.asinh(math.log(2.0 / (4.0 * np.finfo(float).tiny) - 1.0) / math.pi) / 8.0


@functools.cache
def _nodes(first, last):
    """Abscissae x in (0, 1), weights, mask of zero weights and x, -x of levels first to last.

    The upper half is in row 0, and the last array holds x there and -x in
    row 1, so that its largest entry in a row is the node nearest that end.
    Level k steps h = _H0 / 2^k to j h, j = 0 to 8 2^k, odd j only for k > 0;
    with u = pi/2 sinh(j h) its complement 1 - x = 1 / (e^u cosh u) and
    weight pi/2 cosh(j h) / cosh(u)^2 on [-1, 1], halved at x = 0, which is
    summed from both sides.  A node that rounds onto 0 or 1 weighs 0.
    """
    xc, w = [], []
    with np.errstate(over="ignore"):
        for k in range(first, last + 1):
            j = np.arange(8 * 2**k + 1) if k == 0 else np.arange(1, 8 * 2**k + 1, 2)
            jh = j * (_H0 / 2**k)
            u = np.pi / 2 * np.sinh(jh)
            w.append(np.pi / 2 * np.cosh(jh) / np.cosh(u) ** 2)
            xc.append(1 / (np.exp(u) * np.cosh(u)))
    if first == 0:
        w[0][0] /= 2
    xc, w = np.concatenate(xc), 0.5 * np.concatenate(w)
    x, w = np.stack((1.0 - 0.5 * xc, 0.5 * xc)), np.stack((w, w))
    w[(x <= 0.0) | (x >= 1.0)] = 0.0
    nodes = x, w, w == 0.0, x * [[1.0], [-1.0]]
    for a in nodes:
        a.flags.writeable = False  # shared by every call
    return nodes


def _tanhsinh(f, hi, args=(), *, rtol, atol=np.finfo(float).tiny):
    """tanh-sinh of f(x, *args) over each [0, hi], in x / hi: (integral, error, status, nfev).

    The rule of Takahasi & Mori (1974) with the error estimate of Bailey,
    Jeyabalan & Li (2005, Exp. Math. 14), step for step that of scipy's
    tanhsinh at minlevel 3: integral, error and status are scipy's bit
    for bit.  nfev counts the evaluations made here, one per interval
    fewer than scipy's, which first probes each midpoint.  The estimate
    at level n is S_n = S_(n-1) / 2 + h sum f w over the nodes new at n
    (see _nodes).  A value f that is not finite is replaced by that at
    the valid node nearest the same end.  With d1, d2 = |S_n - S_(n-1)|,
    |S_n - S_(n-2)|, d3 = eps max |f w| over the new nodes, d4 the larger
    |f w| at the valid nodes nearest the ends and d5 = eps |S_n|, the
    error is clip(max(d1^(log d1 / log d2), d1^2, d3, d4), d5, d1).  An
    interval ends once the error is below rtol |S_n| or atol (status 0),
    at a non-finite S_n (-3), or at level _MAX_LEVEL (-2); a NaN at the
    midpoint ends it at once (-3), as scipy's probe does.  An interval
    with hi = 0 is left at 0.  atol defaults to the smallest normal
    double, so that an integral that underflows (a subnormal rise of a
    table) ends.  The rule starts at level 3, not 2: its error estimate
    compares the last levels, and three coarse levels that agree by
    chance end it early.
    """
    out = np.zeros((4, hi.size))
    todo = np.flatnonzero(hi > 0.0)                         # the intervals still open
    hi, args = hi[todo, None], [a[todo, None] for a in args]
    first, nfev, eps = min(_MIN_LEVEL, _MAX_LEVEL), 0, np.finfo(float).eps
    edge = np.full((todo.size, 2), -np.inf)                 # the valid x nearest 1, -x nearest 0
    f_edge, w_edge = np.full(edge.shape, np.nan), np.zeros(edge.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in range(first, _MAX_LEVEL + 1):
            if not todo.size:
                break
            x, w, zero, signed_x = _nodes(0 if level == first else level, level)
            h, n = _H0 / 2**level, todo.size
            fx = (f(hi * x.ravel(), *args) * hi).reshape(n, 2, -1)
            nfev += x.size
            # the valid node nearest each end, over every level so far
            bad = ~np.isfinite(fx) | zero
            signed = np.where(bad, -np.inf, signed_x)
            i, near = signed.argmax(axis=-1), signed.max(axis=-1)
            new = near > edge
            edge = np.where(new, near, edge)
            f_edge = np.where(new, fx[np.arange(n)[:, None], [0, 1], i], f_edge)
            w_edge = np.where(new, w[[0, 1], i], w_edge)
            fw = np.where(bad, f_edge[..., None], fx) * w
            s = fw.reshape(n, -1).sum(axis=-1) * h
            if level == first:
                s[np.isnan(fx[:, 0, 0])] = np.nan
                # the estimates of the levels below, from the same terms
                prev = [fw[..., :8 * 2**k + 1].reshape(n, -1).sum(axis=-1) * (2**(level - k) * h)
                        for k in (level - 2, level - 1)]
            else:
                s += prev[-1] / 2
            d1, d2 = np.abs(s - prev[-1]), np.abs(s - prev[-2])
            d = np.where(d1 > 0, d1 ** (np.log(d1) / np.log(d2)), 0)
            d = np.maximum(np.maximum(d, d1**2), np.maximum(eps * np.abs(fw).max(axis=(1, 2)),
                                                            np.abs(f_edge * w_edge).max(axis=-1)))
            error = np.minimum(np.maximum(d, eps * np.abs(s)), d1)  # clip(d, eps |s|, d1)
            ok, finite = (error / np.abs(s) < rtol) | (error < atol), np.isfinite(s)
            stop = ok | ~finite | (level == _MAX_LEVEL)
            status = np.where(ok, 0, np.where(finite, -2, -3))
            if stop.all():
                out[:3, todo], out[3, todo] = (s, error, status), nfev
                break
            out[:, todo[stop]] = np.stack((s, error, status, np.full(n, nfev)))[:, stop]
            keep = ~stop
            todo, hi, args = todo[keep], hi[keep], [a[keep] for a in args]
            edge, f_edge, w_edge = edge[keep], f_edge[keep], w_edge[keep]
            prev = [p[keep] for p in (prev + [s])[-2:]]
    return out


def _against_dw(w: WeightFunction, parts, **tol):
    """int_0^1 g(v) dw(v) for each (g, ends) of parts, over the pieces of w's measure.

    Returns one (integral, error, status, nfev) per part, each an array over
    that part's pieces; the pieces of every part are the intervals of one
    _tanhsinh call, and each g sees only its own part's intervals.
    g(log_v, log_u, dw) returns g at v from log v and log u = log(1 - v),
    each formed where it is accurate; dw is the density of the measure
    there, for a cut-off.  g ~ v^e0 as v -> 0 and (1 - v)^e1 as v -> 1,
    (e0, e1) = ends.  With dw = dI_v(a, b) (t^gamma is I_v(gamma, 1)), g dw
    is beta(al, b) in shape near 0, al = a + e0, and for b > 3 falls above
    m = (al + 1)/(al + b), past a cliff at v ~ 1/b if al is small; else
    m = 1.  Below m it runs in v = m z^(1/p), p = al/(1 + min(al, 1)), above
    in 1 - v = (1 - m) z^(1/p), p = b/2: g dw vanishes at z = 0, where
    tanh-sinh crowds its nodes.  For b < 1 the density is singular at 1, so
    above v = 1/2 it runs as the reflected I_u(b, a), u = 1 - v, al = b + e1,
    m capped at 1/2.  A rising table interval [t0, t1] is a p = 1 piece in
    v = t1 z or 1 - v = (1 - t0) z.  log v or log(1 - v) comes from log z,
    so it does not underflow, and the power of z is taken whole, since
    those of v and dv/dz cancel.
    """
    pieces, bounds = [], [0]                                # part k: bounds[k] to bounds[k + 1]
    for k, (_, ends) in enumerate(parts):
        pieces += [(k, *piece) for piece in _pieces(w, ends)]
        bounds.append(len(pieces))
    gs = [g for g, _ in parts]

    def integrand(r, part, c, l0, log_c, p, e_z, e_far, from_v):
        lz = np.log(c + (1.0 - c) * r)
        end = np.minimum(l0 + lz / p, 0.0)                  # log of x = v, u, 1 - v or 1 - u
        # log(1 - x), each side of x = 1/2 formed where it is exact
        far = np.where(end < -math.log(2.0), np.log1p(-np.exp(end)), np.log(-np.expm1(end)))
        dw = np.exp(log_c + e_z * lz + e_far * far)
        log_v, log_u = np.where(from_v, end, far), np.where(from_v, far, end)
        # the open intervals of part k are rows lo[k]:lo[k + 1], in part order
        lo, value = np.searchsorted(part[:, 0], np.arange(len(gs) + 1)), np.empty_like(dw)
        for k, g in enumerate(gs):
            if lo[k] < lo[k + 1]:
                rows = slice(lo[k], lo[k + 1])
                value[rows] = g(log_v[rows], log_u[rows], dw[rows])
        return value * dw

    out = _tanhsinh(integrand, np.ones(len(pieces)), args=tuple(map(np.array, zip(*pieces))),
                    **tol)
    return [out[:, i:j] for i, j in zip(bounds, bounds[1:])]


def _pieces(w: WeightFunction, ends):
    """The pieces of w's measure against a g with end exponents ends (see _against_dw).

    One (c, l0, log_c, p, e_z, e_far, from_v) per piece: z runs over [c, 1],
    x = exp(l0 + log z / p) is v if from_v else 1 - v, and dw dv/dz =
    exp(log_c) z^e_z (1 - x)^e_far.
    """
    if w.kind == "table":
        rise = np.diff(w.knots_w)
        up = rise > 0.0
        t0, t1, log_c = w.knots_t[:-1][up], w.knots_t[1:][up], np.log(rise[up])
        from_v = t0 + t1 <= 1.0                             # else from 1 - v
        l0 = np.where(from_v, np.log(t1), np.log1p(-t0))
        c = np.where(from_v, t0 / t1, (1.0 - t1) / (1.0 - t0))
        return list(zip(c, l0, log_c, [1.0] * c.size, [0.0] * c.size, [0.0] * c.size, from_v))
    a, b = (w.a, w.b) if w.kind == "beta_cdf" else (w.gamma, 1.0)
    top, log_b = (0.5 if b < 1.0 else 1.0), ln_beta(a, b)  # v or u atop each piece
    pieces = []
    for flip in range(1 + (b < 1.0)):                       # in v, then in u = 1 - v
        ka, kb = (b, a) if flip else (a, b)                 # the density's powers of x, 1 - x
        al = ka + ends[flip]
        # (1 - x)^(kb - 1) is at most quadratic for kb <= 3: no cliff to split at
        m = min(top, (al + 1.0) / (al + kb)) if kb > 3.0 else top
        p, l0 = al / (1.0 + min(al, 1.0)), math.log(m)
        pieces.append((0.0, l0, ka * l0 - math.log(p) - log_b, p, ka / p - 1.0, kb - 1.0,
                       not flip))
        if m < top:
            p, l0 = kb / 2.0, math.log1p(-m)
            c = ((1.0 - top) / (1.0 - m)) ** p
            pieces.append((c, l0, kb * l0 + math.log1p(-c) - math.log(p) - log_b, p, 1.0,
                           ka - 1.0, bool(flip)))
    return pieces


def _gap_covs(w: WeightFunction, *pairs) -> list:
    """One gap covariance per (margin, swap) of pairs, all from one tanh-sinh call.

    Each is -int_0^1 L dw = Cov[X, w(1 - F_X(X))], or if swap
    -int L(1 - v) dw = -Cov[X, w(F_X(X))].  Every margin is a
    ParetoIIMargin, NormalMargin or StudentTMargin with a finite mean (else
    MomentError, before any quadrature).  In v = 1 - F_X(x) the covariance
    is int_0^1 (Q(1 - v) - E[X]) w(v) dv, and by parts -int L dw with the
    margin's Lorenz gap L(v) = int_0^v (Q(1 - u) - E[X]) du, which is in
    closed form (`lorenz_gap`), not negative, and 0 at v = 0 and 1.  With
    no cancellation in the integrand the tolerance is QUAD_REL_TOL alone,
    on each piece of w's measure (see _against_dw), whatever the scale of
    the covariance.  Each float returned also carries its quadrature's
    error estimate (`error`) and evaluations (`nfev`), which are those of
    the pair integrated alone.  A non-zero status raises QuadratureError
    for the first pair that has one, named by its place in pairs.
    """
    for margin, _ in pairs:
        margin.mean()  # raises MomentError where the mean is infinite
    parts = [(lambda lv, lu, dw, m=m, swap=swap: m.lorenz_gap(*((lu, lv) if swap else (lv, lu))),
              m.gap_ends[::-1] if swap else m.gap_ends) for m, swap in pairs]
    covs = []
    for i, (value, error, status, nfev) in enumerate(_against_dw(w, parts, rtol=QUAD_REL_TOL)):
        value, error, nfev = -float(value.sum()), float(error.sum()), int(nfev.sum())
        if np.any(status != 0):
            raise QuadratureError(
                f"tanh-sinh covariance quadrature of pair {i} ({pairs[i][0]!r}, swap="
                f"{pairs[i][1]}) did not converge (status {status.astype(int).tolist()}, "
                f"{nfev} evaluations)",
                estimate=value, error_estimate=error,
            )
        covs.append(_Diagnosed(value, error=error, nfev=nfev))
    return covs


def quad_cov_margin(margin, w: WeightFunction) -> float:
    """Cov[X, w(1 - F_X(X))] = -int_0^1 L(v) dw(v) by tanh-sinh quadrature (see _gap_covs)."""
    return _gap_covs(w, (margin, False))[0]


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
    numerator runs over the same measure with L_X's end exponents (see
    _against_dw), and leaves H at 0 where dw L_X, the most it adds, is
    below QUAD_REL_TOL 1e-4 of the denominator.  H runs in the tail
    variable S_X(x) = t^k, split at the ridge p = q where L bends once
    q < 1/e: below it in t / ridge, above it in log(t / ridge), both formed
    from log t, so a ridge below the smallest double loses nothing; L comes
    from log p and log q.  The tolerances are relative, QUAD_REL_TOL scaled
    by 1e-2 per level of nesting; the outer one is also absolute, times the
    denominator, since below the scale of the cut-off its integrand jumps.
    No density expansion, 3F2 series or regression line enters.  The float
    returned carries `nfev`, the outer, inner and denominator evaluations,
    and `error`: the numerator's (outer plus largest inner) and the
    denominator's, propagated to the ratio.
    """
    if _elliptical(f):
        raise DomainError(f"the Hoeffding oracle covers the Pareto families, not {f!r}")
    d, dxs, dys = f.delta, *(m.delta for m in margins(f))
    mx = ParetoIIMargin(0.0, 1.0, dxs)
    cov_den = quad_cov_margin(mx, w)  # rejects dX* <= 1
    if cov_den == 0.0:
        raise DegenerateSampleError("C_w undefined: constant weight")
    # the inner integrand goes like t^(k e0 - 1) near t = 0, e0 = 1 - 1/dX*
    # the gap's exponent there; k is the least k >= 1 that leaves it no
    # worse than t^(-19/20).  tanh-sinh samples t down to 2.2e-308, and the
    # part below is then under (2.2e-308)^(1/20) * 20 = 1e-14 of the scale;
    # a larger k squeezes the bulk of S_X into a thin layer below t = 1.
    k = max(1.0, 0.05 / mx.gap_ends[0])
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

    (value, error, status, nfev), = _against_dw(w, [(inner, mx.gap_ends)],
                                                rtol=QUAD_REL_TOL * 1e-2,
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
