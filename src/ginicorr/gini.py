"""Weighted Gini correlation: rank-based estimator and closed forms.

The object of interest is

    C_w[X, Y] = Cov[X, w(1 - F_Y(Y))] / Cov[X, w(1 - F_X(X))]

for a non-decreasing weight w on [0, 1].  The power weight t^gamma gives
the extended Gini correlation, gamma = 1 the classical one.  The module
offers four routes that must agree where their domains overlap:

  empirical_cw       rank plug-in on a paired sample
  closed_cw          per-family closed forms
  cw_via_regression  slope of E[X|Y] times a ratio of marginal covariances
  oracle             quadrature / Monte Carlo (module `oracle`)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle as _oracle
from .distributions import (
    BVP3,
    PARETO_FAMILIES,
    BivariateFamily,
    PairedSample,
    ParetoIIMargin,
    _checked_seed,
    _Elliptical,
    _pareto_slope,
    bvp3_pdf_terms,
    margins,
    regression_line,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    UnsupportedPairError,
)
from .specfun import HypergeometricSpec, _Diagnosed, hyp_pfq, ln_beta
from .weights import WeightFunction

_DEGENERATE_REL = 1e-12


@dataclass(frozen=True)
class CorrelationReport:
    """A correlation estimate with its method tag and provenance.

    std_error is present for stochastic methods (empirical with bootstrap
    enabled, Monte Carlo oracle) and None for deterministic ones.
    """

    value: float
    method: str  # empirical | closed_form | regression_route | oracle
    std_error: float | None = None
    weight: str = ""
    detail: dict = field(default_factory=dict)


def _ranks(v: np.ndarray) -> np.ndarray:
    """Average ranks of v: ties share their mean rank.

    One argsort.  Without ties the ranks 1..n are scattered through its
    order; with ties each group's mean rank start + (count+1)/2 is.  A rank
    is a half-integer, exact in floating point, so r / (n+1) matches
    scipy's average ranks over n+1 bit for bit.
    """
    n = v.size
    order = np.argsort(v)
    sv = v[order]
    new = np.empty(n, dtype=bool)
    new[:1] = True
    np.not_equal(sv[1:], sv[:-1], out=new[1:])
    r = np.empty(n)
    if new.all():
        r[order] = np.arange(1.0, n + 1.0)
    else:
        starts = np.flatnonzero(new)
        counts = np.diff(starts, append=n)
        r[order] = np.repeat(starts + (counts + 1) / 2.0, counts)
    return r


def _margin_ranks(s: PairedSample, j: int) -> np.ndarray:
    """Average ranks of s.xs (j = 0) or s.ys (j = 1), sorted once per sample.

    The first call ranks the margin and keeps the ranks in the sample's
    rank cache; later calls, also through s.swapped(), return them.  Valid
    because a sample's values are fixed.
    """
    slot = s._rank_slots[j]
    if slot[0] is None:
        slot[0] = _ranks(s.ys if j else s.xs)
    return slot[0]


def _rank_weights(w: WeightFunction, r: np.ndarray, n: int) -> np.ndarray:
    """w(1 - u) at the plotting positions u = r / (n+1).

    Keeps every weight argument strictly inside (0, 1), so weights are never
    evaluated at the endpoints.
    """
    return w(1.0 - r / (n + 1.0))


def _sort_order(r: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A margin's sort order and its tie groups' starts in it, from average ranks r.

    Without ties the order is 1..n scattered through r - 1 and starts is
    None.  With ties it is a stable argsort of the integer labels 2r - 2,
    which are distinct half-integer ranks doubled, so equal values share a
    label and the labels ascend with the values; starts indexes each
    group's first position.  Either way it equals np.argsort(v,
    kind="stable") for the values v ranked, which are not sorted again.
    """
    n = r.size
    o = np.zeros(n, dtype=np.intp)
    o[(r - 1.0).astype(np.intp)] = np.arange(n)
    if np.array_equal(r[o], np.arange(1.0, n + 1.0)):
        return o, None
    k = (2.0 * r - 2.0).astype(np.intp)
    o = np.argsort(k, kind="stable")
    return o, np.flatnonzero(np.diff(k[o], prepend=-1))


def _margin_terms(c, o, starts, x_o, m, table, work):
    """A resample's terms in one margin's sort order, one per tie group.

    c are the counts over the sample, x_o the xs in the order o and m the
    resample mean of xs.  The count-weighted deviations c (x - m) are
    summed over the margin's tie groups (starts) when it has ties.  A group
    with running count C and count cg has average rank C - (cg - 1)/2 in
    the resample, and table[2C - cg] is w at that rank: the padded table
    holds w at the ranks 1, 1.5, ..., n from index 1 and a 0 at each end,
    which only undrawn groups (deviation 0) read.  So w is not evaluated
    per resample.  Returns the deviations, the weights and the first and
    last drawn groups.  work holds two int and two float arrays of length
    n that each call overwrites and may return views of: fresh n-length
    arrays per resample cost more in page faults than in arithmetic.
    """
    co, k, dev, wts = work
    np.take(c, o, out=co, mode="clip")  # o is a permutation: nothing is clipped
    np.multiply(np.subtract(x_o, m, out=dev), co, out=dev)
    if starts is not None:
        co, dev = np.add.reduceat(co, starts), np.add.reduceat(dev, starts)
    cum = np.cumsum(co, out=k[:co.size])
    first, last = cum.searchsorted(0, "right"), cum.searchsorted(cum[-1])
    np.subtract(np.multiply(cum, 2, out=cum), co, out=cum)
    return dev, np.take(table, cum, out=wts[:co.size], mode="clip"), first, last


def _require_spread(constant: bool, den: float, dev: np.ndarray, wmax: float) -> None:
    """Refuse a numerically zero denominator covariance dev . wx.

    Constant xs are tested directly: their mean can round off the common
    value, which leaves deviations that the scale test sum|dev| * max|wx|
    lets through.  wmax is the largest weight.
    """
    if constant or abs(den) <= _DEGENERATE_REL * np.abs(dev).sum() * max(wmax, 1e-300):
        raise DegenerateSampleError(
            "denominator covariance is numerically zero "
            "(constant xs or constant weight)"
        )


def _cw_ratio(xs: np.ndarray, dev: np.ndarray, wx: np.ndarray,
              wy: np.ndarray) -> float:
    """(dev . wy) / (dev . wx) over a whole sample, refusing a zero denominator.

    dev are the deviations of xs from their mean.
    """
    den = dev @ wx
    _require_spread(np.ptp(xs) == 0.0, den, dev, np.abs(wx).max())
    return float((dev @ wy) / den)


def _check_n_boot(n_boot: int) -> None:
    """Refuse a resample count that can never give a standard error.

    The bootstrap needs 10 non-degenerate resamples, so 1 to 9 always fail.
    """
    if n_boot < 0 or 0 < n_boot < 10:
        raise DomainError(
            f"n_boot must be 0 (no bootstrap) or at least 10, got {n_boot}")


def _bootstrap_se(stat, xs: np.ndarray, ys: np.ndarray, n_boot: int,
                  seed: int) -> tuple[float, dict]:
    """Seeded nonparametric bootstrap; degenerate resamples are skipped.

    A resample is described by its multiplicity counts over the fixed
    sample: c = bincount of the same rng.integers(0, n, n) draw that would
    index it.  stat(c, xs, ys) gets the full-length counts and the sample,
    and raises DegenerateSampleError on a resample without spread
    information.  (With replacement, a tiny sample occasionally redraws
    one point n times.)  Returns the standard error and a detail map with
    the resamples used and skipped.
    """
    rng = np.random.default_rng(_checked_seed(seed))
    n = xs.size
    vals = []
    for _ in range(n_boot):
        c = np.bincount(rng.integers(0, n, n), minlength=n)
        try:
            vals.append(stat(c, xs, ys))
        except DegenerateSampleError:
            continue
    if len(vals) < max(10, n_boot // 4):
        raise DegenerateSampleError(
            f"bootstrap failed: only {len(vals)}/{n_boot} resamples were "
            "non-degenerate"
        )
    return float(np.std(vals, ddof=1)), {"n_boot_used": len(vals),
                                         "n_boot_skipped": n_boot - len(vals)}


def empirical_cw(s: PairedSample, w: WeightFunction, n_boot: int = 200,
                 seed: int = 0) -> CorrelationReport:
    """Rank-based weighted Gini correlation of a paired sample.

    Plugs u_i = rank_i / (n+1) in for the marginal c.d.f.s.  The estimate is
    exactly invariant under strictly increasing transforms of ys and (in
    exact arithmetic) under positive affine transforms of xs.  The
    normalization bounds -lambda_w <= C_w <= 1 are guaranteed for tie-free
    samples by the rearrangement inequality; under heavy ties the average
    ranks can break them slightly, which is documented, not enforced.

    Each margin is sorted at most once per sample: its ranks are kept in
    the sample's rank cache, which gini_premium, gini_wipm_rhs and
    lambda_w share.  n_boot > 0 attaches a seeded nonparametric-bootstrap
    standard error; pass 0 to skip it on large inputs.  n_boot < 0 or
    0 < n_boot < 10 raises DomainError.  The bootstrap recovers each
    margin's sort order from the cached ranks without sorting again, draws
    each resample as multiplicity counts over the sample and reads its
    ranks off the running sums of those counts in each margin's order
    (summed over tie groups first where there are ties), so w is evaluated
    once per possible average rank, not per resample.  Constant xs have no
    C_w: the sample raises DegenerateSampleError and such a resample is
    skipped; detail records n_boot_used and n_boot_skipped.
    """
    _check_n_boot(n_boot)
    n = s.n
    rx, ry = _margin_ranks(s, 0), _margin_ranks(s, 1)
    value = _cw_ratio(s.xs, s.xs - s.xs.mean(), _rank_weights(w, rx, n),
                      _rank_weights(w, ry, n))
    se, detail = None, {}
    if n_boot > 0:
        # w at every average rank a resample can produce, 1, 1.5, ..., n,
        # and a 0 at each end
        table = np.pad(_rank_weights(w, np.arange(2, 2 * n + 1) / 2.0, n), 1)
        (ox, gx), (oy, gy) = _sort_order(rx), _sort_order(ry)
        x_ox, x_oy = s.xs[ox], s.xs[oy]
        work = (*np.empty((2, n), dtype=np.intp), *np.empty((2, n)))

        def stat(c, xs, ys):
            m = np.dot(c, xs) / n
            dx, wx, first, last = _margin_terms(c, ox, gx, x_ox, m, table, work)
            # the drawn xs are constant iff one x tie group holds every draw;
            # w is non-decreasing, so the lowest drawn x rank has the largest
            # weight
            den = dx @ wx
            _require_spread(first == last, den, dx, wx[first])
            dy, wy, _, _ = _margin_terms(c, oy, gy, x_oy, m, table, work)
            return float((dy @ wy) / den)

        se, detail = _bootstrap_se(stat, s.xs, s.ys, n_boot, seed)
    return CorrelationReport(value, "empirical", se, w.describe(), detail)


def empirical_pearson(s: PairedSample, n_boot: int = 200,
                      seed: int = 0) -> CorrelationReport:
    """Plain sample Pearson correlation, for side-by-side comparisons.

    A constant margin raises DegenerateSampleError (tested by range, since
    the mean of equal values can round off them).  The bootstrap uses
    count-weighted moments over the full-length counts and skips resamples
    with a constant margin.  Only a resample whose sum c dx^2 or sum c dy^2
    is within rounding of zero has its drawn points' range tested.  n_boot
    < 0 or 0 < n_boot < 10 raises DomainError.
    """
    _check_n_boot(n_boot)
    if np.ptp(s.xs) == 0.0 or np.ptp(s.ys) == 0.0:
        raise DegenerateSampleError("Pearson correlation undefined: constant margin")
    value = float(np.corrcoef(s.xs, s.ys)[0, 1])
    se, detail = None, {}
    if n_boot > 0:
        n = s.n
        # Drawn values all equal to v have a count-weighted mean m with
        # |m - v| <= (n+1) eps |v| (n rounded products and sums, one
        # division), so their sum c (v - m)^2 stays below n ((n+1) eps M)^2
        # for M >= |v|; resamples under it get the exact range test.
        eps = np.finfo(float).eps
        zx, zy = (n * ((n + 1) * eps * np.abs(v).max()) ** 2 for v in (s.xs, s.ys))

        # work arrays reused by every resample, as in _margin_terms; the
        # counts are copied to floats, since an int-by-float matmul ran 3
        # to 35 times slower than a float one at n = 5e4
        cf, dx, dy, t = np.empty((4, n))

        def stat(c, xs, ys):
            np.copyto(cf, c)
            np.subtract(xs, (cf @ xs) / n, out=dx)
            np.subtract(ys, (cf @ ys) / n, out=dy)
            sxx = np.multiply(cf, dx, out=t) @ dx
            sxy = t @ dy
            syy = np.multiply(cf, dy, out=t) @ dy
            if sxx <= zx or syy <= zy:
                drawn = c > 0
                if np.ptp(xs[drawn]) == 0.0 or np.ptp(ys[drawn]) == 0.0:
                    raise DegenerateSampleError("resample has a constant margin")
            return sxy / math.sqrt(sxx * syy)

        se, detail = _bootstrap_se(stat, s.xs, s.ys, n_boot, seed)
    return CorrelationReport(value, "empirical", se, "n/a", detail)


# ---------------------------------------------------------------------------
# lambda_w: magnitude of the lower normalization bound
# ---------------------------------------------------------------------------

def lambda_w_empirical(xs, w: WeightFunction) -> float:
    """Sample lambda_w of the values xs: lambda_w(PairedSample(xs, xs), w)."""
    return lambda_w(PairedSample(xs, xs), w)


def lambda_w_margin(margin, w: WeightFunction) -> float:
    """Population lambda_w = Cov[X, w(F_X)] / -Cov[X, w(1 - F_X)] of a parametric margin.

    By quadrature: int L(1 - v) dw / int L(v) dw of its Lorenz gap L over one
    measure (oracle._gap_cov), carrying both quadratures' `nfev`, summed,
    and `error`, propagated.
    """
    cov_sf = _oracle._gap_cov(margin, w)
    if cov_sf == 0.0:
        raise DegenerateSampleError("lambda_w undefined: constant weight")
    return _oracle._ratio(_oracle._gap_cov(margin, w, swap=True), cov_sf)


def lambda_w(x, w: WeightFunction) -> float:
    """Dispatch: sample arrays / PairedSample xs -> ranks, margins -> quadrature.

    An array is taken as PairedSample(xs, xs): n >= 3 finite 1-d values, else
    DomainError.  xs are ranked through the rank cache, and empirical C_w(xs, -xs)
    == -lambda_w(xs) bit for bit on tie-free data, as both evaluate w on one rank array.
    """
    if isinstance(x, (np.ndarray, list, tuple)):
        x = PairedSample(x, x)
    elif not isinstance(x, PairedSample):
        return lambda_w_margin(x, w)
    r, n = _margin_ranks(x, 0), x.n
    # under average ties rank(-x) = n + 1 - rank(x) exactly
    return -_cw_ratio(x.xs, x.xs - x.xs.mean(), _rank_weights(w, r, n),
                      _rank_weights(w, n + 1.0 - r, n))


# ---------------------------------------------------------------------------
# marginal covariance building blocks
# ---------------------------------------------------------------------------

def cov_x_weighted(m, w: WeightFunction) -> float:
    """Cov[X, w(1 - F_X(X))] for any margin.

    A Pareto II margin requires delta > 1 (MomentError otherwise) and is
    sigma times _pareto_factor for power and beta-c.d.f. weights, a value
    that carries error 0.0 and nfev 0.  Any other margin or weight returns
    oracle.quad_cov_margin's value, which carries its quadrature error and
    evaluations.  Negative for any non-constant admissible weight.
    """
    if isinstance(m, ParetoIIMargin):
        m.mean()  # raises MomentError where the mean is infinite
        k = _pareto_factor(m.delta, w)
        if k is not None:
            return _Diagnosed(m.sigma * k, error=0.0, nfev=0)
    return _oracle.quad_cov_margin(m, w)


def _pareto_factor(d: float, w: WeightFunction) -> float | None:
    """Cov[X, w(1 - F_X(X))] of the unit Pareto II(d) margin, d > 1, in closed form.

    Power weights t^gamma:
        -(gamma/(gamma+1)) d / ((d-1)(d(gamma+1)-1)),
    beta-c.d.f. weights:
        (d/(d-1)) (1 - B(a+1-1/d, b)/B(a, b) - b/(a+b)).
    None for a table weight, which has no closed form.
    """
    if w.kind in ("identity", "power"):
        gamma = w.gamma
        return -(gamma / (gamma + 1.0)) * d / ((d - 1.0) * (d * (gamma + 1.0) - 1.0))
    if w.kind == "beta_cdf":
        a, b = w.a, w.b
        return (d / (d - 1.0)) * (
            1.0 - math.exp(ln_beta(a + 1.0 - 1.0 / d, b) - ln_beta(a, b)) - b / (a + b))
    return None


def _margin_covs(f: BivariateFamily, w: WeightFunction):
    """(Cov[X, w(1-F_X)], Cov[Y, w(1-F_Y)], quadrature diagnostics) of f's margins.

    A constant weight has no C_w: it raises DegenerateSampleError.
    """
    cov_x, cov_y = (cov_x_weighted(m, w) for m in margins(f))
    if cov_x == 0.0 or cov_y == 0.0:
        raise DegenerateSampleError("C_w undefined: constant weight")
    return cov_x, cov_y, {"quad_error": cov_x.error + cov_y.error,
                          "quad_nfev": cov_x.nfev + cov_y.nfev}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bvp3_closed(f: BVP3, gamma: float) -> tuple[float, dict]:
    """Extended Gini correlation of BVP3 from the triple-index expansion.

    Sums 3F2(delta+i3, 2, 1; dX*+i1+i3, (gamma+1) dY*+i2+i3; 1) over the
    density triplets, weighted by the coefficients of the density's mixed
    partial derivative, and assembles the covariance ratio from the exact
    uniform moments.  Needs dX* > 1, which makes the convergence margin
    h = delta_x + (gamma+1) dY* - 1 exceed dX* - 1 > 0.  Every series
    has 1 < dX*+i1+i3 and 1 < (gamma+1) dY*+i2+i3, so hyp_pfq sums it at
    margin max(h, 1) or more (Thomae's transformation when h < 1).
    Returns the value and the diagnostics of the series summed.
    """
    margins(f)[0].mean()  # raises MomentError unless dX* > 1
    dxs, dys = f.delta_x_star, f.delta_y_star
    moment = 0.0
    sums = []
    for (i1, i2, i3), coeff in bvp3_pdf_terms(f):
        m = dxs + i1 + i3
        c = (gamma + 1.0) * dys + i2 + i3
        val = hyp_pfq(HypergeometricSpec((f.delta + i3, 2.0, 1.0), (m, c), 1.0))
        sums.append(val)
        moment += coeff * (val / ((m - 2.0) * (m - 1.0) * (c - 1.0)))
    cov_num = moment - 1.0 / ((dxs - 1.0) * (gamma + 1.0))
    cov_den = _pareto_factor(dxs, WeightFunction.power(gamma))
    detail = {"h": f.delta_x + (gamma + 1.0) * dys - 1.0,
              "series_margin": min(v.margin for v in sums),
              "series_terms": sum(v.terms for v in sums),
              "series_tail_share": max(v.tail_share for v in sums)}
    return cov_num / cov_den, detail


def closed_cw(f: BivariateFamily, w: WeightFunction) -> CorrelationReport:
    """Closed-form weighted Gini correlation for supported (family, weight) pairs.

    Normal and elliptical-t: the dispersion correlation, for every
    admissible weight.  Pareto families with delta_x = 0 (BVP1, BVP2): the
    regression identity beta k(dY*) / k(delta) in standard units, with
    beta = _pareto_slope and k = _pareto_factor, for power or beta-c.d.f.
    weights; with dY* = delta (BVP1) the margins are equal and the value is
    1/delta for every admissible weight (delta > 1).  BVP3: power weights;
    detail records the direct 3F2 margin h, the smallest margin actually
    summed (series_margin, at least 1), the total terms summed
    (series_terms) and the largest share of a sum that its tail estimate
    makes up (series_tail_share).
    Every Pareto value has an independent check in oracle.hoeffding_cw,
    which also covers the pairs raising UnsupportedPairError here.
    """
    detail = {}
    if isinstance(f, _Elliptical):
        value = f.sigma_xy / (f.sigma_x * f.sigma_y)
    elif not isinstance(f, PARETO_FAMILIES):
        raise DomainError(f"unknown family {f!r}")
    elif f.delta_x > 0.0:
        if w.kind not in ("identity", "power"):
            raise UnsupportedPairError(
                f"no closed form for BVP3 with a {w.kind} weight",
                suggestion="oracle.hoeffding_cw or empirical_cw",
            )
        value, detail = _bvp3_closed(f, w.gamma)
    else:
        value = _pareto_slope(f)
        if f.delta_y > 0.0:
            k_x, k_y = _pareto_factor(f.delta, w), _pareto_factor(f.delta_y_star, w)
            if k_x is None:
                raise UnsupportedPairError(
                    f"no closed form for BVP2 with a {w.kind} weight",
                    suggestion="cw_via_regression (quadrature covariances) or empirical_cw",
                )
            value = value * k_y / k_x
    return CorrelationReport(float(value), "closed_form", None, w.describe(), detail)


def cw_via_regression(f: BivariateFamily, w: WeightFunction) -> CorrelationReport:
    """C_w through the regression identity: beta times a covariance ratio.

    Requires the family to have a linear regression of X on Y (everything
    but BVP3).  Marginal covariances come from their closed forms where
    those exist and from tail-variable quadrature otherwise, so for the
    elliptical families this is a numerically independent route.  detail
    records the summed quadrature error estimates (quad_error) and
    evaluations (quad_nfev); closed-form covariances add 0 to both.  A
    constant weight raises DegenerateSampleError.
    """
    line = regression_line(f)
    cov_x, cov_y, diag = _margin_covs(f, w)
    return CorrelationReport(
        float(line.beta * cov_y / cov_x), "regression_route", None, w.describe(),
        {"alpha": line.alpha, "beta": line.beta, **diag},
    )
