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
    BVP1,
    BVP2,
    BVP3,
    BivariateFamily,
    EllipticalT,
    Normal,
    PairedSample,
    ParetoIIMargin,
    bvp3_pdf_terms,
    margins,
    regression_line,
)
from .errors import (
    DegenerateSampleError,
    DomainError,
    MomentError,
    UnsupportedPairError,
)
from .specfun import HypergeometricSpec, hyp_pfq, ln_beta
from .weights import WeightFunction, reflect

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


def _tie_groups(r: np.ndarray) -> np.ndarray:
    """Tie-group ids from average ranks r, without sorting again.

    gid[i] is the index of r[i]'s distinct value in ascending order, as
    np.unique(v, return_inverse=True) gives it for the values v ranked.
    Distinct values have distinct half-integer average ranks, so
    k = 2r - 2 labels the groups in order within [0, 2n - 2] and gid
    numbers the labels present consecutively.
    """
    k = (2.0 * r - 2.0).astype(np.intp)
    present = np.zeros(2 * r.size, dtype=bool)
    present[k] = True
    return (np.cumsum(present) - 1)[k]


def _margin_ranks(s: PairedSample, j: int) -> np.ndarray:
    """Average ranks of s.xs (j = 0) or s.ys (j = 1), sorted once per sample.

    The first call ranks the margin and keeps the ranks in the sample's
    rank cache; later calls, also through s.swapped() and s.with_xs(),
    return them.  Valid because a sample's values are fixed.
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


def _count_rank_weights(table: np.ndarray, gid: np.ndarray,
                        cs: np.ndarray) -> np.ndarray:
    """_rank_weights of the drawn points of a resample given as counts.

    gid holds the drawn points' tie groups and cs their counts.  A group's
    average rank in the resample is r = cumsum(cg) - (cg - 1)/2 over the
    group counts cg, a half-integer in [1, n]; table[2r - 2] holds the
    weight at rank r, so w is not evaluated per resample.
    """
    cg = np.bincount(gid, weights=cs)
    return table[(2.0 * np.cumsum(cg) - cg - 1.0).astype(np.intp)[gid]]


def _cw_ratio(xs: np.ndarray, dev: np.ndarray, wx: np.ndarray,
              wy: np.ndarray) -> float:
    """(dev . wy) / (dev . wx), refusing a zero denominator.

    dev are the (count-weighted) deviations of xs from their mean.  Constant
    xs are tested directly: their mean can round off the common value, which
    leaves deviations that the scale test lets through.
    """
    num = dev @ wy
    den = dev @ wx
    scale = np.abs(dev).sum() * max(np.abs(wx).max(), 1e-300)
    if np.ptp(xs) == 0.0 or abs(den) <= _DEGENERATE_REL * scale:
        raise DegenerateSampleError(
            "denominator covariance is numerically zero "
            "(constant xs or constant weight)"
        )
    return float(num / den)


def _bootstrap_se(stat, xs: np.ndarray, ys: np.ndarray, n_boot: int,
                  seed: int) -> tuple[float, dict]:
    """Seeded nonparametric bootstrap; degenerate resamples are skipped.

    A resample is described by its multiplicity counts over the fixed
    sample: c = bincount of the same rng.integers(0, n, n) draw that would
    index it.  stat(xr, yr, sel, cs) gets the points drawn at least once,
    their indices sel and their counts cs, and raises DegenerateSampleError
    on a resample without spread information.  (With replacement, a tiny
    sample occasionally redraws one point n times.)  Returns the standard
    error and a detail map with the resamples used and skipped.
    """
    rng = np.random.default_rng(seed)
    n = xs.size
    vals = []
    for _ in range(n_boot):
        c = np.bincount(rng.integers(0, n, n), minlength=n)
        sel = np.flatnonzero(c > 0)
        try:
            vals.append(stat(xs[sel], ys[sel], sel, c[sel].astype(float)))
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
    standard error; pass 0 to skip it on large inputs.  The bootstrap
    takes the tie groups from the cached ranks without sorting again,
    draws each resample as multiplicity counts over the sample and ranks
    it from those counts and the tie groups, never re-sorted, and w is
    evaluated once per possible average rank, not per resample.  Constant
    xs have no C_w: the sample raises DegenerateSampleError and such a
    resample is skipped; detail records n_boot_used and n_boot_skipped.
    """
    n = s.n
    rx, ry = _margin_ranks(s, 0), _margin_ranks(s, 1)
    value = _cw_ratio(s.xs, s.xs - s.xs.mean(), _rank_weights(w, rx, n),
                      _rank_weights(w, ry, n))
    se, detail = None, {}
    if n_boot > 0:
        # w at every average rank a resample can produce: 1, 1.5, ..., n
        table = _rank_weights(w, np.arange(2, 2 * n + 1) / 2.0, n)
        gx, gy = _tie_groups(rx), _tie_groups(ry)

        def stat(xr, yr, sel, cs):
            return _cw_ratio(xr, cs * (xr - (cs @ xr) / n),
                             _count_rank_weights(table, gx[sel], cs),
                             _count_rank_weights(table, gy[sel], cs))

        se, detail = _bootstrap_se(stat, s.xs, s.ys, n_boot, seed)
    return CorrelationReport(value, "empirical", se, w.describe(), detail)


def empirical_pearson(s: PairedSample, n_boot: int = 200,
                      seed: int = 0) -> CorrelationReport:
    """Plain sample Pearson correlation, for side-by-side comparisons.

    A constant margin raises DegenerateSampleError (tested by range, since
    the mean of equal values can round off them); the bootstrap uses
    count-weighted moments and skips resamples with a constant margin.
    """
    if np.ptp(s.xs) == 0.0 or np.ptp(s.ys) == 0.0:
        raise DegenerateSampleError("Pearson correlation undefined: constant margin")
    value = float(np.corrcoef(s.xs, s.ys)[0, 1])
    se, detail = None, {}
    if n_boot > 0:
        n = s.n

        def stat(xr, yr, sel, cs):
            if np.ptp(xr) == 0.0 or np.ptp(yr) == 0.0:
                raise DegenerateSampleError("resample has a constant margin")
            dx = xr - (cs @ xr) / n
            dy = yr - (cs @ yr) / n
            return (cs @ (dx * dy)) / math.sqrt((cs @ (dx * dx)) * (cs @ (dy * dy)))

        se, detail = _bootstrap_se(stat, s.xs, s.ys, n_boot, seed)
    return CorrelationReport(value, "empirical", se, "n/a", detail)


# ---------------------------------------------------------------------------
# lambda_w: magnitude of the lower normalization bound
# ---------------------------------------------------------------------------

def lambda_w_empirical(xs, w: WeightFunction) -> float:
    """Sample lambda_w via ranks.

    Built so that empirical C_w(xs, -xs) == -lambda_w(xs) bit-for-bit on
    tie-free data: both sides evaluate w on the identical rank arrays.
    xs is ranked once.
    """
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise DomainError("lambda_w needs finite sample values")
    return _lambda_w_ranked(xs, _ranks(xs), w)


def _lambda_w_ranked(xs: np.ndarray, r: np.ndarray, w: WeightFunction) -> float:
    """Sample lambda_w of finite xs with average ranks r."""
    n = xs.size
    # under average ties rank(-x) = n + 1 - rank(x) exactly
    return -_cw_ratio(xs, xs - xs.mean(), _rank_weights(w, r, n),
                      _rank_weights(w, n + 1.0 - r, n))


def lambda_w_margin(margin, w: WeightFunction) -> float:
    """Population lambda_w of a parametric margin by tail-variable quadrature.

    lambda_w = Cov[X, w(F_X)] / Cov[X, w*(F_X)] = Cov[X, w*(1-F_X)] / Cov[X, w(1-F_X)],
    since w(F) = 1 - w*(1-F) for the reflected weight w* = reflect(w).
    """
    cov_sf = _oracle.quad_cov_margin(margin, w)
    if cov_sf == 0.0:
        raise DegenerateSampleError("lambda_w undefined: constant weight")
    return _oracle.quad_cov_margin(margin, reflect(w)) / cov_sf


def lambda_w(x, w: WeightFunction) -> float:
    """Dispatch: sample arrays / PairedSample xs -> ranks, margins -> quadrature.

    A PairedSample's xs are ranked through its rank cache.
    """
    if isinstance(x, PairedSample):
        return _lambda_w_ranked(x.xs, _margin_ranks(x, 0), w)
    if isinstance(x, (np.ndarray, list, tuple)):
        return lambda_w_empirical(np.asarray(x, dtype=float), w)
    return lambda_w_margin(x, w)


# ---------------------------------------------------------------------------
# marginal covariance building blocks
# ---------------------------------------------------------------------------

def cov_x_weighted(m: ParetoIIMargin, w: WeightFunction) -> float:
    """Cov[X, w(1 - F_X(X))] for a Pareto II margin.

    Closed forms for power weights,
        -(gamma/(gamma+1)) sigma delta / ((delta-1)(delta(gamma+1)-1)),
    and beta-c.d.f. weights,
        (sigma delta/(delta-1)) (1 - B(a+1-1/delta, b)/B(a, b) - b/(a+b));
    table weights route to the quadrature oracle.  Negative for any
    non-constant admissible weight.  Requires delta > 1.
    """
    if m.delta <= 1.0:
        raise MomentError(f"covariance needs delta > 1, got {m.delta}")
    d, sig, gamma = m.delta, m.sigma, w.gamma
    if w.kind in ("identity", "power"):
        return -(gamma / (gamma + 1.0)) * sig * d / ((d - 1.0) * (d * (gamma + 1.0) - 1.0))
    if w.kind == "beta_cdf":
        return (sig * d / (d - 1.0)) * _beta_shape(d, w.a, w.b)
    return _oracle.quad_cov_margin(m, w)


def _beta_shape(d: float, a: float, b: float) -> float:
    """1 - B(a+1-1/d, b)/B(a, b) - b/(a+b): the beta(a, b) weight's Pareto(d) factor."""
    return 1.0 - math.exp(ln_beta(a + 1.0 - 1.0 / d, b) - ln_beta(a, b)) - b / (a + b)


def _cov_margin_weighted(margin, w: WeightFunction):
    """Cov[X, w(1-F_X)] with the quadrature error estimate and evaluations.

    A Pareto closed form contributes (value, 0.0, 0).
    """
    if isinstance(margin, ParetoIIMargin) and w.kind != "table":
        return cov_x_weighted(margin, w), 0.0, 0
    return _oracle._tail_cov(margin, w)


def _margin_covs(f: BivariateFamily, w: WeightFunction):
    """(Cov[X, w(1-F_X)], Cov[Y, w(1-F_Y)], quadrature diagnostics) of f's margins.

    A constant weight has no C_w: it raises DegenerateSampleError.
    """
    (cov_x, err_x, n_x), (cov_y, err_y, n_y) = (
        _cov_margin_weighted(m, w) for m in margins(f))
    if cov_x == 0.0 or cov_y == 0.0:
        raise DegenerateSampleError("C_w undefined: constant weight")
    return cov_x, cov_y, {"quad_error": err_x + err_y, "quad_nfev": n_x + n_y}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _bvp2_power(delta: float, dys: float, gamma: float) -> float:
    return (1.0 / delta) * (delta * (gamma + 1.0) - 1.0) / (dys * (gamma + 1.0) - 1.0)


def _bvp2_beta(delta: float, dys: float, a: float, b: float) -> float:
    return (1.0 / delta) * _beta_shape(dys, a, b) / _beta_shape(delta, a, b)


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
    dxs, dys = f.delta_x_star, f.delta_y_star
    if dxs <= 1.0:
        raise MomentError(f"needs delta_x* > 1 for a finite mean, got {dxs}")
    moment = 0.0
    sums = []
    for (i1, i2, i3), coeff in bvp3_pdf_terms(f):
        m = dxs + i1 + i3
        c = (gamma + 1.0) * dys + i2 + i3
        val = hyp_pfq(HypergeometricSpec((f.delta + i3, 2.0, 1.0), (m, c), 1.0))
        sums.append(val)
        moment += coeff * (val / ((m - 2.0) * (m - 1.0) * (c - 1.0)))
    cov_num = moment - 1.0 / ((dxs - 1.0) * (gamma + 1.0))
    cov_den = cov_x_weighted(ParetoIIMargin(0.0, 1.0, dxs), WeightFunction.power(gamma))
    detail = {"h": f.delta_x + (gamma + 1.0) * dys - 1.0,
              "series_margin": min(v.margin for v in sums),
              "series_terms": sum(v.terms for v in sums)}
    return cov_num / cov_den, detail


def closed_cw(f: BivariateFamily, w: WeightFunction) -> CorrelationReport:
    """Closed-form weighted Gini correlation for supported (family, weight) pairs.

    Normal and elliptical-t: the (dispersion) correlation, for every
    admissible weight.  BVP1: 1/delta for every admissible weight (delta > 1).
    BVP2: power or beta-c.d.f. weights.  BVP3: power weights; detail
    records the direct 3F2 margin h, the smallest margin actually summed
    (series_margin, at least 1) and the total terms summed (series_terms).
    Every Pareto value has an independent check in oracle.hoeffding_cw,
    which also covers the pairs raising UnsupportedPairError here.
    """
    detail = {}
    if isinstance(f, Normal):
        value = f.rho
    elif isinstance(f, EllipticalT):
        value = f.sigma_xy / (f.sigma_x * f.sigma_y)
    elif isinstance(f, (BVP1, BVP2)) and f.delta <= 1.0:
        raise MomentError(f"closed form needs delta > 1, got {f.delta}")
    elif isinstance(f, BVP1):
        value = 1.0 / f.delta
    elif isinstance(f, BVP2):
        if w.kind in ("identity", "power"):
            value = _bvp2_power(f.delta, f.delta_y_star, w.gamma)
        elif w.kind == "beta_cdf":
            value = _bvp2_beta(f.delta, f.delta_y_star, w.a, w.b)
        else:
            raise UnsupportedPairError(
                f"no closed form for BVP2 with a {w.kind} weight",
                suggestion="cw_via_regression (quadrature covariances) or empirical_cw",
            )
    elif isinstance(f, BVP3):
        if w.kind not in ("identity", "power"):
            raise UnsupportedPairError(
                f"no closed form for BVP3 with a {w.kind} weight",
                suggestion="oracle.hoeffding_cw or empirical_cw",
            )
        value, detail = _bvp3_closed(f, w.gamma)
    else:
        raise DomainError(f"unknown family {f!r}")
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
