"""Premium principles and the Gini-type weighted insurance pricing model.

The economic weighted premium prices X against a reference risk Y through
a value function v:

    Pi_v[X, Y] = E[X v(Y)] / E[v(Y)].

Replacing v by w(1 - F_Y(.)) gives the Gini premium, which stays finite
for infinite-variance risks.  When E[X | Y] is linear, the premium
decomposes into E[X] plus a loading driven by the weighted Gini
correlation (the Gini WIPM identity); pricing each portfolio column
against the aggregate turns the same identity into an additive capital
allocation rule.

Orientation note: the defining weight w(1 - F_Y(Y)) is *decreasing* in Y,
so for comonotone (X, Y) the loading is <= 0.  That orientation is the
default; pass orientation="risk_loading" to price with the reflected
weight w*(F_Y(Y)) = 1 - w(1 - F_Y(Y)) instead, which up-weights large Y
and flips the loading sign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gini as _gini
from ._csvrows import read_numeric_csv
from .distributions import PairedSample, margins, regression_line
from .errors import DegenerateSampleError, DomainError
from .weights import WeightFunction

ORIENTATIONS = ("survival", "risk_loading")


@dataclass(frozen=True)
class PremiumResult:
    """A premium with its decomposition into base E[X] and loading."""

    premium: float
    base: float
    method: str  # empirical | closed_identity
    detail: dict = field(default_factory=dict)

    @property
    def loading(self) -> float:
        """premium = base + loading, exactly by construction."""
        return self.premium - self.base


@dataclass(frozen=True)
class Portfolio:
    """Named loss columns of common length; the aggregate is their sum."""

    names: tuple
    columns: np.ndarray  # shape (n_obs, n_cols)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2 or cols.shape[1] != len(self.names):
            raise DomainError("portfolio needs an (n_obs, n_cols) array matching names")
        if cols.shape[0] < 3:
            raise DomainError("portfolio needs at least 3 observations")
        if not np.all(np.isfinite(cols)):
            raise DomainError("portfolio losses must be finite")
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "columns", cols)

    @cached_property
    def aggregate(self) -> np.ndarray:
        """The row sums as a read-only array, summed once, on first use.

        Not at construction, so no n-sized sum is held before it is needed.
        A row sum that overflows raises DomainError.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            agg = self.columns.sum(axis=1)
        if not np.all(np.isfinite(agg)):
            raise DomainError("portfolio aggregate overflows: a row sum is not finite")
        agg.flags.writeable = False
        return agg

    @classmethod
    def from_csv(cls, path) -> "Portfolio":
        """Load from a CSV with one named column per risk."""
        names, data = read_numeric_csv(path)
        if names is None:
            raise DomainError(f"{path} needs a header row of column names")
        if not data.size:
            raise DomainError(f"no data rows in {path}")
        return cls(tuple(names), data)


def _rank_weights(r: np.ndarray, w: WeightFunction, orientation: str) -> np.ndarray:
    """w(1 - F) in the given orientation at the average ranks r."""
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}")
    wv = _gini._rank_weights(w, r, r.size)
    if orientation == "risk_loading":
        wv = 1.0 - wv
    return wv


def _premium(xs: np.ndarray, wv: np.ndarray) -> float:
    """E[X w] / E[w] on the sample, for rank weights wv."""
    if np.ptp(wv) == 0.0:
        raise DegenerateSampleError(
            "weight is constant on the sample's rank range (degenerate ranks)"
        )
    return float((xs @ wv) / wv.sum())


def weighted_premium(s: PairedSample, v_of_y) -> PremiumResult:
    """Economic weighted premium: sample analogue of E[X v(Y)] / E[v(Y)].

    `v_of_y` is a non-decreasing value function applied to raw Y values
    (monotonicity is the caller's contract; only non-negativity of the
    computed weights is verified).
    """
    vv = np.asarray(v_of_y(s.ys), dtype=float)
    if vv.shape != s.ys.shape:
        raise DomainError("value function must map the sample elementwise")
    if not np.all(np.isfinite(vv)) or vv.min() < 0.0:
        raise DomainError("value function produced negative or non-finite weights")
    total = vv.sum()
    if total <= 0.0:
        raise DegenerateSampleError("E[v(Y)] estimate is zero")
    premium = float((s.xs @ vv) / total)
    return PremiumResult(premium, float(s.xs.mean()), "empirical",
                         {"n": s.n, "kind": "economic_weighted"})


def gini_premium(s: PairedSample, w: WeightFunction,
                 orientation: str = "survival") -> PremiumResult:
    """Gini economic premium: E[X w(1 - F_Y(Y))] / E[w(1 - F_Y(Y))] on ranks.

    Uses u_i = rank_i/(n+1); exactly invariant under strictly increasing
    transforms of Y and scale-equivariant in X.  See the module docstring
    for the orientation of the weight and the sign of the loading.
    """
    premium = _premium(s.xs, _rank_weights(_gini._margin_ranks(s, 1), w, orientation))
    return PremiumResult(premium, float(s.xs.mean()), "empirical",
                         {"n": s.n, "orientation": orientation})


def margin_gini_premium(margin, w: WeightFunction) -> float:
    """Population pi_{G,w}[Y] = E[Y] + Cov[Y, w(1-F_Y)] / E[w(U)] for a margin."""
    ew = w.mean_on_unit()
    cov = _gini.cov_x_weighted(margin, w)
    return margin.mean() + cov / ew


def gini_wipm_rhs(f_or_s, w: WeightFunction) -> PremiumResult:
    """Right-hand side of the Gini WIPM identity.

    E[X] + C_w[X,Y] (Cov[X, w(1-F_X)] / Cov[Y, w(1-F_Y)]) (pi_{G,w}[Y] - E[Y]),
    valid when E[X | Y] is linear.  Accepts a parametric family (closed
    components, method "closed_identity") or a paired sample (rank plug-ins
    throughout, method "empirical").  The loading slope C_w * Cov_X / Cov_Y
    equals the regression slope beta; the family route takes C_w as
    beta Cov_Y / Cov_X, so its slope is beta itself: rho sqrt(Var X / Var Y)
    for the normal family, sigma_xy / sigma_y^2 for the elliptical-t family,
    recorded in the detail map.  The family route also records the summed
    quadrature error estimates (quad_error) and evaluations (quad_nfev) of
    the margin covariances, and raises DegenerateSampleError for a constant
    weight.
    """
    if isinstance(f_or_s, PairedSample):
        s = f_or_s
        wx = _gini._rank_weights(w, _gini._margin_ranks(s, 0), s.n)
        wy = _gini._rank_weights(w, _gini._margin_ranks(s, 1), s.n)
        dev_x = s.xs - s.xs.mean()
        dev_y = s.ys - s.ys.mean()
        cw = _gini._cw_ratio(s.xs, dev_x, wx, wy)
        cov_x = float(dev_x @ wx) / s.n
        cov_y = float(dev_y @ wy) / s.n
        if cov_y == 0.0:
            raise DegenerateSampleError("Cov[Y, w(1-F_Y)] estimate is zero")
        pi_y = _premium(s.ys, wy)
        ex, ey = float(s.xs.mean()), float(s.ys.mean())
        slope = cw * cov_x / cov_y
        return PremiumResult(ex + slope * (pi_y - ey), ex, "empirical",
                             {"cw": cw, "slope": slope, "pi_y": pi_y})

    f = f_or_s
    line = regression_line(f)  # rejects BVP3 and infinite-mean regimes
    mx, my = margins(f)
    cov_x, cov_y, diag = _gini._margin_covs(f, w)
    cw = line.beta * cov_y / cov_x  # the regression route, as cw_via_regression
    pi_y = my.mean() + cov_y / w.mean_on_unit()  # margin_gini_premium of Y
    ex, ey = mx.mean(), my.mean()
    slope = line.beta  # C_w Cov_X / Cov_Y
    return PremiumResult(ex + slope * (pi_y - ey), ex, "closed_identity",
                         {"cw": cw, "slope": slope, "pi_y": pi_y,
                          "regression_beta": line.beta, **diag})


def classical_wipm_rhs(s: PairedSample, v_of_y) -> PremiumResult:
    """Right-hand side of the classical (Pearson) WIPM, for comparison runs.

    E[X] + rho[X,Y] sqrt(Var X / Var Y) (pi_v[Y] - E[Y]).  Meaningless for
    infinite-variance populations; that failure mode is the reason the
    Gini variant exists.  A constant margin raises DegenerateSampleError
    (tested by range, since the mean of equal values can round off them).
    """
    if np.ptp(s.xs) == 0.0 or np.ptp(s.ys) == 0.0:
        raise DegenerateSampleError("classical WIPM undefined: constant margin")
    rho = float(np.corrcoef(s.xs, s.ys)[0, 1])
    ratio = float(s.xs.std(ddof=1) / s.ys.std(ddof=1))
    pi_v = weighted_premium(PairedSample(s.ys, s.ys, dict(s.meta)), v_of_y).premium
    ex, ey = float(s.xs.mean()), float(s.ys.mean())
    return PremiumResult(ex + rho * ratio * (pi_v - ey), ex, "empirical",
                         {"rho": rho, "sd_ratio": ratio, "pi_v": pi_v})


def allocate(p: Portfolio, w: WeightFunction,
             orientation: str = "survival") -> list:
    """Capital allocation: price each column against the aggregate S.

    Column j receives E[X_j w(1 - F_S(S))] / E[w(1 - F_S(S))]; by linearity
    of the numerator the allocations sum to the aggregate premium
    pi_{G,w}[S] exactly (up to floating summation).  Each detail map
    records that premium as aggregate_premium, from the same ranking of S;
    it equals gini_premium(PairedSample(S, S)).
    """
    if len(p.names) < 2:
        raise DomainError("allocation needs at least 2 columns")
    return _price_columns(p, w, orientation)


def _price_columns(p: Portfolio, w: WeightFunction, orientation: str) -> list:
    """allocate without its column count: S ranked once, w evaluated once.

    Column j's premium equals gini_premium(PairedSample(X_j, S)), so a
    one-column portfolio is priced against itself.
    """
    agg = p.aggregate
    if np.ptp(agg) == 0.0:
        raise DegenerateSampleError("aggregate risk is constant")
    wv = _rank_weights(_gini._ranks(agg), w, orientation)
    if np.ptp(wv) == 0.0:
        raise DegenerateSampleError("weight is constant on the aggregate's ranks")
    total = wv.sum()
    aggregate = float((agg @ wv) / total)
    out = []
    for j, name in enumerate(p.names):
        col = p.columns[:, j]
        out.append(PremiumResult(
            float((col @ wv) / total), float(col.mean()), "empirical",
            {"column": name, "orientation": orientation,
             "aggregate_premium": aggregate},
        ))
    return out
