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
        if cols.shape[1] < 1:
            raise DomainError("portfolio needs at least one column")
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
        The columns are added left to right, one whole column at a time,
        which is several times faster than sum(axis=1) over short rows and
        matches it bit for bit below 8 columns (numpy sums longer rows
        pairwise).  A row sum that overflows raises DomainError.
        """
        c = self.columns
        with np.errstate(over="ignore", invalid="ignore"):
            agg = c[:, 0].copy()
            for j in range(1, c.shape[1]):
                agg += c[:, j]
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


def _oriented(a: np.ndarray, w: WeightFunction, orientation: str) -> np.ndarray:
    """a's memo rank weights w(1 - F) in the orientation, checked before a is ranked."""
    if orientation not in ORIENTATIONS:
        raise DomainError(f"orientation must be one of {ORIENTATIONS}")
    wv = _gini._margin_weights(a, w)
    return 1.0 - wv if orientation == "risk_loading" else wv


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
    premium = _premium(s.xs, _oriented(s.ys, w, orientation))
    return PremiumResult(premium, float(s.xs.mean()), "empirical",
                         {"n": s.n, "orientation": orientation})


def margin_gini_premium(margin, w: WeightFunction) -> float:
    """Population pi_{G,w}[Y] = E[Y] + Cov[Y, w(1-F_Y)] / E[w(U)] for a margin."""
    ew = w.mean_on_unit()
    cov = _gini.cov_x_weighted(margin, w)
    return margin.mean() + cov / ew


def gini_wipm_rhs(f_or_s, w: WeightFunction) -> PremiumResult:
    """Right-hand side of the Gini WIPM identity.

    E[X] + C_w[X,Y] (Cov[X, w(1-F_X)] / Cov[Y, w(1-F_Y)]) (pi_{G,w}[Y] - E[Y]).
    Accepts a parametric family (closed components, method
    "closed_identity"), where it equals the Gini premium when E[X | Y] is
    linear, or a paired sample (rank plug-ins throughout, method
    "empirical").  On a sample the slope is (dev_x . w_Y) / (dev_y . w_Y),
    so the right-hand side reduces to (x . w_Y) / sum w_Y: it is
    gini_premium(s, w) up to rounding, with or without a linear
    regression.  The loading slope C_w * Cov_X / Cov_Y
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
        wx, wy = _gini._margin_weights(s.xs, w), _gini._margin_weights(s.ys, w)
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
                         {"cw": cw, "slope": slope, "pi_y": pi_y, **diag})


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
    records that premium as aggregate_premium; it equals
    gini_premium(PairedSample(S, S)) bit for bit, and shares its sort order
    and weights: both read p.aggregate's memo entry, so S is sorted once.
    """
    if len(p.names) < 2:
        raise DomainError("allocation needs at least 2 columns")
    return _price_columns(p, w, orientation)


def _price_columns(p: Portfolio, w: WeightFunction, orientation: str) -> list:
    """allocate without its column count: one dot product per column.

    The rank weights are p.aggregate's memo entry, so column j's premium
    equals gini_premium(PairedSample(X_j, S)), and a one-column portfolio is
    priced against itself.  A constant S ranks all-tied: _premium refuses it.
    """
    wv = _oriented(p.aggregate, w, orientation)
    aggregate = _premium(p.aggregate, wv)
    total = wv.sum()
    out = []
    for j, name in enumerate(p.names):
        col = p.columns[:, j]
        out.append(PremiumResult(
            float((col @ wv) / total), float(col.mean()), "empirical",
            {"column": name, "orientation": orientation,
             "aggregate_premium": aggregate},
        ))
    return out
