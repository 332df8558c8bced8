"""Parametric bivariate families and their marginal laws.

Covers the bivariate normal, an elliptical Student-t, and three
heavy-tailed bivariate Pareto constructions built from ratios of
exponential (idiosyncratic) and gamma (background) variates:

  BVP1: exchangeable margins, linear regression,
        joint ddf (1 + x~ + y~)^(-delta)
  BVP2: non-exchangeable margins, still linear regression,
        joint ddf (1 + x~ + y~)^(-delta) (1 + y~)^(-delta_y)
  BVP3: non-exchangeable margins, no linear regression,
        joint ddf (1 + x~ + y~)^(-delta) (1 + x~)^(-delta_x) (1 + y~)^(-delta_y)

where x~ = (x - mu_x) / sigma_x, y~ = (y - mu_y) / sigma_y.  BVP1 is BVP3
with delta_x = delta_y = 0 and BVP2 is BVP3 with delta_x = 0: the three
share one margin law (tail indices delta + delta_x, delta + delta_y), one
sampler and one joint ddf, in which a zero index draws no gamma variate and
is a factor of exactly 1.  Samplers draw exactly from the stochastic
representations, so they are independent of every density/ddf formula
here and act as one side of the validation triangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

# scipy.special is imported inside the normal and Student t Lorenz gaps
# and scipy.stats inside joint_ddf, not here: either takes longer to import
# than the whole package, and the Pareto families, which most commands use,
# need neither.
from .errors import DomainError, MomentError, UnsupportedPairError, NoLinearRegressionError

# Deterministic evaluation of the Student-t joint cdf (its Genz integrator
# is randomized); fixed stream keeps CLI output byte-identical.
_T_CDF_SEED = 20160913


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairedSample:
    """Two equal-length observation vectors with a provenance record.

    A sample's values are fixed after construction: xs and ys are read-only
    views of the arrays passed in (no copy; an array already read-only is
    kept as it is), so the finiteness check made here stays valid for the
    sample's life.  So do each margin's sort order and tie starts and its
    rank weights, with w evaluated once per distinct rank, which gini
    computes on first use and keeps in a memo entry per read-only array:
    every sample built on the same read-only arrays, as
    PairedSample(s.xs, s.xs), s.swapped() or PairedSample(s.ys, s.xs),
    shares them, and a sample built from one array twice, as
    PairedSample(a, a), sorts it once.  A Portfolio's read-only aggregate
    has an entry too, which allocate and gini_premium on
    PairedSample(p.aggregate, p.aggregate) share.  A writable input gets a
    fresh view, so nothing a caller can still write to is shared; writing
    to the arrays behind the views is outside this contract.  Samples are
    equal when their values and meta are.
    """

    xs: np.ndarray
    ys: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 1 or ys.ndim != 1 or xs.size != ys.size:
            raise DomainError("paired sample needs two equal-length 1-d arrays")
        if xs.size < 3:
            raise DomainError(f"paired sample needs n >= 3, got {xs.size}")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise DomainError("paired sample values must be finite")
        ro = _read_only(xs)
        object.__setattr__(self, "xs", ro)
        object.__setattr__(self, "ys", ro if ys is xs else _read_only(ys))

    def __eq__(self, other):
        # by value: two samples of one writable array hold distinct views
        if not isinstance(other, PairedSample):
            return NotImplemented
        return (np.array_equal(self.xs, other.xs) and np.array_equal(self.ys, other.ys)
                and self.meta == other.meta)

    @property
    def n(self) -> int:
        return self.xs.size

    def swapped(self) -> "PairedSample":
        return PairedSample(self.ys, self.xs, dict(self.meta, swapped=True))


def _read_only(a: np.ndarray) -> np.ndarray:
    """a itself if it is read-only, else a read-only view of it."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# margins
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ParetoIIMargin:
    """Pareto of the 2nd kind: ddf (1 + (x - mu)/sigma)^(-delta) for x > mu.

    Mean finite iff delta > 1, variance finite iff delta > 2.
    """

    mu: float
    sigma: float
    delta: float

    def __post_init__(self):
        _require(self, positive=("sigma", "delta"))

    def ddf(self, x):
        z = np.maximum((np.asarray(x, dtype=float) - self.mu) / self.sigma, 0.0)
        out = (1.0 + z) ** (-self.delta)
        return float(out) if np.ndim(x) == 0 else out

    def quantile(self, u):
        """Inverse c.d.f.: mu + sigma ((1-u)^(-1/delta) - 1) for u in [0, 1)."""
        arr = np.asarray(u, dtype=float)
        if arr.size and (arr.min() < 0.0 or arr.max() >= 1.0):
            raise DomainError("quantile argument must lie in [0, 1)")
        out = self.mu + self.sigma * ((1.0 - arr) ** (-1.0 / self.delta) - 1.0)
        return float(out) if np.ndim(u) == 0 else out

    def mean(self) -> float:
        if self.delta <= 1.0:
            raise MomentError(f"Pareto mean infinite for delta={self.delta} <= 1")
        return self.mu + self.sigma / (self.delta - 1.0)

    @property
    def gap_ends(self) -> tuple:
        """Exponents e of the Lorenz gap, L ~ v^e as v -> 0 and (1 - v)^e as v -> 1."""
        return 1.0 - 1.0 / self.delta, 1.0

    def lorenz_gap(self, log_v, log_u):
        """Lorenz gap L(v) = int_0^v (Q(1 - t) - E[X]) dt, for delta > 1.

        sigma delta/(delta-1) (v^(1-1/delta) - v), formed from log v alone
        (log u = log(1 - v) is not needed) as -v^(1-1/delta) expm1(log v /
        delta), so a v that underflows loses nothing.
        """
        d = self.delta
        return -self.sigma * d / (d - 1.0) * np.exp((1.0 - 1.0 / d) * log_v) * np.expm1(log_v / d)


@dataclass(frozen=True)
class NormalMargin:
    mu: float
    sigma: float
    gap_ends = (1.0, 1.0)  # see ParetoIIMargin.gap_ends

    def __post_init__(self):
        _require(self, positive=("sigma",))

    def mean(self) -> float:
        return self.mu

    def lorenz_gap(self, log_v, log_u):
        """sigma phi(z), z the standard normal quantile of min(v, 1 - v) (L is symmetric)."""
        from scipy import special

        z = special.ndtri(np.exp(np.minimum(log_v, log_u)))
        return self.sigma * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class StudentTMargin:
    """Location-scale Student t; `sigma` is the dispersion scale, not the s.d."""

    mu: float
    sigma: float
    nu: float

    def __post_init__(self):
        _require(self, positive=("sigma",))
        if not self.nu > 1.0:
            raise DomainError(f"need nu > 1 for a finite mean, got {self.nu}")

    def mean(self) -> float:
        return self.mu

    @property
    def gap_ends(self) -> tuple:
        return (1.0 - 1.0 / self.nu,) * 2  # see ParetoIIMargin.gap_ends

    def lorenz_gap(self, log_v, log_u):
        """sigma (nu + z^2)/(nu - 1) f(z), z = stdtrit(nu, min(v, 1 - v)) (L is symmetric).

        With the density f(z) = K (1 + z^2/nu)^(-(nu+1)/2) this is
        sigma nu/(nu - 1) K (1 + z^2/nu)^(-(nu-1)/2).  stdtrit saturates
        near |z| = 7e153, so past |z| = 1e20 log(1 + z^2/nu) comes from the
        leading tail term |z| = (c/v)^(1/nu) of P[T < z] ~ c |z|^(-nu),
        whose relative error there is O(z^-2).  That branch is formed from
        log min(v, 1 - v), so a tail that underflows loses nothing either.
        """
        from scipy import special

        nu = self.nu
        log_k = (math.lgamma((nu + 1.0) / 2.0) - math.lgamma(nu / 2.0)
                 - 0.5 * math.log(nu * math.pi))
        log_c = log_k + 0.5 * (nu - 1.0) * math.log(nu)
        lt = np.minimum(log_v, log_u)
        far = lt < log_c - nu * math.log(1e20)
        z = special.stdtrit(nu, np.where(far, 0.25, np.exp(lt)))
        lz = np.where(far, 2.0 * (log_c - lt) / nu - math.log(nu), np.log1p(z * z / nu))
        return self.sigma * nu / (nu - 1.0) * np.exp(log_k - 0.5 * (nu - 1.0) * lz)


def _require(obj, positive=()):
    """DomainError naming the first field of obj not > 0 (if in positive) or not finite."""
    for fl in fields(obj):
        value = getattr(obj, fl.name)
        if fl.name in positive and not value > 0.0:
            raise DomainError(f"{fl.name} must be > 0, got {value}")
        if not math.isfinite(value):
            raise DomainError(f"{fl.name} must be finite, got {value}")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

class _Family:
    """What the five families share: describe() from `name` and the fields."""

    name = ""

    def describe(self) -> str:
        return f"{self.name}(" + ", ".join(
            f"{fl.name}={getattr(self, fl.name):g}" for fl in fields(self)) + ")"


class _Elliptical(_Family):
    """What Normal and EllipticalT share: the dispersion matrix from sigma_x, sigma_y, sigma_xy.

    Both have E[X | Y] linear with slope sigma_xy / sigma_y^2 and C_w equal
    to the dispersion correlation for every weight; Normal is the nu = inf
    member, with sigma_xy = rho sigma_x sigma_y.
    """

    @property
    def dispersion(self) -> np.ndarray:
        return np.array([[self.sigma_x ** 2, self.sigma_xy],
                         [self.sigma_xy, self.sigma_y ** 2]])


@dataclass(frozen=True)
class Normal(_Elliptical):
    name = "normal"
    nu = math.inf  # the t family's limit; like sigma_xy below, not a dataclass field

    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        _require(self, positive=("sigma_x", "sigma_y"))
        if not abs(self.rho) < 1.0:
            raise DomainError(f"|rho| must be < 1, got {self.rho}")

    @property
    def sigma_xy(self) -> float:
        return self.rho * self.sigma_x * self.sigma_y


@dataclass(frozen=True)
class EllipticalT(_Elliptical):
    """Bivariate Student t with dispersion matrix [[sx^2, sxy], [sxy, sy^2]].

    The dispersion entries are not variances (those are nu/(nu-2) times
    larger and only exist for nu > 2), which is exactly why this family
    exercises the weighted-Gini machinery where Pearson may not exist.
    """

    name = "elliptical_t"

    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    sigma_xy: float = 0.0
    nu: float = 3.0

    def __post_init__(self):
        _require(self, positive=("sigma_x", "sigma_y"))
        if not self.nu > 1.0:
            raise DomainError(f"need nu > 1, got {self.nu}")
        det = self.sigma_x ** 2 * self.sigma_y ** 2 - self.sigma_xy ** 2
        if not det > 0.0:
            raise DomainError("dispersion matrix must be positive definite")


@dataclass(frozen=True)
class _Pareto(_Family):
    """The BVP3 law.  An index that a subclass does not declare as a field is 0."""

    delta_x = delta_y = 0.0

    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0
    delta: float = 2.0

    def __post_init__(self):
        _require(self, positive=[fl.name for fl in fields(self)[2:]])

    @property
    def delta_x_star(self) -> float:
        """Tail index of the X margin."""
        return self.delta + self.delta_x

    @property
    def delta_y_star(self) -> float:
        """Tail index of the Y margin."""
        return self.delta + self.delta_y


@dataclass(frozen=True)
class BVP1(_Pareto):
    name = "bvp1"


@dataclass(frozen=True)
class BVP2(_Pareto):
    name = "bvp2"

    delta_y: float = 1.0


@dataclass(frozen=True)
class BVP3(_Pareto):
    name = "bvp3"

    delta_x: float = 1.0
    delta_y: float = 1.0


PARETO_FAMILIES = (BVP1, BVP2, BVP3)

BivariateFamily = Union[Normal, EllipticalT, BVP1, BVP2, BVP3]


def margins(f: BivariateFamily):
    """Marginal laws (x_margin, y_margin) of the family.

    The pair is built on the first call and kept on the instance, outside
    its fields, so equality, hashing and repr do not see it; a family is
    frozen, so its margins cannot go stale.
    """
    pair = getattr(f, "_margins", None)
    if pair is None:
        pair = _margin_pair(f)
        object.__setattr__(f, "_margins", pair)
    return pair


def _margin_pair(f: BivariateFamily):
    if isinstance(f, Normal):
        return NormalMargin(f.mu_x, f.sigma_x), NormalMargin(f.mu_y, f.sigma_y)
    if isinstance(f, EllipticalT):
        return (StudentTMargin(f.mu_x, f.sigma_x, f.nu),
                StudentTMargin(f.mu_y, f.sigma_y, f.nu))
    if isinstance(f, PARETO_FAMILIES):
        return (ParetoIIMargin(f.mu_x, f.sigma_x, f.delta_x_star),
                ParetoIIMargin(f.mu_y, f.sigma_y, f.delta_y_star))
    raise DomainError(f"unknown family {f!r}")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _draw(f: BivariateFamily, n: int, rng: np.random.Generator):
    if isinstance(f, Normal):
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        x = f.mu_x + f.sigma_x * z1
        y = f.mu_y + f.sigma_y * (f.rho * z1 + math.sqrt(1.0 - f.rho ** 2) * z2)
        return x, y
    if isinstance(f, EllipticalT):
        chol = np.linalg.cholesky(f.dispersion)
        z = rng.standard_normal((2, n))
        w = rng.chisquare(f.nu, n) / f.nu
        g = (chol @ z) / np.sqrt(w)
        return f.mu_x + g[0], f.mu_y + g[1]
    if isinstance(f, PARETO_FAMILIES):
        ex = rng.standard_exponential(n)
        ey = rng.standard_exponential(n)
        g = rng.standard_gamma(f.delta, n)
        # mu + sigma e / (g_d + g) in place, in that order of operations; a
        # zero index (BVP1, BVP2) draws no variate and divides by g itself
        for e, d, mu, sigma in ((ex, f.delta_x, f.mu_x, f.sigma_x),
                                (ey, f.delta_y, f.mu_y, f.sigma_y)):
            e *= sigma
            if d > 0.0:
                gd = rng.standard_gamma(d, n)
                gd += g
                e /= gd
            else:
                e /= g
            e += mu
        return ex, ey
    raise DomainError(f"unknown family {f!r}")


def _checked_seed(seed: int) -> int:
    """seed itself; a negative one, which numpy refuses untyped, raises DomainError."""
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return seed


def chunk_seeds(seed: int, n_chunks: int):
    """Counter-derived child seeds: stream i draws from (seed, i)."""
    return [np.random.SeedSequence(entropy=_checked_seed(seed), spawn_key=(i,))
            for i in range(n_chunks)]


def sample(f: BivariateFamily, n: int, seed: int) -> PairedSample:
    """n i.i.d. pairs from the family's exact stochastic representation.

    Deterministic for a fixed seed; the BVP families are generated from
    ratios of unit exponentials over gamma background variates, never from
    their ddf formulas.  n >= 3 because PairedSample carries that invariant.
    """
    if n < 3:
        raise DomainError(f"need n >= 3 for a paired sample, got {n}")
    rng = np.random.default_rng(_checked_seed(seed))
    x, y = _draw(f, n, rng)
    return PairedSample(x, y, {"family": f.describe(), "seed": int(seed), "n": int(n)})


# ---------------------------------------------------------------------------
# joint ddf
# ---------------------------------------------------------------------------

def joint_ddf(f: BivariateFamily, x, y):
    """P[X > x, Y > y].

    Product form for the Pareto families (with inputs at or below the
    location boundary clamped, so the value degrades continuously to the
    marginal ddf); Genz-algorithm survival evaluation for the elliptical
    families via P[X > x, Y > y] = F_{(-X,-Y)}(-x, -y).
    """
    if isinstance(f, PARETO_FAMILIES):
        xt = np.maximum((np.asarray(x, dtype=float) - f.mu_x) / f.sigma_x, 0.0)
        yt = np.maximum((np.asarray(y, dtype=float) - f.mu_y) / f.sigma_y, 0.0)
        # a zero index gives a factor u ** -0.0 == 1.0 exactly
        out = ((1.0 + xt + yt) ** (-f.delta) * (1.0 + yt) ** (-f.delta_y)
               * (1.0 + xt) ** (-f.delta_x))
        return float(out) if (np.ndim(x) == 0 and np.ndim(y) == 0) else out

    from scipy import stats as sps

    xb, yb = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    pts = np.column_stack([-np.atleast_1d(xb).ravel(), -np.atleast_1d(yb).ravel()])
    if isinstance(f, Normal):
        vals = sps.multivariate_normal(mean=[-f.mu_x, -f.mu_y], cov=f.dispersion).cdf(pts)
    elif isinstance(f, EllipticalT):
        vals = sps.multivariate_t(loc=[-f.mu_x, -f.mu_y], shape=f.dispersion,
                                  df=f.nu, seed=_T_CDF_SEED).cdf(pts)
    else:
        raise DomainError(f"unknown family {f!r}")
    vals = np.clip(np.atleast_1d(vals), 0.0, 1.0)
    if np.ndim(x) == 0 and np.ndim(y) == 0:
        return float(vals[0])
    return vals.reshape(xb.shape)


# ---------------------------------------------------------------------------
# regression line, Pearson, BVP3 density terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegressionLine:
    """Coefficients of E[X | Y] = alpha + beta Y."""

    alpha: float
    beta: float


def _pareto_slope(f) -> float:
    """The slope b of E[X | Y] = mu_x + sigma_x b (1 + (Y - mu_y)/sigma_y) of a Pareto family.

    b = (dY* - 1)/((delta - 1) dY*) when delta_x = 0 (BVP1, BVP2), formed
    so that dY* = delta (BVP1) gives 1/delta exactly.  delta_x > 0 (BVP3)
    has no linear regression, and an infinite X mean raises MomentError.
    """
    if f.delta_x > 0.0:
        raise NoLinearRegressionError("BVP3 has no linear regression function of X on Y")
    margins(f)[0].mean()
    dys = f.delta_y_star
    return (dys - 1.0) / (f.delta - 1.0) / dys


def regression_line(f: BivariateFamily) -> RegressionLine:
    """The (alpha, beta) of the family's linear regression of X on Y.

    Elliptical families: beta = sigma_xy / sigma_y^2.  Pareto families: see
    _pareto_slope, which raises for BVP3 and infinite-mean parameter regimes.
    """
    if isinstance(f, _Elliptical):
        beta = f.sigma_xy / f.sigma_y ** 2
        return RegressionLine(f.mu_x - beta * f.mu_y, beta)
    if isinstance(f, PARETO_FAMILIES):
        alpha0 = f.sigma_x * _pareto_slope(f)
        beta = alpha0 / f.sigma_y
        return RegressionLine(f.mu_x + alpha0 - beta * f.mu_y, beta)
    raise DomainError(f"unknown family {f!r}")


def pearson_closed_form(f: BivariateFamily) -> float:
    """Population Pearson correlation, where the second moments exist.

    Elliptical families: the dispersion correlation, for nu > 2.  Pareto
    families with delta_x = 0: sqrt((delta - 2)/(delta dY* (dY* - 2))), for
    delta > 2, formed from ratios so that no product overflows and dY* =
    delta (BVP1) gives 1/delta exactly.
    """
    if isinstance(f, _Elliptical):
        if f.nu <= 2.0:
            raise MomentError(f"Pearson needs nu > 2, got {f.nu}")
        return f.sigma_xy / (f.sigma_x * f.sigma_y)
    if isinstance(f, PARETO_FAMILIES):
        if f.delta_x > 0.0:
            raise UnsupportedPairError(
                "no closed-form Pearson for BVP3 here; use a Monte Carlo reference",
                suggestion="oracle.mc_reference(f, 'pearson', ...)",
            )
        d, dys = f.delta, f.delta_y_star
        if d <= 2.0:  # dY* >= delta
            raise MomentError(f"Pearson needs delta > 2, got {d}")
        return math.sqrt(d / dys * ((d - 2.0) / (dys - 2.0))) / d
    raise DomainError(f"unknown family {f!r}")


# The triplets (i1, i2, i3), i1 + i2 + i3 = 2, whose density coefficient is
# not identically zero, in a fixed deterministic order.
BVP3_TRIPLETS = ((0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def bvp3_pdf_terms(f: BVP3):
    """Coefficients d_i of the standardized BVP3 joint density.

    p(x, y) = sum_i d_i (1+x)^-(delta_x+i1) (1+y)^-(delta_y+i2)
                        (1+x+y)^-(delta+i3)  over triplets i1+i2+i3 = 2.

    Obtained as the mixed partial d^2 Fbar / dx dy of the joint ddf; the
    coefficients are delta(delta+1), delta*delta_y, delta*delta_x and
    delta_x*delta_y (those of (2, 0, 0) and (0, 2, 0) vanish), and the
    density integrates to one exactly.
    """
    if not isinstance(f, BVP3):
        raise DomainError("bvp3_pdf_terms requires a BVP3 family")
    d = f.delta
    coeff = (d * (d + 1.0), d * f.delta_y, d * f.delta_x, f.delta_x * f.delta_y)
    return list(zip(BVP3_TRIPLETS, coeff))
