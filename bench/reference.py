"""Independent reference values that every benchmark answer is checked against.

Nothing here calls ginicorr.  Rank statistics are recomputed with a
plain argsort ranking, the bootstrap spread with a multiplicity-count
bootstrap on its own random stream, and the closed forms in mpmath:
3F2 sums, beta-function moments of the Pareto margins and, for the
symmetric margins only, quadrature in the x domain.  A wrong library
answer therefore cannot agree with its reference by sharing code.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

# Tolerances, fixed before any measurement.  Rank statistics are exact
# functions of the ranks, so only summation order separates the two sides.
RANK_RTOL = 1e-9
# Bootstrap standard errors are random: B = 200 against B_REF = 100 on
# another stream; a ratio outside this band is a > 4 sigma event.
SE_RATIO_BAND = (0.5, 2.0)
B_REF = 100
# Deterministic closed forms (series or quadrature at rel_tol 1e-8).
CLOSED_ATOL = 1e-6
# The 2-d quadrature oracle nests quad inside quad.
ORACLE_ATOL = 1e-5
# Twelve significant digits, as the CLI prints them.
CLI_RTOL = 1e-10


class CheckFailed(Exception):
    """A library answer disagreed with its reference."""


def expect_close(what: str, got, want, rtol=0.0, atol=0.0):
    got, want = float(got), float(want)
    if not (math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)):
        raise CheckFailed(f"{what}: got {got!r}, reference {want!r} "
                          f"(rtol={rtol:g}, atol={atol:g})")


# ---------------------------------------------------------------------------
# weights and ranks
# ---------------------------------------------------------------------------

def weight_fn(spec):
    """Vectorised w(t) for a weight spec tuple, evaluated without ginicorr."""
    kind = spec[0]
    if kind == "power":
        g = spec[1]
        return lambda t: np.asarray(t, dtype=float) ** g
    if kind == "beta":
        a, b = spec[1], spec[2]
        return lambda t: special.betainc(a, b, np.asarray(t, dtype=float))
    if kind == "table":
        kt, kw = np.asarray(spec[1], float), np.asarray(spec[2], float)
        return lambda t: np.interp(np.asarray(t, dtype=float), kt, kw)
    raise ValueError(f"unknown weight spec {spec!r}")


def avg_ranks(v: np.ndarray) -> np.ndarray:
    """1-based ranks with ties given their average rank."""
    order = np.argsort(v, kind="stable")
    sv = v[order]
    new = np.r_[True, sv[1:] != sv[:-1]]
    starts = np.flatnonzero(new)
    ends = np.r_[starts[1:], v.size]
    r = np.empty(v.size)
    r[order] = ((starts + 1 + ends) / 2.0)[np.cumsum(new) - 1]
    return r


def rank_u(v: np.ndarray) -> np.ndarray:
    return avg_ranks(v) / (v.size + 1.0)


class RankReference:
    """Rank plug-in statistics of one paired sample, each margin ranked once."""

    def __init__(self, xs, ys, w):
        self.xs, self.ys, self.w = xs, ys, w
        self.wx = w(1.0 - rank_u(xs))
        self.wy = w(1.0 - rank_u(ys))
        self.dx, self.dy = xs - xs.mean(), ys - ys.mean()

    def cw(self) -> float:
        return float((self.dx @ self.wy) / (self.dx @ self.wx))

    def premium(self) -> float:
        return float((self.xs @ self.wy) / self.wy.sum())

    def lambda_w(self) -> float:
        return float(-(self.dx @ self.w(1.0 - rank_u(-self.xs))) / (self.dx @ self.wx))

    def wipm_rhs(self) -> float:
        """E[X] + C_w Cov_X/Cov_Y (pi_Y - E[Y]) with rank plug-ins throughout."""
        slope = self.cw() * (self.dx @ self.wx) / (self.dy @ self.wy)
        pi_y = (self.ys @ self.wy) / self.wy.sum()
        return float(self.xs.mean() + slope * (pi_y - self.ys.mean()))


def pearson(xs, ys) -> float:
    dx, dy = xs - xs.mean(), ys - ys.mean()
    return float((dx @ dy) / math.sqrt((dx @ dx) * (dy @ dy)))


# ---------------------------------------------------------------------------
# multiplicity-count bootstrap
# ---------------------------------------------------------------------------

def _group_ids(v: np.ndarray):
    """Index of each point's distinct value in sorted order, and the count."""
    uniq, gid = np.unique(v, return_inverse=True)
    return gid, uniq.size


def _count_u(gid, n_groups, c, n):
    """Average-rank plotting positions of every point under counts c."""
    cg = np.bincount(gid, weights=c, minlength=n_groups)
    rank_g = np.cumsum(cg) - (cg - 1.0) / 2.0
    return rank_g[gid] / (n + 1.0)


def bootstrap_se(xs, ys, w, seed: int, b: int = B_REF) -> float:
    """Bootstrap SE of the rank estimator (w given) or of Pearson (w None).

    Each resample is drawn as multiplicity counts over the fixed sample, so
    nothing is sorted again; ties, including those the resample creates
    by repetition, share their average rank.
    """
    n = xs.size
    rng = np.random.default_rng(seed)
    gx, nx = _group_ids(xs)
    gy, ny = _group_ids(ys)
    vals = []
    for _ in range(b):
        c = np.bincount(rng.integers(0, n, n), minlength=n).astype(float)
        mx = (c @ xs) / n
        if w is None:
            my = (c @ ys) / n
            dx, dy = xs - mx, ys - my
            vals.append((c @ (dx * dy)) / math.sqrt((c @ (dx * dx)) * (c @ (dy * dy))))
            continue
        dev = c * (xs - mx)
        den = dev @ w(1.0 - _count_u(gx, nx, c, n))
        if den != 0.0:
            vals.append((dev @ w(1.0 - _count_u(gy, ny, c, n))) / den)
    return float(np.std(vals, ddof=1))


def check_se(what: str, got, want):
    lo, hi = SE_RATIO_BAND
    if got is None or not (want > 0.0 and lo <= got / want <= hi):
        raise CheckFailed(f"{what}: bootstrap SE {got!r} outside "
                          f"[{lo}, {hi}] x reference {want!r}")


# ---------------------------------------------------------------------------
# closed forms in mpmath
# ---------------------------------------------------------------------------

def _mp():
    import mpmath  # deferred: only the check phase needs it

    mpmath.mp.dps = 20
    return mpmath


def mp_weight(spec):
    mp = _mp()
    kind = spec[0]
    if kind == "power":
        return lambda t: t ** spec[1]
    if kind == "beta":
        return lambda t: mp.betainc(spec[1], spec[2], 0, t, regularized=True)
    kt, kw = [mp.mpf(v) for v in spec[1]], [mp.mpf(v) for v in spec[2]]

    def table(t):
        if t <= kt[0]:
            return kw[0]
        for i in range(1, len(kt)):
            if t <= kt[i]:
                return kw[i - 1] + (kw[i] - kw[i - 1]) * (t - kt[i - 1]) / (kt[i] - kt[i - 1])
        return kw[-1]

    return table


def mean_weight(spec) -> float:
    """Integral of w over [0, 1] in closed form."""
    if spec[0] == "power":
        return 1.0 / (spec[1] + 1.0)
    if spec[0] == "beta":
        return spec[2] / (spec[1] + spec[2])
    t, w = spec[1], spec[2]
    inner = sum((t[i + 1] - t[i]) * (w[i + 1] + w[i]) / 2.0 for i in range(len(t) - 1))
    return inner + t[0] * w[0] + (1.0 - t[-1]) * w[-1]


def _power_moment(spec, s, flipped: bool):
    """int_0^1 v^(s-1) w(v) dv (or w(1-v) when flipped), in closed form."""
    mp = _mp()
    s = mp.mpf(s)
    if spec[0] == "power":
        g = spec[1]
        return mp.beta(s, g + 1) if flipped else 1 / (s + g)
    if spec[0] == "beta":
        a, b = spec[1], spec[2]
        if flipped:  # w(1-v) = 1 - I_v(b, a)
            return mp.beta(b + s, a) / (s * mp.beta(a, b))
        return (1 - mp.beta(a + s, b) / mp.beta(a, b)) / s
    # piecewise linear with constant clamps: integrate c + d v per segment
    t, w = list(spec[1]), list(spec[2])
    if flipped:
        t, w = [1.0 - x for x in reversed(t)], list(reversed(w))
    knots = [(0.0, w[0])] + list(zip(t, w)) + [(1.0, w[-1])]
    total = mp.mpf(0)
    for (v0, w0), (v1, w1) in zip(knots, knots[1:]):
        if v1 <= v0:
            continue
        d = (w1 - w0) / (v1 - v0)
        c = w0 - d * v0
        total += c * (mp.mpf(v1) ** s - mp.mpf(v0) ** s) / s
        total += d * (mp.mpf(v1) ** (s + 1) - mp.mpf(v0) ** (s + 1)) / (s + 1)
    return total


def _cov_symmetric(margin, spec) -> float:
    """Cov[X, w(1 - F(X))] for a normal or Student t margin.

    Folding the two half-lines together gives
    sigma int_0^inf z f(z) (w(1-F(z)) - w(F(z)) + 1) dz - sigma E[Z+],
    whose integrand decays faster than z f(z); E[Z+] is closed.
    """
    mp = _mp()
    w = mp_weight(spec)
    if margin[0] == "normal":
        sigma = margin[2]
        pdf, cdf = mp.npdf, mp.ncdf
        e_pos = 1 / mp.sqrt(2 * mp.pi)
    else:
        sigma, nu = margin[2], mp.mpf(margin[3])
        norm = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))

        def pdf(z):
            return norm * (1 + z * z / nu) ** (-(nu + 1) / 2)

        def cdf(z):
            return 1 - mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + z * z),
                                  regularized=True) / 2

        e_pos = mp.sqrt(nu) * mp.gamma((nu + 1) / 2) / (mp.sqrt(mp.pi) * (nu - 1) * mp.gamma(nu / 2))
    body = mp.quad(lambda z: z * pdf(z) * (w(1 - cdf(z)) - w(cdf(z)) + 1), [0, 1, 10, mp.inf])
    return float(sigma * (body - e_pos))


def cov_margin(margin, spec, reflected: bool = True) -> float:
    """Cov[X, w(1 - F(X))], or Cov[X, w(F(X))] when not reflected.

    Pareto II margins (mu, sigma, delta) in closed form: with s = 1 - 1/delta,
    Cov = sigma (int_0^1 v^(s-1) w(v) dv - mean(w)/s), w(v) -> w(1-v) for
    the unreflected case.  Symmetric margins by quadrature.
    """
    if margin[0] == "pareto":
        s = 1.0 - 1.0 / margin[3]
        moment = _power_moment(spec, s, flipped=not reflected)
        return float(margin[2] * (moment - mean_weight(spec) / s))
    cov = _cov_symmetric(margin, spec)
    return cov if reflected else -cov


def lambda_margin(margin, spec) -> float:
    if margin[0] in ("normal", "t"):
        return 1.0  # symmetric margins: Cov[X, w(F)] = -Cov[X, w(1-F)]
    return -cov_margin(margin, spec, reflected=False) / cov_margin(margin, spec)


def bvp2_power(delta, dys, gamma) -> float:
    return (delta * (gamma + 1.0) - 1.0) / (delta * (dys * (gamma + 1.0) - 1.0))


def bvp2_beta(delta, dys, a, b) -> float:
    mp = _mp()

    def shape(d):
        return 1 - mp.beta(a + 1 - 1 / mp.mpf(d), b) / mp.beta(a, b) - mp.mpf(b) / (a + b)

    return float(shape(dys) / (delta * shape(delta)))


def bvp3_cw(delta, delta_x, delta_y, gamma) -> float:
    """BVP3 extended Gini correlation from mpmath 3F2 sums at z = 1.

    The standardized density is sum_i d_i (1+x)^-(dx+i1) (1+y)^-(dy+i2)
    (1+x+y)^-(d+i3) over i1+i2+i3 = 2 with d_i the coefficients of its
    mixed partial derivative; each term's weighted moment is one 3F2.
    """
    mp = _mp()
    dxs, dys = delta + delta_x, delta + delta_y
    coeff = {(0, 0, 2): delta * (delta + 1.0), (0, 1, 1): delta * delta_y,
             (1, 0, 1): delta * delta_x, (1, 1, 0): delta_x * delta_y}
    moment = mp.mpf(0)
    for (i1, i2, i3), d in coeff.items():
        m = dxs + i1 + i3
        c = (gamma + 1.0) * dys + i2 + i3
        f = mp.hyp3f2(delta + i3, 2, 1, m, c, 1)
        moment += d * f / ((m - 2.0) * (m - 1.0) * (c - 1.0))
    cov_num = moment - 1.0 / ((dxs - 1.0) * (gamma + 1.0))
    cov_den = -(gamma / (gamma + 1.0)) * dxs / ((dxs - 1.0) * (dxs * (gamma + 1.0) - 1.0))
    return float(cov_num / cov_den)


def check_margin_ddf(what: str, values, margin_delta, points=(0.25, 1.0, 4.0)):
    """Empirical survival of a standard Pareto margin within 6 binomial SEs."""
    n = values.size
    for x in points:
        p = (1.0 + x) ** -margin_delta
        emp = np.count_nonzero(values > x) / n
        expect_close(f"{what} P[> {x}]", emp, p, atol=6.0 * math.sqrt(p * (1 - p) / n) + 1e-12)
