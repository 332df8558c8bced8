"""Deterministic special-function kernel.

Everything the closed-form correlation formulas need: log-beta, the
regularized incomplete beta function, and generalized hypergeometric
series (q+1)F(q) at unit argument. All routines are pure and re-entrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# scipy.special is imported inside reg_inc_beta, its only user, not here:
# importing it costs more than the rest of the package, and outside verify
# only beta weights call reg_inc_beta.

from .errors import ConvergenceError, DomainError, SeriesCapError

# Series controls, read at each call: relative truncation tolerance and
# hard term cap.
SERIES_REL_TOL = 1e-12
SERIES_TERM_CAP = 200_000

# Terms of a unit-argument series are formed in blocks of k: the first
# block holds _BLOCK_FIRST terms and each later one twice as many, up to
# _BLOCK_MAX.  The BVP3 closed forms' sums stop within 500 terms; a
# margin near 0.05 takes ~10^4.
_BLOCK_FIRST = 64
_BLOCK_MAX = 4096
# The stop rule holds the tail's residual estimate this many times below
# SERIES_REL_TOL: the BVP3 closed form subtracts its series sums, which
# multiplies their relative error.
_TAIL_MARGIN = 100.0

_LN_BETA_STIRLING_CUT = 10.0


def _stirling_tail(x: float) -> float:
    """Correction J(x) in lnGamma(x) = (x-1/2)ln x - x + ln sqrt(2 pi) + J(x).

    Accurate to ~1e-15 absolute for x >= 10 (six-term asymptotic series).
    """
    x2 = x * x
    inner = 1.0 / 1188.0 - 691.0 / (360360.0 * x2)
    inner = 1.0 / 1680.0 - inner / x2
    inner = 1.0 / 1260.0 - inner / x2
    inner = 1.0 / 360.0 - inner / x2
    return (1.0 / 12.0 - inner / x2) / x


def ln_beta(a: float, b: float) -> float:
    """Natural log of the Euler beta function B(a, b).

    For max(a, b) >= 10 the lnGamma(b) - lnGamma(a+b) difference is formed
    through a Stirling expansion; the naive triple-lgamma form loses ~1e-10
    relative accuracy near a = 1e6 through cancellation.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"ln_beta requires finite a, b > 0, got a={a}, b={b}")
    p, q = (a, b) if a <= b else (b, a)
    if q < _LN_BETA_STIRLING_CUT:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    # lnGamma(p+q) - lnGamma(q), formed without large-argument cancellation
    diff = (
        p * math.log(q)
        + (p + q - 0.5) * math.log1p(p / q)
        - p
        + _stirling_tail(p + q)
        - _stirling_tail(q)
    )
    return math.lgamma(p) - diff


def reg_inc_beta(t, a: float, b: float):
    """Regularized incomplete beta function I_t(a, b), the Beta(a, b) c.d.f.

    `t` may be a scalar or an ndarray in [0, 1]; a, b are positive scalars.
    Evaluated by scipy.special.betainc.
    """
    from scipy import special

    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"reg_inc_beta requires finite a, b > 0, got a={a}, b={b}")
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and (not np.all(np.isfinite(t_arr))
                       or t_arr.min() < 0.0 or t_arr.max() > 1.0):
        raise DomainError("reg_inc_beta requires t in [0, 1]")
    out = special.betainc(a, b, t_arr)
    return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of a (q+1)F(q) generalized hypergeometric series.

    All upper and lower parameters must be finite and strictly positive
    (the regime every closed form here lives in), and the argument must be
    1, the only one any closed form sums at; there the series converges iff
    the margin h > 0.
    """

    upper: tuple
    lower: tuple
    argument: float

    def __post_init__(self):
        object.__setattr__(self, "upper", tuple(float(a) for a in self.upper))
        object.__setattr__(self, "lower", tuple(float(b) for b in self.lower))
        if len(self.upper) != len(self.lower) + 1:
            raise DomainError(
                f"expected q+1 upper and q lower parameters, got "
                f"{len(self.upper)} upper / {len(self.lower)} lower"
            )
        if not all(0.0 < p < math.inf for p in self.upper + self.lower):
            raise DomainError("all hypergeometric parameters must be finite and > 0")
        if not self.argument == 1.0:
            raise DomainError(f"argument must be 1, got {self.argument}")

    @property
    def h(self) -> float:
        """Convergence margin sum(lower) - sum(upper)."""
        return sum(self.lower) - sum(self.upper)


class _Diagnosed(float):
    """A float that also carries named diagnostics as attributes.

    Every number that a series or a quadrature produced is returned as one:
    hyp_pfq's sums carry representation, margin, terms and tail_share, the
    covariance routes error and nfev.  Arithmetic on it gives a plain float,
    so callers that want only the value see no difference.
    """

    def __new__(cls, value: float, **diagnostics):
        out = super().__new__(cls, value)
        out.__dict__.update(diagnostics)
        return out


def _sum_unit_argument(spec: HypergeometricSpec, representation: str) -> _Diagnosed:
    """Positive-term series at z = 1 with an algebraic tail correction.

    Terms decay like k^(-1-h); a bare term-vs-sum stop rule leaves a tail of
    order t_k * k / h.  The terms from t_k on sum to
        R_k = t_k * (k/h + g0 + g1/k + g2/k^2 + ...),
    whose coefficients solve R_k = t_k + R_(k+1) order by order, given
        log(t_(k+1)/t_k) = sum_m (-1)^(m+1) p_m / (m k^m),
        p_m = sum a^m - sum b^m - 1.
    We add the tail t_k * (k/h + g0 + g1/k) and stop once its residual
    estimate t_k * (|g2| + |g1|/k) / k^2 is _TAIL_MARGIN times below
    SERIES_REL_TOL of the sum.  A term that underflowed to 0 while
    falling also ends the sum, and a sum that overflows raises
    ConvergenceError.  Terms are formed in blocks of k, log t_k carried
    over from block to block, and the first index of a block that passes
    the stop rule ends the sum.  The sum carries `representation`
    ("direct" or "thomae"), its margin h, the terms summed and the tail's
    share of the sum.
    """
    h, cap, tol = spec.h, SERIES_TERM_CAP, SERIES_REL_TOL
    # log(t_(k+1)/t_k) = -log(1+k) + sum log(a+k) - sum log(b+k), one row per
    # parameter
    params = np.array([1.0, *spec.upper, *spec.lower])
    signs = np.array([-1.0] + [1.0] * len(spec.upper) + [-1.0] * len(spec.lower))
    # Overflow is ignored here and caught as a non-finite coefficient or sum:
    # parameters beyond ~1e77 overflow p4, terms beyond ~1e308 the sum.
    with np.errstate(over="ignore", invalid="ignore"):
        p2, p3, p4 = (signs @ params ** m for m in (2, 3, 4))
        q = 1.0 + h
        g0 = (q * q - 2.0 * q - p2) / (2.0 * h * q)
        g1 = (3.0 * p2 * p2 + 4.0 * q * p3 + q * q * q * q) / (12.0 * h * q * (q + 1.0))
        g2 = (-3.0 * p2 * p2 * p2 + 3.0 * (q + 2.0) * p2 * p2
              + p2 * q * q * q * (q + 2.0) - 4.0 * (2.0 * q + 1.0) * p2 * p3
              + 4.0 * q * (q + 2.0) * p3 - 6.0 * q * (q + 1.0) * p4
              + q * q * q * q * (q + 2.0)) / (24.0 * h * q * (q + 1.0) * (q + 2.0))
        # without finite coefficients no tail estimate holds: only a term
        # that underflowed to 0 ends the sum
        asymptotic = bool(np.isfinite(g0 + g1 + g2))
        if not asymptotic:
            g0 = g1 = g2 = 0.0
        params, signs = params[:, None], signs[:, None]
        summed = []
        s = 0.0       # sum of the earlier blocks' terms, for the stop test only
        log_t = 0.0   # log of the next block's first term; t_0 = 1
        start, size = 0, _BLOCK_FIRST
        while start < cap:
            k = np.arange(start, min(start + size, cap), dtype=float)
            logs = np.log(params + k)
            logs *= signs
            ratio = logs.sum(axis=0)
            # log t_k for every k of the block and the next block's first
            log_ts = np.empty(k.size + 1)
            log_ts[0], log_ts[1:] = log_t, ratio
            np.cumsum(log_ts, out=log_ts)
            terms = np.exp(log_ts)
            # stop rule after kk = k + 1 terms, t_0 .. t_k, with next term t_(k+1)
            kk = k + 1.0
            sums = np.cumsum(terms[:-1])
            sums += s
            if not np.isfinite(sums[-1]):
                break
            nxt = terms[1:]
            mult = kk / h + g0 + g1 / kk
            ends = nxt == 0.0
            if asymptotic:
                resid = nxt * (abs(g2) + abs(g1) / kk) / (kk * kk)
                ends |= (mult > 0.0) & (resid * _TAIL_MARGIN <= tol * sums)
            stop = (kk > 40.0) & (ratio < 0.0) & ends
            j = int(stop.argmax())
            if stop[j]:
                summed += terms[:j + 1].tolist()
                tail_j = float(nxt[j] * mult[j])
                total = math.fsum(summed) + tail_j
                if not math.isfinite(total):
                    break
                return _Diagnosed(total, representation=representation, margin=h,
                                  terms=start + j + 1, tail_share=tail_j / total)
            summed += terms[:-1].tolist()
            s, log_t = sums[-1], log_ts[-1]
            start += k.size
            size = min(2 * size, _BLOCK_MAX)
        else:
            partial = math.fsum(summed)
            raise SeriesCapError(
                f"series cap {cap} reached at z=1 in the {representation} "
                f"representation (margin {h:.6g}); partial sum {partial!r}",
                partial_sum=partial, last_term=float(np.exp(log_t)), terms=cap,
            )
    raise ConvergenceError(
        f"series sum overflows double precision at z=1 in the {representation} "
        f"representation (margin {h:.6g})")


def _gauss_sum(spec: HypergeometricSpec) -> _Diagnosed:
    """2F1(a, b; c; 1) as B(h, b) / B(h+a, b), Gauss's sum in beta functions.

    The margin h = c - a - b is rounded once from the exact difference, not
    from a + b: a margin far below c would otherwise lose digits that the
    beta functions then spread over the value.  It is > 0 wherever spec.h
    is, since a + b rounds to below c only if it is below c.
    """
    (a, b), (c,) = spec.upper, spec.lower
    h = math.fsum((c, -a, -b))
    try:
        value = math.exp(ln_beta(h, b) - ln_beta(h + a, b))
    except OverflowError:
        raise ConvergenceError(
            f"Gauss's sum overflows double precision at z=1 (margin {h:.6g})") from None
    return _Diagnosed(value, representation="gauss", margin=h, terms=0, tail_share=0.0)


def hyp_pfq(spec: HypergeometricSpec) -> float:
    """Sum of the generalized hypergeometric series for `spec`.

    Deterministic; raises ConvergenceError when h <= 0 or the sum exceeds
    double precision, and SeriesCapError (carrying the partial sum and last
    term of the series summed, and naming its representation and margin)
    when the term cap is exhausted.
    The float returned also carries `representation`, `margin`, `terms` and
    `tail_share`, the Euler-Maclaurin tail estimate's share of the sum.

    A 2F1 is Gauss's sum (DLMF 15.4.20), exact with no series:
        2F1(a, b; c; 1) = G(c) G(h) / (G(c-a) G(c-b)),
    every argument > 0, since c - a = h + b and c - b = h + a; its
    representation is "gauss", with 0 terms and tail share 0.  A 3F2 is
    summed in whichever representation has the larger margin: directly, or
    by Thomae's transformation (DLMF 16.4.11) pivoting on an upper
    parameter a with a < d and a < e, the lower ones,
        3F2(a, b, c; d, e; 1) = G(d) G(e) G(h) / (G(a) G(h+b) G(h+c))
                                * 3F2(d-a, e-a, h; h+b, h+c; 1),
    which turns the margin h into a and keeps every parameter > 0.  The
    pivot is the largest such a, taken only when a > h, so a series whose
    direct margin is the largest is summed exactly as written.
    """
    h = spec.h
    if h <= 0.0:
        raise ConvergenceError(f"series diverges at z=1: convergence margin h={h:.6g} <= 0")
    if len(spec.upper) == 2:
        return _gauss_sum(spec)
    pivots = ([a for a in spec.upper if h < a < min(spec.lower)]
              if len(spec.upper) == 3 else [])
    if not pivots:
        return _sum_unit_argument(spec, "direct")
    a = max(pivots)
    rest = list(spec.upper)
    rest.remove(a)
    (b, c), (d, e) = rest, spec.lower
    thomae = _sum_unit_argument(
        HypergeometricSpec((d - a, e - a, h), (h + b, h + c), 1.0), "thomae")
    log_pre = (math.lgamma(d) + math.lgamma(e) + math.lgamma(h) - math.lgamma(a)
               - math.lgamma(h + b) - math.lgamma(h + c))
    return _Diagnosed(math.exp(log_pre) * thomae, **dict(vars(thomae), margin=a))
