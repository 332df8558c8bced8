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

# Series controls: relative truncation tolerance and hard term cap.
SERIES_REL_TOL = 1e-12
SERIES_TERM_CAP = 200_000

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
    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"ln_beta requires a, b > 0, got a={a}, b={b}")
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

    if not (a > 0.0 and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    t_arr = np.asarray(t, dtype=float)
    if t_arr.size and (not np.all(np.isfinite(t_arr))
                       or t_arr.min() < 0.0 or t_arr.max() > 1.0):
        raise DomainError("reg_inc_beta requires t in [0, 1]")
    out = special.betainc(a, b, t_arr)
    return float(out) if t_arr.ndim == 0 else out


@dataclass(frozen=True)
class HypergeometricSpec:
    """Parameters of a (q+1)F(q) generalized hypergeometric series.

    All upper and lower parameters must be strictly positive (the regime
    every closed form here lives in), and the argument must be 1, the only
    one any closed form sums at; there the series converges iff the margin
    h > 0.
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
        if any(a <= 0.0 for a in self.upper) or any(b <= 0.0 for b in self.lower):
            raise DomainError("all hypergeometric parameters must be > 0")
        if not self.argument == 1.0:
            raise DomainError(f"argument must be 1, got {self.argument}")

    @property
    def h(self) -> float:
        """Convergence margin sum(lower) - sum(upper)."""
        return sum(self.lower) - sum(self.upper)


def _term_log_ratio(upper, lower, k: int) -> float:
    """ln of t_{k+1}/t_k at z = 1, accumulated in log space."""
    out = -math.log1p(k)
    for a in upper:
        out += math.log(a + k)
    for b in lower:
        out -= math.log(b + k)
    return out


class _UnitSum(float):
    """A z = 1 series sum that also records how it was obtained.

    representation is "direct" or "thomae", margin the convergence margin
    of the series actually summed and terms the number of terms it took.
    It is a float, so callers that want only the value see no difference.
    """

    def __new__(cls, value: float, representation: str, margin: float,
                terms: int):
        out = super().__new__(cls, value)
        out.representation = representation
        out.margin = margin
        out.terms = terms
        return out


def _sum_unit_argument(spec: HypergeometricSpec, rel_tol: float, cap: int,
                       representation: str = "direct") -> tuple[float, int]:
    """Positive-term series at z = 1 with an algebraic tail correction.

    Terms decay like k^(-1-h); a bare term-vs-sum stop rule leaves a tail of
    order t_k * k / h.  We instead add the Euler-Maclaurin tail estimate
        T_k = t_k * (k/h + 1/2 - e1 / (h (1+h))),
    e1 = (h + sum a^2 - sum b^2) / 2, whose residual shrinks like
    T_k / k^2, and stop once that residual estimate clears rel_tol.
    Returns the sum and the number of terms summed; `representation` only
    names the series in the SeriesCapError message.
    """
    upper, lower, h = spec.upper, spec.lower, spec.h
    e1 = (h + sum(a * a for a in upper) - sum(b * b for b in lower)) / 2.0
    tail_const = 0.5 - e1 / (h * (1.0 + h))
    s = 0.0
    comp = 0.0
    log_t = 0.0
    t = 1.0
    prev = math.inf
    for k in range(cap):
        y = t - comp
        tt = s + y
        comp = (tt - s) - y
        s = tt
        log_t += _term_log_ratio(upper, lower, k)
        prev = t
        t = math.exp(log_t)
        kk = k + 1
        if kk > 40 and t < prev:
            mult = kk / h + tail_const
            if mult > 0.0:
                tail = t * mult
                # residual of (sum + tail) decays ~ tail / k^2; 5x safety margin
                # (measured residual is 50-3000x below tail/k^2 for h in [0.5, 5])
                if tail * 5.0 <= rel_tol * abs(s) * kk * kk:
                    return s + tail, kk
    raise SeriesCapError(
        f"series cap {cap} reached at z=1 in the {representation} "
        f"representation (margin {h:.6g}); partial sum {s!r}",
        partial_sum=s, last_term=t, terms=cap,
    )


def _sum_at_one(spec: HypergeometricSpec, rel_tol: float, cap: int) -> _UnitSum:
    """z = 1 sum in whichever representation has the larger margin.

    Thomae's transformation (DLMF 16.4.11) pivoting on an upper parameter
    a with a < d and a < e, the lower ones,
        3F2(a, b, c; d, e; 1) = G(d) G(e) G(h) / (G(a) G(h+b) G(h+c))
                                * 3F2(d-a, e-a, h; h+b, h+c; 1),
    turns the margin h into a and keeps every parameter > 0.  The pivot is
    the largest such a, taken only when a > h, so a series whose direct
    margin is the largest is summed exactly as written.
    """
    h = spec.h
    pivots = ([a for a in spec.upper if h < a < min(spec.lower)]
              if len(spec.upper) == 3 else [])
    if not pivots:
        value, terms = _sum_unit_argument(spec, rel_tol, cap)
        return _UnitSum(value, "direct", h, terms)
    a = max(pivots)
    rest = list(spec.upper)
    rest.remove(a)
    (b, c), (d, e) = rest, spec.lower
    thomae = HypergeometricSpec((d - a, e - a, h), (h + b, h + c), 1.0)
    value, terms = _sum_unit_argument(thomae, rel_tol, cap, "thomae")
    log_pre = (math.lgamma(d) + math.lgamma(e) + math.lgamma(h) - math.lgamma(a)
               - math.lgamma(h + b) - math.lgamma(h + c))
    return _UnitSum(math.exp(log_pre) * value, "thomae", a, terms)


def hyp_pfq(spec: HypergeometricSpec, rel_tol: float = SERIES_REL_TOL,
            term_cap: int = SERIES_TERM_CAP) -> float:
    """Sum of the generalized hypergeometric series for `spec`.

    Deterministic; raises ConvergenceError when h <= 0 and SeriesCapError
    (carrying the partial sum and last term of the series summed, and
    naming its representation and margin) when the term cap is exhausted.

    A 3F2 is summed directly or, when one of its upper parameters a is
    below both lower ones and above the margin h, as its Thomae transform,
    whose margin is a; the larger margin wins (see _sum_at_one).  A 2F1 is
    summed directly.  The float returned also carries `representation`,
    `margin` and `terms`.
    """
    if not rel_tol > 0.0:
        raise DomainError(f"rel_tol must be > 0, got {rel_tol}")
    if spec.h <= 0.0:
        raise ConvergenceError(
            f"series diverges at z=1: convergence margin h={spec.h:.6g} <= 0"
        )
    return _sum_at_one(spec, rel_tol, term_cap)
