"""Admissible weight functions: non-decreasing maps [0,1] -> [0,1].

Four kinds are supported: the identity, power weights t^gamma, beta-c.d.f.
weights (convex, concave or S-shaped depending on the parameters), and
tabulated weights with linear interpolation for user-supplied shapes such
as prospect-theory probability-weighting curves.

Admissibility (monotone, endpoints inside [0,1]) is checked once at
construction; evaluation is the hot path and stays check-free apart from
the domain test on t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._csvrows import read_numeric_csv
from .errors import DomainError
from .specfun import ln_beta, reg_inc_beta


@dataclass(frozen=True)
class WeightFunction:
    """One member of the admissible class, tagged by `kind`.

    kind: "identity" | "power" | "beta_cdf" | "table"
    power uses `gamma`; beta_cdf uses `a`, `b`; table uses the knot arrays.
    Instances are immutable and safe to share between workers.
    """

    kind: str
    gamma: float | None = None
    a: float | None = None
    b: float | None = None
    knots_t: np.ndarray | None = field(default=None, repr=False)
    knots_w: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind == "identity":
            pass
        elif self.kind == "power":
            if self.gamma is None or not self.gamma > 0.0:
                raise DomainError(f"power weight requires gamma > 0, got {self.gamma}")
        elif self.kind == "beta_cdf":
            if self.a is None or self.b is None or not (self.a > 0.0 and self.b > 0.0):
                raise DomainError(
                    f"beta_cdf weight requires a, b > 0, got a={self.a}, b={self.b}"
                )
        elif self.kind == "table":
            t = np.asarray(self.knots_t, dtype=float)
            w = np.asarray(self.knots_w, dtype=float)
            if t.ndim != 1 or t.shape != w.shape or t.size < 2:
                raise DomainError("table weight needs two equal-length knot arrays")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
                raise DomainError("table weight knots must be finite")
            if np.any(np.diff(t) <= 0.0):
                raise DomainError("table weight t-knots must be strictly increasing")
            if t[0] < 0.0 or t[-1] > 1.0:
                raise DomainError("table weight t-knots must lie in [0, 1]")
            if w.min() < 0.0 or w.max() > 1.0:
                raise DomainError("table weight values must lie in [0, 1]")
            object.__setattr__(self, "knots_t", t)
            object.__setattr__(self, "knots_w", w)
            # the interpolant is clamped outside the knots and linear between
            # them, so it is non-decreasing on [0, 1] iff the knot values are
            if np.any(np.diff(w) < 0.0):
                raise DomainError("table weight must be non-decreasing on [0, 1]")
        else:
            raise DomainError(f"unknown weight kind {self.kind!r}")

    # --- constructors -----------------------------------------------------
    @classmethod
    def identity(cls) -> "WeightFunction":
        return cls(kind="identity")

    @classmethod
    def power(cls, gamma: float) -> "WeightFunction":
        return cls(kind="power", gamma=float(gamma))

    @classmethod
    def beta_cdf(cls, a: float, b: float) -> "WeightFunction":
        return cls(kind="beta_cdf", a=float(a), b=float(b))

    @classmethod
    def table(cls, knots_t, knots_w) -> "WeightFunction":
        return cls(kind="table", knots_t=np.asarray(knots_t, dtype=float),
                   knots_w=np.asarray(knots_w, dtype=float))

    @classmethod
    def from_csv(cls, path) -> "WeightFunction":
        """Load a table weight from a two-column CSV of (t, w(t)) knots."""
        _, knots = read_numeric_csv(path)
        if knots.shape[0] < 2 or knots.shape[1] < 2:
            raise DomainError(f"no (t, w) knot rows found in {path}")
        return cls.table(knots[:, 0], knots[:, 1])

    # --- evaluation -------------------------------------------------------
    def __call__(self, t):
        """Evaluate w(t) for scalar or ndarray t in [0, 1]."""
        arr = np.asarray(t, dtype=float)
        if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0 or arr.max() > 1.0):
            raise DomainError("weight argument must lie in [0, 1]")
        if self.kind == "identity":
            out = arr
        elif self.kind == "power":
            out = arr ** self.gamma
        elif self.kind == "beta_cdf":
            out = reg_inc_beta(arr, self.a, self.b)
        else:
            out = np.interp(arr, self.knots_t, self.knots_w)
        return float(out) if np.ndim(t) == 0 else np.asarray(out)

    def at_power(self, s: np.ndarray, k: float) -> np.ndarray:
        """w(s^k) for s in (0, 1], without the underflow of s^k.

        Where s^k underflows, t^gamma and beta c.d.f.s with a small a are
        still far from 0 (t^0.01 = 8e-4 at 1e-308); there w is its leading
        term t^p / c, exact to relative O(t), formed from k log s.
        """
        t = s ** k
        out, low = self(t), t < np.finfo(float).tiny
        if self.kind in ("power", "beta_cdf") and low.any():
            p, log_c = ((self.gamma, 0.0) if self.kind == "power"
                        else (self.a, np.log(self.a) + ln_beta(self.a, self.b)))
            out = np.where(low, np.exp(p * k * np.log(s) - log_c), out)
        return out

    def mean_on_unit(self) -> float:
        """Integral of w over [0, 1].

        Closed form for the analytic kinds; exact trapezoid for the
        piecewise-linear table kind (including clamped extensions).
        """
        if self.kind == "identity":
            return 0.5
        if self.kind == "power":
            return 1.0 / (self.gamma + 1.0)
        if self.kind == "beta_cdf":
            # integrate I_u(a,b) by parts: 1 - E[Beta(a,b)]
            return self.b / (self.a + self.b)
        t = self.knots_t
        w = self.knots_w
        total = np.trapezoid(w, t)
        total += t[0] * w[0]            # constant clamp on [0, t_0]
        total += (1.0 - t[-1]) * w[-1]  # constant clamp on [t_n, 1]
        return float(total)

    def describe(self) -> str:
        if self.kind == "identity":
            return "identity"
        if self.kind == "power":
            return f"power(gamma={self.gamma:g})"
        if self.kind == "beta_cdf":
            return f"beta_cdf(a={self.a:g}, b={self.b:g})"
        return f"table({self.knots_t.size} knots)"


def reflect(w: WeightFunction) -> WeightFunction:
    """The reflected weight w*(t) = 1 - w(1 - t), again in the class.

    Each kind maps to a closed-form counterpart: the identity is a fixed
    point, t^gamma reflects to the Beta(1, gamma) c.d.f., the beta c.d.f.
    swaps its parameters, and tables reflect their knots (linear
    interpolation commutes with the point reflection exactly).  Knots closer
    than the spacing of doubles below 1 land on one value under 1 - t; the
    lower one then moves down by one ulp, so a step in w stays a step.
    """
    if w.kind == "identity":
        return WeightFunction.identity()
    if w.kind == "power":
        return WeightFunction.beta_cdf(1.0, w.gamma)
    if w.kind == "beta_cdf":
        return WeightFunction.beta_cdf(w.b, w.a)
    t = 1.0 - w.knots_t[::-1]
    for i in range(t.size - 2, -1, -1):
        t[i] = min(t[i], np.nextafter(t[i + 1], 0.0))
    return WeightFunction.table(t, 1.0 - w.knots_w[::-1])
