"""Independent brute-force validators.

Vectorised tanh-sinh quadrature of marginal covariances in the tail variable
t = 1 - F(x) (which tames the heavy tails: the integrand lives on (0,1), and
a substitution t = s^k keeps the part near the tail that doubles cannot
reach negligible), tensor-product quadrature over the transformed unit
square for the three-index Pareto family, and seeded Monte Carlo reference
estimates whose standard errors come from replication spread rather than
within-run asymptotics (heavy tails make the latter unreliable).

Everything here is trusted *before* any closed form and arbitrates them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .distributions import (
    BVP3,
    BivariateFamily,
    PairedSample,
    bvp3_pdf_terms,
    chunk_seeds,
    margins,
    _draw,
)
from .errors import DegenerateSampleError, DomainError, MomentError, QuadratureError
from .weights import WeightFunction, reflect


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_QUAD = QuadratureSpec()


def _quad01(fn, spec: QuadratureSpec, what: str) -> float:
    """Adaptive quadrature of fn over (0, 1) with failure escalation."""
    res = integrate.quad(fn, 0.0, 1.0, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
                         limit=spec.max_subdivisions, full_output=1)
    value, abserr = res[0], res[1]
    if len(res) > 3:
        raise QuadratureError(
            f"quadrature for {what} did not converge: {res[3]}",
            estimate=value, error_estimate=abserr,
        )
    return value


def _tail_power(tail_index: float) -> float:
    """The least k >= 1 that leaves the s-integrand no worse than s^(-19/20).

    Qbar(t) ~ t^(-1/alpha) for tail index alpha, so in t = s^k the integrand
    near s = 0 goes like s^(k (1 - 1/alpha) - 1).  tanh-sinh samples s down
    to the smallest normal double, 2.2e-308, and the part below it is then
    under (2.2e-308)^(1/20) * 20 = 1e-14 of the scale.  A larger k squeezes
    the bulk of t into a thin layer below s = 1 and costs accuracy.
    """
    if tail_index <= 1.0:
        raise MomentError(f"covariance needs a finite mean, got tail index {tail_index}")
    return max(1.0, 0.05 / (1.0 - 1.0 / tail_index))


def _tail_cov(margin, w: WeightFunction, spec: QuadratureSpec):
    """Cov[X, w(1 - F_X(X))] by tanh-sinh: (value, error estimate, evaluations).

    Integrates the one centred integrand Qbar(t) (w(t) - wbar) over the tail
    variable t = 1 - F_X(x), with Qbar(t) = Q(1 - t) from the margin's
    `tail_quantile` in t = s^k (see _tail_power).  Symmetric margins fold
    the upper half onto the lower, Qbar(1 - t) = -Qbar(t), and integrate
    Qbar(t) (w(t) + w*(t) - 1) over (0, 1/2], with w*(t) = 1 - w(1 - t)
    evaluated as reflect(w) so no 1 - t rounds.  A margin with only
    `quantile(u)` integrates Q(1 - t) (w(t) - wbar) over (0, 1) in t.  The
    knots of a table weight are break points; the intervals between them
    go to one vectorised tanhsinh call.  The rule starts at level 3, not
    2: its error estimate compares the last levels, and three coarse levels
    that agree by chance end it early (a table weight at Pareto delta =
    5.15 stopped after 67 points with an estimate of 4e-15 and an error of
    3e-11).
    """
    from scipy.integrate import tanhsinh

    wbar = w.mean_on_unit()
    kinks = w.knots_t if w.kind == "table" else np.empty(0)
    if not hasattr(margin, "tail_quantile"):
        k, end = 1.0, 1.0

        def f(s):
            return margin.quantile(1.0 - s) * (w(s) - wbar)
    elif margin.symmetric:
        k, end = _tail_power(margin.tail_index), 0.5
        ws = reflect(w)
        kinks = np.concatenate([kinks, 1.0 - kinks])

        def f(s):
            t = s ** k
            return margin.tail_quantile(s, k) * (w(t) + ws(t) - 1.0)
    else:
        k, end = _tail_power(margin.tail_index), 1.0

        def f(s):
            return margin.tail_quantile(s, k) * (w(s ** k) - wbar)
    t_edges = np.unique(np.concatenate([[0.0, end], kinks[(kinks > 0.0) & (kinks < end)]]))
    edges = t_edges ** (1.0 / k)
    res = tanhsinh(f, edges[:-1], edges[1:], minlevel=3, atol=spec.abs_tol,
                   rtol=spec.rel_tol)
    value, error = float(res.integral.sum()), float(res.error.sum())
    if np.any(res.status != 0):
        raise QuadratureError(
            f"tanh-sinh covariance quadrature did not converge (status "
            f"{res.status.tolist()}, {int(res.nfev.sum())} evaluations)",
            estimate=value, error_estimate=error,
        )
    return value, error, int(res.nfev.sum())


def quad_cov_margin(margin, w: WeightFunction,
                    spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Cov[X, w(1 - F_X(X))] by tail-variable tanh-sinh quadrature.

    `margin` is a margin of this package or any object with a vectorised
    `quantile(u)` method.  Requires a finite mean.
    """
    return _tail_cov(margin, w, spec)[0]


# ---------------------------------------------------------------------------
# BVP3 double-integral oracle
# ---------------------------------------------------------------------------

def _bvp3_term_integral(d_x: float, d_y: float, d: float, gamma: float,
                        trip, spec: QuadratureSpec, with_x: bool) -> float:
    """One density term integrated over the positive quadrant.

    Transformed to the unit square by x = s/(1-s), y = t/(1-t); with_x adds
    the x * (1 - F_Y(y))^gamma factor of the weighted moment.
    """
    i1, i2, i3 = trip
    dys = d + d_y
    if with_x:
        ps = d_x + i1 + d + i3 - 3.0
        pt = d_y + i2 + gamma * dys + d + i3 - 2.0
    else:
        ps = d_x + i1 + d + i3 - 2.0
        pt = d_y + i2 + d + i3 - 2.0
    pc = d + i3

    def inner(t):
        tf = (1.0 - t) ** pt

        def f(s):
            base = (1.0 - s) ** ps * (1.0 - s * t) ** (-pc)
            return s * base if with_x else base

        val = integrate.quad(f, 0.0, 1.0, epsabs=spec.abs_tol * 1e-2,
                             epsrel=spec.rel_tol * 1e-2,
                             limit=spec.max_subdivisions)[0]
        return val * tf

    return _quad01(inner, spec, f"BVP3 term {trip}")


def bvp3_density_integral(f: BVP3, spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Integral of the BVP3 density terms over the positive quadrant (should be 1)."""
    return sum(
        coeff * _bvp3_term_integral(f.delta_x, f.delta_y, f.delta, 0.0, trip,
                                    spec, with_x=False)
        for trip, coeff in bvp3_pdf_terms(f) if coeff != 0.0
    )


def quad2_bvp3_moment(f: BVP3, gamma: float,
                      spec: QuadratureSpec = DEFAULT_QUAD) -> float:
    """Oracle extended Gini correlation for BVP3, built from quadrature only.

    The numerator covariance comes from the 2-d integral of
    x (1 - F_Y(y))^gamma against the density terms plus the exact uniform
    moments E[(1-F)^gamma] = 1/(gamma+1) and E[X - mu_X] = sigma_X/(dX*-1);
    the denominator covariance is 1-d tail-variable quadrature, so no
    hypergeometric machinery is involved anywhere.
    """
    if not gamma > 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    dxs = f.delta_x_star
    if dxs <= 1.0:
        raise MomentError(f"needs delta_x* > 1 for a finite mean, got {dxs}")
    moment = sum(
        coeff * _bvp3_term_integral(f.delta_x, f.delta_y, f.delta, gamma, trip,
                                    spec, with_x=True)
        for trip, coeff in bvp3_pdf_terms(f) if coeff != 0.0
    )
    cov_num = moment - 1.0 / ((dxs - 1.0) * (gamma + 1.0))
    x_margin, _ = margins(f)
    std_x = type(x_margin)(0.0, 1.0, x_margin.delta)
    cov_den = quad_cov_margin(std_x, WeightFunction.power(gamma), spec)
    return cov_num / cov_den


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
