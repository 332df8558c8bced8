"""Weighted Gini correlations, heavy-tailed bivariate Pareto families, and
Gini-type weighted insurance pricing.

Quick start::

    from ginicorr import BVP2, WeightFunction, closed_cw, sample, empirical_cw

    f = BVP2(delta=2.1, delta_y=0.5254)
    w = WeightFunction.power(1.0)
    closed_cw(f, w).value            # 0.358475...
    s = sample(f, 200_000, seed=42)
    empirical_cw(s, w, n_boot=0).value
"""

from .distributions import (
    BVP1,
    BVP2,
    BVP3,
    BivariateFamily,
    EllipticalT,
    Normal,
    NormalMargin,
    PairedSample,
    ParetoIIMargin,
    RegressionLine,
    StudentTMargin,
    bvp3_pdf_terms,
    joint_ddf,
    margins,
    pearson_closed_form,
    regression_line,
    sample,
)
from .errors import (
    ConvergenceError,
    DegenerateSampleError,
    DomainError,
    GiniCorrError,
    MomentError,
    NoLinearRegressionError,
    QuadratureError,
    SeriesCapError,
    UnsupportedPairError,
)
from .gini import (
    CorrelationReport,
    closed_cw,
    cov_x_weighted,
    cw_via_regression,
    empirical_cw,
    empirical_pearson,
    lambda_w,
    lambda_w_empirical,
    lambda_w_margin,
)
from .oracle import QuadratureSpec, mc_reference, quad2_bvp3_moment, quad_cov_margin
from .specfun import HypergeometricSpec, hyp_pfq, ln_beta, reg_inc_beta
from .weights import WeightFunction, reflect
from .wipm import (
    Portfolio,
    PremiumResult,
    allocate,
    classical_wipm_rhs,
    gini_premium,
    gini_wipm_rhs,
    margin_gini_premium,
    weighted_premium,
)

__version__ = "0.1.0"
