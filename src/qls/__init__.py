"""Quantile least squares estimation and validation for location-scale
families.

Sample quantiles of an i.i.d. sample are jointly asymptotically normal, so
regressing them on the standard quantiles of a family turns location-scale
estimation into a small linear model.  Excluding extreme levels makes the
fit robust (positive breakdown point, bounded influence); weighting by the
known quantile covariance (gQLS) recovers most of the efficiency lost to
the MLE benchmark.  On top of the estimators, this package provides
influence/breakdown diagnostics, efficiency tables, two goodness-of-fit
tests (chi-square in-sample and bootstrap out-of-sample), a Monte Carlo
harness, and a CLI.
"""

from .errors import (
    BootstrapDegenerate,
    DegenerateDensity,
    DimensionMismatch,
    DomainError,
    EmptySample,
    InsufficientDof,
    InvalidGrid,
    InvalidSeed,
    NoConvergence,
    NonFiniteData,
    NonPositiveScale,
    NotPositiveDefinite,
    QlsError,
    RankDeficient,
    ScaleOverflow,
    Unavailable,
)
from .families import FAMILIES, Family, ParamMode, Params, family_names, get_family
from .quantiles import (
    QuantileGrid,
    QuantileResponse,
    design_matrix,
    empirical_quantiles,
    make_grid,
    sigma_star,
)
from .estimators import (
    QlsFit,
    asymptotic_cov,
    fit_gqls,
    fit_mle,
    fit_oqls,
    fit_sample,
    qls_weights,
)
from .robustness import (
    BreakdownPoint,
    InfluenceCurve,
    breakdown_point,
    if_estimator,
    if_quantile,
    influence_curve,
)
from .efficiency import AreResult, are, are_curve, are_table
from .gof import (
    GofResult,
    bootstrap_pvalue,
    chi2_sf,
    make_out_grid,
    q_decomposition,
    residual_analysis,
    w_out_statistic,
    w_test,
)
from .simulate import (
    ContaminationSpec,
    EstimatorSpec,
    McConfig,
    McSummary,
    run_mc,
    run_power_study,
    run_timing,
    sample_contaminated,
)

__version__ = "0.1.0"

__all__ = [
    "AreResult",
    "BootstrapDegenerate",
    "BreakdownPoint",
    "ContaminationSpec",
    "DegenerateDensity",
    "DimensionMismatch",
    "DomainError",
    "EmptySample",
    "EstimatorSpec",
    "FAMILIES",
    "Family",
    "GofResult",
    "InfluenceCurve",
    "InsufficientDof",
    "InvalidGrid",
    "InvalidSeed",
    "McConfig",
    "McSummary",
    "NoConvergence",
    "NonFiniteData",
    "NonPositiveScale",
    "NotPositiveDefinite",
    "ParamMode",
    "Params",
    "QlsError",
    "QlsFit",
    "QuantileGrid",
    "QuantileResponse",
    "RankDeficient",
    "ScaleOverflow",
    "Unavailable",
    "are",
    "are_curve",
    "are_table",
    "asymptotic_cov",
    "bootstrap_pvalue",
    "breakdown_point",
    "chi2_sf",
    "design_matrix",
    "empirical_quantiles",
    "family_names",
    "fit_gqls",
    "fit_mle",
    "fit_oqls",
    "fit_sample",
    "get_family",
    "if_estimator",
    "if_quantile",
    "influence_curve",
    "make_grid",
    "make_out_grid",
    "q_decomposition",
    "qls_weights",
    "residual_analysis",
    "run_mc",
    "run_power_study",
    "run_timing",
    "sample_contaminated",
    "sigma_star",
    "w_out_statistic",
    "w_test",
]
