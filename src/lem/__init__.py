"""Endogeneity-corrected biomarker trend estimation for longitudinal data.

A joint model couples a linear outcome equation with a latent-index (probit)
treatment equation through correlated bivariate-normal errors, so that the
natural-history association between predictors and the outcome is identified
even when treatment assignment depends on unmeasured confounders.  For
repeated measures the per-observation scores are pooled into working-
independence estimating equations, and inference uses a cluster-robust
sandwich covariance with subjects as clusters; no component of the
longitudinal correlation structure needs to be specified.
"""

__version__ = "0.1.0"

from .data import (
    DesignSpec,
    LongDataset,
    OverlapReport,
    check_overlap,
    load_csv,
    write_csv,
)
from .errors import LemError
from .fit import (
    Contrast,
    FitRecord,
    LemFit,
    WaldResult,
    contrast,
    fisher_cov,
    fit_lem,
    fit_to_dict,
    initialize,
    load_fit_json,
    ncs_basis,
    sandwich_cov,
    wald,
)
from .gee import GeeFit, fit_gee_independence
from .likelihood import (
    Theta,
    loglik_rows,
    pooled_negloglik_and_score,
    rho_of_varrho,
    score_rows,
    varrho_of_rho,
)
from .numerics import (
    cholesky,
    log_std_normal_cdf,
    solve_sym,
    std_normal_cdf,
    std_normal_pdf,
)
from .optim import OptimResult, minimize_bfgs
from .simulate import (
    SimConfig,
    StudySummary,
    apply_missingness,
    gen_covariates,
    gen_outcomes,
    preset,
    run_study,
)

__all__ = [
    "DesignSpec", "LongDataset", "OverlapReport",
    "check_overlap", "load_csv", "write_csv",
    "LemError",
    "Contrast", "FitRecord", "LemFit", "WaldResult", "contrast", "fisher_cov",
    "fit_lem", "fit_to_dict", "initialize", "load_fit_json", "ncs_basis",
    "sandwich_cov", "wald",
    "GeeFit", "fit_gee_independence",
    "Theta", "loglik_rows", "pooled_negloglik_and_score", "rho_of_varrho",
    "score_rows", "varrho_of_rho",
    "cholesky", "log_std_normal_cdf", "solve_sym", "std_normal_cdf", "std_normal_pdf",
    "OptimResult", "minimize_bfgs",
    "SimConfig", "StudySummary", "apply_missingness", "gen_covariates",
    "gen_outcomes", "preset", "run_study",
]
