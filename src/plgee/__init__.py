"""Two-step pseudo-likelihood GEE estimation for longitudinal marginal models."""

from .estimator import (
    CorrelationEstimate,
    FitResult,
    estimate_correlation,
    gee_independence_fit,
    pseudo_likelihood_fit,
    two_step_fit,
    wald_intervals,
)
from .model import (
    IDENTITY,
    LOG,
    LOGIT,
    PROBIT,
    LinkFamily,
    LongitudinalDataset,
    eval_model,
    link_eval,
)

__all__ = [
    "CorrelationEstimate",
    "FitResult",
    "estimate_correlation",
    "gee_independence_fit",
    "pseudo_likelihood_fit",
    "two_step_fit",
    "wald_intervals",
    "IDENTITY",
    "LOG",
    "LOGIT",
    "PROBIT",
    "LinkFamily",
    "LongitudinalDataset",
    "eval_model",
    "link_eval",
]

__version__ = "0.1.0"
