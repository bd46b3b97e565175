"""Doubly robust and Bayesian-bootstrap treatment effect estimators.

A library and CLI for estimating the marginal causal contrast
E(Y1) - E(Y0) of a binary point treatment, with a deterministic Monte
Carlo harness for studying the estimators' frequency properties.
"""

__version__ = "0.1.0"

from .estimators import (
    ESTIMATOR_LABELS,
    ESTIMATOR_ORDER,
    ESTIMATORS,
    CovariateSpec,
    Dataset,
    EstimateResult,
    ResamplingConfig,
)
from .numerics import RngStream
from .simulation import SimConfig, generate_data, run_estimators, run_simulation, summarize

__all__ = [
    "__version__",
    "RngStream",
    "Dataset",
    "CovariateSpec",
    "ResamplingConfig",
    "EstimateResult",
    "ESTIMATORS",
    "ESTIMATOR_ORDER",
    "ESTIMATOR_LABELS",
    "SimConfig",
    "generate_data",
    "run_estimators",
    "run_simulation",
    "summarize",
]
