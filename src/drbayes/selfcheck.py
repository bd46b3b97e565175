"""Exact identity checks between estimators, runnable as a self-test.

Each check verifies an algebraic equivalence that must hold to numerical
precision on any dataset (score-equation identities, saturated-model
reductions, and the outcome-blindness of treatment-model estimation).
They run on small fixed instances in well under ten seconds and are wired
to the ``selfcheck`` CLI command and the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import estimators as est
from .estimators import (
    CovariateSpec,
    Dataset,
    ResamplingConfig,
    plain_outcome_design,
    treatment_design,
)
from .glm import clever_covariate, fit_linear_weighted, fit_logistic_weighted
from .glm import fit_logistic_weighted_many
from .numerics import RngStream
from .simulation import apply_scenario, generate_data

__all__ = ["CheckResult", "run_selfcheck", "IDENTITY_TOLERANCE"]

IDENTITY_TOLERANCE = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    residual: float
    detail: str = ""


def _fixture_data(n=80, seed=1905, stream=3):
    data = generate_data(n, RngStream(seed, stream))
    return data, apply_scenario(data, "I")


def _flat_row(data, spec):
    """A flat weight row (1/n per observation) and the clever covariate of
    its clamped treatment probabilities, refit through the batched path of
    the Dirichlet plan."""
    design, fit, _, _ = est._ps_model(data, spec)
    flat = np.full((1, data.n), 1.0 / data.n)
    e = fit_logistic_weighted_many(design, data.z, flat, start=fit.gamma).prob
    return flat, clever_covariate(data.z, est._clamp_ps(e))


def _point(tag, data, spec, stabilize=True):
    """Point estimate of a registered estimator (two resampling rows)."""
    cfg = ResamplingConfig(n_draws=2, n_boot=2, stabilize=stabilize)
    rng = RngStream(1905, 0).child(est.STREAM_KEYS[tag])
    return est.ESTIMATORS[tag](data, spec, cfg, rng).point


def check_uniform_weights_match_weighted_regression(stabilize=True):
    """Flat-weight Bayesian draw equals the weighted-regression estimator."""
    data, spec = _fixture_data()
    flat, H = _flat_row(data, spec)
    bayes = float(est._or_iptw_rows(data, spec, flat, H, stabilize)[0][0])
    frequentist = _point("or_iptw", data, spec, stabilize)
    residual = abs(bayes - frequentist)
    return CheckResult(
        "uniform-weight IS equals OR/IPTW",
        residual < IDENTITY_TOLERANCE,
        residual,
        f"{bayes:.12f} vs {frequentist:.12f}",
    )


def check_uniform_weights_match_dr():
    """Flat-weight doubly robust draw equals the frequentist DR estimator."""
    data, spec = _fixture_data()
    flat, H = _flat_row(data, spec)
    bayes = float(est._dr_rows(data, spec, flat, H)[0][0])
    frequentist = _point("dr", data, spec)
    residual = abs(bayes - frequentist)
    return CheckResult(
        "uniform-weight IS/DR equals DR",
        residual < IDENTITY_TOLERANCE,
        residual,
        f"{bayes:.12f} vs {frequentist:.12f}",
    )


def clever_outcome_design(data: Dataset, spec: CovariateSpec, e) -> np.ndarray:
    """Outcome design augmented with the derived inverse-probability
    regressor ``z/e - (1-z)/(1-e)``."""
    return np.column_stack([plain_outcome_design(data, spec), clever_covariate(data.z, e)])


def _clever_model_dr_terms(data, spec, corrupt_residual_sign=False):
    """DR contrast evaluated with the clever-covariate outcome model."""
    _, _, e_raw, _ = est._ps_model(data, spec)
    e = est._clamp_ps(e_raw)
    z, y = data.z, data.y
    design = clever_outcome_design(data, spec, e)
    fit = fit_linear_weighted(design, y)
    phi = fit.phi
    m_obs = design @ phi
    cvals = design[:, -1]
    m1 = m_obs + (1.0 - z) * phi[est.Z_COL] + phi[-1] * (1.0 / e - cvals)
    m0 = m_obs - z * phi[est.Z_COL] + phi[-1] * (-1.0 / (1.0 - e) - cvals)
    weights = np.full(data.n, 1.0 / data.n)
    # The corrupted variant flips the control-arm sign of the reweighting
    # factor, destroying its collinearity with the fitted regressor; the
    # residual term then no longer vanishes (used by the sensitivity test).
    control_sign = 1.0 if corrupt_residual_sign else -1.0
    cc = z / e + control_sign * (1.0 - z) / (1.0 - e)
    residual_term = float(np.sum(weights * (y - m_obs) * cc))
    model_term = float(np.sum(weights * (m1 - m0)))
    return residual_term + model_term, residual_term


def check_clever_covariate_matches_dr(corrupt_residual_sign=False):
    """With the clever covariate in the outcome model, the DR residual term
    is annihilated by the least squares score equations, so the DR value
    equals the model-based estimate."""
    data, spec = _fixture_data()
    value, residual_term = _clever_model_dr_terms(
        data, spec, corrupt_residual_sign=corrupt_residual_sign
    )
    clever_point = _point("clever", data, spec)
    residual = max(abs(value - clever_point), abs(residual_term))
    return CheckResult(
        "DR with clever-covariate model equals clever-covariate estimator",
        residual < IDENTITY_TOLERANCE,
        residual,
        f"dr={value:.12f} clever={clever_point:.12f} residual_term={residual_term:.2e}",
    )


def _discrete_instance(n_rows, seed):
    """Small dataset on one binary covariate with all four (z, s) cells
    populated and a genuine interaction in the outcome."""
    gen = RngStream(seed, 0).generator()
    reps = n_rows // 4
    s = np.repeat([0.0, 0.0, 1.0, 1.0], reps)
    z = np.tile([0.0, 1.0], n_rows // 2)
    y = 0.5 + 1.0 * z + 0.8 * s + 1.7 * z * s + 0.3 * gen.standard_normal(n_rows)
    return Dataset(y=y, z=z, x=s[:, None], column_names=("s",))


def _cell_means(y, z, s, xi):
    means = {}
    for zv in (0.0, 1.0):
        for sv in (0.0, 1.0):
            mask = (z == zv) & (s == sv)
            means[(zv, sv)] = float(np.sum(xi[mask] * y[mask]) / np.sum(xi[mask]))
    return means


def check_saturated_outcome_kills_residual():
    """With a saturated outcome model the per-draw DR residual term vanishes:
    the weighted fit reproduces the weighted cell means exactly."""
    data = _discrete_instance(12, seed=404)
    y, z = data.y, data.z
    s = data.x[:, 0]
    ps_design = np.column_stack([np.ones(data.n), s])
    outcome_design = np.column_stack([np.ones(data.n), z, s, z * s])
    gen = RngStream(404, 1).generator()
    worst = 0.0
    for _ in range(20):
        xi = gen.standard_exponential(data.n)
        xi /= xi.sum()
        ps_fit = fit_logistic_weighted(ps_design, z, weights=xi)
        e = est._clamp_ps(1.0 / (1.0 + np.exp(-(ps_design @ ps_fit.gamma))))
        phi = fit_linear_weighted(outcome_design, y, weights=xi).phi
        # Brute-force oracle: the saturated fit must equal the weighted cell
        # means cell by cell.
        means = _cell_means(y, z, s, xi)
        fitted = outcome_design @ phi
        cell_gap = max(
            abs(fitted[k] - means[(z[k], s[k])]) for k in range(data.n)
        )
        residual_term = float(np.sum(xi * (y - fitted) * clever_covariate(z, e)))
        worst = max(worst, abs(residual_term), cell_gap)
    return CheckResult(
        "saturated outcome model: DR residual term vanishes per draw",
        worst < IDENTITY_TOLERANCE,
        worst,
    )


def check_saturated_ps_reduces_to_weighted_mean():
    """With a saturated treatment model and flat draw weights, the doubly
    robust value collapses to the pure inverse-probability-weighted sum,
    whatever the (misspecified) outcome model says."""
    data = _discrete_instance(16, seed=511)
    spec = CovariateSpec(s_columns=((0, est.IDENTITY),), b_columns=((0, est.IDENTITY),))
    flat, H = _flat_row(data, spec)
    value = float(est._dr_rows(data, spec, flat, H)[0][0])
    xi = flat[0]
    # Brute-force oracle: within-cell treated fractions give the fitted
    # probabilities of the saturated logistic fit.
    z, y, s = data.z, data.y, data.x[:, 0]
    e_cell = {
        sv: float(np.sum(xi * z * (s == sv)) / np.sum(xi * (s == sv)))
        for sv in (0.0, 1.0)
    }
    e = np.array([e_cell[sv] for sv in s])
    pure_iptw = float(np.sum(xi * y * (z / e - (1.0 - z) / (1.0 - e))))
    residual = abs(value - pure_iptw)
    return CheckResult(
        "saturated treatment model: IS/DR equals weighted-mean contrast",
        residual < IDENTITY_TOLERANCE,
        residual,
        f"{value:.12f} vs {pure_iptw:.12f}",
    )


def check_treatment_fit_is_outcome_blind():
    """The treatment-model coefficients used inside every estimator are
    bit-identical under any change to the outcomes; joint estimation is the
    one deliberate exception (its coefficients must move)."""
    data, spec = _fixture_data(n=60, seed=77)
    cfg = ResamplingConfig(n_draws=8, n_boot=8)
    perturbed = Dataset(
        y=data.y + np.sin(3.0 * np.arange(data.n)),
        z=data.z,
        x=data.x,
        column_names=data.column_names,
    )
    plain_gamma = tuple(
        float(g) for g in fit_logistic_weighted(treatment_design(data, spec), data.z).gamma
    )
    single_fit_tags = ("iptw", "or_ps_info", "dr", "clever", "or_iptw")
    resampling_tags = ("two_step_forward", "is", "is_dr")
    worst = 0.0
    detail = []
    for tag in single_fit_tags + resampling_tags:
        rng = RngStream(9, 0).child(est.STREAM_KEYS[tag])
        coef_a = est.ESTIMATORS[tag](data, spec, cfg, rng).diagnostics["ps_coef"]
        coef_b = est.ESTIMATORS[tag](perturbed, spec, cfg, rng).diagnostics["ps_coef"]
        if coef_a != coef_b:
            worst = max(worst, 1.0)
            detail.append(f"{tag} moved")
        if tag in single_fit_tags and coef_a != plain_gamma:
            worst = max(worst, 1.0)
            detail.append(f"{tag} != standalone fit")
    rng = RngStream(9, 0).child(est.STREAM_KEYS["joint"])
    joint_a = est.ESTIMATORS["joint"](data, spec, cfg, rng).diagnostics["ps_coef"]
    joint_b = est.ESTIMATORS["joint"](perturbed, spec, cfg, rng).diagnostics["ps_coef"]
    joint_moved = max(abs(a - b) for a, b in zip(joint_a, joint_b))
    if joint_moved < 1e-10:
        worst = max(worst, 1.0)
        detail.append("joint did not move")
    return CheckResult(
        "treatment-model fits are outcome-blind (joint excepted)",
        worst == 0.0,
        worst,
        "; ".join(detail) or f"joint moved by {joint_moved:.2e}",
    )


ALL_CHECKS = [
    check_uniform_weights_match_weighted_regression,
    check_uniform_weights_match_dr,
    check_clever_covariate_matches_dr,
    check_saturated_outcome_kills_residual,
    check_saturated_ps_reduces_to_weighted_mean,
    check_treatment_fit_is_outcome_blind,
]


def run_selfcheck():
    """Run every identity check; returns ``(all_passed, results)``."""
    results = [check() for check in ALL_CHECKS]
    return all(r.passed for r in results), results
