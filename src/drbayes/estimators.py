"""Estimators of the marginal causal contrast E(Y1) - E(Y0).

Thirteen estimators for a binary point treatment are provided, from the
naive arm-mean difference through doubly robust and Bayesian-bootstrap
procedures.  Every estimator shares the signature
``(data, spec, cfg, rng) -> EstimateResult`` and is a pure function of its
arguments: resampling draws come from sub-streams of ``rng``, so results
are reproducible and independent of any process-level RNG state.

Conventions used throughout:

* outcome designs are ``(1, z, s-columns, extras)``, so the treatment
  coefficient always sits at column ``Z_COL``;
* fitted treatment probabilities are clipped to
  ``[WEIGHT_CLIP, 1 - WEIGHT_CLIP]`` before entering any inverse weight,
  bounding single-observation weights by 1e6;
* every resampling estimator is one kernel over a weight matrix ``W`` (one
  fit per row) and its clamped fitted treatment probabilities ``E``,
  returning a value and a success flag per row.  The bootstrap plan stacks
  a uniform row 0, which carries the full-sample treatment fit and gives
  the point estimate, above multinomial count rows, whose spread gives the
  standard error; the Bayesian-bootstrap plan holds flat-Dirichlet rows,
  one posterior draw each;
* nonparametric-bootstrap refits are computed as count-weighted fits on the
  original rows, which is likelihood-identical to refitting on the
  physically resampled data;
* intervals are Wald, ``point +/- 1.96 * se``, with the posterior standard
  deviation playing the role of the standard error for the
  resampling-based methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .glm import (
    DesignMatrix,
    NonConvergenceError,
    SingularDesignError,
    clever_covariate,
    cubic_ps_basis,
    cubic_ps_basis_jacobian,
    fit_linear_weighted,
    fit_linear_weighted_many,
    fit_logistic_weighted,
    fit_logistic_weighted_many,
    observed_info_se_treatment,
    propensity,
    ps_adjusted_treatment_variance,
)
from .numerics import expit

__all__ = [
    "Dataset",
    "CovariateSpec",
    "ResamplingConfig",
    "EstimateResult",
    "EstimatorError",
    "DrawFailureError",
    "ABS_STD_SCALE",
    "Z_COL",
    "WEIGHT_CLIP",
    "treatment_design",
    "plain_outcome_design",
    "ps_outcome_design",
    "clever_outcome_design",
    "naive",
    "g_formula_adjusted",
    "iptw",
    "or_ps_info",
    "or_ps_sandwich",
    "dr",
    "clever_covariate_regression",
    "or_iptw",
    "two_step_forward",
    "two_step_vardecomp",
    "joint_estimation",
    "importance_sampling",
    "importance_sampling_dr",
    "ESTIMATORS",
    "ESTIMATOR_ORDER",
    "ESTIMATOR_LABELS",
    "STREAM_KEYS",
]

Z_COL = 1
WEIGHT_CLIP = 1e-6
CI_MULT = 1.96

# Scaling that gives the absolute value of a standard normal unit variance.
ABS_STD_SCALE = 1.0 / math.sqrt(1.0 - 2.0 / math.pi)

IDENTITY = "identity"
ABS_STANDARDIZED = "abs_standardized"
_TRANSFORMS = (IDENTITY, ABS_STANDARDIZED)

# Sub-stream indices: estimators draw resampling weights and posterior noise
# from separate children of their stream, so the weight draws of estimators
# with a common stream key (see STREAM_KEYS) agree whatever noise they use.
_SUB_WEIGHTS = 0
_SUB_NOISE = 1


class EstimatorError(Exception):
    """An estimator could not produce a valid result."""


class DrawFailureError(EstimatorError):
    """More than 10% of resampling draws failed."""


def _freeze(*arrays):
    """Mark arrays read-only: a shared input written by mistake raises."""
    for a in arrays:
        a.flags.writeable = False


def _per_dataset(build):
    """Memoize ``build(data, *key)`` on ``data``, so every estimator run on
    the same data set with equal ``key`` reads one shared result.  A build
    that raises is not rerun: its exception is stored and raised again."""

    def shared(data, *key):
        slot = (build, *key)
        if slot not in data._memo:
            try:
                data._memo[slot] = build(data, *key)
            except Exception as err:
                data._memo[slot] = err
        if isinstance(data._memo[slot], Exception):
            raise data._memo[slot]
        return data._memo[slot]

    return shared


# ---------------------------------------------------------------------------
# data containers


@dataclass(frozen=True)
class Dataset:
    """Observed sample: outcome, binary treatment, raw covariate matrix, held
    as read-only copies so that results memoized on the data set
    (:func:`_per_dataset`) cannot outlive the content they came from."""

    y: np.ndarray
    z: np.ndarray
    x: np.ndarray
    column_names: tuple[str, ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        z = np.array(self.z, dtype=float)
        x = np.array(self.x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"covariates must be 2-d, got shape {x.shape}")
        if not (y.shape[0] == z.shape[0] == x.shape[0]):
            raise ValueError("y, z, x must have equal length")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise ValueError("missing or non-finite values are not supported")
        if not np.all((z == 0.0) | (z == 1.0)):
            raise ValueError("treatment must be binary in {0, 1}")
        if z.sum() == 0 or z.sum() == z.shape[0]:
            raise ValueError("both treatment arms must be non-empty")
        names = tuple(self.column_names) or tuple(
            f"x{j + 1}" for j in range(x.shape[1])
        )
        if len(names) != x.shape[1]:
            raise ValueError("column_names length does not match covariate count")
        _freeze(y, z, x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "column_names", names)

    @property
    def n(self) -> int:
        return self.y.shape[0]


@dataclass(frozen=True)
class CovariateSpec:
    """Which covariate columns (and transforms) form the outcome set and the
    treatment-assignment set.

    Each entry is ``(column_index, transform)`` with transform one of
    ``"identity"`` or ``"abs_standardized"`` (|x| divided by
    ``sqrt(1 - 2/pi)``).
    """

    s_columns: tuple[tuple[int, str], ...]
    b_columns: tuple[tuple[int, str], ...]

    def __post_init__(self):
        for cols in (self.s_columns, self.b_columns):
            for idx, transform in cols:
                if transform not in _TRANSFORMS:
                    raise ValueError(f"unknown transform {transform!r}")
                if idx < 0:
                    raise ValueError(f"negative column index {idx}")

    def _matrix(self, data: Dataset, cols):
        values = np.empty((data.n, len(cols)))
        labels = []
        for j, (idx, transform) in enumerate(cols):
            if idx >= data.x.shape[1]:
                raise ValueError(
                    f"column index {idx} out of range for {data.x.shape[1]} covariates"
                )
            col = data.x[:, idx]
            name = data.column_names[idx]
            if transform == ABS_STANDARDIZED:
                values[:, j] = np.abs(col) * ABS_STD_SCALE
                labels.append(f"abs({name})")
            else:
                values[:, j] = col
                labels.append(name)
        return values, labels

    def s_matrix(self, data: Dataset):
        return self._matrix(data, self.s_columns)

    def b_matrix(self, data: Dataset):
        return self._matrix(data, self.b_columns)


@dataclass(frozen=True)
class ResamplingConfig:
    """Monte Carlo settings: posterior draws, bootstrap resamples, weight
    stabilization (marginal treatment probability in the numerator)."""

    n_draws: int = 200
    n_boot: int = 200
    stabilize: bool = True

    def __post_init__(self):
        if self.n_draws < 2 or self.n_boot < 2:
            raise ValueError("n_draws and n_boot must both be at least 2")


@dataclass
class EstimateResult:
    """Point estimate, standard error, Wald interval, optional draws."""

    method: str
    point: float
    se: float
    ci: tuple[float, float]
    draws: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


def _result(method, point, se, draws=None, diagnostics=None):
    point = float(point)
    se = float(se)
    return EstimateResult(
        method=method,
        point=point,
        se=se,
        ci=(point - CI_MULT * se, point + CI_MULT * se),
        draws=draws,
        diagnostics=diagnostics or {},
    )


def _result_from_draws(method, draws, diagnostics=None):
    draws = np.asarray(draws, dtype=float)
    return _result(
        method,
        draws.mean(),
        draws.std(ddof=1),
        draws=draws,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# design construction


def treatment_design(data: Dataset, spec: CovariateSpec) -> DesignMatrix:
    """Propensity design ``(1, b-columns)``."""
    bvals, blabels = spec.b_matrix(data)
    values = np.column_stack([np.ones(data.n), bvals])
    return DesignMatrix(values, ["intercept", *blabels])


def plain_outcome_design(data: Dataset, spec: CovariateSpec) -> DesignMatrix:
    """Outcome design ``(1, z, s-columns)``."""
    svals, slabels = spec.s_matrix(data)
    values = np.column_stack([np.ones(data.n), data.z, svals])
    return DesignMatrix(values, ["intercept", "z", *slabels])


def ps_outcome_design(data: Dataset, spec: CovariateSpec, e) -> DesignMatrix:
    """Outcome design augmented with the centered cubic basis of the fitted
    treatment probabilities."""
    base = plain_outcome_design(data, spec)
    values = np.column_stack([base.values, cubic_ps_basis(e)])
    return DesignMatrix(values, [*base.column_labels, "ps^1", "ps^2", "ps^3"])


def clever_outcome_design(data: Dataset, spec: CovariateSpec, e) -> DesignMatrix:
    """Outcome design augmented with the derived inverse-probability
    regressor ``z/e - (1-z)/(1-e)``."""
    base = plain_outcome_design(data, spec)
    values = np.column_stack([base.values, clever_covariate(data.z, e)])
    return DesignMatrix(values, [*base.column_labels, "clever"])


def _clamp_ps(e):
    return np.clip(e, WEIGHT_CLIP, 1.0 - WEIGHT_CLIP)


@_per_dataset
def _ps_model(data: Dataset, spec: CovariateSpec):
    """Fit the treatment model, tolerating non-convergence (flagged)."""
    design = treatment_design(data, spec)
    try:
        fit = fit_logistic_weighted(design, data.z)
    except NonConvergenceError as err:
        fit = err.last_fit
    if not np.all(np.isfinite(fit.gamma)):
        raise EstimatorError(
            "treatment-model fit diverged (IRLS abandoned it; separated treatment arms?)"
        )
    e = propensity(fit, design)
    _freeze(design.values, fit.gamma, fit.cov, e)
    diag = {
        "ps_converged": bool(fit.converged),
        "ps_iterations": int(fit.iterations),
        "ps_separation": bool(fit.separation),
        "ps_coef": tuple(float(g) for g in fit.gamma),
    }
    return design, fit, e, diag


def _ps_fit(data: Dataset, spec: CovariateSpec):
    """``(design, fit, e, diag)`` of the treatment model, fit once per data
    set; each caller gets its own copy of ``diag`` to extend."""
    design, fit, e, diag = _ps_model(data, spec)
    return design, fit, e, dict(diag)


def _ipw_rows(z, W, E, stabilize):
    """Inverse treatment weights for each row of ``W``; when stabilizing,
    the numerators are the row's weighted treated fraction and its
    complement."""
    if not stabilize:
        return np.where(z == 1.0, 1.0 / E, 1.0 / (1.0 - E))
    pbar = ((W @ z) / W.sum(axis=1))[:, None]
    return np.where(z == 1.0, pbar / E, (1.0 - pbar) / (1.0 - E))


def _ipw_row_max(z, W, E, stabilize):
    """Row maxima of :func:`_ipw_rows` without its (m, n) matrix: each arm's
    weight peaks at its extreme propensity, and rounding keeps that order."""
    treated = z == 1.0
    pbar = (W @ z) / W.sum(axis=1) if stabilize else 1.0
    treated_max = pbar / E[:, treated].min(axis=1)
    control_max = (1.0 - pbar if stabilize else 1.0) / (1.0 - E[:, ~treated].max(axis=1))
    return np.maximum(treated_max, control_max)


# ---------------------------------------------------------------------------
# bootstrap plumbing


MAX_RESAMPLE_TRIES = 1000


def _resample_index_matrix(z, n_boot, gen):
    """Index matrix of ``n_boot`` resamples, each containing both arms.

    Drawn as one block; single-arm rows are then redrawn sequentially (the
    estimand is undefined on them).  Returns ``(idx, n_redraws)``.
    """
    n = z.shape[0]
    idx = gen.integers(0, n, size=(n_boot, n))
    treated = z[idx].sum(axis=1)
    redraws = 0
    for row in np.flatnonzero((treated <= 0.0) | (treated >= n)):
        for _ in range(MAX_RESAMPLE_TRIES):
            candidate = gen.integers(0, n, size=n)
            redraws += 1
            t = z[candidate].sum()
            if 0.0 < t < n:
                idx[row] = candidate
                break
        else:
            raise EstimatorError("could not draw a resample containing both arms")
    return idx, redraws


def _bootstrap_counts(z, n_boot, gen):
    """Count-weight matrix for ``n_boot`` resamples (rows sum to n).

    Count-weighted refits are likelihood-identical to refitting on the
    physically resampled rows.
    """
    n = z.shape[0]
    idx, redraws = _resample_index_matrix(z, n_boot, gen)
    offsets = np.arange(n_boot)[:, None] * n
    counts = np.bincount((idx + offsets).ravel(), minlength=n_boot * n).reshape(
        n_boot, n
    )
    return counts.astype(float), redraws


def _check_draw_failures(n_failed, total, what):
    if n_failed > 0.1 * total:
        raise DrawFailureError(
            f"{n_failed} of {total} {what} failed (more than 10%)"
        )


def _treatment_refits(data, spec, W):
    """The treatment model refit under each row of ``W``, warm-started at
    the full-sample fit: ``(batch, e)`` with the unclamped fitted
    probabilities (failed rows evaluated at zero coefficients; callers drop
    them)."""
    design, fit, _, _ = _ps_model(data, spec)
    batch = fit_logistic_weighted_many(design.values, data.z, W, start=fit.gamma)
    e = expit(np.where(np.isfinite(batch.gamma), batch.gamma, 0.0) @ design.values.T)
    return batch, e


@_per_dataset
def _count_plan(data, spec, rng, n_boot):
    """Bootstrap plan shared by ``iptw``, ``dr``, ``clever`` and ``or_iptw``:
    ``(W, E, ok, redraws)``.  Row 0 of ``W`` is uniform and carries the
    full-sample treatment fit; rows 1.. are a count matrix drawn from
    ``rng``, each with its own treatment refit.  ``E`` holds the clamped
    fitted probabilities and ``ok`` whether each row's treatment fit
    converged (row 0 always: a finite full-sample fit is kept, flagged)."""
    _, _, e, _ = _ps_model(data, spec)
    counts, redraws = _bootstrap_counts(data.z, n_boot, rng.child(_SUB_WEIGHTS).generator())
    batch, e_b = _treatment_refits(data, spec, counts)
    W = np.vstack([np.ones(data.n), counts])
    E = _clamp_ps(np.vstack([e, e_b]))
    ok = np.concatenate([[True], batch.converged])
    _freeze(W, E, ok)
    return W, E, ok, redraws


def _bootstrap_result(method, values, ok, redraws, diag, cause="outcome fit is singular"):
    """Result with the uniform row 0 as the point and the spread of the
    successful count rows as SE; ``cause`` says why row 0 can fail."""
    if not ok[0]:
        raise EstimatorError(f"{method}: the full-sample {cause}")
    boot_ok = ok[1:]
    n_failed = int((~boot_ok).sum())
    _check_draw_failures(n_failed, boot_ok.shape[0], "bootstrap refits")
    diag["boot_failures"] = n_failed
    diag["boot_degenerate_redraws"] = redraws
    se = float(np.std(values[1:][boot_ok], ddof=1))
    return _result(method, values[0], se, diagnostics=diag)


# ---------------------------------------------------------------------------
# simple estimators


def naive(data, spec=None, cfg=None, rng=None):
    """Unadjusted difference of arm means; two-sample standard error."""
    y1 = data.y[data.z == 1.0]
    y0 = data.y[data.z == 0.0]
    point = y1.mean() - y0.mean()
    se = math.sqrt(y1.var(ddof=1) / y1.shape[0] + y0.var(ddof=1) / y0.shape[0])
    return _result("naive", point, se)


def g_formula_adjusted(data, spec, cfg=None, rng=None):
    """Covariate-adjusted regression estimate: fit the outcome model by
    least squares and standardize over the empirical covariate distribution
    (equal to the treatment coefficient for this additive design)."""
    fit = fit_linear_weighted(plain_outcome_design(data, spec), data.y)
    return _result("adjusted", fit.phi[Z_COL], observed_info_se_treatment(fit))


def _iptw_rows(data, W, E):
    """Weighted mean of ``y z / E - y (1 - z) / (1 - E)`` per row of ``W``;
    returns ``(values, ok)``."""
    y, z = data.y, data.z
    values = np.sum(W * (y * z / E - y * (1.0 - z) / (1.0 - E)), axis=1) / W.sum(axis=1)
    return values, np.isfinite(values)


def iptw(data, spec, cfg, rng):
    """Inverse probability of treatment weighting with unstabilized weights;
    bootstrap standard error refitting the treatment model per resample."""
    diag = _ps_fit(data, spec)[3]
    W, E, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    w = _ipw_rows(data.z, W[:1], E[:1], stabilize=False)
    diag["weight_min"] = float(w.min())
    diag["weight_max"] = float(w.max())
    values, fit_ok = _iptw_rows(data, W, E)
    return _bootstrap_result("iptw", values, ok & fit_ok, redraws, diag, "estimate is not finite")


# ---------------------------------------------------------------------------
# outcome regression with propensity adjustment


@dataclass
class _OrPsParts:
    ps_design: DesignMatrix
    ps_fit: object
    e: np.ndarray
    outcome_design: DesignMatrix
    outcome_fit: object
    dropped: tuple
    diag: dict


@_per_dataset
def _or_ps_parts(data, spec):
    """The propensity-adjusted outcome fit shared by ``or_ps_info`` and
    ``or_ps_sandwich``, fit once per data set; callers copy ``diag``."""
    ps_design, ps_fit, e, diag = _ps_fit(data, spec)
    design, dropped = ps_outcome_design(data, spec, e), ()
    try:
        fit = fit_linear_weighted(design, data.y)
    except SingularDesignError:
        # A rank deficiency can be attributed to any member of a collinear
        # group, so the whole derived basis is dropped; the base columns are
        # part of the estimator's contract.
        design, dropped = plain_outcome_design(data, spec), ("ps^1", "ps^2", "ps^3")
        fit = fit_linear_weighted(design, data.y)
        diag["dropped_columns"] = list(dropped)
    _freeze(design.values, fit.phi, fit.cov)
    return _OrPsParts(ps_design, ps_fit, e, design, fit, dropped, diag)


def or_ps_info(data, spec, cfg=None, rng=None):
    """Propensity-adjusted outcome regression with the model-based
    (observed information) standard error."""
    parts = _or_ps_parts(data, spec)
    point = parts.outcome_fit.phi[Z_COL]
    se = observed_info_se_treatment(parts.outcome_fit)
    return _result("or_ps_info", point, se, diagnostics=dict(parts.diag))


def or_ps_sandwich(data, spec, cfg=None, rng=None):
    """Propensity-adjusted outcome regression with the sandwich standard
    error that propagates first-stage estimation of the propensity model."""
    parts = _or_ps_parts(data, spec)
    point = parts.outcome_fit.phi[Z_COL]
    jac = np.zeros((*parts.outcome_design.values.shape, parts.ps_design.p))
    if not parts.dropped:
        # Only the cubic basis columns, which come last, depend on gamma.
        jac[:, -3:] = cubic_ps_basis_jacobian(parts.ps_design, parts.e)
    variance = ps_adjusted_treatment_variance(
        parts.outcome_fit,
        parts.ps_fit,
        data.y,
        data.z,
        parts.ps_design,
        parts.outcome_design,
        jac,
        treatment_col=Z_COL,
    )
    return _result(
        "or_ps_sandwich", point, math.sqrt(max(variance, 0.0)), diagnostics=dict(parts.diag)
    )


# ---------------------------------------------------------------------------
# doubly robust estimators


def _dr_rows(data, spec, W, E):
    """Doubly robust contrast per row of ``W``: the weighted
    inverse-probability residual term plus the treatment coefficient of the
    ``W``-weighted plain outcome fit (its standardization term).  Returns
    ``(values, ok, residual_terms)``."""
    y, z = data.y, data.z
    design = plain_outcome_design(data, spec).values
    lin = fit_linear_weighted_many(design, y, W)
    m_obs = lin.phi @ design.T
    residual = np.sum(W * (y - m_obs) * clever_covariate(z, E), axis=1) / W.sum(axis=1)
    return residual + lin.phi[:, Z_COL], lin.ok, residual


def dr(data, spec, cfg, rng):
    """Semi-parametric doubly robust estimator: treatment-model fit on the
    b-columns, outcome model on the s-columns, residual reweighting plus
    standardization; bootstrap standard error refitting both models."""
    diag = _ps_fit(data, spec)[3]
    W, E, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, residual = _dr_rows(data, spec, W, E)
    diag["residual_term"] = float(residual[0])
    diag["model_term"] = float(values[0] - residual[0])
    return _bootstrap_result("dr", values, ok & fit_ok, redraws, diag)


def _clever_rows(data, spec, W, E):
    """Clever-covariate regression per row of ``W``: the weighted fit of the
    plain outcome design plus the row's derived regressor
    ``z/E - (1-z)/(1-E)``, standardized over the weighted sample, where the
    regressor's between-arm difference is ``1/E + 1/(1-E)``.  When the
    regressor is collinear in the full-sample row 0 it is dropped from every
    row.  Returns ``(values, ok, dropped_columns)``."""
    y, z = data.y, data.z
    base = plain_outcome_design(data, spec).values
    lin = fit_linear_weighted_many(base, y, W, extra=(clever_covariate(z, E),))
    if not lin.ok[0]:
        lin = fit_linear_weighted_many(base, y, W)
        return lin.phi[:, Z_COL], lin.ok, ("clever",)
    correction = np.sum(W * (1.0 / E + 1.0 / (1.0 - E)), axis=1) / W.sum(axis=1)
    return lin.phi[:, Z_COL] + lin.phi[:, -1] * correction, lin.ok, ()


def clever_covariate_regression(data, spec, cfg, rng):
    """Outcome regression augmented with the derived inverse-probability
    regressor, standardized over the sample; identical to the doubly robust
    estimator with this outcome model.  Bootstrap standard error."""
    diag = _ps_fit(data, spec)[3]
    W, E, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, dropped = _clever_rows(data, spec, W, E)
    if dropped:
        diag["dropped_columns"] = list(dropped)
    diag["max_abs_clever"] = float(_ipw_row_max(data.z, W[:1], E[:1], stabilize=False)[0])
    return _bootstrap_result("clever", values, ok & fit_ok, redraws, diag)


def _or_iptw_rows(data, spec, W, E, stabilize):
    """Treatment coefficient of the plain outcome fit weighted by ``W``
    times the row's inverse treatment weights, per row of ``W``.  Returns
    ``(values, ok, treatment_weights)``."""
    w = _ipw_rows(data.z, W, E, stabilize)
    lin = fit_linear_weighted_many(plain_outcome_design(data, spec).values, data.y, W * w)
    return lin.phi[:, Z_COL], lin.ok, w


def or_iptw(data, spec, cfg, rng):
    """Outcome regression fit by inverse-probability-weighted least squares,
    standardized over the empirical covariate distribution; bootstrap
    standard error refitting both models."""
    diag = _ps_fit(data, spec)[3]
    W, E, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, w = _or_iptw_rows(data, spec, W, E, cfg.stabilize)
    diag["weight_min"] = float(w[0].min())
    diag["weight_max"] = float(w[0].max())
    return _bootstrap_result("or_iptw", values, ok & fit_ok, redraws, diag)


# ---------------------------------------------------------------------------
# two-step posterior sampling


def _dirichlet_rows(gen, m, n):
    g = np.maximum(gen.standard_exponential((m, n)), 1e-300)
    return g / g.sum(axis=1, keepdims=True)


@_per_dataset
def _dirichlet_plan(data, spec, rng, n_draws):
    """Bayesian-bootstrap plan shared by the two-step and importance-sampling
    estimators: ``(xi, batch, e)``, Dirichlet weight rows drawn from ``rng``,
    the treatment model refit to each row and its unclamped fitted
    probabilities."""
    xi = _dirichlet_rows(rng.child(_SUB_WEIGHTS).generator(), n_draws, data.n)
    batch, e = _treatment_refits(data, spec, xi)
    _freeze(xi, batch.gamma, batch.converged, e)
    return xi, batch, e


def _two_step_draws(data, spec, cfg, rng):
    """Weighted-likelihood-bootstrap draws of the treatment model followed by
    a conditional normal draw of the contrast.

    The contrast is the outcome coefficient at ``Z_COL``, so its conditional
    posterior is the normal marginal with the fit's ``[Z_COL, Z_COL]``
    variance; it is drawn directly, without factoring the full covariance.
    Returns per-draw arrays (restricted to successful draws): the plug-in
    treatment contrast, its model-based variance, the drawn contrast, and
    diagnostics.
    """
    m = cfg.n_draws
    _, ps_batch, e = _dirichlet_plan(data, spec, rng, m)
    # Per-draw columns: the centered cubic basis of the draw's probabilities.
    d = e - e.mean(axis=1, keepdims=True)
    d2 = d * d
    base = plain_outcome_design(data, spec).values
    lin_batch = fit_linear_weighted_many(base, data.y, extra=(d, d2, d2 * d))
    ok = ps_batch.converged & lin_batch.ok

    contrast_hat = lin_batch.phi[:, Z_COL]
    model_var = lin_batch.cov[:, Z_COL, Z_COL]
    noise = rng.child(_SUB_NOISE).generator().standard_normal(m)
    contrast_draw = contrast_hat + np.sqrt(model_var) * noise

    n_failed = int((~ok).sum())
    _check_draw_failures(n_failed, m, "posterior draws")
    diag = {
        "draw_failures": n_failed,
        "ps_coef": tuple(float(g) for g in ps_batch.gamma[0]),
    }
    return contrast_hat[ok], model_var[ok], contrast_draw[ok], diag


def two_step_forward(data, spec, cfg, rng):
    """Two-step posterior: forward sampling.  Treatment-model uncertainty by
    weighted likelihood bootstrap, outcome-model uncertainty by a normal
    draw of the contrast around the conditional fit; point and standard
    error are the mean and standard deviation of the sampled contrasts."""
    _, _, contrast_draw, diag = _two_step_draws(data, spec, cfg, rng)
    return _result_from_draws("two_step_forward", contrast_draw, diagnostics=diag)


def two_step_vardecomp(data, spec, cfg, rng):
    """Two-step posterior with the variance decomposition formula: the mean
    model-based variance plus the variance of the plug-in contrast across
    treatment-model draws."""
    contrast_hat, model_var, _, diag = _two_step_draws(data, spec, cfg, rng)
    return _vardecomp_result(contrast_hat, model_var, diag)


def _vardecomp_result(contrast_hat, model_var, diag):
    point = float(contrast_hat.mean())
    variance = float(model_var.mean() + contrast_hat.var(ddof=1))
    diag = dict(diag)
    diag["mean_model_variance"] = float(model_var.mean())
    diag["between_draw_variance"] = float(contrast_hat.var(ddof=1))
    return _result("two_step_vardecomp", point, math.sqrt(variance), diagnostics=diag)


def two_step_pair(data, spec, cfg, rng):
    """Both two-step variants from one set of draws.

    The two variants are defined on the same treatment-model draws; this
    helper computes the draws once and returns
    ``(forward_result, vardecomp_result)``, identical to calling the two
    estimators separately with the same stream.
    """
    contrast_hat, model_var, contrast_draw, diag = _two_step_draws(data, spec, cfg, rng)
    forward = _result_from_draws("two_step_forward", contrast_draw, diagnostics=diag)
    return forward, _vardecomp_result(contrast_hat, model_var, diag)


# ---------------------------------------------------------------------------
# joint estimation


def _joint_loglik(y, z, base, bvals, gamma, phi=None, hessian=False):
    """Profiled joint log-likelihood of the outcome and treatment models,
    with its analytic derivatives.

    The outcome design is ``base`` plus the centered cubic basis of
    ``e = expit(bvals @ gamma)``, and the Gaussian variance is profiled out.
    With ``phi=None`` the outcome coefficients are solved by least squares,
    which gives the concentrated log-likelihood in ``gamma``; by the envelope
    theorem its gradient is the ``gamma`` block of the full gradient.

    Returns ``(value, grad, phi, hess)``: the gradient over
    ``theta = (phi, gamma)`` and, when ``hessian`` is set, the Hessian over
    ``theta`` (otherwise ``None``).
    """
    n, p_base = base.shape
    p_phi = p_base + 3
    e = expit(bvals @ gamma)
    d = e - e.mean()
    design = np.column_stack([base, cubic_ps_basis(e)])
    if phi is None:
        phi = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ phi
    s2 = max(float(resid @ resid) / n, 1e-300)
    value = -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0) + float(
        z @ np.log(e) + (1.0 - z) @ np.log1p(-e)
    )
    # Row i of design @ phi moves with gamma by g_i dd_i, where dd = v B -
    # mean(v B) is the derivative of d; so sum_i r_i g_i dd_i is
    # B' (v (rg - mean(rg))).
    g = phi[p_base] + d * (2.0 * phi[p_base + 1] + 3.0 * phi[p_base + 2] * d)
    v = e * (1.0 - e)
    rg = resid * g
    score = np.concatenate([design.T @ resid, bvals.T @ (v * (rg - rg.mean()))])
    grad = score / s2
    grad[p_phi:] += bvals.T @ (z - e)
    if not hessian:
        return value, grad, phi, None

    # The Gaussian term -n/2 log(RSS) has Hessian
    # 2 score score' / (n s2^2) - sum_i (dr_i dr_i' + r_i d2r_i) / s2
    # for the residuals r = y - design @ phi.
    basis_jac = cubic_ps_basis_jacobian(bvals, e)
    dd = basis_jac[:, 0]
    jr = np.column_stack([design, dd * g[:, None]])
    curv = jr.T @ jr
    cross = -np.einsum("i,ikj->kj", resid, basis_jac)
    curv[p_base:p_phi, p_phi:] += cross
    curv[p_phi:, p_base:p_phi] += cross.T
    dg = 2.0 * phi[p_base + 1] + 6.0 * phi[p_base + 2] * d
    curv[p_phi:, p_phi:] -= (dd * (resid * dg)[:, None]).T @ dd
    hess = 2.0 * np.outer(score, score) / (n * s2 * s2) - curv / s2
    # The curvature of dd itself, d(v B)/d gamma with dv/d eta = v (1 - 2e),
    # and the Bernoulli information B' diag(v) B.
    w = (rg - rg.mean()) * v * (1.0 - 2.0 * e) / s2 - v
    hess[p_phi:, p_phi:] += (bvals * w[:, None]).T @ bvals
    return value, grad, phi, hess


JOINT_GTOL = 1e-6


def joint_estimation(data, spec, cfg, rng):
    """Single joint fit of the outcome and treatment models (the fitted
    treatment probabilities feed the outcome design, and both likelihood
    terms are maximized together), followed by normal posterior draws around
    the joint optimum.

    The outcome block is closed-form least squares given the treatment
    coefficients, so it is concentrated out; the Gaussian variance is
    profiled throughout.  One BFGS search from the treatment-only fit
    (``gtol=1e-3``) is polished by one Newton step on the exact concentrated
    Hessian, the Schur complement of the outcome block.  Unless the largest
    absolute concentrated gradient is then at most ``JOINT_GTOL``, the fit
    raises :class:`EstimatorError`, as it does when the search meets a
    singular outcome block.  The contrast is drawn from its normal marginal,
    whose variance is the ``[Z_COL, Z_COL]`` entry of the inverse of the
    analytic Hessian of the profiled joint log-likelihood at that point,
    taken from the Cholesky factor that checks positive definiteness.
    """
    y, z = data.y, data.z
    ps_design, ps_fit, _, _ = _ps_model(data, spec)
    bvals = ps_design.values
    base = plain_outcome_design(data, spec).values
    p_phi = base.shape[1] + 3

    def neg_concentrated(gamma):
        value, grad, _, _ = _joint_loglik(y, z, base, bvals, gamma)
        return -value, -grad[p_phi:]

    options = {"gtol": 1e-3, "maxiter": 200}
    # The gradient stays NaN when a block is singular, in the search or the
    # polish, or the step is not finite, so every failure meets the one
    # check below.
    gmax, stage = math.nan, "the BFGS search"
    try:
        res = minimize(neg_concentrated, ps_fit.gamma, jac=True, method="BFGS", options=options)
        stage = f"{res.nfev} BFGS evaluations and one Newton step"
        _, grad, _, hessian = _joint_loglik(y, z, base, bvals, res.x, hessian=True)
        cross = hessian[:p_phi, p_phi:]
        concentrated = hessian[p_phi:, p_phi:] - cross.T @ np.linalg.solve(
            hessian[:p_phi, :p_phi], cross
        )
        gamma = res.x - np.linalg.solve(concentrated, grad[p_phi:])
        if np.all(np.isfinite(gamma)):
            loglik, grad, phi, hessian = _joint_loglik(y, z, base, bvals, gamma, hessian=True)
            gmax = float(np.max(np.abs(grad[p_phi:])))
    except np.linalg.LinAlgError:
        pass
    if not gmax <= JOINT_GTOL:
        raise EstimatorError(
            f"joint fit did not converge: max |concentrated gradient| {gmax:.3g} "
            f"(limit {JOINT_GTOL:g}; nan: singular block or non-finite Newton step) "
            f"after {stage}"
        )

    info = -hessian
    jitter_used = 0.0
    for jitter in (0.0, 1e-10, 1e-8, 1e-6):
        try:
            low = np.linalg.cholesky(info + jitter * np.eye(info.shape[0]))
            jitter_used = jitter
            break
        except np.linalg.LinAlgError:
            continue
    else:
        raise EstimatorError("joint information matrix is not positive definite")
    # The contrast's variance is [info^-1]_ZZ = |low^-1 e_Z|^2.
    sd = float(np.linalg.norm(np.linalg.solve(low, np.eye(info.shape[0])[:, Z_COL])))
    noise = rng.child(_SUB_NOISE).generator().standard_normal(cfg.n_draws)
    contrast_draws = phi[Z_COL] + sd * noise
    diag = {
        "optimizer_evaluations": int(res.nfev),
        "loglik": loglik,
        "hessian_jitter": jitter_used,
        "ps_coef": tuple(float(g) for g in gamma),
    }
    return _result_from_draws("joint", contrast_draws, diagnostics=diag)


# ---------------------------------------------------------------------------
# importance sampling (Bayesian bootstrap with treatment weights)


def _draw_diagnostics(ok, w_max, batch):
    """Failure count (checked against the 10% limit), largest importance
    weight among successful draws (``w_max`` holds each draw's largest), and
    the first draw's treatment fit."""
    n_failed = int((~ok).sum())
    _check_draw_failures(n_failed, ok.shape[0], "posterior draws")
    return {
        "draw_failures": n_failed,
        "weight_max": float(np.max(w_max[ok])),
        "ps_coef": tuple(float(g) for g in batch.gamma[0]),
    }


def importance_sampling(data, spec, cfg, rng):
    """Bayesian-bootstrap estimator of the contrast: per Dirichlet-weight
    draw, reweight the outcome likelihood by the treatment weights, refit
    both models, and standardize over the weighted empirical covariate
    distribution (the ``or_iptw`` kernel on Dirichlet rows).  Point and
    standard error are the mean and standard deviation over draws."""
    xi, batch, e = _dirichlet_plan(data, spec, rng, cfg.n_draws)
    values, fit_ok, w = _or_iptw_rows(data, spec, xi, _clamp_ps(e), cfg.stabilize)
    ok = batch.converged & fit_ok
    diag = _draw_diagnostics(ok, w.max(axis=1), batch)
    return _result_from_draws("is", values[ok], diagnostics=diag)


def importance_sampling_dr(data, spec, cfg, rng):
    """Doubly robust Bayesian-bootstrap estimator: per draw, the weighted
    residual term plus the weighted standardization term, with both model
    plug-ins refit under the draw's Dirichlet weights (the ``dr`` kernel on
    Dirichlet rows)."""
    xi, batch, e = _dirichlet_plan(data, spec, rng, cfg.n_draws)
    E = _clamp_ps(e)
    values, fit_ok, residual = _dr_rows(data, spec, xi, E)
    ok = batch.converged & fit_ok
    diag = _draw_diagnostics(ok, _ipw_row_max(data.z, xi, E, cfg.stabilize), batch)
    diag["mean_abs_residual_term"] = float(np.mean(np.abs(residual[ok])))
    return _result_from_draws("is_dr", values[ok], diagnostics=diag)


# ---------------------------------------------------------------------------
# registry


ESTIMATOR_ORDER = [
    "naive",
    "adjusted",
    "iptw",
    "or_ps_info",
    "or_ps_sandwich",
    "dr",
    "clever",
    "or_iptw",
    "two_step_forward",
    "two_step_vardecomp",
    "joint",
    "is",
    "is_dr",
]

ESTIMATORS = {
    "naive": naive,
    "adjusted": g_formula_adjusted,
    "iptw": iptw,
    "or_ps_info": or_ps_info,
    "or_ps_sandwich": or_ps_sandwich,
    "dr": dr,
    "clever": clever_covariate_regression,
    "or_iptw": or_iptw,
    "two_step_forward": two_step_forward,
    "two_step_vardecomp": two_step_vardecomp,
    "joint": joint_estimation,
    "is": importance_sampling,
    "is_dr": importance_sampling_dr,
}

ESTIMATOR_LABELS = {
    "naive": "Naive",
    "adjusted": "Adjusted",
    "iptw": "IPTW",
    "or_ps_info": "OR/PS (obs. information)",
    "or_ps_sandwich": "OR/PS (adj. sandwich)",
    "dr": "DR",
    "clever": "Clever covariate",
    "or_iptw": "OR/IPTW",
    "two_step_forward": "Two-step (forward sampling)",
    "two_step_vardecomp": "Two-step (variance decomposition)",
    "joint": "Joint estimation",
    "is": "Importance sampling",
    "is_dr": "Importance sampling/DR",
}

# Sub-stream keys per estimator.  Resampling estimators share a key and with
# it one plan per data set: the bootstrap ones a count matrix (key 3), the
# two-step and importance-sampling ones a Dirichlet matrix (key 9).  They are
# correlated within a replication; each one's distribution is unchanged.
STREAM_KEYS = {
    "naive": 1,
    "adjusted": 2,
    "iptw": 3,
    "or_ps_info": 4,
    "or_ps_sandwich": 5,
    "dr": 3,
    "clever": 3,
    "or_iptw": 3,
    "two_step_forward": 9,
    "two_step_vardecomp": 9,
    "joint": 10,
    "is": 9,
    "is_dr": 9,
}

