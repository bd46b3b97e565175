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
  fit per row) and its clamped fitted treatment probabilities ``E`` or
  their clever covariate ``H = z/E - (1-z)/(1-E)``, whose absolute value is
  the inverse treatment weight, returning a value and a success flag per
  row.  The bootstrap plan stacks a uniform row 0, which carries the
  full-sample treatment fit and gives the point estimate, above multinomial
  count rows, whose spread gives the standard error; the Bayesian-bootstrap
  plan holds flat-Dirichlet rows, one posterior draw each;
* nonparametric-bootstrap refits are computed as count-weighted fits on the
  original rows, which is likelihood-identical to refitting on the
  physically resampled data;
* intervals are Wald, ``point +/- 1.96 * se``, with the posterior standard
  deviation playing the role of the standard error for the
  resampling-based methods;
* the GLM fits report their verdicts and the estimators decide; every
  refusal raises :class:`EstimatorError`.  A finite full-sample treatment
  fit is used even when unconverged or separated, and flagged in the
  diagnostics; one that IRLS abandoned is refused by :func:`_ps_model`, and
  a singular full-sample outcome design is refused too.  Refusals name the
  collinear columns of the design at fault.  More than 10% failed
  resampling draws raise :class:`DrawFailureError`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .glm import (
    clever_covariate,
    cubic_ps_basis,
    fit_linear_weighted,
    fit_linear_weighted_many,
    fit_logistic_weighted,
    fit_logistic_weighted_many,
    ps_adjusted_treatment_variance,
    rank_deficient_columns,
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

    @functools.wraps(build)
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
        for j, (idx, transform) in enumerate(cols):
            if idx >= data.x.shape[1]:
                raise ValueError(
                    f"column index {idx} out of range for {data.x.shape[1]} covariates"
                )
            col = data.x[:, idx]
            values[:, j] = np.abs(col) * ABS_STD_SCALE if transform == ABS_STANDARDIZED else col
        return values

    def s_matrix(self, data: Dataset):
        return self._matrix(data, self.s_columns)

    def b_matrix(self, data: Dataset):
        return self._matrix(data, self.b_columns)

    def labels(self, data: Dataset, treatment=False):
        """Names of the s-columns, or with ``treatment`` the b-columns;
        ``abs(name)`` for a transformed column."""
        cols = self.b_columns if treatment else self.s_columns
        names = data.column_names
        return [f"abs({names[i]})" if t == ABS_STANDARDIZED else names[i] for i, t in cols]


@dataclass(frozen=True)
class ResamplingConfig:
    """Monte Carlo settings: posterior draws, bootstrap resamples, weight
    stabilization (marginal treatment probability in the numerator)."""

    n_draws: int = 200
    n_boot: int = 200
    stabilize: bool = True

    def __post_init__(self):
        if self.n_draws < 2 or self.n_boot < 2:
            raise ValueError(
                f"n_draws and n_boot must both be at least 2, got n_draws={self.n_draws}, "
                f"n_boot={self.n_boot}"
            )


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
    point, se = float(point), float(se)
    ci = (point - CI_MULT * se, point + CI_MULT * se)
    return EstimateResult(method, point, se, ci, draws, diagnostics or {})


def _result_from_draws(method, draws, diagnostics=None):
    draws = np.asarray(draws, dtype=float)
    return _result(method, draws.mean(), draws.std(ddof=1), draws, diagnostics)


# ---------------------------------------------------------------------------
# design construction


@_per_dataset
def treatment_design(data: Dataset, spec: CovariateSpec) -> np.ndarray:
    """Propensity design ``(1, b-columns)``, built once per data set and
    read-only."""
    design = np.column_stack([np.ones(data.n), spec.b_matrix(data)])
    _freeze(design)
    return design


@_per_dataset
def plain_outcome_design(data: Dataset, spec: CovariateSpec) -> np.ndarray:
    """Outcome design ``(1, z, s-columns)``, built once per data set and
    read-only."""
    design = np.column_stack([np.ones(data.n), data.z, spec.s_matrix(data)])
    _freeze(design)
    return design


def ps_outcome_design(data: Dataset, spec: CovariateSpec, e) -> np.ndarray:
    """Outcome design augmented with the centered cubic basis of the fitted
    treatment probabilities."""
    return np.column_stack([plain_outcome_design(data, spec), cubic_ps_basis(e)])


def _clamp_ps(e):
    return np.clip(e, WEIGHT_CLIP, 1.0 - WEIGHT_CLIP)


def _refusal(what, data, spec, treatment=False, unexplained="", error=EstimatorError):
    """``error`` (an :class:`EstimatorError` class) for a fit that cannot be
    used, naming the columns of the plain outcome design, or with
    ``treatment`` of the treatment design, that the fits' rank rule drops
    (:func:`~drbayes.glm.rank_deficient_columns`), or else adding
    ``unexplained``.  With ``spec`` None (no model) no columns are named."""
    if spec is None:
        return error(what)
    if treatment:
        design, labels = treatment_design(data, spec), ["intercept"]
    else:
        design, labels = plain_outcome_design(data, spec), ["intercept", "z"]
    labels += spec.labels(data, treatment)
    suspects = [labels[j] for j in rank_deficient_columns(design)]
    return error(f"{what}; collinear columns: {suspects}" if suspects else what + unexplained)


@_per_dataset
def _plain_outcome_fit(data: Dataset, spec: CovariateSpec):
    """The least-squares fit of the plain outcome design, fit once per data
    set and refused when singular.  ``adjusted``, ``joint`` and the
    ``or_ps_*`` fallback read it."""
    fit = fit_linear_weighted(plain_outcome_design(data, spec), data.y)
    if not fit.ok:
        raise _refusal("outcome design is singular", data, spec)
    _freeze(fit.phi, fit.cov)
    return fit


@_per_dataset
def _ps_model(data: Dataset, spec: CovariateSpec):
    """``(design, fit, e, diag)`` of the treatment model, fit once per data
    set; callers copy ``diag`` to extend it.  This decides, for every
    estimator that reads the full-sample treatment fit, whether the fit is
    used: a finite fit is, with its convergence and separation verdicts
    flagged in ``diag``; a fit IRLS abandoned (NaN coefficients) is refused."""
    design = treatment_design(data, spec)
    fit = fit_logistic_weighted(design, data.z)
    if not np.all(np.isfinite(fit.gamma)):
        what = "treatment-model fit abandoned by IRLS"
        raise _refusal(what, data, spec, treatment=True, unexplained=" (diverged: separated arms?)")
    e = expit(design @ fit.gamma)
    _freeze(fit.gamma, e)
    diag = {
        "ps_converged": bool(fit.converged),
        "ps_iterations": int(fit.iterations),
        "ps_separation": bool(fit.separation),
        "ps_coef": tuple(float(g) for g in fit.gamma),
    }
    return design, fit, e, diag


def _ipw_rows(z, W, H, stabilize):
    """Inverse treatment weights for each row of ``W``: ``|H|``, the clever
    covariate's ``1/E`` on the treated and ``1/(1-E)`` on the controls.
    When stabilizing, they are multiplied by the row's weighted treated
    fraction and its complement."""
    w = np.abs(H)
    if stabilize:
        pbar = ((W @ z) / W.sum(axis=1))[:, None]
        w *= np.where(z == 1.0, pbar, 1.0 - pbar)
    return w


def _ipw_row_max(z, W, H, stabilize):
    """Row maxima of :func:`_ipw_rows` without its (m, n) matrix: ``H`` is
    positive on the treated and negative on the controls, so its row
    maximum is the largest treated weight and minus its row minimum the
    largest control weight; a positive factor keeps that order."""
    if not stabilize:
        return np.maximum(H.max(axis=1), -H.min(axis=1))
    pbar = (W @ z) / W.sum(axis=1)
    return np.maximum(pbar * H.max(axis=1), (1.0 - pbar) * -H.min(axis=1))


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


def _check_draw_failures(n_failed, total, what, data=None, spec=None):
    """Refuse with :class:`DrawFailureError` when more than 10% of ``total``
    draws failed (:func:`_refusal`)."""
    if n_failed > 0.1 * total:
        message = f"{n_failed} of {total} {what} failed (more than 10%)"
        raise _refusal(message, data, spec, error=DrawFailureError)


@_per_dataset
def _count_plan(data, spec, rng, n_boot):
    """Bootstrap plan shared by ``iptw``, ``dr``, ``clever`` and ``or_iptw``:
    ``(W, E, H, ok, redraws)``.  Row 0 of ``W`` is uniform and carries the
    full-sample treatment fit; rows 1.. are a count matrix drawn from
    ``rng``, each with its own treatment refit.  ``E`` holds the clamped
    fitted probabilities, ``H`` their clever covariate
    ``z/E - (1-z)/(1-E)`` (read by ``dr`` and ``clever``), and ``ok``
    whether each row's treatment fit converged (row 0 always: a finite
    full-sample fit is kept, flagged)."""
    design, fit, e, _ = _ps_model(data, spec)
    counts, redraws = _bootstrap_counts(data.z, n_boot, rng.child(_SUB_WEIGHTS).generator())
    batch = fit_logistic_weighted_many(design, data.z, counts, start=fit.gamma)
    W = np.vstack([np.ones(data.n), counts])
    E = np.vstack([e, batch.prob])
    np.clip(E, WEIGHT_CLIP, 1.0 - WEIGHT_CLIP, out=E)
    H = clever_covariate(data.z, E)
    ok = np.concatenate([[True], batch.converged])
    _freeze(W, E, H, ok)
    return W, E, H, ok, redraws


def _bootstrap_result(method, values, ok, redraws, diag, data, spec):
    """Result with the uniform row 0 as the point and the spread of the
    successful count rows as SE.  A failed row 0 is a singular full-sample
    outcome fit, or with ``spec`` None (no outcome model) a non-finite
    estimate; the refusal is a :func:`_refusal`."""
    if not ok[0]:
        cause = "estimate is not finite" if spec is None else "outcome fit is singular"
        raise _refusal(f"{method}: the full-sample {cause}", data, spec)
    boot_ok = ok[1:]
    n_failed = int((~boot_ok).sum())
    _check_draw_failures(n_failed, boot_ok.shape[0], "bootstrap refits", data, spec)
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
    fit = _plain_outcome_fit(data, spec)
    return _result("adjusted", fit.phi[Z_COL], math.sqrt(fit.cov[Z_COL, Z_COL]))


def _iptw_rows(data, W, H):
    """Weighted mean of ``y H = y z / E - y (1 - z) / (1 - E)`` per row of
    ``W``; returns ``(values, ok)``."""
    values = (W * H) @ data.y / W.sum(axis=1)
    return values, np.isfinite(values)


def iptw(data, spec, cfg, rng):
    """Inverse probability of treatment weighting with unstabilized weights;
    bootstrap standard error refitting the treatment model per resample."""
    diag = dict(_ps_model(data, spec)[3])
    W, _, H, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    w = _ipw_rows(data.z, W[:1], H[:1], stabilize=False)
    diag["weight_min"] = float(w.min())
    diag["weight_max"] = float(w.max())
    values, fit_ok = _iptw_rows(data, W, H)
    return _bootstrap_result("iptw", values, ok & fit_ok, redraws, diag, data, None)


# ---------------------------------------------------------------------------
# outcome regression with propensity adjustment


@_per_dataset
def _or_ps_parts(data, spec):
    """``(design, fit, dropped, diag)``: the propensity-adjusted outcome fit
    shared by ``or_ps_info`` and ``or_ps_sandwich``, fit once per data set,
    with the names of the columns it dropped; callers copy ``diag``."""
    _, _, e, diag = _ps_model(data, spec)
    diag = dict(diag)
    design, dropped = ps_outcome_design(data, spec, e), ()
    fit = fit_linear_weighted(design, data.y)
    if not fit.ok:
        # A rank deficiency can be attributed to any member of a collinear
        # group, so the whole derived basis is dropped; the base columns are
        # part of the estimator's contract.
        design, fit = plain_outcome_design(data, spec), _plain_outcome_fit(data, spec)
        dropped = ("ps^1", "ps^2", "ps^3")
        diag["dropped_columns"] = list(dropped)
    _freeze(design, fit.phi, fit.cov)
    return design, fit, dropped, diag


def or_ps_info(data, spec, cfg=None, rng=None):
    """Propensity-adjusted outcome regression with the model-based
    (observed information) standard error."""
    _, fit, _, diag = _or_ps_parts(data, spec)
    se = math.sqrt(fit.cov[Z_COL, Z_COL])
    return _result("or_ps_info", fit.phi[Z_COL], se, diagnostics=dict(diag))


def or_ps_sandwich(data, spec, cfg=None, rng=None):
    """Propensity-adjusted outcome regression with the sandwich standard
    error that propagates first-stage estimation of the propensity model."""
    design, fit, dropped, diag = _or_ps_parts(data, spec)
    ps_design, _, e, _ = _ps_model(data, spec)
    # Only the cubic basis columns, which come last, depend on gamma.
    k = 3 - len(dropped)
    variance = ps_adjusted_treatment_variance(fit, data.y, data.z, ps_design, e, design, k)
    return _result(
        "or_ps_sandwich", fit.phi[Z_COL], math.sqrt(max(variance, 0.0)), diagnostics=dict(diag)
    )


# ---------------------------------------------------------------------------
# doubly robust estimators


def _dr_rows(data, spec, W, H):
    """Doubly robust contrast per row of ``W``: the weighted
    inverse-probability residual term, with ``H`` the rows' clever
    covariates, plus the treatment coefficient of the ``W``-weighted plain
    outcome fit (its standardization term).  Returns
    ``(values, ok, residual_terms)``."""
    y = data.y
    design = plain_outcome_design(data, spec)
    lin = fit_linear_weighted_many(design, y, W)
    # W (y - m_obs) H, in place over the fitted values.
    terms = lin.phi @ design.T
    np.subtract(y, terms, out=terms)
    terms *= W
    terms *= H
    residual = terms.sum(axis=1) / W.sum(axis=1)
    return residual + lin.phi[:, Z_COL], lin.ok, residual


def dr(data, spec, cfg, rng):
    """Semi-parametric doubly robust estimator: treatment-model fit on the
    b-columns, outcome model on the s-columns, residual reweighting plus
    standardization; bootstrap standard error refitting both models."""
    diag = dict(_ps_model(data, spec)[3])
    W, _, H, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, residual = _dr_rows(data, spec, W, H)
    diag["residual_term"] = float(residual[0])
    diag["model_term"] = float(values[0] - residual[0])
    return _bootstrap_result("dr", values, ok & fit_ok, redraws, diag, data, spec)


def _clever_rows(data, spec, W, E, H):
    """Clever-covariate regression per row of ``W``: the weighted fit of the
    plain outcome design plus the row's derived regressor
    ``H = z/E - (1-z)/(1-E)``, standardized over the weighted sample, where the
    regressor's between-arm difference is ``1/E + 1/(1-E) = 1/(E (1-E))``.
    When the regressor is collinear in the full-sample row 0 it is dropped
    from every row.  Returns ``(values, ok, dropped_columns)``."""
    y = data.y
    base = plain_outcome_design(data, spec)
    lin = fit_linear_weighted_many(base, y, W, extra=(H,))
    if not lin.ok[0]:
        lin = fit_linear_weighted_many(base, y, W)
        return lin.phi[:, Z_COL], lin.ok, ("clever",)
    correction = np.sum(W / (E * (1.0 - E)), axis=1) / W.sum(axis=1)
    return lin.phi[:, Z_COL] + lin.phi[:, -1] * correction, lin.ok, ()


def clever_covariate_regression(data, spec, cfg, rng):
    """Outcome regression augmented with the derived inverse-probability
    regressor, standardized over the sample; identical to the doubly robust
    estimator with this outcome model.  Bootstrap standard error."""
    diag = dict(_ps_model(data, spec)[3])
    W, E, H, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, dropped = _clever_rows(data, spec, W, E, H)
    if dropped:
        diag["dropped_columns"] = list(dropped)
    diag["max_abs_clever"] = float(_ipw_row_max(data.z, W[:1], H[:1], stabilize=False)[0])
    return _bootstrap_result("clever", values, ok & fit_ok, redraws, diag, data, spec)


def _or_iptw_rows(data, spec, W, H, stabilize):
    """Treatment coefficient of the plain outcome fit weighted by ``W``
    times the row's inverse treatment weights (from the clever covariates
    ``H``), per row of ``W``.  Returns ``(values, ok, treatment_weights)``."""
    w = _ipw_rows(data.z, W, H, stabilize)
    lin = fit_linear_weighted_many(plain_outcome_design(data, spec), data.y, W * w)
    return lin.phi[:, Z_COL], lin.ok, w


def or_iptw(data, spec, cfg, rng):
    """Outcome regression fit by inverse-probability-weighted least squares,
    standardized over the empirical covariate distribution; bootstrap
    standard error refitting both models."""
    diag = dict(_ps_model(data, spec)[3])
    W, _, H, ok, redraws = _count_plan(data, spec, rng, cfg.n_boot)
    values, fit_ok, w = _or_iptw_rows(data, spec, W, H, cfg.stabilize)
    diag["weight_min"] = float(w[0].min())
    diag["weight_max"] = float(w[0].max())
    return _bootstrap_result("or_iptw", values, ok & fit_ok, redraws, diag, data, spec)


# ---------------------------------------------------------------------------
# two-step posterior sampling


def _dirichlet_rows(gen, m, n):
    g = gen.standard_exponential((m, n))
    np.maximum(g, 1e-300, out=g)
    g /= g.sum(axis=1, keepdims=True)
    return g


@_per_dataset
def _dirichlet_plan(data, spec, rng, n_draws):
    """Bayesian-bootstrap plan shared by the two-step and importance-sampling
    estimators: ``(xi, batch, e, H)``, Dirichlet weight rows drawn from
    ``rng``, the treatment model refit to each row, its unclamped fitted
    probabilities (read by the two-step basis) and the clever covariate
    ``z/E - (1-z)/(1-E)`` of the clamped ones ``E`` (read by ``is`` and
    ``is_dr``)."""
    design, fit, _, _ = _ps_model(data, spec)
    xi = _dirichlet_rows(rng.child(_SUB_WEIGHTS).generator(), n_draws, data.n)
    batch = fit_logistic_weighted_many(design, data.z, xi, start=fit.gamma)
    e = batch.prob
    H = clever_covariate(data.z, _clamp_ps(e))
    _freeze(xi, batch.gamma, batch.converged, e, H)
    return xi, batch, e, H


def _two_step_draws(data, spec, cfg, rng):
    """Weighted-likelihood-bootstrap draws of the treatment model followed by
    a draw of the contrast from its conditional normal marginal (the fit's
    ``[Z_COL, Z_COL]`` variance).  Returns per-draw arrays (restricted to
    successful draws): the plug-in treatment contrast, its model-based
    variance, the drawn contrast, and diagnostics."""
    m = cfg.n_draws
    _, ps_batch, e, _ = _dirichlet_plan(data, spec, rng, m)
    # Per-draw columns: the centered cubic basis of the draw's probabilities.
    d = e - e.mean(axis=1, keepdims=True)
    d2 = d * d
    base = plain_outcome_design(data, spec)
    lin_batch = fit_linear_weighted_many(base, data.y, extra=(d, d2, d2 * d))
    ok = ps_batch.converged & lin_batch.ok

    contrast_hat = lin_batch.phi[:, Z_COL]
    model_var = lin_batch.variance(Z_COL)
    noise = rng.child(_SUB_NOISE).generator().standard_normal(m)
    contrast_draw = contrast_hat + np.sqrt(model_var) * noise

    n_failed = int((~ok).sum())
    _check_draw_failures(n_failed, m, "posterior draws", data, spec)
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
    """Both two-step variants from one set of draws:
    ``(forward_result, vardecomp_result)``, identical to calling the two
    estimators separately with the same stream."""
    contrast_hat, model_var, contrast_draw, diag = _two_step_draws(data, spec, cfg, rng)
    forward = _result_from_draws("two_step_forward", contrast_draw, diagnostics=diag)
    return forward, _vardecomp_result(contrast_hat, model_var, diag)


# ---------------------------------------------------------------------------
# joint estimation


def _joint_objective(y, z, base, bvals):
    """Profiled joint log-likelihood of the outcome and treatment models, as
    a function ``loglik(gamma, hessian=False)`` with analytic derivatives.

    The outcome design is ``base`` plus the centered cubic basis ``C`` of
    ``e = expit(bvals @ gamma)``, and the Gaussian variance is profiled out.
    The outcome coefficients are solved by least squares, which gives the
    concentrated log-likelihood in ``gamma``; by the envelope theorem its
    gradient is the ``gamma`` block of the full gradient.  The ``phi`` block
    is zero by the normal equations, and it is returned as zeros unless the
    Hessian is asked for.  Only ``C`` moves with ``gamma`` (the
    variable-projection structure of Golub & Pereyra, 1973), so the moments
    of ``base`` are formed once, here.

    ``loglik`` returns ``(value, grad, phi, hess)``: the gradient over
    ``theta = (phi, gamma)`` and, when ``hessian`` is set, the Hessian over
    ``theta`` (otherwise ``None``).
    """
    n, p_base = base.shape
    p_phi = p_base + 3
    q = bvals.shape[1]
    # Rows: y, the base columns, the cubic columns and, for the Hessian, the
    # q columns of d(design @ phi) / d gamma.  One buffer per fit, rewritten
    # by each evaluation.
    rows = np.empty((1 + p_phi + q, n))
    rows[0] = y
    rows[1 : 1 + p_base] = base.T
    cubic = rows[1 + p_base : 1 + p_phi]
    bt = np.ascontiguousarray(bvals.T)
    gram = np.empty((p_phi, p_phi))
    gram[:p_base, :p_base] = base.T @ base
    rhs = np.empty(p_phi)
    rhs[:p_base] = y @ base
    coef = np.empty(1 + p_phi)
    coef[0] = 1.0
    untreated = 1.0 - z

    def loglik(gamma, hessian=False):
        e = expit(gamma @ bt)
        d = e - e.mean()
        cubic[0] = d
        np.multiply(d, d, out=cubic[1])
        np.multiply(cubic[1], d, out=cubic[2])
        moments = cubic @ rows[: 1 + p_phi].T  # C'y | C'base | C'C
        rhs[p_base:] = moments[:, 0]
        gram[p_base:] = moments[:, 1:]
        gram[:p_base, p_base:] = moments[:, 1 : 1 + p_base].T
        phi = np.linalg.solve(gram, rhs)
        np.negative(phi, out=coef[1:])
        resid = coef @ rows[: 1 + p_phi]  # y - design @ phi
        s2 = max(float(resid @ resid) / n, 1e-300)
        value = -0.5 * n * (math.log(2.0 * math.pi * s2) + 1.0) + float(
            z @ np.log(e) + untreated @ np.log1p(-e)
        )
        # Row i of design @ phi moves with gamma by g_i dd_i, where dd = v B -
        # mean(v B) is the derivative of d; so sum_i r_i g_i dd_i is
        # B' (v (rg - mean(rg))).
        g = phi[p_base] + d * (2.0 * phi[p_base + 1] + 3.0 * phi[p_base + 2] * d)
        v = e * (1.0 - e)
        rg = resid * g
        u = v * (rg - rg.mean())
        grad = np.zeros(p_phi + q)
        grad[p_phi:] = bt @ (u / s2 + (z - e))
        if not hessian:
            return value, grad, phi, None
        score = np.concatenate([rows[1 : 1 + p_phi] @ resid, bt @ u])
        grad[:p_phi] = score[:p_phi] / s2

        # The Gaussian term -n/2 log(RSS) has Hessian
        # 2 score score' / (n s2^2) - sum_i (dr_i dr_i' + r_i d2r_i) / s2
        # for the residuals r = y - design @ phi.  Column j of the basis
        # Jacobian is powers_j dd with powers = (1, 2d, 3d^2).
        dd = bt * v
        dd -= dd.mean(axis=1, keepdims=True)
        np.multiply(dd, g, out=rows[1 + p_phi :])
        jr = rows[1:]
        curv = jr @ jr.T
        weighted = np.empty((3, n))
        weighted[0] = resid
        np.multiply(cubic[0], 2.0 * resid, out=weighted[1])
        np.multiply(cubic[1], 3.0 * resid, out=weighted[2])
        cross = -(weighted @ dd.T)
        curv[p_base:p_phi, p_phi:] += cross
        curv[p_phi:, p_base:p_phi] += cross.T
        dg = 2.0 * phi[p_base + 1] + 6.0 * phi[p_base + 2] * d
        curv[p_phi:, p_phi:] -= (dd * (resid * dg)) @ dd.T
        hess = 2.0 * np.outer(score, score) / (n * s2 * s2) - curv / s2
        # The curvature of dd itself, d(v B)/d gamma with dv/d eta = v (1 - 2e),
        # and the Bernoulli information B' diag(v) B.
        w = u * (1.0 - 2.0 * e) / s2 - v
        hess[p_phi:, p_phi:] += (bt * w) @ bt.T
        return value, grad, phi, hess

    return loglik


@dataclass(frozen=True)
class SearchResult:
    """End of a :func:`minimize` search: the point ``x``, the number of
    objective evaluations ``nfev`` and of accepted steps ``nit``."""

    x: np.ndarray
    nfev: int
    nit: int


ARMIJO_C1 = 1e-4
LINE_SEARCH_TRIALS = 20


def minimize(fun, x0, gtol=1e-3, maxiter=200):
    """Minimize ``fun`` from ``x0`` by BFGS on the inverse Hessian ``H``;
    ``fun(x)`` returns ``(value, gradient)``.

    ``H`` starts as the identity and is rescaled to ``(y's / y'y) I`` just
    before the first update (Nocedal & Wright, *Numerical Optimization*,
    2006, Alg. 6.1 and eq. 6.20; Shanno & Phua, 1978), so later steps have
    the objective's scale.  Each line search starts from scipy's first
    trial step ``min(1, 2.02 (f - f_prev) / g'p)`` and backtracks until the
    Armijo condition holds, to the minimizer of the quadratic through the
    last trial clamped to ``[0.1 a, 0.5 a]`` (a NaN value halves the step).
    An update with ``y's <= 0`` is skipped, and a direction that is not a
    descent direction is replaced by steepest descent.  The search stops
    when ``max |g| <= gtol``, after ``maxiter`` steps, or when
    ``LINE_SEARCH_TRIALS`` trials find no decrease.  ``LinAlgError`` raised
    by ``fun`` propagates.
    """
    x = np.array(x0, dtype=float)
    f, g = fun(x)
    nfev, nit = 1, 0
    # scipy's stand-in for the previous value: the first trial step is 1.01 / |g|.
    f_prev = f + 0.5 * float(np.linalg.norm(g))
    h = None  # the identity, until the first update rescales it
    while nit < maxiter and not np.max(np.abs(g)) <= gtol:
        p = -g if h is None else -(h @ g)
        slope = float(g @ p)
        if not slope < 0.0:
            h, p = None, -g
            slope = float(g @ p)
            if not slope < 0.0:  # a NaN gradient
                break
        a = 2.02 * (f - f_prev) / slope
        a = min(1.0, a) if a > 0.0 else 1.0
        for _ in range(LINE_SEARCH_TRIALS):
            f_new, g_new = fun(x + a * p)
            nfev += 1
            if f_new <= f + ARMIJO_C1 * a * slope:
                break
            if math.isfinite(f_new):
                a_quad = -0.5 * slope * a * a / (f_new - f - slope * a)
                a = min(max(a_quad, 0.1 * a), 0.5 * a)
            else:
                a *= 0.5
        else:
            break
        s = a * p
        y = g_new - g
        x = x + s
        f_prev, f, g = f, f_new, g_new
        nit += 1
        ys = float(y @ s)
        if ys > 0.0:
            if h is None:
                h = ys / float(y @ y) * np.eye(x.size)
            hy = h @ y
            rho = 1.0 / ys
            h += (rho * rho * float(y @ hy) + rho) * np.outer(s, s)
            h -= rho * (np.outer(hy, s) + np.outer(s, hy))
    return SearchResult(x, nfev, nit)


JOINT_GTOL = 1e-6


def joint_estimation(data, spec, cfg, rng):
    """Single joint fit of the outcome and treatment models (the fitted
    treatment probabilities feed the outcome design, and both likelihood
    terms are maximized together), followed by normal posterior draws around
    the joint optimum.

    The outcome block is closed-form least squares given the treatment
    coefficients, so it is concentrated out; the Gaussian variance is
    profiled throughout (:func:`_joint_objective`).  One BFGS search from
    the treatment-only fit (``gtol=1e-3``) is polished by one Newton step on
    the exact concentrated Hessian, the Schur complement of the outcome
    block.  A plain outcome design that fails the fits' rank rule is
    refused before the search, with the error ``adjusted`` raises on it.
    Unless the largest absolute concentrated gradient is at most
    ``JOINT_GTOL`` after the polish, the fit raises :class:`EstimatorError`,
    as it does when the search meets a singular outcome block.  The
    contrast is drawn from its normal marginal, whose variance is the
    ``[Z_COL, Z_COL]`` entry of the inverse of the analytic Hessian of the
    profiled joint log-likelihood at that point, taken from the Cholesky
    factor that checks positive definiteness.
    """
    y, z = data.y, data.z
    bvals, ps_fit, _, _ = _ps_model(data, spec)
    _plain_outcome_fit(data, spec)  # refuses a singular design, as ``adjusted`` does
    base = plain_outcome_design(data, spec)
    p_phi = base.shape[1] + 3
    loglik = _joint_objective(y, z, base, bvals)

    def neg_concentrated(gamma):
        value, grad, _, _ = loglik(gamma)
        return -value, -grad[p_phi:]

    # The gradient stays NaN when a block is singular, in the search or the
    # polish, or the step is not finite, so every failure meets the one
    # check below.
    gmax, stage = math.nan, "the BFGS search"
    try:
        res = minimize(neg_concentrated, ps_fit.gamma, gtol=1e-3, maxiter=200)
        stage = f"{res.nfev} BFGS evaluations and one Newton step"
        _, grad, _, hessian = loglik(res.x, hessian=True)
        cross = hessian[:p_phi, p_phi:]
        concentrated = hessian[p_phi:, p_phi:] - cross.T @ np.linalg.solve(
            hessian[:p_phi, :p_phi], cross
        )
        gamma = res.x - np.linalg.solve(concentrated, grad[p_phi:])
        if np.all(np.isfinite(gamma)):
            value, grad, phi, hessian = loglik(gamma, hessian=True)
            gmax = float(np.max(np.abs(grad[p_phi:])))
    except np.linalg.LinAlgError:
        pass
    if not gmax <= JOINT_GTOL:
        raise _refusal(
            f"joint fit did not converge: max |concentrated gradient| {gmax:.3g} "
            f"(limit {JOINT_GTOL:g}; nan: singular block or non-finite Newton step) "
            f"after {stage}",
            data,
            spec,
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
        "loglik": value,
        "hessian_jitter": jitter_used,
        "ps_coef": tuple(float(g) for g in gamma),
    }
    return _result_from_draws("joint", contrast_draws, diagnostics=diag)


# ---------------------------------------------------------------------------
# importance sampling (Bayesian bootstrap with treatment weights)


def _draw_diagnostics(ok, w_max, batch, data, spec):
    """Failure count (checked against the 10% limit), largest importance
    weight among successful draws (``w_max`` holds each draw's largest), and
    the first draw's treatment fit."""
    n_failed = int((~ok).sum())
    _check_draw_failures(n_failed, ok.shape[0], "posterior draws", data, spec)
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
    xi, batch, _, H = _dirichlet_plan(data, spec, rng, cfg.n_draws)
    values, fit_ok, w = _or_iptw_rows(data, spec, xi, H, cfg.stabilize)
    ok = batch.converged & fit_ok
    diag = _draw_diagnostics(ok, w.max(axis=1), batch, data, spec)
    return _result_from_draws("is", values[ok], diagnostics=diag)


def importance_sampling_dr(data, spec, cfg, rng):
    """Doubly robust Bayesian-bootstrap estimator: per draw, the weighted
    residual term plus the weighted standardization term, with both model
    plug-ins refit under the draw's Dirichlet weights (the ``dr`` kernel on
    Dirichlet rows)."""
    xi, batch, _, H = _dirichlet_plan(data, spec, rng, cfg.n_draws)
    values, fit_ok, residual = _dr_rows(data, spec, xi, H)
    ok = batch.converged & fit_ok
    diag = _draw_diagnostics(ok, _ipw_row_max(data.z, xi, H, cfg.stabilize), batch, data, spec)
    diag["mean_abs_residual_term"] = float(np.mean(np.abs(residual[ok])))
    return _result_from_draws("is_dr", values[ok], diagnostics=diag)


# ---------------------------------------------------------------------------
# registry


# One row per estimator: (tag, function, display label, stream key).
# Resampling estimators share a stream key and with it one plan per data
# set: the bootstrap ones a count matrix (key 3), the two-step and
# importance-sampling ones a Dirichlet matrix (key 9).  They are correlated
# within a replication; each one's distribution is unchanged.
_REGISTRY = (
    ("naive", naive, "Naive", 1),
    ("adjusted", g_formula_adjusted, "Adjusted", 2),
    ("iptw", iptw, "IPTW", 3),
    ("or_ps_info", or_ps_info, "OR/PS (obs. information)", 4),
    ("or_ps_sandwich", or_ps_sandwich, "OR/PS (adj. sandwich)", 5),
    ("dr", dr, "DR", 3),
    ("clever", clever_covariate_regression, "Clever covariate", 3),
    ("or_iptw", or_iptw, "OR/IPTW", 3),
    ("two_step_forward", two_step_forward, "Two-step (forward sampling)", 9),
    ("two_step_vardecomp", two_step_vardecomp, "Two-step (variance decomposition)", 9),
    ("joint", joint_estimation, "Joint estimation", 10),
    ("is", importance_sampling, "Importance sampling", 9),
    ("is_dr", importance_sampling_dr, "Importance sampling/DR", 9),
)
ESTIMATOR_ORDER = [tag for tag, _, _, _ in _REGISTRY]
ESTIMATORS = {tag: function for tag, function, _, _ in _REGISTRY}
ESTIMATOR_LABELS = {tag: label for tag, _, label, _ in _REGISTRY}
STREAM_KEYS = {tag: key for tag, _, _, key in _REGISTRY}
