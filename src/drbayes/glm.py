"""Weighted generalized linear model fits and variance estimators.

Two families: logistic regression by iteratively reweighted least squares
(IRLS), and Gaussian linear regression by weighted least squares in closed
form.  Weights are relative: rescaling a fit's weights by a positive
constant leaves its coefficients, residual variance and least-squares
covariance unchanged.

Each family has one kernel, batched over the rows of a weight matrix
(``*_many``) against a shared design, plus per-row extra columns in the
linear case; a single fit is the kernel's one-row call, so every fit is
judged by the same stopping rules.  One rank rule, a floor on the smallest
eigenvalue of the correlation-scale Gram matrix (``_gram_rows_well_posed``),
judges both families, on a linear fit's normal equations and on a logistic
fit's first-iteration information, and finds the columns at fault
(:func:`rank_deficient_columns`).  The fits report and do not decide:
each returns its verdict with its estimate (``converged`` and
``separation`` for logistic fits, with NaN coefficients where IRLS
abandoned a fit; ``ok`` for linear fits), and raises only ``ValueError``,
for invalid arguments.  Whether a flagged fit is used is the caller's
decision.

The functions are numerical kernels on arrays only: each design is an
ndarray, intercept first.  Designs and their column names belong to
:mod:`drbayes.estimators`.  So do fitted probabilities: the propensity
sandwich (:func:`ps_adjusted_treatment_variance`) reads the caller's
probabilities, takes the derivative of the cubic basis columns that move
with the propensity coefficients itself, by the chain rule, and refits
nothing; without basis columns it is the HC0 sandwich.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .numerics import PROB_CLIP, expit, logistic_  # noqa: F401 (bench counts glm.expit)

__all__ = [
    "FittedLogistic",
    "FittedLinear",
    "fit_logistic_weighted",
    "fit_logistic_weighted_many",
    "fit_linear_weighted",
    "fit_linear_weighted_many",
    "rank_deficient_columns",
    "BatchLogistic",
    "BatchLinear",
    "cubic_ps_basis",
    "clever_covariate",
    "clever_covariate_",
    "fd_mean_score_cross_derivative",
    "ps_adjusted_treatment_variance",
]

SEPARATION_BOUND = 30.0
DIVERGENCE_BOUND = 1e3
MAX_IRLS_ITERATIONS = 100
SCORE_TOL = 1e-8


@dataclass
class FittedLogistic:
    """Logistic regression estimate with convergence metadata."""

    gamma: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False


@dataclass
class FittedLinear:
    """Weighted least squares estimate; ``ok`` is the rank verdict."""

    phi: np.ndarray
    sigma2: float
    cov: np.ndarray
    ok: bool


# Relative eigenvalue floor, on the correlation scale, below which normal
# equations are treated as rank deficient.  Scale-invariant, so small but
# informative columns (cubic basis terms) are not misflagged.
RANK_TOL = 1e-10


def _gram_rows_well_posed(a):
    """Numerical full-rank check of each Gram matrix in (m, p, p), on the
    correlation scale: a row passes when its diagonal is positive, every
    entry is finite and the smallest eigenvalue of its correlation matrix
    exceeds ``RANK_TOL``.

    ``corr - RANK_TOL * I`` is positive definite exactly when every
    eigenvalue of ``corr`` exceeds ``RANK_TOL``, so one batched Cholesky
    factorization decides the whole stack when every row passes.  Only when
    it fails does a batched ``eigvalsh`` give the per-row verdicts.  Rows
    with a non-finite entry fail before either test, because numpy's
    Cholesky returns NaN for them without raising.
    """
    p = a.shape[1]
    diag = np.diagonal(a, axis1=1, axis2=2)
    scale = np.sqrt(np.where(diag > 0.0, diag, 1.0))
    corr = a / (scale[:, :, None] * scale[:, None, :])
    good = np.all(diag > 0.0, axis=1) & np.all(np.isfinite(corr), axis=(1, 2))
    corr[~good] = np.eye(p)
    try:
        np.linalg.cholesky(corr - RANK_TOL * np.eye(p))
    except np.linalg.LinAlgError:
        return good & (np.linalg.eigvalsh(corr)[:, 0] > RANK_TOL)
    return good


def rank_deficient_columns(x):
    """Indices of the columns of the design ``x`` beyond its numerical rank
    under :func:`_gram_rows_well_posed`'s rule.  Columns are added left to
    right, and each whose addition makes the Gram matrix of the kept
    columns fail the rule is dropped, so a repeated column names its later
    copy, and a design that fails the rule names at least one column."""
    xv = np.asarray(x, dtype=float)
    kept = []
    for j in range(xv.shape[1]):
        trial = xv[:, [*kept, j]]
        if _gram_rows_well_posed((trial.T @ trial)[None])[0]:
            kept.append(j)
    return [j for j in range(xv.shape[1]) if j not in kept]


@lru_cache(maxsize=None)
def _upper_triangle(p):
    """Read-only ``np.triu_indices(p)``, cached: building it costs more than
    the Gram matrix of a small fit."""
    iu = np.triu_indices(p)
    for index in iu:
        index.flags.writeable = False
    return iu


def _scatter_symmetric(flat, p, iu):
    """Unpack rows of upper-triangle entries into symmetric (m, p, p)."""
    out = np.empty((flat.shape[0], p, p))
    out[:, iu[0], iu[1]] = flat
    out[:, iu[1], iu[0]] = flat
    return out


def _column_pairs(x):
    """Products of the columns of the (n, p) design ``x`` in upper-triangle
    order, ``x[:, iu[0]] * x[:, iu[1]]``, written column by column into one
    array.  It is column-major, the layout of that fancy-index product:
    the products' bits do not depend on it, but the Gram GEMMs' do."""
    iu = _upper_triangle(x.shape[1])
    pairs = np.empty((x.shape[0], iu[0].size), order="F")
    for k, (i, j) in enumerate(zip(*iu)):
        np.multiply(x[:, i], x[:, j], out=pairs[:, k])
    return pairs


def _check_weights(weights, n):
    if weights is None:
        return np.ones(n)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"weights shape {weights.shape} does not match n={n}")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not be all zero")
    return weights


def fit_logistic_weighted(x, z, weights=None):
    """Weighted logistic maximum likelihood via IRLS: the one-row case of
    :func:`fit_logistic_weighted_many`, with the same stopping rule.

    Parameters
    ----------
    x : array_like
        n x p design, intercept first.
    z : ndarray
        Binary response in {0, 1}.
    weights : ndarray, optional
        Relative observation weights (not all zero).

    Returns
    -------
    FittedLogistic
        The coefficients with the kernel's verdict and iteration count.
        ``converged`` is false when IRLS reached its iteration limit or
        abandoned the fit; an abandoned fit (diverging, or rank deficient
        by the rank rule on its first-iteration information) has NaN
        coefficients.  A coefficient exceeding 30 in absolute value, or a
        fit abandoned as diverging, sets the ``separation`` warning flag.
    """
    xv = np.asarray(x, dtype=float)
    weights = _check_weights(weights, xv.shape[0])
    batch = fit_logistic_weighted_many(xv, z, weights[None, :])
    return FittedLogistic(
        gamma=batch.gamma[0],
        converged=bool(batch.converged[0]),
        iterations=batch.iterations,
        separation=bool(batch.separation[0]),
    )


@dataclass
class BatchLogistic:
    """Row-batched logistic fits: one coefficient vector per weight row."""

    gamma: np.ndarray  # (m, p)
    converged: np.ndarray  # (m,) bool
    separation: np.ndarray  # (m,) bool
    iterations: int
    prob: np.ndarray | None = None  # (m, n) fitted probabilities, clipped as by expit


def _row_blocks(m, size=16):
    """Slices of at most ``size`` rows covering ``range(m)``: an elementwise
    pass over gathered rows, taken a block at a time, needs a temporary of
    one block instead of one of every row."""
    return [slice(lo, lo + size) for lo in range(0, m, size)]


def fit_logistic_weighted_many(x, z, weights, start=None):
    """IRLS for many weight vectors against one shared design.

    ``weights`` has shape (m, n); row k defines its own fit.  A row converges
    when the largest absolute entry of its weighted score, divided by the
    row's mean weight, drops below ``SCORE_TOL``.  Rank is decided on each
    row's iteration-1 information by ``_gram_rows_well_posed``: the IRLS
    weights ``w mu (1 - mu)`` are positive wherever ``w`` is, so that
    information has the rank of the row's weighted design.  A row that
    fails the rule, or whose coefficients leave ``DIVERGENCE_BOUND``, is
    abandoned with NaN coefficients and reported unconverged rather than
    raising, since resampling callers skip and count such draws; a
    diverging row is flagged as separated, a rank-deficient one is not.
    Converged rows drop out of the score and information, so late
    iterations only pay for the stragglers.  ``start`` warm-starts all rows
    (typically the full-sample estimate, since reweighted fits are small
    perturbations of it); the optimum is unchanged.  ``prob`` keeps each
    converged row's probabilities from its last convergence check; the
    other rows are evaluated at their final coefficients, NaN read as zero.
    The weight rows are used as given, since the Newton step does not
    depend on a row's scale.

    The (m, n) working set is ``prob`` and one residual buffer.  While
    every row is active the probabilities are formed in ``prob`` itself;
    afterwards only the active rows' probabilities are a new array.
    """
    xv = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    m, n = weights.shape
    p = xv.shape[1]
    row_means = weights.mean(axis=1)

    gamma0 = np.zeros(p) if start is None else np.asarray(start, dtype=float)
    gamma = np.tile(gamma0, (m, 1))
    iu = _upper_triangle(p)
    pairs = _column_pairs(xv)
    controls = 1.0 - z
    prob = np.empty((m, n))
    resid = np.empty((m, n))
    converged = np.zeros(m, dtype=bool)
    diverged = np.zeros(m, dtype=bool)
    active = np.flatnonzero(row_means > 0)
    iterations = 0
    for iterations in range(1, MAX_IRLS_ITERATIONS + 1):
        if active.size == 0:
            break
        k = active.size
        if iterations == 1:
            # Every row starts at gamma0, so the probabilities are one
            # n-vector and the score a product of the weight rows with x.
            wa = weights if k == m else weights[active]
            mu = logistic_(xv @ gamma0)
            score = wa @ (xv * (z - mu)[:, None])
        else:
            # 1 / (1 + exp(-eta)) in place; exp overflows to inf where the
            # probability is 0 in the limit, and its reciprocal gives that 0.
            mu = np.matmul(-gamma, xv.T, out=prob) if k == m else -gamma[active] @ xv.T
            with np.errstate(over="ignore"):
                np.exp(mu, out=mu)
            mu += 1.0
            np.reciprocal(mu, out=mu)
            r = np.subtract(z, mu, out=resid[:k])
            if k == m:
                r *= weights
            else:
                for rows in _row_blocks(k):
                    r[rows] *= weights[active[rows]]
            score = r @ xv
        done = np.abs(score).max(axis=1) / row_means[active] < SCORE_TOL
        if done.any():
            converged[active[done]] = True
            if mu is not prob:
                for rows in _row_blocks(k):
                    prob[active[rows][done[rows]]] = mu if iterations == 1 else mu[rows][done[rows]]
            if done.all():
                break
        # The information of every row of this pass (the converged ones are
        # dropped from it below), with the IRLS weights w mu (1 - mu) =
        # r (mu - (1 - z)) over r, so mu keeps the rows that just converged.
        if iterations == 1:
            info = wa @ (pairs * (mu * (1.0 - mu))[:, None])
        else:
            for rows in _row_blocks(k):
                r[rows] *= mu[rows] - controls
            info = r @ pairs
        if done.any():
            keep = ~done
            active, score, info = active[keep], score[keep], info[keep]
        info = _scatter_symmetric(info, p, iu)
        # Rank is decided on the iteration-1 information.  Later ones keep
        # its rank unless a probability rounds to exactly 0 or 1, which can
        # make one exactly singular and the batched solve raise.  Either way
        # the rule picks the rows to abandon, and the rest are solved.
        try:
            if iterations == 1 and not _gram_rows_well_posed(info).all():
                raise np.linalg.LinAlgError("rank deficient information")
            step = np.linalg.solve(info, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            well_posed = _gram_rows_well_posed(info)
            gamma[active[~well_posed]] = np.nan
            active, info, score = active[well_posed], info[well_posed], score[well_posed]
            step = np.linalg.solve(info, score[:, :, None])[:, :, 0]
        gamma[active] += step
        # NaN and inf fail the comparison, so they count as diverged too.
        bad = ~(np.abs(gamma[active]).max(axis=1) <= DIVERGENCE_BOUND)
        if bad.any():
            gamma[active[bad]] = np.nan
            diverged[active[bad]] = True
            active = active[~bad]
    rest = ~converged
    if rest.any():
        prob[rest] = logistic_(np.where(np.isfinite(gamma[rest]), gamma[rest], 0.0) @ xv.T)
    np.clip(prob, PROB_CLIP, 1.0 - PROB_CLIP, out=prob)
    return BatchLogistic(
        gamma=gamma,
        converged=converged,
        separation=diverged
        | (np.abs(np.where(np.isfinite(gamma), gamma, 0.0)).max(axis=1) > SEPARATION_BOUND),
        iterations=iterations,
        prob=prob,
    )


def fit_linear_weighted(x, y, weights=None):
    """Weighted least squares in closed form: the one-row case of
    :func:`fit_linear_weighted_many`, with the same rank rule.

    ``sigma2`` is the weighted residual sum of squares divided by the total
    weight (maximum-likelihood scale), and ``cov = sigma2 * (X'WX)^{-1}``
    with the weights normalized to mean one, so both are invariant to
    rescaling all weights.

    ``ok`` is false when the weighted normal equations are rank deficient,
    and ``phi`` is then not finite.
    """
    xv = np.asarray(x, dtype=float)
    if weights is not None:
        weights = _check_weights(weights, xv.shape[0])[None, :]
    batch = fit_linear_weighted_many(xv, y, weights)
    return FittedLinear(
        phi=batch.phi[0], sigma2=float(batch.sigma2[0]), cov=batch.cov[0], ok=bool(batch.ok[0])
    )


class BatchLinear:
    """Row-batched WLS fits.

    ``phi`` (m, p) and ``ok`` (m,) are computed with the fit.  ``sigma2``
    (m,) and ``cov`` (m, p, p) cost a residual pass and a batched inverse
    that most callers never read, so each is computed on first read, from
    the fit's inputs, which must not be modified before then;
    :meth:`variance` gives one diagonal entry of ``cov`` from a batched
    solve.  The Gram matrices are those of the raw weight rows, so ``cov``
    and :meth:`variance` scale their inverses by each row's mean weight.
    """

    def __init__(self, phi, ok, x, y, weights, cols, gram):
        self.phi = phi
        self.ok = ok
        self._inputs = (x, y, weights, cols)
        self._gram = gram

    @cached_property
    def _totals(self):
        """Each row's total weight: n when unweighted."""
        xv, _, weights, _ = self._inputs
        return float(xv.shape[0]) if weights is None else weights.sum(axis=1)

    @cached_property
    def sigma2(self):
        xv, y, weights, cols = self._inputs
        p0 = xv.shape[1]
        resid = self.phi[:, :p0] @ xv.T
        for j, c in enumerate(cols, start=p0):
            for rows in _row_blocks(len(resid)):
                resid[rows] += self.phi[rows, j, None] * c[rows]
        # Weighted squared residuals, in place in one buffer.
        np.subtract(y, resid, out=resid)
        resid *= resid
        if weights is not None:
            resid *= weights
        return resid.sum(axis=1) / self._totals

    @cached_property
    def _cov_scale(self):
        """``sigma2`` times the row mean weight, which turns the inverse of
        the raw-weight Gram matrix into the mean-one one."""
        return self.sigma2 * (self._totals / self._inputs[0].shape[0])

    @cached_property
    def cov(self):
        return self._cov_scale[:, None, None] * np.linalg.inv(self._gram)

    def variance(self, j):
        """``cov[:, j, j]`` from one batched solve against the unit vector
        ``e_j``, without the batched inverse."""
        m, p, _ = self._gram.shape
        unit = np.zeros((m, p, 1))
        unit[:, j] = 1.0
        return self._cov_scale * np.linalg.solve(self._gram, unit)[:, j, 0]


def fit_linear_weighted_many(x, y, weights=None, extra=()):
    """Closed-form WLS for many rows: a shared design plus per-row columns.

    ``x`` is the (n, p0) design shared by every row and ``extra`` holds k
    per-row columns, each (m, n), appended after it: row r fits
    ``[x, extra[0][r], ..., extra[k-1][r]]``.  ``weights`` is (m, n), or
    None for unweighted fits: one per row of ``extra``, or a single fit
    (m = 1) when there is no ``extra``.  The weight rows are used as given,
    since the coefficients do not depend on a row's scale.  Singular rows
    are flagged in ``ok`` instead of raising.
    """
    xv = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in extra]
    p0 = xv.shape[1]
    p = p0 + len(cols)
    m = len(weights) if weights is not None else len(cols[0]) if cols else 1
    a, b = np.empty((m, p, p)), np.empty((m, p))
    if weights is None:
        a[:, :p0, :p0] = xv.T @ xv
        b[:, :p0] = y @ xv
        wcols = cols
    else:
        iu = _upper_triangle(p0)
        a[:, iu[0], iu[1]] = a[:, iu[1], iu[0]] = weights @ _column_pairs(xv)
        b[:, :p0] = weights @ (xv * y[:, None])
        wcols = [weights * c for c in cols]
    for j, wc in enumerate(wcols, start=p0):
        a[:, j, :p0] = a[:, :p0, j] = wc @ xv
        b[:, j] = wc @ y
        for i, c in enumerate(cols[j - p0 :], start=j):
            a[:, i, j] = a[:, j, i] = np.einsum("ri,ri->r", wc, c)

    # Rows that fail are solved against the identity instead, so that the
    # one batched solve, and the Gram stack kept for ``cov``, never meet a
    # singular matrix; their ``phi`` is set to NaN.
    ok = _gram_rows_well_posed(a)
    if not ok.all():
        a = np.where(ok[:, None, None], a, np.eye(p)[None])
    phi = np.linalg.solve(a, b[:, :, None])[:, :, 0]
    phi[~ok] = np.nan
    ok &= np.all(np.isfinite(phi), axis=1)
    return BatchLinear(phi, ok, xv, y, weights, cols, a)


def cubic_ps_basis(e):
    """Centered cubic polynomial basis of a probability vector.

    Columns are ``(e - mean(e)) ** k`` for k = 1, 2, 3.  Centering only
    reparametrizes the regression (same fitted values) but keeps the normal
    equations well conditioned.
    """
    e = np.asarray(e, dtype=float)
    if np.any(e <= 0.0) or np.any(e >= 1.0):
        raise ValueError("basis requires probabilities strictly inside (0, 1)")
    d = e - e.mean()
    return np.column_stack([d, d * d, d * d * d])


def clever_covariate(z, e):
    """Derived regressor ``z / e - (1 - z) / (1 - e)``; ``e`` is not
    written to."""
    return clever_covariate_(z, np.array(e, dtype=float))


def clever_covariate_(z, e):
    """:func:`clever_covariate` of the float array ``e``, whose second term
    is computed over ``e``: ``e`` is overwritten with ``(1 - z) / (1 - e)``,
    so the covariate is the one new array."""
    h = z / e
    h -= np.divide(1.0 - z, np.subtract(1.0, e, out=e), out=e)
    return h


def fd_mean_score_cross_derivative(build_outcome_design, gamma, phi, sigma2, y, fd_step=1e-5):
    """Average derivative of the per-observation outcome score with respect
    to the propensity coefficients, by central finite differences with step
    ``fd_step * (1 + |coef|)`` per coordinate.  It is the reference against
    which the exact cross derivative of :func:`ps_adjusted_treatment_variance`
    is checked.

    Returns a (p_outcome, p_propensity) matrix.
    """
    gamma = np.asarray(gamma, dtype=float)
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    probe = np.asarray(build_outcome_design(gamma), dtype=float)
    cross = np.empty((probe.shape[1], gamma.shape[0]))
    for j in range(gamma.shape[0]):
        h = fd_step * (1.0 + abs(gamma[j]))
        gp = gamma.copy()
        gp[j] += h
        gm = gamma.copy()
        gm[j] -= h
        xp = np.asarray(build_outcome_design(gp), dtype=float)
        xm = np.asarray(build_outcome_design(gm), dtype=float)
        up = xp.T @ (y - xp @ phi) / (n * sigma2)
        um = xm.T @ (y - xm @ phi) / (n * sigma2)
        cross[:, j] = (up - um) / (2.0 * h)
    return cross


def ps_adjusted_treatment_variance(outcome_fit, y, z, ps_design, e, outcome_design, k):
    """Sandwich variance of the treatment coefficient (column 1), propagating
    the first-stage propensity fit ``e = expit(ps_design @ gamma)``.

    ``outcome_design`` is the (n, p) outcome design at ``gamma``; only its
    last ``k`` columns depend on ``gamma``, and they are the first ``k``
    columns of ``cubic_ps_basis(e)``.  Their derivative follows by the chain
    rule: ``d = e - mean(e)`` moves by ``dd = v B - mean(v B)`` with ``v = e
    (1 - e)``, and basis column j by ``j d^(j-1) dd``.  The
    outcome-score/propensity-parameter cross derivative, the sample mean of
    ``(dX_i' r_i - X_i (dX_i phi)) / sigma2``, is then exact.  All
    expectations are replaced by sample means.  With k = 0 (an outcome
    design that does not involve the propensity) the correction term
    vanishes, and the result is exactly the conventional robust (HC0)
    sandwich of the outcome fit.

    Returns the variance (not the standard error) of the treatment
    coefficient.
    """
    phi = outcome_fit.phi
    sigma2 = outcome_fit.sigma2
    if sigma2 <= 0.0:
        return 0.0
    xout = np.asarray(outcome_design, dtype=float)
    n, p = xout.shape
    resid = y - xout @ phi
    u_phi = xout * resid[:, None] / sigma2
    a_phi = xout.T @ xout / (n * sigma2)

    bv = np.asarray(ps_design, dtype=float)
    u_gam = bv * (z - e)[:, None]
    vb = bv * (e * (1.0 - e))[:, None]
    a_gam = vb.T @ bv / n
    d = e - e.mean()
    dd = vb - vb.mean(axis=0)
    powers = np.column_stack([np.ones_like(d), 2.0 * d, 3.0 * d * d])[:, :k]
    # -X'(dX phi) in every row, plus dX' r in the rows of the k basis columns.
    cross = -(xout.T @ ((powers @ phi[p - k :])[:, None] * dd))
    cross[p - k :] += (powers * resid[:, None]).T @ dd
    cross /= n * sigma2
    b_mat = u_phi + u_gam @ np.linalg.solve(a_gam, cross.T)
    v_b = b_mat.T @ b_mat / n
    tmp = np.linalg.solve(a_phi, v_b)
    avar = np.linalg.solve(a_phi, tmp.T).T
    return float(avar[1, 1] / n)
