"""Batched fits against single fits, and the batched kernels against their
previous implementations.

The property tests draw small data sets with hypothesis and check that every
row of a batched fit equals the single fit under the same weights.  Each
single fit is the batched fit of one row, but a row's arithmetic can differ
in the last bits with the number of rows around it, so coefficients are
compared at the precision the stopping rule guarantees, not bit for bit.
"""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import expit as scipy_expit

from drbayes import estimators as est
from drbayes import glm
from drbayes.glm import (
    RANK_TOL,
    SEPARATION_BOUND,
    BatchLogistic,
    FittedLinear,
    _gram_rows_well_posed,
    _scatter_symmetric,
    clever_covariate,
    fit_linear_weighted,
    fit_linear_weighted_many,
    fit_logistic_weighted,
    fit_logistic_weighted_many,
)
from drbayes.numerics import RngStream, expit
from drbayes.simulation import apply_scenario, generate_data

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
GAMMA_ATOL = 1e-7


def oracle_fit_logistic_weighted_many(x, z, weights, max_iter=100, score_tol=1e-8, start=None):
    """The batched IRLS as it was before the in-place kernel: scipy's
    ``expit``, fresh temporaries and row copies on every iteration."""
    xv = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    m, n = weights.shape
    p = xv.shape[1]
    row_means = weights.mean(axis=1, keepdims=True)
    wnorm = weights / np.where(row_means > 0, row_means, 1.0)

    if start is None:
        gamma = np.zeros((m, p))
    else:
        gamma = np.tile(np.asarray(start, dtype=float), (m, 1))
    iu = np.triu_indices(p)
    pairs = xv[:, iu[0]] * xv[:, iu[1]]
    converged = np.zeros(m, dtype=bool)
    active = np.flatnonzero(row_means[:, 0] > 0)
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if active.size == 0:
            break
        wa = wnorm[active]
        mu = scipy_expit(gamma[active] @ xv.T)
        score = (wa * (z - mu)) @ xv
        done = np.abs(score).max(axis=1) < score_tol
        converged[active[done]] = True
        keep = ~done
        active = active[keep]
        if active.size == 0:
            break
        mu = mu[keep]
        score = score[keep]
        irls_w = wa[keep] * mu * (1.0 - mu)
        info = _scatter_symmetric(irls_w @ pairs, p, iu)
        try:
            step = np.linalg.solve(info, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.zeros((active.size, p))
            dead = np.zeros(active.size, dtype=bool)
            for row in range(active.size):
                try:
                    step[row] = np.linalg.solve(info[row], score[row])
                except np.linalg.LinAlgError:
                    dead[row] = True
            gamma[active[dead]] = np.nan
            active = active[~dead]
            step = step[~dead]
        gnew = gamma[active] + step
        bad = ~np.all(np.isfinite(gnew), axis=1) | (np.abs(gnew).max(axis=1) > 1e3)
        gnew[bad] = np.nan
        gamma[active] = gnew
        active = active[~bad]
    return BatchLogistic(
        gamma=gamma,
        converged=converged,
        separation=np.abs(np.where(np.isfinite(gamma), gamma, 0.0)).max(axis=1)
        > SEPARATION_BOUND,
        iterations=iterations,
    )


def oracle_fit_linear_weighted(x, y, weights=None):
    """The single WLS fit as it was before it became the batched kernel's
    one row: its own Gram matrix, solve, residual pass and rank check on the
    correlation scale.  Returns None where that check finds the weighted
    design rank deficient."""
    n, p = x.shape
    weights = np.ones(n) if weights is None else weights
    wnorm = weights / weights.mean()
    xw = x * wnorm[:, None]
    a = xw.T @ x
    b = xw.T @ y
    diag = np.diagonal(a)
    if np.any(diag <= 0.0) or not np.all(np.isfinite(diag)):
        return None
    scale = np.sqrt(diag)
    if np.linalg.eigvalsh(a / np.outer(scale, scale))[0] <= RANK_TOL:
        return None
    phi = np.linalg.solve(a, b)
    resid = y - x @ phi
    sigma2 = float(wnorm @ resid**2 / n)
    return FittedLinear(phi=phi, sigma2=sigma2, cov=sigma2 * np.linalg.inv(a), ok=True)


def oracle_fit_linear_weighted_many(x, y, weights=None, extra=()):
    """The batched WLS computing everything eagerly: the bordered Gram
    matrices of the raw weight rows, the rank rule, then the solve, a batched
    inverse and the residual pass on every call, with ``sigma2`` and ``cov``
    scaled to weights of mean one per row.  Returns ``(phi, sigma2, cov, ok)``."""
    xv = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in extra]
    n, p0 = xv.shape
    p = p0 + len(cols)
    m = len(weights) if weights is not None else len(cols[0]) if cols else 1
    a, b = np.empty((m, p, p)), np.empty((m, p))
    if weights is None:
        a[:, :p0, :p0] = xv.T @ xv
        b[:, :p0] = y @ xv
        wcols, totals = cols, float(n)
    else:
        iu = np.triu_indices(p0)
        a[:, iu[0], iu[1]] = a[:, iu[1], iu[0]] = weights @ (xv[:, iu[0]] * xv[:, iu[1]])
        b[:, :p0] = weights @ (xv * y[:, None])
        wcols, totals = [weights * c for c in cols], weights.sum(axis=1)
    for j, wc in enumerate(wcols, start=p0):
        a[:, j, :p0] = a[:, :p0, j] = wc @ xv
        b[:, j] = wc @ y
        for i, c in enumerate(cols[j - p0 :], start=j):
            a[:, i, j] = a[:, j, i] = np.einsum("ri,ri->r", wc, c)

    phi = np.empty((m, p))
    ok = _gram_rows_well_posed(a)
    a_solvable = a if ok.all() else np.where(ok[:, None, None], a, np.eye(p)[None])
    try:
        phi = np.linalg.solve(a_solvable, b[:, :, None])[:, :, 0]
        a_inv = np.linalg.inv(a_solvable)
    except np.linalg.LinAlgError:
        a_inv = np.empty((m, p, p))
        for k in range(m):
            try:
                phi[k] = np.linalg.solve(a_solvable[k], b[k])
                a_inv[k] = np.linalg.inv(a_solvable[k])
            except np.linalg.LinAlgError:
                ok[k] = False
                phi[k] = np.nan
                a_inv[k] = np.nan
    phi[~ok] = np.nan
    resid = phi[:, :p0] @ xv.T
    for j, c in enumerate(cols, start=p0):
        resid += phi[:, j, None] * c
    np.subtract(y, resid, out=resid)
    resid *= resid
    if weights is not None:
        resid *= weights
    sigma2 = resid.sum(axis=1) / totals
    cov = (sigma2 * (totals / n))[:, None, None] * a_inv
    ok &= np.all(np.isfinite(phi), axis=1)
    return phi, sigma2, cov, ok


@st.composite
def logistic_data(draw, n_min=20, n_max=60):
    """Design ``(1, x1, x2)`` and a treatment with both arms, drawn from a
    logistic model with moderate coefficients."""
    n = draw(st.integers(n_min, n_max))
    seed = draw(st.integers(0, 2**32 - 1))
    slope = draw(st.floats(-1.5, 1.5))
    gen = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), gen.standard_normal((n, 2))])
    z = (gen.random(n) < scipy_expit(0.2 + slope * x[:, 1] - 0.5 * x[:, 2])).astype(float)
    z[:2] = (0.0, 1.0)
    return x, z


def _estimable(x, z, w):
    """Whether the rows with positive weight hold both arms with room to
    spare, so the weighted MLE exists and is unique on all but rare draws."""
    on = w > 0
    return z[on].sum() >= 4 and (1.0 - z[on]).sum() >= 4 and on.sum() >= 3 * x.shape[1]


class TestBatchedEqualsSingle:
    @PROPERTY
    @given(data=logistic_data(), rows=st.integers(1, 4), pattern=st.data())
    def test_zero_weights_and_all_zero_rows(self, data, rows, pattern):
        x, z = data
        n = z.shape[0]
        w = np.empty((rows + 1, n))
        for k in range(rows):
            w[k] = pattern.draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(0.05, 5.0)), min_size=n, max_size=n
                )
            )
        w[rows] = 0.0  # an all-zero row is never fit and never converges
        batch = fit_logistic_weighted_many(x, z, w)
        assert not batch.converged[rows]
        np.testing.assert_array_equal(batch.gamma[rows], 0.0)
        for k in range(rows):
            if not _estimable(x, z, w[k]):
                continue
            single = fit_logistic_weighted(x, z, weights=w[k])
            if not single.converged or single.separation:
                continue
            assert batch.converged[k]
            assert not batch.separation[k]
            np.testing.assert_allclose(batch.gamma[k], single.gamma, rtol=0, atol=GAMMA_ATOL)

    @PROPERTY
    @given(data=logistic_data(), counts=st.data())
    def test_duplicated_rows_equal_integer_counts(self, data, counts):
        x, z = data
        n = z.shape[0]
        c = np.array(counts.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
        if not _estimable(x, z, c):
            return
        idx = np.repeat(np.arange(n), c.astype(int))
        physical = fit_logistic_weighted(x[idx], z[idx])
        batch = fit_logistic_weighted_many(x, z, c[None, :])
        assert batch.converged[0] == physical.converged
        assert batch.separation[0] == physical.separation
        if physical.converged:
            np.testing.assert_allclose(batch.gamma[0], physical.gamma, rtol=0, atol=GAMMA_ATOL)
        # Linear fits: the count-weighted row is the fit to the copies.
        y = x @ np.array([0.5, 1.0, -1.0]) + np.sin(np.arange(n))
        lin = fit_linear_weighted_many(x, y, c[None, :])
        ref = fit_linear_weighted(x[idx], y[idx])
        np.testing.assert_allclose(lin.phi[0], ref.phi, rtol=1e-9, atol=1e-10)
        assert lin.sigma2[0] == pytest.approx(ref.sigma2, rel=1e-9, abs=1e-14)

    @PROPERTY
    @given(
        n=st.integers(30, 80),
        spread=st.floats(0.002, 0.5),
        overlap=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_near_separation_flags_agree(self, n, spread, overlap, seed):
        # x1 separates the arms except for ``overlap`` swapped pairs around
        # the threshold, so the MLE exists but its slope grows as ``spread``
        # shrinks, past the separation bound for the narrowest spreads.
        gen = np.random.default_rng(seed)
        x1 = np.sort(gen.uniform(-spread, spread, n))
        z = (x1 > 0).astype(float)
        below = np.flatnonzero(z == 0.0)[-overlap:]
        above = np.flatnonzero(z == 1.0)[:overlap]
        if below.size < overlap or above.size < overlap:
            return
        z[below], z[above] = 1.0, 0.0
        x = np.column_stack([np.ones(n), x1])
        w = np.vstack([np.ones(n), gen.exponential(size=n)])
        batch = fit_logistic_weighted_many(x, z, w)
        for k in range(2):
            single = fit_logistic_weighted(x, z, weights=w[k])
            if np.abs(single.gamma).max() > 1e2:
                continue  # beyond the batched divergence guard's reach
            assert batch.converged[k] == single.converged
            assert batch.separation[k] == single.separation
            if single.converged:
                np.testing.assert_allclose(
                    batch.gamma[k], single.gamma, rtol=1e-8, atol=GAMMA_ATOL
                )


def _assert_close_to_largest(actual, desired, rel=1e-10):
    """Entry-wise agreement within ``rel`` of the largest entry of ``desired``."""
    np.testing.assert_allclose(actual, desired, rtol=rel, atol=rel * np.abs(desired).max())


class TestBorderedLinear:
    @PROPERTY
    @given(
        n=st.integers(15, 60),
        k=st.sampled_from([1, 3]),
        kind=st.sampled_from(["unweighted", "counts", "dirichlet"]),
        collinear=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bordered_fit_equals_stacked_single_fit(self, n, k, kind, collinear, seed):
        # Row r's design is the shared x followed by extra[:, r].  Row 1's
        # weights have zeros; with ``collinear``, row 2's first extra column
        # is an affine function of x's second column.
        gen = np.random.default_rng(seed)
        m = 4
        x = np.column_stack([np.ones(n), gen.standard_normal((n, 2))])
        y = x @ np.array([0.5, 1.0, -1.0]) + gen.standard_normal(n)
        extra = gen.standard_normal((k, m, n))
        if collinear:
            extra[0, 2] = 2.0 * x[:, 1] + 1.0
        if kind == "unweighted":
            weights = None
        elif kind == "counts":
            weights = gen.integers(1, 4, (m, n)).astype(float)
        else:
            weights = gen.dirichlet(np.ones(n), m)
        if weights is not None:
            weights[1, : n // 3] = 0.0
        batch = fit_linear_weighted_many(x, y, weights, extra=tuple(extra))
        for r in range(m):
            stacked = np.column_stack([x, *extra[:, r]])
            w = None if weights is None else weights[r]
            if collinear and r == 2:
                assert not batch.ok[r]
                assert np.isnan(batch.phi[r]).all()
                assert not fit_linear_weighted(stacked, y, w).ok
                continue
            single = fit_linear_weighted(stacked, y, w)
            assert batch.ok[r]
            _assert_close_to_largest(batch.phi[r], single.phi)
            assert batch.sigma2[r] == pytest.approx(single.sigma2, rel=1e-10)
            _assert_close_to_largest(batch.cov[r], single.cov)

    def test_unweighted_without_extra_columns_is_one_row(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        y = np.sin(np.arange(10.0))
        batch = fit_linear_weighted_many(x, y)
        assert batch.phi.shape == (1, 2) and batch.ok.tolist() == [True]
        np.testing.assert_allclose(batch.phi[0], np.linalg.lstsq(x, y)[0], rtol=1e-12)


class TestLazyLinearAgainstEagerKernel:
    """``phi`` and ``ok`` are computed with the fit, ``sigma2`` and ``cov``
    on first read; every field is byte-identical to the eager kernel's."""

    @staticmethod
    def _inputs(kind, k, n=200, m=30, seed=11):
        # Column 2 of x is nonzero only on the first n // 4 observations, and
        # row 1's weights are zero there, so row 1 is singular.  Row 2's
        # first extra column is affine in x's second column, so with extra
        # columns row 2 is singular too.
        gen = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), gen.standard_normal(n), np.zeros(n)])
        x[: n // 4, 2] = gen.standard_normal(n // 4)
        y = x @ np.array([0.5, 1.0, -1.0]) + gen.standard_normal(n)
        extra = gen.standard_normal((k, m, n))
        if k:
            extra[0, 2] = 2.0 * x[:, 1] + 1.0
        if kind == "unweighted":
            weights = None
        elif kind == "counts":
            weights = gen.integers(0, 4, (m, n)).astype(float)
        else:
            weights = gen.dirichlet(np.ones(n), m)
        if weights is not None:
            weights[1, : n // 4] = 0.0
        return x, y, weights, tuple(extra)

    @pytest.mark.parametrize("kind, k", [
        ("counts", 0), ("dirichlet", 0), ("counts", 1), ("dirichlet", 3), ("unweighted", 3),
    ])
    def test_fields_equal_eager_kernel_bytes(self, kind, k):
        x, y, weights, extra = self._inputs(kind, k)
        phi, sigma2, cov, ok = oracle_fit_linear_weighted_many(x, y, weights, extra)
        batch = fit_linear_weighted_many(x, y, weights, extra)
        assert not ok.all()
        assert "sigma2" not in vars(batch) and "cov" not in vars(batch)
        assert batch.phi.tobytes() == phi.tobytes()
        assert batch.ok.tobytes() == ok.tobytes()
        # Read cov first: it reads sigma2 itself.
        assert batch.cov.tobytes() == cov.tobytes()
        assert batch.sigma2.tobytes() == sigma2.tobytes()

    def test_single_unweighted_fit_equals_eager_kernel_bytes(self):
        x, y, _, _ = self._inputs("unweighted", 0)
        eager = oracle_fit_linear_weighted_many(x, y)
        batch = fit_linear_weighted_many(x, y)
        for name, old in zip(("phi", "sigma2", "cov", "ok"), eager):
            assert getattr(batch, name).tobytes() == old.tobytes()


class TestSingleLinearAgainstPreviousFit:
    @PROPERTY
    @given(
        n=st.integers(15, 60),
        p=st.integers(1, 5),
        kind=st.sampled_from(["unweighted", "uniform", "counts", "dirichlet", "with_zeros"]),
        collinear=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_previous_single_fit(self, n, p, kind, collinear, seed):
        # With ``collinear`` (and p >= 3) the last column is affine in the
        # second, and both fits must find the design rank deficient.
        gen = np.random.default_rng(seed)
        x = np.column_stack([np.ones(n), gen.standard_normal((n, p - 1))])
        if collinear and p >= 3:
            x[:, -1] = 2.0 * x[:, 1] + 1.0
        y = x @ gen.standard_normal(p) + gen.standard_normal(n)
        weights = {
            "unweighted": None,
            "uniform": np.full(n, 0.25),
            "counts": gen.integers(1, 4, n).astype(float),
            "dirichlet": gen.dirichlet(np.ones(n)),
            "with_zeros": np.where(np.arange(n) % 3 == 0, 0.0, gen.exponential(size=n)),
        }[kind]
        ref = oracle_fit_linear_weighted(x, y, weights)
        fit = fit_linear_weighted(x, y, weights)
        assert fit.ok == (ref is not None)
        if ref is None:
            return
        _assert_close_to_largest(fit.phi, ref.phi, rel=1e-12)
        assert fit.sigma2 == pytest.approx(ref.sigma2, rel=1e-12, abs=1e-300)
        _assert_close_to_largest(fit.cov, ref.cov, rel=1e-12)


def _treatment_plan(n, m, kind, seed):
    """A replication's treatment design, its full-sample fit and a weight
    plan of ``m`` rows: bootstrap counts or Dirichlet rows."""
    data = generate_data(n, RngStream(seed, 0))
    spec = apply_scenario(data, "I")
    design, fit, _, _ = est._ps_model(data, spec)
    gen = RngStream(seed, 1).generator()
    if kind == "counts":
        weights = est._bootstrap_counts(data.z, m, gen)[0][1:]
    else:
        weights = est._dirichlet_rows(gen, m, n)
    return design, data.z, weights, fit.gamma


class TestAgainstPreviousKernel:
    @pytest.mark.parametrize(
        "n, m, kind",
        [(500, 200, "counts"), (500, 200, "dirichlet"), (5000, 50, "dirichlet")],
    )
    @pytest.mark.parametrize("warm", [True, False])
    def test_plan_matches_oracle(self, n, m, kind, warm):
        x, z, w, start = _treatment_plan(n, m, kind, seed=n + m)
        start = start if warm else None
        new = fit_logistic_weighted_many(x, z, w, start=start)
        old = oracle_fit_logistic_weighted_many(x, z, w, start=start)
        assert new.iterations == old.iterations
        np.testing.assert_array_equal(new.converged, old.converged)
        np.testing.assert_array_equal(new.separation, old.separation)
        assert new.converged.all()
        np.testing.assert_allclose(new.gamma, old.gamma, rtol=1e-12, atol=0)

    def test_rows_dropping_out_early_match_oracle(self):
        # Rows equal to the full-sample weights converge at the warm start
        # and leave the working set in the first iteration; the rest go on.
        x, z, w, start = _treatment_plan(500, 40, "dirichlet", seed=9)
        w[::4] = 1.0
        new = fit_logistic_weighted_many(x, z, w, start=start)
        old = oracle_fit_logistic_weighted_many(x, z, w, start=start)
        assert new.iterations == old.iterations > 1
        np.testing.assert_array_equal(new.converged, old.converged)
        np.testing.assert_allclose(new.gamma, old.gamma, rtol=1e-12, atol=0)


def _assert_rows_close_to_largest(actual, desired, rel):
    """Row-wise agreement within ``rel`` of each row's largest |entry| of
    ``desired``: coefficients near zero are judged on their row's scale."""
    scale = np.abs(desired).max(axis=1, keepdims=True)
    assert np.all(np.abs(actual - desired) <= rel * scale)


class TestSharedFirstStep:
    """Every row starts from the same coefficients, so the first IRLS step is
    computed from one n-vector of probabilities."""

    @pytest.mark.parametrize(
        "n, m, kind",
        [(500, 200, "counts"), (500, 200, "dirichlet"), (5000, 50, "dirichlet")],
    )
    def test_plans_match_oracle_over_seeds(self, n, m, kind):
        for seed in range(100, 120):
            x, z, w, start = _treatment_plan(n, m, kind, seed=seed)
            new = fit_logistic_weighted_many(x, z, w, start=start)
            old = oracle_fit_logistic_weighted_many(x, z, w, start=start)
            assert new.iterations == old.iterations, seed
            np.testing.assert_array_equal(new.converged, old.converged)
            assert new.converged.all()
            _assert_rows_close_to_largest(new.gamma, old.gamma, rel=1e-13)

    def test_full_sample_rows_converge_at_the_start(self):
        x, z, w, start = _treatment_plan(500, 30, "counts", seed=3)
        w[:] = 1.0
        batch = fit_logistic_weighted_many(x, z, w, start=start)
        assert batch.iterations == 1
        assert batch.converged.all()
        np.testing.assert_array_equal(batch.gamma, np.tile(start, (30, 1)))
        expected = expit(x @ start)
        for row in batch.prob:
            assert row.tobytes() == expected.tobytes()


def _gram_stack(gen, m, p, log10_lo, log10_hi):
    """(m, p, p) Gram matrices whose correlation matrices have their smallest
    eigenvalue near ``10**U(log10_lo, log10_hi)``, the others in [0.2, 3],
    with column scales between e^-5 and e^5."""
    q, _ = np.linalg.qr(gen.standard_normal((m, p, p)))
    lam = gen.uniform(0.2, 3.0, (m, p))
    lam[:, 0] = 10.0 ** gen.uniform(log10_lo, log10_hi, m)
    s = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
    d = 1.0 / np.sqrt(np.diagonal(s, axis1=1, axis2=2))
    scale = d * np.exp(gen.uniform(-5.0, 5.0, (m, p)))
    a = scale[:, :, None] * s * scale[:, None, :]
    return (a + np.swapaxes(a, 1, 2)) / 2.0


def _eigenvalue_verdict(a):
    """The rank rule decided row by row from eigenvalues: positive diagonal,
    finite entries and smallest correlation-scale eigenvalue above
    ``RANK_TOL``."""
    diag = np.diag(a)
    if not (np.all(np.isfinite(a)) and np.all(diag > 0.0)):
        return False
    scale = np.sqrt(diag)
    return bool(np.linalg.eigvalsh(a / np.outer(scale, scale))[0] > RANK_TOL)


def _special_rows(gen, p):
    """Exactly singular, zero-diagonal and non-finite Gram matrices."""
    x = gen.standard_normal((40, p))
    x[:, -1] = 2.0 * x[:, 0] - x[:, 1]
    singular = x.T @ x
    zero_diag = _gram_stack(gen, 1, p, -3, -1)[0]
    zero_diag[1, :] = zero_diag[:, 1] = 0.0
    rows = [singular, zero_diag]
    for i, j, value in [(1, 0, np.nan), (p - 1, 1, np.inf), (p - 1, p - 1, np.nan)]:
        bad = _gram_stack(gen, 1, p, -3, -1)[0]
        bad[i, j] = bad[j, i] = value
        rows.append(bad)
    return np.array(rows)


class TestRankRule:
    """``_gram_rows_well_posed`` decides with one Cholesky factorization and
    gives the verdicts of the eigenvalue rule."""

    def test_verdicts_equal_eigenvalue_rule(self):
        gen = np.random.default_rng(20021)
        checked = 0
        for p in (3, 5, 7, 7):
            for _ in range(10):
                a = np.concatenate([_gram_stack(gen, 220, p, -13, -7), _special_rows(gen, p)])
                expected = np.array([_eigenvalue_verdict(row) for row in a])
                assert 0 < expected.sum() < len(a)
                np.testing.assert_array_equal(_gram_rows_well_posed(a), expected)
                for row, verdict in zip(a, expected):
                    assert _gram_rows_well_posed(row[None])[0] == verdict
                checked += len(a)
        assert checked > 8000

    def test_all_pass_batch_needs_no_eigenvalues(self, monkeypatch):
        gen = np.random.default_rng(20022)
        passing = _gram_stack(gen, 201, 7, np.log10(RANK_TOL) + 0.05, -7)
        assert all(_eigenvalue_verdict(row) for row in passing)
        # One row below the floor: the factorization fails and the
        # eigenvalues decide every row.
        one_failing = passing.copy()
        one_failing[17] = _gram_stack(gen, 1, 7, -13, np.log10(RANK_TOL) - 0.05)[0]
        expected = np.array([_eigenvalue_verdict(row) for row in one_failing])
        assert expected.sum() == 200 and not expected[17]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(b):
            calls.append(b.shape)
            return eigvalsh(b)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        assert _gram_rows_well_posed(passing).all()
        assert calls == []
        np.testing.assert_array_equal(_gram_rows_well_posed(one_failing), expected)
        assert calls == [(201, 7, 7)]

    def test_solve_after_the_rule_never_fails(self):
        # The kernel's own steps on the verdict corpus: the rule's verdicts,
        # the identity in place of every failing row, then one batched
        # solve, which must not raise and must give finite passing rows.
        gen = np.random.default_rng(20021)
        for p in (3, 5, 7, 7):
            for _ in range(10):
                a = np.concatenate([_gram_stack(gen, 220, p, -13, -7), _special_rows(gen, p)])
                ok = _gram_rows_well_posed(a)
                assert 0 < ok.sum() < len(a)
                a = np.where(ok[:, None, None], a, np.eye(p)[None])
                phi = np.linalg.solve(a, gen.standard_normal((len(a), p, 1)))[:, :, 0]
                assert np.isfinite(phi[ok]).all()


class TestStructuralGuards:
    """The batched kernels take their fast paths on ordinary inputs.  These
    check structure, not time."""

    def test_well_posed_linear_fit_computes_no_eigenvalues(self, monkeypatch):
        def no_eigvalsh(_):
            raise AssertionError("eigvalsh called on a well-posed batch")

        x, z, w, _ = _treatment_plan(500, 200, "counts", seed=5)
        y = x @ np.linspace(0.5, -0.5, x.shape[1]) + np.sin(np.arange(500.0))
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
        batch = fit_linear_weighted_many(x, y, w, extra=(z * w,))
        assert batch.ok.all()
        assert np.isfinite(batch.phi).all()

    def test_first_logistic_pass_is_one_vector(self, monkeypatch):
        shapes = []
        logistic_ = glm.logistic_

        def recording_logistic(a):
            shapes.append(a.shape)
            return logistic_(a)

        x, z, w, start = _treatment_plan(500, 200, "dirichlet", seed=5)
        monkeypatch.setattr(glm, "logistic_", recording_logistic)
        batch = fit_logistic_weighted_many(x, z, w, start=start)
        assert batch.converged.all() and batch.iterations > 1
        # Later iterations form their (m, n) probabilities in place from
        # the product with -gamma, and every row converged, so no row is
        # evaluated after the loop.
        assert shapes == [(500,)]


class TestWeightRowScale:
    """Weights are relative: the kernels use the weight rows as given and
    scale only (m,)-vectors by the row means, so a power-of-two factor on a
    row changes no bit of any field, and other factors change only the last
    bits."""

    @staticmethod
    def _fields(x, z, y, w):
        logistic = fit_logistic_weighted_many(x, z, w, start=None)
        fields = {
            "gamma": logistic.gamma,
            "prob": logistic.prob,
            "converged": logistic.converged,
            "iterations": np.array(logistic.iterations),
        }
        for label, extra in (("", ()), ("bordered ", (clever_covariate(z, logistic.prob),))):
            linear = fit_linear_weighted_many(x, y, w, extra=extra)
            # Read cov first: it reads sigma2 itself.
            fields[label + "cov"] = linear.cov
            fields[label + "sigma2"] = linear.sigma2
            fields[label + "phi"] = linear.phi
            fields[label + "ok"] = linear.ok
        return fields

    @staticmethod
    def _row_factors(m, factor):
        # Alternate the factor and its reciprocal over the rows, with row 0
        # unscaled, so rows of one batch sit at different scales.
        factors = np.where(np.arange(m) % 2 == 0, factor, 1.0 / factor)
        factors[0] = 1.0
        return factors[:, None]

    @pytest.mark.parametrize("kind", ["counts", "dirichlet"])
    def test_power_of_two_factors_change_no_bit(self, kind):
        x, z, w, _ = _treatment_plan(500, 40, kind, seed=41)
        y = x @ np.linspace(0.5, -0.5, x.shape[1]) + np.sin(np.arange(500.0))
        base = self._fields(x, z, y, w)
        assert base["converged"].all() and base["ok"].all() and base["bordered ok"].all()
        for factor in (2.0**20, 2.0**-20):
            scaled = self._fields(x, z, y, w * self._row_factors(len(w), factor))
            for name, value in base.items():
                assert scaled[name].tobytes() == value.tobytes(), (factor, name)

    @pytest.mark.parametrize("kind", ["counts", "dirichlet"])
    def test_decimal_factors_agree_to_rounding(self, kind):
        x, z, w, _ = _treatment_plan(500, 40, kind, seed=42)
        y = x @ np.linspace(0.5, -0.5, x.shape[1]) + np.sin(np.arange(500.0))
        base = self._fields(x, z, y, w)
        for factor in (1e3, 1e-3):
            scaled = self._fields(x, z, y, w * self._row_factors(len(w), factor))
            for name, value in base.items():
                if value.dtype == float and value.ndim > 1:
                    # Each row (and covariance matrix) on its own largest
                    # entry's scale: small off-diagonal entries cancel.
                    rows = value.reshape(len(value), -1)
                    actual = scaled[name].reshape(rows.shape)
                    _assert_rows_close_to_largest(actual, rows, rel=1e-12)
                elif value.dtype == float:
                    np.testing.assert_allclose(scaled[name], value, rtol=1e-12, atol=0)
                else:
                    np.testing.assert_array_equal(scaled[name], value)


class TestLaterIterationOverflow:
    def test_exp_overflow_after_the_first_step_is_silent(self, monkeypatch):
        # x1 separates the arms of the first 40 observations, which row 0
        # alone weights, so its slope grows until the divergence guard
        # abandons it.  The far control at x1 = -10 sends -eta past exp's
        # overflow point from iteration 2 on; row 1 weights everything,
        # overlapping arms included, and converges.
        gen = np.random.default_rng(7)
        x1 = np.concatenate([np.linspace(-0.01, 0.01, 40), gen.uniform(-0.02, 0.02, 10), [-10.0]])
        z = np.concatenate([x1[:40] > 0, gen.integers(0, 2, 10), [0]]).astype(float)
        x = np.column_stack([np.ones(51), x1])
        w = np.ones((2, 51))
        w[0, 40:] = 0.0
        largest = []
        exp = np.exp

        def recording_exp(a, *args, **kwargs):
            largest.append(float(np.max(a)))
            return exp(a, *args, **kwargs)

        monkeypatch.setattr(np, "exp", recording_exp)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = fit_logistic_weighted_many(x, z, w)
        monkeypatch.undo()
        assert max(largest[1:]) > np.log(np.finfo(float).max)
        assert not batch.converged[0] and batch.separation[0]
        assert np.isnan(batch.gamma[0]).all()
        assert batch.converged[1] and np.isfinite(batch.gamma[1]).all()
        old = oracle_fit_logistic_weighted_many(x, z, w)
        np.testing.assert_array_equal(batch.converged, old.converged)
        np.testing.assert_allclose(batch.gamma[1], old.gamma[1], rtol=1e-10)
        assert np.all((batch.prob > 0.0) & (batch.prob < 1.0))
