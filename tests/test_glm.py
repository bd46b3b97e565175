import numpy as np
import pytest

from drbayes.glm import (
    clever_covariate,
    cubic_ps_basis,
    fd_mean_score_cross_derivative,
    fit_linear_weighted,
    fit_linear_weighted_many,
    fit_logistic_weighted,
    fit_logistic_weighted_many,
    ps_adjusted_treatment_variance,
    rank_deficient_columns,
)
from drbayes.numerics import RngStream, expit


def _logistic_data(n, gamma, seed=0):
    gen = RngStream(seed, 100).generator()
    x = np.column_stack([np.ones(n), gen.standard_normal((n, len(gamma) - 1))])
    z = (gen.random(n) < expit(x @ np.asarray(gamma))).astype(float)
    return x, z


class TestLogisticFit:
    def test_intercept_only_analytic(self):
        z = np.array([1.0, 0.0, 0.0, 0.0] * 50)
        fit = fit_logistic_weighted(np.ones((200, 1)), z)
        assert fit.converged
        assert fit.gamma[0] == pytest.approx(np.log(0.25 / 0.75), abs=1e-6)

    def test_duplicate_rows_halved_weights_invariant(self):
        x, z = _logistic_data(120, [0.3, 0.7, -0.5], seed=1)
        fit1 = fit_logistic_weighted(x, z)
        x2 = np.vstack([x, x])
        z2 = np.concatenate([z, z])
        fit2 = fit_logistic_weighted(x2, z2, weights=np.full(240, 0.5))
        np.testing.assert_allclose(fit1.gamma, fit2.gamma, atol=1e-9)

    def test_recovers_coefficients_within_4_se(self):
        gamma_true = np.array([0.0, 0.4, 0.4, 0.8])
        x, z = _logistic_data(2000, gamma_true, seed=2)
        fit = fit_logistic_weighted(x, z)
        mu = expit(x @ fit.gamma)
        se = np.sqrt(np.diag(np.linalg.inv((x * (mu * (1.0 - mu))[:, None]).T @ x)))
        assert np.all(np.abs(fit.gamma - gamma_true) < 4 * se)

    def test_converged_score_below_tolerance(self):
        x, z = _logistic_data(200, [0.2, 0.5], seed=3)
        fit = fit_logistic_weighted(x, z)
        mu = expit(x @ fit.gamma)
        score = x.T @ (z - mu)
        assert np.abs(score).max() < 1e-8

    def test_row_permutation_invariance(self):
        gen = RngStream(4).generator()
        x, z = _logistic_data(150, [0.1, -0.6, 0.4], seed=4)
        w = gen.random(150) + 0.5
        fit = fit_logistic_weighted(x, z, weights=w)
        perm = gen.permutation(150)
        fit_p = fit_logistic_weighted(x[perm], z[perm], weights=w[perm])
        np.testing.assert_allclose(fit.gamma, fit_p.gamma, atol=1e-10)

    def test_separation_sets_warning_flag(self):
        # Perfectly separated data on a small-scale covariate drives the
        # coefficient far beyond the warning bound before the score vanishes.
        x = np.column_stack([np.ones(8), 0.1 * np.r_[-np.ones(4), np.ones(4)]])
        z = np.r_[np.zeros(4), np.ones(4)]
        fit = fit_logistic_weighted(x, z)
        assert fit.separation
        assert fit.converged

    def test_complete_separation_is_abandoned(self):
        # At a ten times smaller scale the score only vanishes beyond the
        # divergence bound, so IRLS abandons the fit instead of reporting
        # an arbitrary large coefficient as converged.
        x = np.column_stack([np.ones(8), 0.01 * np.r_[-np.ones(4), np.ones(4)]])
        z = np.r_[np.zeros(4), np.ones(4)]
        fit = fit_logistic_weighted(x, z)
        assert fit.separation
        assert not fit.converged
        assert not np.all(np.isfinite(fit.gamma))

    def test_single_fit_is_one_batched_row(self):
        x, z = _logistic_data(200, [0.2, 0.5, -0.3], seed=25)
        w = RngStream(25).generator().random(200) + 0.1
        fit = fit_logistic_weighted(x, z, weights=w)
        batch = fit_logistic_weighted_many(x, z, w[None, :])
        np.testing.assert_array_equal(fit.gamma, batch.gamma[0])
        assert fit.iterations == batch.iterations
        assert fit.converged and batch.converged[0]

    def test_collinear_design_is_abandoned(self):
        x, z = _logistic_data(40, [0.1, 0.5], seed=26)
        fit = fit_logistic_weighted(np.column_stack([x, 2.0 * x[:, 1]]), z)
        assert not fit.converged
        assert not np.any(np.isfinite(fit.gamma))

    def test_rank_deficient_row_alone_is_abandoned(self):
        # Row 1 weighs only the observations where the last column equals
        # the intercept, so its information is rank deficient there; the
        # rank rule abandons that row, and the others are untouched.
        x, z = _logistic_data(200, [0.2, 0.5, -0.3], seed=27)
        varies = np.arange(200) % 3 == 0
        x[~varies, 2] = 1.0
        weights = RngStream(28).generator().dirichlet(np.ones(200), size=4)
        weights[1, varies] = 0.0
        batch = fit_logistic_weighted_many(x, z, weights)
        assert np.isnan(batch.gamma[1]).all()
        assert not batch.converged[1] and not batch.separation[1]
        for k in (0, 2, 3):
            single = fit_logistic_weighted(x, z, weights=weights[k])
            assert batch.converged[k] and single.converged
            np.testing.assert_allclose(batch.gamma[k], single.gamma, rtol=0, atol=1e-8)

    def test_all_zero_weights_rejected(self):
        x, z = _logistic_data(20, [0.0, 0.3], seed=5)
        with pytest.raises(ValueError, match="weights"):
            fit_logistic_weighted(x, z, weights=np.zeros(20))

    def test_batch_matches_single_fits(self):
        x, z = _logistic_data(150, [0.2, 0.5, -0.3], seed=6)
        gen = RngStream(7).generator()
        weights = gen.dirichlet(np.ones(150), size=12)
        batch = fit_logistic_weighted_many(x, z, weights)
        assert batch.converged.all()
        for k in range(12):
            single = fit_logistic_weighted(x, z, weights=weights[k])
            np.testing.assert_allclose(batch.gamma[k], single.gamma, atol=1e-8)

    def test_batch_warm_start_same_optimum(self):
        x, z = _logistic_data(150, [0.2, 0.5, -0.3], seed=8)
        gen = RngStream(9).generator()
        weights = gen.dirichlet(np.ones(150), size=6)
        cold = fit_logistic_weighted_many(x, z, weights)
        warm = fit_logistic_weighted_many(x, z, weights, start=fit_logistic_weighted(x, z).gamma)
        np.testing.assert_allclose(cold.gamma, warm.gamma, atol=1e-7)


class TestRankDeficientColumns:
    @staticmethod
    def _design():
        x, _ = _logistic_data(60, [0.0, 0.1, 0.2, 0.3], seed=29)
        return x

    def test_names_later_copy_and_multiple_of_intercept(self):
        x = self._design()
        assert rank_deficient_columns(np.column_stack([x, x[:, 2]])) == [4]
        assert rank_deficient_columns(np.column_stack([x[:, :3], x[:, 1], x[:, 3]])) == [3]
        assert rank_deficient_columns(np.column_stack([x, np.full(60, 2.5)])) == [4]
        assert rank_deficient_columns(np.column_stack([x, x[:, 1]])) == [4]

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_full_rank_design_names_nothing(self, scale):
        x = self._design()
        x[:, 2] *= scale
        assert rank_deficient_columns(x) == []


class TestLinearFit:
    def test_exact_interpolation(self):
        gen = RngStream(10).generator()
        x = np.column_stack([np.ones(12), gen.standard_normal((12, 2))])
        phi_true = np.array([1.0, -2.0, 0.5])
        y = x @ phi_true
        fit = fit_linear_weighted(x, y, weights=gen.random(12) + 0.1)
        np.testing.assert_allclose(fit.phi, phi_true, atol=1e-10)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-20)

    def test_unit_weights_match_normal_equations(self):
        gen = RngStream(11).generator()
        x = np.column_stack([np.ones(10), gen.standard_normal((10, 3))])
        y = gen.standard_normal(10)
        fit = fit_linear_weighted(x, y)
        oracle = np.linalg.solve(x.T @ x, x.T @ y)
        np.testing.assert_allclose(fit.phi, oracle, atol=1e-12)

    def test_weight_scale_invariance_of_phi_and_cov(self):
        gen = RngStream(12).generator()
        x = np.column_stack([np.ones(30), gen.standard_normal((30, 2))])
        y = gen.standard_normal(30)
        w = gen.random(30) + 0.2
        fit1 = fit_linear_weighted(x, y, weights=w)
        fit7 = fit_linear_weighted(x, y, weights=7.0 * w)
        np.testing.assert_allclose(fit1.phi, fit7.phi, atol=1e-12)
        np.testing.assert_allclose(fit1.cov, fit7.cov, atol=1e-12)

    def test_normal_equation_residual_invariant(self):
        gen = RngStream(13).generator()
        x = np.column_stack([np.ones(80), gen.standard_normal((80, 4))])
        y = gen.standard_normal(80)
        w = gen.random(80) + 0.1
        fit = fit_linear_weighted(x, y, weights=w)
        resid = x.T @ (w * (y - x @ fit.phi))
        assert np.abs(resid).max() < 1e-8 * max(np.abs(x.T @ (w * y)).max(), 1.0)

    def test_singular_design_is_flagged(self):
        x = np.column_stack([np.ones(10), np.arange(10.0), 2.0 * np.arange(10.0)])
        fit = fit_linear_weighted(x, np.arange(10.0))
        assert not fit.ok
        assert not np.any(np.isfinite(fit.phi))

    def test_batch_matches_single_fits(self):
        gen = RngStream(14).generator()
        x = np.column_stack([np.ones(60), gen.standard_normal((60, 2))])
        y = gen.standard_normal(60)
        weights = gen.random((9, 60)) + 0.05
        batch = fit_linear_weighted_many(x, y, weights)
        assert batch.ok.all()
        for k in range(9):
            single = fit_linear_weighted(x, y, weights=weights[k])
            np.testing.assert_allclose(batch.phi[k], single.phi, atol=1e-10)
            np.testing.assert_allclose(batch.sigma2[k], single.sigma2, atol=1e-10)
            np.testing.assert_allclose(batch.cov[k], single.cov, atol=1e-8)

    def test_single_fit_is_one_batched_row(self):
        # Weighted and unweighted, the single fit returns the bytes of the
        # batched kernel's one row, its rank verdict included.
        gen = RngStream(16).generator()
        x = np.column_stack([np.ones(50), gen.standard_normal((50, 3))])
        y = gen.standard_normal(50)
        w = gen.random(50) + 0.1
        for weights, rows in ((None, None), (w, w[None, :])):
            single = fit_linear_weighted(x, y, weights=weights)
            batch = fit_linear_weighted_many(x, y, rows)
            assert batch.ok.shape == (1,) and batch.ok[0] and single.ok
            np.testing.assert_array_equal(single.phi, batch.phi[0])
            assert single.sigma2 == batch.sigma2[0]
            np.testing.assert_array_equal(single.cov, batch.cov[0])
        collinear = np.column_stack([x, x[:, 1] - x[:, 2]])
        assert not fit_linear_weighted_many(collinear, y, w[None, :]).ok[0]
        assert not fit_linear_weighted(collinear, y, weights=w).ok

    def test_batch_per_draw_designs(self):
        # Per-draw designs: a shared intercept plus two per-row columns.
        gen = RngStream(15).generator()
        extra = gen.standard_normal((2, 5, 40))
        y = gen.standard_normal(40)
        batch = fit_linear_weighted_many(np.ones((40, 1)), y, extra=tuple(extra))
        for k in range(5):
            single = fit_linear_weighted(np.column_stack([np.ones(40), *extra[:, k]]), y)
            np.testing.assert_allclose(batch.phi[k], single.phi, atol=1e-10)


class TestPropensityAndBases:
    def test_cubic_basis_centering(self):
        e = np.array([0.2, 0.8])
        basis = cubic_ps_basis(e)
        np.testing.assert_allclose(basis[:, 0], [-0.3, 0.3])
        assert basis[:, 0].mean() == pytest.approx(0.0, abs=1e-15)

    def test_cubic_basis_constant_input_gives_zeros(self):
        basis = cubic_ps_basis(np.full(10, 0.4))
        np.testing.assert_array_equal(basis, np.zeros((10, 3)))

    def test_cubic_basis_domain(self):
        with pytest.raises(ValueError):
            cubic_ps_basis(np.array([0.0, 0.5]))

    def test_clever_covariate_values(self):
        assert clever_covariate(1.0, 0.5) == pytest.approx(2.0)
        assert clever_covariate(0.0, 0.25) == pytest.approx(-4.0 / 3.0)
        assert clever_covariate(1.0, 0.25) == pytest.approx(4.0)


def _fd_adjusted_variance(outcome_fit, ps_fit, y, z, bdes, build, treatment_col=1):
    """Reference PS-adjusted sandwich variance with the cross derivative taken
    by central differences of ``build(gamma)``, the outcome design."""
    phi, sigma2 = outcome_fit.phi, outcome_fit.sigma2
    xout = build(ps_fit.gamma)
    n = xout.shape[0]
    u_phi = xout * (y - xout @ phi)[:, None] / sigma2
    a_phi = xout.T @ xout / (n * sigma2)
    e = expit(bdes @ ps_fit.gamma)
    u_gam = bdes * (z - e)[:, None]
    a_gam = (bdes * (e * (1.0 - e))[:, None]).T @ bdes / n
    cross = fd_mean_score_cross_derivative(build, ps_fit.gamma, phi, sigma2, y)
    b_mat = u_phi + u_gam @ np.linalg.solve(a_gam, cross.T)
    a_inv = np.linalg.inv(a_phi)
    return float((a_inv @ (b_mat.T @ b_mat / n) @ a_inv)[treatment_col, treatment_col] / n)


def _sandwich_instance(n, seed):
    """Outcome linear in (1, z, s, cubic basis of fitted probabilities)."""
    gen = RngStream(seed, 55).generator()
    s = gen.standard_normal(n)
    b = gen.standard_normal(n)
    bdes = np.column_stack([np.ones(n), b])
    z = (gen.random(n) < expit(0.3 + 0.8 * b)).astype(float)
    y = 1.0 + z - s + 0.5 * b + gen.standard_normal(n)
    ps_fit = fit_logistic_weighted(bdes, z)

    def build(gamma):
        e = expit(bdes @ gamma)
        return np.column_stack([np.ones(n), z, s, cubic_ps_basis(e)])

    x_out = build(ps_fit.gamma)
    outcome_fit = fit_linear_weighted(x_out, y)
    e = expit(bdes @ ps_fit.gamma)
    return y, z, bdes, ps_fit, e, outcome_fit, build


class TestSandwich:
    def test_observed_info_matches_classical_formula(self):
        gen = RngStream(20).generator()
        x = np.column_stack([np.ones(40), gen.standard_normal((40, 2))])
        y = gen.standard_normal(40)
        fit = fit_linear_weighted(x, y)
        resid = y - x @ fit.phi
        sigma2 = float(resid @ resid / 40)
        oracle = np.sqrt(sigma2 * np.linalg.inv(x.T @ x)[1, 1])
        assert np.sqrt(fit.cov[1, 1]) == pytest.approx(oracle, rel=1e-10)

    def test_correction_free_variant_equals_hc0(self):
        y, z, bdes, ps_fit, e, outcome_fit, build = _sandwich_instance(300, seed=21)
        x_out = build(ps_fit.gamma)
        var = ps_adjusted_treatment_variance(outcome_fit, y, z, bdes, e, x_out, 0)
        resid = y - x_out @ outcome_fit.phi
        bread = np.linalg.inv(x_out.T @ x_out)
        meat = (x_out * resid[:, None]).T @ (x_out * resid[:, None])
        hc0 = (bread @ meat @ bread)[1, 1]
        assert var == pytest.approx(hc0, rel=1e-8)

    def test_fd_cross_derivative_matches_analytic(self):
        # Analytic chain-rule oracle on a 5-row instance: the design depends
        # on gamma only through the centered cubic basis of e = expit(B g).
        # The derivative is a property of the score map, so fixed coefficient
        # values serve (no fit is required on 5 rows).
        gen = RngStream(23, 55).generator()
        n = 5
        s = gen.standard_normal(n)
        b = gen.standard_normal(n)
        z = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        y = gen.standard_normal(n) + z
        bdes = np.column_stack([np.ones(n), b])
        gamma = np.array([0.2, 0.6])
        phi = np.array([0.5, 1.0, -0.7, 0.4, -0.3, 0.2])
        sigma2 = 0.7

        def build(g):
            e = expit(bdes @ g)
            return np.column_stack([np.ones(n), z, s, cubic_ps_basis(e)])

        fd = fd_mean_score_cross_derivative(build, gamma, phi, sigma2, y)

        e = np.asarray(expit(bdes @ gamma))
        d = e - e.mean()
        x_out = build(gamma)
        resid = y - x_out @ phi
        p_phi, p_gam = x_out.shape[1], bdes.shape[1]
        analytic = np.zeros((p_phi, p_gam))
        for j in range(p_gam):
            de = e * (1.0 - e) * bdes[:, j]
            dd = de - de.mean()
            dx = np.zeros((n, p_phi))
            dx[:, 3] = dd
            dx[:, 4] = 2.0 * d * dd
            dx[:, 5] = 3.0 * d**2 * dd
            du = (dx * resid[:, None] + x_out * (-(dx @ phi))[:, None]) / sigma2
            analytic[:, j] = du.mean(axis=0)
        np.testing.assert_allclose(fd, analytic, atol=1e-6)

    def test_exact_cross_derivative_matches_fd_variance(self):
        y, z, bdes, ps_fit, e, outcome_fit, build = _sandwich_instance(300, seed=24)
        var = ps_adjusted_treatment_variance(outcome_fit, y, z, bdes, e, build(ps_fit.gamma), 3)
        oracle = _fd_adjusted_variance(outcome_fit, ps_fit, y, z, bdes, build)
        assert var == pytest.approx(oracle, rel=1e-6)

    def test_or_ps_sandwich_se_matches_fd_variance(self):
        # 20 replications at n=500; the first uses an intercept-only
        # treatment model, whose constant probabilities make the cubic
        # columns collinear with the intercept, so they are dropped.
        from drbayes.estimators import (
            CovariateSpec,
            _or_ps_parts,
            _ps_model,
            or_ps_sandwich,
            ps_outcome_design,
        )
        from drbayes.simulation import apply_scenario, generate_data

        for rep in range(20):
            data = generate_data(500, RngStream(4321, rep))
            spec = apply_scenario(data, "I")
            if rep == 0:
                spec = CovariateSpec(s_columns=spec.s_columns, b_columns=())
            design, outcome_fit, dropped, _ = _or_ps_parts(data, spec)
            assert bool(dropped) == (rep == 0)
            bdes, ps_fit, _, _ = _ps_model(data, spec)
            # The dropped cubic columns are the last ones.
            kept = design.shape[1]

            def build(gamma, data=data, spec=spec, bdes=bdes, kept=kept):
                return ps_outcome_design(data, spec, expit(bdes @ gamma))[:, :kept]

            oracle = _fd_adjusted_variance(outcome_fit, ps_fit, data.y, data.z, bdes, build)
            se = or_ps_sandwich(data, spec).se
            assert se == pytest.approx(np.sqrt(oracle), rel=1e-6), rep

    def test_adjusted_variance_below_unadjusted_on_average(self):
        # Estimating the treatment probabilities reduces the variance of the
        # treatment coefficient; check the estimated quantities on average.
        from drbayes.estimators import ps_outcome_design, treatment_design
        from drbayes.simulation import apply_scenario, generate_data

        adj, unadj = [], []
        for rep in range(100):
            data = generate_data(5000, RngStream(1234, rep))
            spec = apply_scenario(data, "I")
            bdes = treatment_design(data, spec)
            ps_fit = fit_logistic_weighted(bdes, data.z)

            e = expit(bdes @ ps_fit.gamma)
            x_out = ps_outcome_design(data, spec, e)
            outcome_fit = fit_linear_weighted(x_out, data.y)
            adj.append(
                ps_adjusted_treatment_variance(outcome_fit, data.y, data.z, bdes, e, x_out, 3)
            )
            unadj.append(
                ps_adjusted_treatment_variance(outcome_fit, data.y, data.z, bdes, e, x_out, 0)
            )
        assert np.mean(adj) < np.mean(unadj)
