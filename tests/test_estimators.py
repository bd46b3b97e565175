import math

import numpy as np
import pytest
from scipy.optimize import OptimizeResult, minimize

import drbayes.estimators as est
from drbayes.estimators import (
    ESTIMATOR_ORDER,
    ESTIMATORS,
    STREAM_KEYS,
    CovariateSpec,
    Dataset,
    DrawFailureError,
    EstimatorError,
    ResamplingConfig,
    clever_covariate_regression,
    dr,
    g_formula_adjusted,
    importance_sampling,
    importance_sampling_dr,
    iptw,
    naive,
    or_iptw,
    or_ps_info,
    plain_outcome_design,
    ps_outcome_design,
    treatment_design,
    two_step_pair,
    two_step_vardecomp,
    _joint_objective,
)
from drbayes import glm
from drbayes.glm import (
    clever_covariate,
    cubic_ps_basis,
    fit_linear_weighted,
    fit_logistic_weighted,
)
from drbayes.numerics import RngStream, expit
from drbayes.selfcheck import clever_outcome_design
import drbayes.simulation as sim
from drbayes.simulation import SimConfig, apply_scenario, generate_data, run_replication

CFG = ResamplingConfig(n_draws=40, n_boot=40)


def _sim_data(n=300, seed=100, stream=0, scenario="I"):
    data = generate_data(n, RngStream(seed, stream))
    return data, apply_scenario(data, scenario)


# ---------------------------------------------------------------------------
# oracles: single fits and physical resampling, independent of the weighted
# kernels the estimators use


def _subset(data, idx):
    """The rows ``idx`` of ``data`` as a new data set (physical resampling)."""
    return Dataset(data.y[idx], data.z[idx], data.x[idx], data.column_names)


def bootstrap_se(point_fn, data, spec, cfg, rng):
    """Nonparametric bootstrap standard error of ``point_fn(data, spec, cfg)``
    re-evaluated on ``cfg.n_boot`` physically resampled data sets, drawn as
    the estimators draw their count matrices (single-arm resamples
    redrawn).  Errors on individual resamples are tolerated up to 10%.

    Returns ``(se, diagnostics)``.
    """
    gen = rng.child(est._SUB_WEIGHTS).generator()
    idx, redraws = est._resample_index_matrix(data.z, cfg.n_boot, gen)
    points = []
    failures = 0
    for b in range(cfg.n_boot):
        try:
            points.append(float(point_fn(_subset(data, idx[b]), spec, cfg)))
        except Exception:
            failures += 1
    est._check_draw_failures(failures, cfg.n_boot, "bootstrap resamples")
    se = float(np.std(points, ddof=1))
    return se, {"boot_failures": failures, "boot_degenerate_redraws": redraws}


def _estimator_point(tag, rng):
    """``point_fn`` of a registered estimator: its ``.point`` on a data set."""
    return lambda d, s, c: ESTIMATORS[tag](d, s, c, rng).point


def dr_contrast(y, z, e, m_obs, m1, m0, weights):
    """Doubly robust contrast of one weight vector: inverse-probability-
    weighted residual term plus model-based standardization term, both
    averaged with ``weights`` (which should sum to one).

    Returns ``(value, residual_term, model_term)``.
    """
    cc = clever_covariate(z, e)
    residual_term = float(np.sum(weights * (y - m_obs) * cc))
    model_term = float(np.sum(weights * (m1 - m0)))
    return residual_term + model_term, residual_term, model_term


def _single_draw_fits(data, spec, xi, stabilize):
    """Treatment fit under explicit weights ``xi`` and the resulting
    clamped probabilities and inverse treatment weights."""
    z = data.z
    ps_design = treatment_design(data, spec)
    ps_fit = fit_logistic_weighted(ps_design, z, weights=xi)
    e = est._clamp_ps(expit(ps_design @ ps_fit.gamma))
    num1 = num0 = 1.0
    if stabilize:
        num1 = float(np.sum(xi * z) / np.sum(xi))
        num0 = 1.0 - num1
    return e, np.where(z == 1.0, num1 / e, num0 / (1.0 - e))


def importance_sampling_value(data, spec, xi, stabilize=True):
    """Contrast of ``importance_sampling`` for one explicit weight vector."""
    xi = np.asarray(xi, dtype=float)
    _, w = _single_draw_fits(data, spec, xi, stabilize)
    outcome_fit = fit_linear_weighted(plain_outcome_design(data, spec), data.y, weights=xi * w)
    return float(outcome_fit.phi[est.Z_COL])


def importance_sampling_dr_value(data, spec, xi):
    """Doubly robust contrast of ``importance_sampling_dr`` for one explicit
    weight vector; returns ``(value, residual_term, model_term)``."""
    xi = np.asarray(xi, dtype=float)
    y, z = data.y, data.z
    e, _ = _single_draw_fits(data, spec, xi, stabilize=False)
    outcome_design = plain_outcome_design(data, spec)
    phi = fit_linear_weighted(outcome_design, y, weights=xi).phi
    m_obs = outcome_design @ phi
    m0 = m_obs - z * phi[est.Z_COL]
    m1 = m0 + phi[est.Z_COL]
    return dr_contrast(y, z, e, m_obs, m1, m0, xi)


class TestDataset:
    def test_rejects_nonbinary_treatment(self):
        with pytest.raises(ValueError, match="binary"):
            Dataset(y=[1.0, 2.0], z=[0.0, 2.0], x=np.zeros((2, 1)))

    def test_rejects_single_arm(self):
        with pytest.raises(ValueError, match="non-empty"):
            Dataset(y=[1.0, 2.0], z=[1.0, 1.0], x=np.zeros((2, 1)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset(y=[np.nan, 2.0], z=[0.0, 1.0], x=np.zeros((2, 1)))


class TestResultInvariants:
    @pytest.mark.parametrize("tag", ESTIMATOR_ORDER)
    def test_ci_is_point_pm_196_se(self, tag):
        data, spec = _sim_data()
        res = ESTIMATORS[tag](data, spec, CFG, RngStream(1, 0).child(STREAM_KEYS[tag]))
        assert res.ci[0] == pytest.approx(res.point - 1.96 * res.se, abs=1e-12)
        assert res.ci[1] == pytest.approx(res.point + 1.96 * res.se, abs=1e-12)
        assert res.se >= 0.0
        if res.draws is not None:
            assert res.point == pytest.approx(float(np.mean(res.draws)), abs=1e-12)
            assert res.se == pytest.approx(float(np.std(res.draws, ddof=1)), abs=1e-12)

    @pytest.mark.parametrize("tag", ESTIMATOR_ORDER)
    def test_deterministic_given_stream(self, tag):
        data, spec = _sim_data(n=150)
        rng = RngStream(2, 5).child(STREAM_KEYS[tag])
        a = ESTIMATORS[tag](data, spec, CFG, rng)
        b = ESTIMATORS[tag](data, spec, CFG, rng)
        assert a.point == b.point and a.se == b.se


class TestRegistry:
    def test_order_functions_labels_and_stream_keys(self):
        # The four public names are built from one table; this pins them.
        assert ESTIMATOR_ORDER == list(ESTIMATORS) == list(est.ESTIMATOR_LABELS) == list(STREAM_KEYS)
        assert [
            (tag, ESTIMATORS[tag].__name__, est.ESTIMATOR_LABELS[tag], STREAM_KEYS[tag])
            for tag in ESTIMATOR_ORDER
        ] == [
            ("naive", "naive", "Naive", 1),
            ("adjusted", "g_formula_adjusted", "Adjusted", 2),
            ("iptw", "iptw", "IPTW", 3),
            ("or_ps_info", "or_ps_info", "OR/PS (obs. information)", 4),
            ("or_ps_sandwich", "or_ps_sandwich", "OR/PS (adj. sandwich)", 5),
            ("dr", "dr", "DR", 3),
            ("clever", "clever_covariate_regression", "Clever covariate", 3),
            ("or_iptw", "or_iptw", "OR/IPTW", 3),
            ("two_step_forward", "two_step_forward", "Two-step (forward sampling)", 9),
            (
                "two_step_vardecomp",
                "two_step_vardecomp",
                "Two-step (variance decomposition)",
                9,
            ),
            ("joint", "joint_estimation", "Joint estimation", 10),
            ("is", "importance_sampling", "Importance sampling", 9),
            ("is_dr", "importance_sampling_dr", "Importance sampling/DR", 9),
        ]


class TestNaive:
    def test_outcome_equals_treatment(self):
        data = Dataset(y=[1.0, 1.0, 0.0, 0.0], z=[1, 1, 0, 0], x=np.zeros((4, 1)))
        assert naive(data).point == pytest.approx(1.0)

    def test_constant_outcome(self):
        data = Dataset(y=[3.0] * 6, z=[1, 0, 1, 0, 1, 0], x=np.zeros((6, 1)))
        assert naive(data).point == pytest.approx(0.0)


class TestAdjusted:
    def test_no_covariates_equals_naive(self):
        data, _ = _sim_data(n=120)
        spec = CovariateSpec(s_columns=(), b_columns=())
        res = g_formula_adjusted(data, spec)
        assert res.point == pytest.approx(naive(data).point, abs=1e-10)

    def test_matches_stratified_standardization(self):
        # Additive cell means make the no-interaction model exact, so the
        # regression standardization equals exhaustive stratification.
        s = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0] * 4)
        z = np.array([0.0, 1.0, 1.0, 0.0, 0.0, 1.0] * 4)
        y = 0.5 + 2.0 * z + 1.5 * s
        data = Dataset(y=y, z=z, x=s[:, None], column_names=("s",))
        spec = CovariateSpec(s_columns=((0, est.IDENTITY),), b_columns=())
        res = g_formula_adjusted(data, spec)
        strata = 0.0
        for sv in (0.0, 1.0):
            mask = s == sv
            effect = y[mask & (z == 1)].mean() - y[mask & (z == 0)].mean()
            strata += mask.mean() * effect
        assert res.point == pytest.approx(strata, abs=1e-10)


class TestIptw:
    def test_two_row_hand_example(self):
        # Intercept-only treatment model fits e = 1/2 on one treated and one
        # control row: (1/2)(2 / .5) - (1/2)(1 / .5) = 1.
        data = Dataset(y=[2.0, 1.0], z=[1.0, 0.0], x=np.zeros((2, 1)))
        spec = CovariateSpec(s_columns=(), b_columns=())
        res = iptw(data, spec, ResamplingConfig(2, 16), RngStream(3, 0))
        assert res.point == pytest.approx(1.0, abs=1e-9)

    def test_weight_diagnostics_present(self):
        data, spec = _sim_data()
        res = iptw(data, spec, CFG, RngStream(4, 0))
        assert res.diagnostics["weight_max"] >= res.diagnostics["weight_min"] > 1.0
        assert "ps_coef" in res.diagnostics


class TestDr:
    def test_zero_residuals_equals_adjusted(self):
        data, spec = _sim_data(n=150)
        svals = spec.s_matrix(data)
        y_exact = 1.0 + 2.0 * data.z + svals @ np.array([0.5, -1.0, 0.25])
        exact = Dataset(y=y_exact, z=data.z, x=data.x, column_names=data.column_names)
        res = dr(exact, spec, CFG, RngStream(5, 0))
        adj = g_formula_adjusted(exact, spec)
        assert res.point == pytest.approx(adj.point, abs=1e-10)
        assert res.diagnostics["residual_term"] == pytest.approx(0.0, abs=1e-10)

    def test_null_outcome_model_fixed_ps_reduces_to_iptw_form(self):
        gen = RngStream(6, 0).generator()
        n = 40
        y = gen.standard_normal(n)
        z = (gen.random(n) < 0.5).astype(float)
        z[:2] = [0.0, 1.0]
        e = np.full(n, 0.5)
        zeros = np.zeros(n)
        value, _, _ = dr_contrast(y, z, e, zeros, zeros, zeros, np.full(n, 1.0 / n))
        oracle = 2.0 * np.mean(y * z) - 2.0 * np.mean(y * (1.0 - z))
        assert value == pytest.approx(oracle, abs=1e-12)


class TestCleverCovariate:
    def test_constant_ps_drops_collinear_column(self):
        # With an intercept-only treatment model the derived regressor is
        # collinear with the treatment indicator; it is dropped and the
        # estimate falls back to the adjusted regression.
        data, _ = _sim_data(n=160)
        spec = CovariateSpec(
            s_columns=((0, est.IDENTITY), (1, est.IDENTITY)), b_columns=()
        )
        res = clever_covariate_regression(data, spec, CFG, RngStream(7, 0))
        assert res.diagnostics.get("dropped_columns") == ["clever"]
        assert res.point == pytest.approx(g_formula_adjusted(data, spec).point, abs=1e-9)

    def test_matches_dr_formula_with_clever_model(self):
        from drbayes.selfcheck import _clever_model_dr_terms

        data, spec = _sim_data(n=200, seed=8)
        value, residual_term = _clever_model_dr_terms(data, spec)
        res = clever_covariate_regression(data, spec, CFG, RngStream(8, 0))
        assert abs(residual_term) < 1e-8
        assert res.point == pytest.approx(value, abs=1e-8)


class TestOrPs:
    def test_constant_ps_falls_back_to_adjusted(self):
        data, _ = _sim_data(n=140)
        spec = CovariateSpec(
            s_columns=((0, est.IDENTITY), (1, est.IDENTITY)), b_columns=()
        )
        res = or_ps_info(data, spec, CFG, RngStream(9, 0))
        assert set(res.diagnostics["dropped_columns"]) == {"ps^1", "ps^2", "ps^3"}
        assert res.point == pytest.approx(g_formula_adjusted(data, spec).point, abs=1e-10)

    def test_nested_model_close_to_adjusted(self):
        # Outcome independent of the treatment probabilities given s: the
        # basis coefficients estimate zero and the two estimators agree up
        # to sampling noise.
        data, spec = _sim_data(n=2000, seed=10, scenario="II")
        res = or_ps_info(data, spec, CFG, RngStream(10, 0))
        adj = g_formula_adjusted(data, spec)
        assert res.point == pytest.approx(adj.point, abs=0.1)

    def test_sandwich_point_matches_info_point(self):
        data, spec = _sim_data(n=250, seed=11)
        a = or_ps_info(data, spec, CFG, RngStream(11, 0))
        b = est.or_ps_sandwich(data, spec, CFG, RngStream(11, 0))
        assert a.point == b.point
        assert b.se > 0.0


class TestOrIptw:
    def test_constant_ps_equals_adjusted_exactly(self):
        # Intercept-only treatment model: stabilized weights are identically
        # one, so the weighted fit is the plain adjusted regression.
        data, _ = _sim_data(n=180)
        spec = CovariateSpec(
            s_columns=((0, est.IDENTITY), (2, est.IDENTITY)), b_columns=()
        )
        res = or_iptw(data, spec, CFG, RngStream(12, 0))
        assert res.point == pytest.approx(g_formula_adjusted(data, spec).point, abs=1e-10)
        assert res.diagnostics["weight_max"] == pytest.approx(1.0, abs=1e-8)


class TestUnstabilizedWeights:
    UNSTABILIZED = ResamplingConfig(n_draws=6, n_boot=20, stabilize=False)

    def test_or_iptw_point_matches_direct_weighted_fit(self):
        data, spec = _sim_data(n=200, seed=27)
        res = or_iptw(data, spec, self.UNSTABILIZED, RngStream(27, 0))
        ps_design = treatment_design(data, spec)
        e = np.clip(
            expit(ps_design @ fit_logistic_weighted(ps_design, data.z).gamma),
            est.WEIGHT_CLIP,
            1.0 - est.WEIGHT_CLIP,
        )
        w = np.where(data.z == 1.0, 1.0 / e, 1.0 / (1.0 - e))
        oracle = fit_linear_weighted(plain_outcome_design(data, spec), data.y, weights=w)
        assert res.point == pytest.approx(oracle.phi[est.Z_COL], abs=1e-10)
        assert res.diagnostics["weight_min"] == pytest.approx(w.min(), rel=1e-12)
        assert res.diagnostics["weight_max"] == pytest.approx(w.max(), rel=1e-12)
        stabilized = or_iptw(data, spec, CFG, RngStream(27, 0))
        assert stabilized.point != pytest.approx(res.point, abs=1e-6)

    def test_is_draws_match_single_evaluator(self):
        data, spec = _sim_data(n=120, seed=28)
        rng = RngStream(28, 0).child(STREAM_KEYS["is"])
        res = importance_sampling(data, spec, self.UNSTABILIZED, rng)
        xi = est._dirichlet_rows(rng.child(0).generator(), 6, data.n)
        singles = [importance_sampling_value(data, spec, xi[j], stabilize=False) for j in range(6)]
        np.testing.assert_allclose(res.draws, singles, atol=1e-8)
        stabilized = [importance_sampling_value(data, spec, xi[j]) for j in range(6)]
        assert np.abs(res.draws - stabilized).max() > 1e-6


class TestTreatmentFitPolicy:
    @staticmethod
    def _separated():
        # Complete separation on a small-scale covariate: IRLS abandons the
        # full-sample fit.
        x = 0.01 * np.r_[-np.ones(4), np.ones(4)]
        data = Dataset(y=np.arange(8.0), z=np.r_[np.zeros(4), np.ones(4)], x=x[:, None])
        return data, CovariateSpec(s_columns=(), b_columns=((0, est.IDENTITY),))

    def _assert_each_raises(self, data, spec):
        cfg = ResamplingConfig(n_draws=4, n_boot=4)
        for tag in ("iptw", "or_ps_info", "is"):
            with pytest.raises(EstimatorError, match="treatment-model fit"):
                ESTIMATORS[tag](data, spec, cfg, RngStream(29, 0).child(STREAM_KEYS[tag]))

    def test_abandoned_treatment_fit_raises(self):
        # No estimator proceeds with NaN probabilities.
        self._assert_each_raises(*self._separated())

    def test_failed_treatment_fit_runs_once_per_data_set(self, monkeypatch):
        calls = []
        inner = est.fit_logistic_weighted

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(est, "fit_logistic_weighted", counting)
        self._assert_each_raises(*self._separated())
        assert len(calls) == 1


class TestFailurePolicy:
    """Every refusal is an :class:`EstimatorError`; the GLM fits only
    report their verdicts."""

    @staticmethod
    def _with_duplicate(model):
        # x2 copied into a fifth column "dup", added to the outcome or the
        # treatment covariates of scenario I.
        data, spec = _sim_data(n=200, seed=40)
        data = Dataset(
            data.y, data.z, np.column_stack([data.x, data.x[:, 1]]), (*data.column_names, "dup")
        )
        dup = ((4, est.IDENTITY),)
        if model == "outcome":
            return data, CovariateSpec(spec.s_columns + dup, spec.b_columns)
        return data, CovariateSpec(spec.s_columns, spec.b_columns + dup)

    @pytest.mark.parametrize(
        "model, succeeding, naming",
        [
            ("outcome", {"naive", "iptw"}, set(ESTIMATOR_ORDER) - {"naive", "iptw"}),
            ("treatment", {"naive", "adjusted"}, set(ESTIMATOR_ORDER) - {"naive", "adjusted"}),
        ],
    )
    def test_duplicated_column_fails_as_estimator_error(self, model, succeeding, naming):
        data, spec = self._with_duplicate(model)
        cfg = ResamplingConfig(n_draws=20, n_boot=20)
        for tag in ESTIMATOR_ORDER:
            rng = RngStream(41, 0).child(STREAM_KEYS[tag])
            if tag in succeeding:
                assert math.isfinite(ESTIMATORS[tag](data, spec, cfg, rng).point)
                continue
            with pytest.raises(EstimatorError) as err:
                ESTIMATORS[tag](data, spec, cfg, rng)
            if tag in naming:
                assert str(err.value).endswith("collinear columns: ['dup']"), tag

    @pytest.mark.parametrize("model", ["outcome", "treatment"])
    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6])
    def test_near_duplicate_column_is_refused_and_named(self, model, eps):
        # near = x2 + eps * noise fails the fits' one rank rule, so every
        # estimator with a model on that covariate set refuses (joint
        # included), and each refusal names near.
        data, spec = _sim_data(n=300, seed=40)
        noise = RngStream(43, 0).generator().standard_normal(data.n)
        data = Dataset(
            data.y,
            data.z,
            np.column_stack([data.x, data.x[:, 1] + eps * noise]),
            (*data.column_names, "near"),
        )
        near = ((4, est.IDENTITY),)
        if model == "outcome":
            spec, succeeding = CovariateSpec(spec.s_columns + near, spec.b_columns), {"iptw"}
        else:
            spec, succeeding = CovariateSpec(spec.s_columns, spec.b_columns + near), {"adjusted"}
        succeeding.add("naive")
        outcomes = sim.run_estimators(
            data, spec, ResamplingConfig(n_draws=20, n_boot=20), RngStream(41, 0), ESTIMATOR_ORDER
        )
        for tag, res in outcomes.items():
            if tag in succeeding:
                assert math.isfinite(res.point), tag
            else:
                assert isinstance(res, EstimatorError), tag
                assert str(res).endswith("collinear columns: ['near']"), (tag, str(res))

    def test_draw_failure_refusal_keeps_its_class(self):
        data, spec = self._with_duplicate("outcome")
        with pytest.raises(DrawFailureError, match=r"collinear columns: \['dup'\]$"):
            est._check_draw_failures(3, 20, "posterior draws", data, spec)

    def test_unconverged_finite_treatment_fit_is_used_and_flagged(self, monkeypatch):
        # Two IRLS iterations leave the full-sample treatment fit finite but
        # unconverged: both outcome-regression estimators use it.
        monkeypatch.setattr(glm, "MAX_IRLS_ITERATIONS", 2)
        data, spec = _sim_data(n=200, seed=40)
        for tag in ("or_ps_info", "or_ps_sandwich"):
            res = ESTIMATORS[tag](data, spec, CFG, RngStream(42, 0).child(STREAM_KEYS[tag]))
            assert math.isfinite(res.point) and math.isfinite(res.se) and res.se > 0.0
            assert res.diagnostics["ps_converged"] is False
            assert res.diagnostics["ps_iterations"] == 2


class TestTwoStep:
    def test_pair_equals_separate_calls(self):
        data, spec = _sim_data(n=150, seed=13)
        rng = RngStream(13, 0).child(STREAM_KEYS["two_step_forward"])
        fwd_pair, vd_pair = two_step_pair(data, spec, CFG, rng)
        fwd = ESTIMATORS["two_step_forward"](data, spec, CFG, rng)
        vd = two_step_vardecomp(data, spec, CFG, rng)
        assert fwd_pair.point == fwd.point and fwd_pair.se == fwd.se
        assert vd_pair.point == vd.point and vd_pair.se == vd.se

    def test_variance_at_least_mean_model_variance(self):
        data, spec = _sim_data(n=150, seed=14)
        res = two_step_vardecomp(data, spec, CFG, RngStream(14, 0))
        assert res.se**2 >= res.diagnostics["mean_model_variance"]

    def test_forward_se_matches_vardecomp_se(self):
        # Each forward draw is normal around its plug-in contrast with the
        # model variance, so by the law of total variance the spread of many
        # draws estimates the variance-decomposition SE.
        data, spec = _sim_data(n=200, seed=33)
        cfg = ResamplingConfig(n_draws=4000, n_boot=2)
        rng = RngStream(33, 0).child(STREAM_KEYS["two_step_forward"])
        fwd, vd = two_step_pair(data, spec, cfg, rng)
        assert fwd.diagnostics["draw_failures"] == 0
        assert fwd.se == pytest.approx(vd.se, rel=0.1)


class TestBorderedOutcomeFits:
    """The batched outcome fits, built from a shared design plus per-row
    columns, against single fits of each row's explicitly stacked design."""

    def test_two_step_contrasts_match_single_fits(self):
        data, spec = _sim_data(n=500, seed=31)
        rng = RngStream(31, 0).child(STREAM_KEYS["two_step_forward"])
        contrast_hat, model_var, _, diag = est._two_step_draws(data, spec, CFG, rng)
        _, batch, e, _ = est._dirichlet_plan(data, spec, rng, CFG.n_draws)
        assert diag["draw_failures"] == 0 and batch.converged.all()
        for k in range(CFG.n_draws):
            single = fit_linear_weighted(ps_outcome_design(data, spec, e[k]), data.y)
            assert contrast_hat[k] == pytest.approx(single.phi[est.Z_COL], rel=1e-10)
            assert model_var[k] == pytest.approx(single.cov[est.Z_COL, est.Z_COL], rel=1e-10)

    def test_clever_rows_match_single_fits(self):
        data, spec = _sim_data(n=500, seed=31)
        rng = RngStream(31, 0).child(STREAM_KEYS["clever"])
        W, E, H, _, _ = est._count_plan(data, spec, rng, CFG.n_boot)
        np.testing.assert_array_equal(H, clever_covariate(data.z, E))
        values, ok, dropped = est._clever_rows(data, spec, W, E, H)
        assert ok.all() and dropped == ()
        for k in range(W.shape[0]):
            single = fit_linear_weighted(clever_outcome_design(data, spec, E[k]), data.y, W[k])
            correction = W[k] @ (1.0 / E[k] + 1.0 / (1.0 - E[k])) / W[k].sum()
            oracle = single.phi[est.Z_COL] + single.phi[-1] * correction
            assert values[k] == pytest.approx(oracle, rel=1e-10)
        # The largest |clever covariate| is the largest unstabilized weight.
        res = clever_covariate_regression(data, spec, CFG, rng)
        vector_form = np.max(np.abs(clever_covariate(data.z, E[0])))
        assert res.diagnostics["max_abs_clever"] == vector_form
        # dr and clever read the plan's one covariate matrix; their results
        # equal those of rows fed a covariate computed apart, byte for byte.
        assert (res.point, res.se) == (values[0], np.std(values[1:], ddof=1))
        dr_values = est._dr_rows(data, spec, W, clever_covariate(data.z, E))[0]
        res_dr = dr(data, spec, CFG, rng)
        assert (res_dr.point, res_dr.se) == (dr_values[0], np.std(dr_values[1:], ddof=1))

    @pytest.mark.parametrize("stabilize", [True, False])
    def test_is_dr_weight_max_equals_matrix_form(self, stabilize):
        data, spec = _sim_data(n=500, seed=32)
        cfg = ResamplingConfig(n_draws=40, n_boot=2, stabilize=stabilize)
        rng = RngStream(32, 0).child(STREAM_KEYS["is_dr"])
        res = importance_sampling_dr(data, spec, cfg, rng)
        xi, batch, e, H = est._dirichlet_plan(data, spec, rng, cfg.n_draws)
        np.testing.assert_array_equal(H, clever_covariate(data.z, est._clamp_ps(e)))
        w = est._ipw_rows(data.z, xi, H, stabilize)
        np.testing.assert_array_equal(est._ipw_row_max(data.z, xi, H, stabilize), w.max(axis=1))
        assert res.diagnostics["draw_failures"] == 0
        assert res.diagnostics["weight_max"] == w.max()


def _central_diff_grad(fun, x, rel_step=1e-6):
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        h = rel_step * (1.0 + abs(x[j]))
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        grad[j] = (fun(xp) - fun(xm)) / (2.0 * h)
    return grad


def _central_diff_hessian(fun, x, rel_step=1e-5):
    p = x.shape[0]
    steps = rel_step * (1.0 + np.abs(x))
    hess = np.empty((p, p))
    f0 = fun(x)
    for j in range(p):
        xp = x.copy()
        xp[j] += steps[j]
        xm = x.copy()
        xm[j] -= steps[j]
        hess[j, j] = (fun(xp) - 2.0 * f0 + fun(xm)) / steps[j] ** 2
    for j in range(p):
        for k in range(j + 1, p):
            xpp = x.copy()
            xpp[[j, k]] += steps[[j, k]]
            xpm = x.copy()
            xpm[j] += steps[j]
            xpm[k] -= steps[k]
            xmp = x.copy()
            xmp[j] -= steps[j]
            xmp[k] += steps[k]
            xmm = x.copy()
            xmm[[j, k]] -= steps[[j, k]]
            hess[j, k] = hess[k, j] = (fun(xpp) - fun(xpm) - fun(xmp) + fun(xmm)) / (
                4.0 * steps[j] * steps[k]
            )
    return hess


def reference_joint_loglik(y, z, base, bvals, gamma, phi=None, hessian=False):
    """The profiled joint log-likelihood as it was before the bordered
    moments: the (n, p) design rebuilt and its Gram matrix formed on every
    call, and the Hessian contracted from the (n, 3, q) basis Jacobian.
    Returns ``(value, grad, phi, hess)`` like the ``loglik`` of
    ``_joint_objective``, and evaluates at an outcome block ``phi`` away
    from its least-squares solution when one is given."""
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
    g = phi[p_base] + d * (2.0 * phi[p_base + 1] + 3.0 * phi[p_base + 2] * d)
    v = e * (1.0 - e)
    rg = resid * g
    score = np.concatenate([design.T @ resid, bvals.T @ (v * (rg - rg.mean()))])
    grad = score / s2
    grad[p_phi:] += bvals.T @ (z - e)
    if not hessian:
        return value, grad, phi, None
    # The (n, 3, q) basis Jacobian: column k moves by k d^(k-1) (v B - mean(v B)).
    vb = bvals * v[:, None]
    dd = vb - vb.mean(axis=0)
    powers = np.column_stack([np.ones(n), 2.0 * d, 3.0 * d * d])
    basis_jac = powers[:, :, None] * dd[:, None, :]
    jr = np.column_stack([design, dd * g[:, None]])
    curv = jr.T @ jr
    cross = -np.einsum("i,ikj->kj", resid, basis_jac)
    curv[p_base:p_phi, p_phi:] += cross
    curv[p_phi:, p_base:p_phi] += cross.T
    dg = 2.0 * phi[p_base + 1] + 6.0 * phi[p_base + 2] * d
    curv[p_phi:, p_phi:] -= (dd * (resid * dg)[:, None]).T @ dd
    hess = 2.0 * np.outer(score, score) / (n * s2 * s2) - curv / s2
    w = (rg - rg.mean()) * v * (1.0 - 2.0 * e) / s2 - v
    hess[p_phi:, p_phi:] += (bvals * w[:, None]).T @ bvals
    return value, grad, phi, hess


class TestMinimize:
    """The in-library BFGS search on functions with known minima."""

    @staticmethod
    def _recording(fun):
        """``fun`` that records every value it returns."""
        values = []

        def recorded(x):
            value, grad = fun(x)
            values.append(value)
            return value, grad

        return recorded, values

    @staticmethod
    def _quadratic():
        gen = RngStream(51).generator()
        q, _ = np.linalg.qr(gen.standard_normal((5, 5)))
        a = q @ np.diag(np.geomspace(1.0, 100.0, 5)) @ q.T
        b = gen.standard_normal(5)

        def fun(x):
            return 0.5 * x @ a @ x - b @ x, a @ x - b

        return fun, np.linalg.solve(a, b)

    @staticmethod
    def _rosenbrock(x):
        value = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        grad = np.array(
            [-400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]), 200.0 * (x[1] - x[0] ** 2)]
        )
        return value, grad

    def _problems(self):
        quadratic, x_min = self._quadratic()
        return [
            (quadratic, np.zeros(5), x_min),
            (self._rosenbrock, np.array([-1.2, 1.0]), np.ones(2)),
        ]

    @pytest.mark.parametrize("problem", [0, 1], ids=["quadratic", "rosenbrock"])
    def test_reaches_gtol_and_counts_every_call(self, problem):
        fun, x0, x_min = self._problems()[problem]
        recorded, values = self._recording(fun)
        res = est.minimize(recorded, x0, gtol=1e-8)
        assert np.abs(fun(res.x)[1]).max() <= 1e-8
        np.testing.assert_allclose(res.x, x_min, rtol=1e-6)
        assert res.nfev == len(values)
        assert 0 < res.nit < 200

    @pytest.mark.parametrize("problem", [0, 1], ids=["quadratic", "rosenbrock"])
    def test_value_never_increases_and_maxiter_holds(self, problem):
        # The search is deterministic, so the run capped at k steps ends at
        # its k-th iterate.
        fun, x0, _ = self._problems()[problem]
        full = est.minimize(fun, x0, gtol=1e-8)
        previous = fun(x0)[0]
        for k in range(full.nit + 1):
            res = est.minimize(fun, x0, gtol=1e-8, maxiter=k)
            assert res.nit == k
            value = fun(res.x)[0]
            assert value <= previous
            previous = value
        assert np.array_equal(res.x, full.x)

    @pytest.mark.parametrize("center", [0.9, 2.0])
    def test_backtracks_from_nan_beyond_a_radius(self, center):
        # |x - c|^2 inside the unit disc and NaN outside it.  The first trial
        # step from the origin leaves the disc; with c outside, every search
        # ends against the boundary.
        c = np.array([center, 0.0])

        def fun(x):
            if x @ x >= 1.0:
                return math.nan, np.full(2, math.nan)
            return (x - c) @ (x - c), 2.0 * (x - c)

        recorded, values = self._recording(fun)
        res = est.minimize(recorded, np.zeros(2), gtol=1e-8)
        assert any(math.isnan(v) for v in values)
        value, grad = fun(res.x)
        assert math.isfinite(value) and value < c @ c
        if center < 1.0:
            assert np.abs(grad).max() <= 1e-8

    def test_linalg_error_propagates(self):
        calls = []

        def fun(x):
            calls.append(1)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("singular")
            return self._rosenbrock(x)

        with pytest.raises(np.linalg.LinAlgError):
            est.minimize(fun, np.array([-1.2, 1.0]))


class TestJoint:
    @staticmethod
    def _loglik(data, spec):
        base = est.plain_outcome_design(data, spec)
        bvals = est.treatment_design(data, spec)
        return base.shape[1] + 3, _joint_objective(data.y, data.z, base, bvals)

    @staticmethod
    def _full_value(data, spec, p_phi):
        """The reference log-likelihood over ``theta = (phi, gamma)``, for
        finite differences in the outcome block too."""
        base = est.plain_outcome_design(data, spec)
        bvals = est.treatment_design(data, spec)

        def value(theta):
            gamma, phi = theta[p_phi:], theta[:p_phi]
            return reference_joint_loglik(data.y, data.z, base, bvals, gamma, phi)[0]

        return value

    def _problem(self, n=500, seed=3):
        data, spec = _sim_data(n=n, seed=seed)
        return data, spec, *self._loglik(data, spec)

    def test_one_bfgs_call_reaches_gradient_limit(self, monkeypatch):
        data, spec, p_phi, loglik = self._problem()
        calls = []
        inner = est.minimize

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(est, "minimize", counting)
        res = est.joint_estimation(data, spec, CFG, RngStream(3, 0).child(STREAM_KEYS["joint"]))
        assert len(calls) == 1
        assert res.diagnostics["optimizer_evaluations"] > 0
        grad = loglik(np.array(res.diagnostics["ps_coef"]))[1]
        assert np.abs(grad[p_phi:]).max() <= est.JOINT_GTOL

    def test_stays_in_the_treatment_fit_basin(self):
        # Acceptance seed, scenario I, n=500, replication 117: here a BFGS
        # search seeded with the inverse treatment information (instead of
        # the identity) reaches a second stationary point with a higher
        # log-likelihood and an indefinite, ill-conditioned Hessian.  The fit
        # must stay with a tight search from the treatment-only fit.
        from drbayes.simulation import _DATA_KEY

        rep = RngStream(20160667, stream_id=117)
        data = generate_data(500, rep.child(_DATA_KEY))
        spec = apply_scenario(data, "I")
        res = est.joint_estimation(data, spec, CFG, rep.child(STREAM_KEYS["joint"]))
        p_phi, loglik = self._loglik(data, spec)

        def neg_concentrated(gamma):
            value, grad, _, _ = loglik(gamma)
            return -value, -grad[p_phi:]

        start = est._ps_model(data, spec)[1].gamma
        options = {"gtol": 1e-8, "maxiter": 1000}
        reference = minimize(neg_concentrated, start, jac=True, method="BFGS", options=options)
        np.testing.assert_allclose(res.diagnostics["ps_coef"], reference.x, rtol=1e-6)

    # An offset of 5 makes the outcome block singular; 0.3 leaves the
    # gradient above the limit after the Newton step.
    @pytest.mark.parametrize("offset", [5.0, 0.3])
    def test_far_off_optimizer_point_raises(self, monkeypatch, offset):
        data, spec, _, _ = self._problem()

        def far_off(fun, x0, **kwargs):
            return OptimizeResult(x=x0 + offset, nfev=1)

        monkeypatch.setattr(est, "minimize", far_off)
        with pytest.raises(EstimatorError, match="concentrated gradient"):
            est.joint_estimation(data, spec, CFG, RngStream(3, 0).child(STREAM_KEYS["joint"]))

    def test_singular_point_in_the_search_raises(self, monkeypatch):
        # With +60 on the intercept every fitted probability clips to the
        # same value, the cubic columns are exactly zero and the outcome
        # block is singular.  A search that probes there fails the fit.
        data, spec, _, _ = self._problem()
        inner = est.minimize

        def probing(fun, x0, **kwargs):
            fun(x0 + np.array([60.0, 0.0, 0.0, 0.0]))
            return inner(fun, x0, **kwargs)

        monkeypatch.setattr(est, "minimize", probing)
        with pytest.raises(EstimatorError, match=r"gradient\| nan .* the BFGS search$"):
            est.joint_estimation(data, spec, CFG, RngStream(3, 0).child(STREAM_KEYS["joint"]))

    def test_analytic_gradients_match_central_differences(self):
        data, spec, p_phi, loglik = self._problem()
        gen = RngStream(31).generator()
        gamma = np.array([0.1, 0.3, 0.3, 0.2]) + 0.2 * gen.standard_normal(4)
        _, grad, phi, _ = loglik(gamma)
        fd = _central_diff_grad(lambda g: loglik(g)[0], gamma)
        conc = grad[p_phi:]
        assert np.abs(conc - fd).max() <= 1e-6 * np.abs(conc).max()

        # With the Hessian the gradient covers theta = (phi, gamma).
        _, grad, _, _ = loglik(gamma, hessian=True)
        theta = np.concatenate([phi, gamma])
        fd = _central_diff_grad(self._full_value(data, spec, p_phi), theta)
        assert np.abs(grad - fd).max() <= 1e-6 * np.abs(grad).max()

    def test_hessian_matches_fd_hessian_at_optimum(self):
        data, spec, p_phi, loglik = self._problem()
        res = est.joint_estimation(data, spec, CFG, RngStream(3, 0).child(STREAM_KEYS["joint"]))
        gamma = np.array(res.diagnostics["ps_coef"])
        value, grad, phi, hess = loglik(gamma, hessian=True)
        assert value == pytest.approx(res.diagnostics["loglik"], abs=1e-9)
        theta = np.concatenate([phi, gamma])
        fd = _central_diff_hessian(self._full_value(data, spec, p_phi), theta)
        assert np.abs(hess - fd).max() <= 1e-4 * np.abs(fd).max()

    def test_draw_sd_matches_inverse_information(self):
        data, spec, p_phi, loglik = self._problem()
        cfg = ResamplingConfig(n_draws=4000, n_boot=2)
        res = est.joint_estimation(data, spec, cfg, RngStream(3, 0).child(STREAM_KEYS["joint"]))
        hess = loglik(np.array(res.diagnostics["ps_coef"]), hessian=True)[3]
        assert res.diagnostics["hessian_jitter"] == 0.0
        target = np.sqrt(np.linalg.inv(-hess)[est.Z_COL, est.Z_COL])
        assert res.se == pytest.approx(target, rel=0.1)

    @pytest.mark.parametrize("n", [500, 5000])
    def test_matches_reference_objective(self, n):
        # At the treatment-only fit and three points around it: the value,
        # gradient, outcome coefficients and Hessian of the concentrated
        # objective.  The phi block of the concentrated gradient is zero up
        # to rounding, and returned as zeros without the Hessian.
        data, spec, p_phi, loglik = self._problem(n=n, seed=17)
        base = est.plain_outcome_design(data, spec)
        bvals = est.treatment_design(data, spec)
        gen = RngStream(41).generator()
        start = est._ps_model(data, spec)[1].gamma

        def close(new, old):
            new, old = np.asarray(new), np.asarray(old)
            assert np.abs(new - old).max() <= 1e-10 * np.abs(old).max()

        for offset in (0.0, 0.05, 0.1, 0.2):
            gamma = start + offset * gen.standard_normal(start.shape)
            ref = reference_joint_loglik(data.y, data.z, base, bvals, gamma, hessian=True)
            value, grad, phi, hess = loglik(gamma, hessian=True)
            close(value, ref[0])
            close(grad, ref[1])
            close(phi, ref[2])
            close(hess, ref[3])
            value, grad, phi, hess = loglik(gamma)
            assert hess is None and not grad[:p_phi].any()
            close(value, ref[0])
            close(grad[p_phi:], ref[1][p_phi:])
            close(phi, ref[2])

    def test_recovers_where_fd_hessian_was_indefinite(self):
        # Chunk 8 of the benchmark's desk_n500 seed 4, replication 4: the
        # 289-point finite-difference Hessian was too noisy to factor here
        # ("joint information matrix is not positive definite").
        from drbayes.simulation import _DATA_KEY

        rep = RngStream(40008, stream_id=4)
        data = generate_data(500, rep.child(_DATA_KEY))
        spec = apply_scenario(data, "I")
        res = est.joint_estimation(
            data, spec, ResamplingConfig(200, 200), rep.child(STREAM_KEYS["joint"])
        )
        assert np.isfinite(res.point) and np.isfinite(res.se) and res.se > 0.0

    @pytest.mark.parametrize("n", [500, 5000])
    @pytest.mark.parametrize("scenario", ["I", "II"])
    def test_search_matches_scipy_bfgs(self, monkeypatch, scenario, n):
        # scipy's BFGS as the oracle: the polished fit lands where a tight
        # scipy search from the treatment-only fit ends, and a fit passes the
        # gradient check exactly when it passes with scipy's search instead.
        def scipy_search(fun, x0, gtol=1e-3, maxiter=200):
            options = {"gtol": gtol, "maxiter": maxiter}
            return minimize(fun, x0, jac=True, method="BFGS", options=options)

        def fit(data, spec, r):
            try:
                return est.joint_estimation(data, spec, CFG, RngStream(3, r).child(STREAM_KEYS["joint"]))
            except EstimatorError:
                return None

        for r in range(5):
            data = generate_data(n, RngStream(9100 + n, r))
            spec = apply_scenario(data, scenario)
            ours = fit(data, spec, r)
            with monkeypatch.context() as patch:
                patch.setattr(est, "minimize", scipy_search)
                theirs = fit(data, spec, r)
            assert (ours is None) == (theirs is None)
            if ours is None:
                continue
            p_phi, loglik = self._loglik(data, spec)

            def neg_concentrated(gamma):
                value, grad, _, _ = loglik(gamma)
                return -value, -grad[p_phi:]

            start = est._ps_model(data, spec)[1].gamma
            reference = scipy_search(neg_concentrated, start, gtol=1e-8, maxiter=1000)
            np.testing.assert_allclose(ours.diagnostics["ps_coef"], reference.x, rtol=1e-6)


class TestImportanceSampling:
    def test_batched_draws_match_single_evaluator(self):
        data, spec = _sim_data(n=120, seed=15)
        cfg = ResamplingConfig(n_draws=6, n_boot=2)
        rng = RngStream(15, 0).child(STREAM_KEYS["is"])
        res = importance_sampling(data, spec, cfg, rng)
        xi = est._dirichlet_rows(rng.child(0).generator(), 6, data.n)
        singles = [importance_sampling_value(data, spec, xi[j]) for j in range(6)]
        np.testing.assert_allclose(res.draws, singles, atol=1e-8)

    def test_batched_dr_draws_match_single_evaluator(self):
        data, spec = _sim_data(n=120, seed=16)
        cfg = ResamplingConfig(n_draws=6, n_boot=2)
        rng = RngStream(16, 0).child(STREAM_KEYS["is_dr"])
        res = importance_sampling_dr(data, spec, cfg, rng)
        xi = est._dirichlet_rows(rng.child(0).generator(), 6, data.n)
        singles = [importance_sampling_dr_value(data, spec, xi[j])[0] for j in range(6)]
        np.testing.assert_allclose(res.draws, singles, atol=1e-8)


class TestBootstrapSe:
    def test_constant_estimator_zero_se(self):
        data, spec = _sim_data(n=80)
        se, _ = bootstrap_se(lambda d, s, c: 42.0, data, spec, CFG, RngStream(17, 0))
        assert se == 0.0

    def test_naive_bootstrap_close_to_analytic(self):
        data, spec = _sim_data(n=500, seed=18)
        cfg = ResamplingConfig(n_draws=2, n_boot=300)
        se, _ = bootstrap_se(lambda d, s, c: naive(d).point, data, spec, cfg, RngStream(18, 0))
        analytic = naive(data).se
        assert abs(se - analytic) < 0.15 * analytic

    def test_doubling_resamples_is_stable(self):
        data, spec = _sim_data(n=200, seed=19)
        point = _estimator_point("naive", None)
        se1, _ = bootstrap_se(point, data, spec, ResamplingConfig(2, 100), RngStream(19, 0))
        se2, _ = bootstrap_se(point, data, spec, ResamplingConfig(2, 200), RngStream(19, 1))
        mc_err = se1 / np.sqrt(2 * 100)
        assert abs(se2 - se1) < 3.0 * 3.0 * mc_err

    def test_fast_paths_match_generic_bootstrap(self):
        # The count-weighted rows of the estimators' kernels must reproduce
        # the estimators' own points on the physically resampled data sets.
        data, spec = _sim_data(n=120, seed=20)
        cfg = ResamplingConfig(n_draws=2, n_boot=30)
        for tag in ("iptw", "dr", "clever", "or_iptw"):
            rng = RngStream(20, 0).child(STREAM_KEYS[tag])
            fast = ESTIMATORS[tag](data, spec, cfg, rng)
            generic_se, _ = bootstrap_se(_estimator_point(tag, rng), data, spec, cfg, rng)
            assert fast.se == pytest.approx(generic_se, abs=1e-8), tag

    def test_failure_threshold(self):
        data, spec = _sim_data(n=60)

        def flaky(d, s, c):
            raise RuntimeError("boom")

        with pytest.raises(DrawFailureError):
            bootstrap_se(flaky, data, spec, ResamplingConfig(2, 20), RngStream(21, 0))

    @pytest.mark.parametrize("tag", ["iptw", "dr", "clever", "or_iptw"])
    def test_failed_full_sample_row_names_its_cause(self, tag, monkeypatch):
        # A duplicated outcome covariate makes every plain outcome fit
        # singular; iptw has no outcome fit, so its row 0 is made non-finite.
        data, _ = _sim_data(n=120, seed=22)
        spec = CovariateSpec(s_columns=((0, est.IDENTITY),) * 2, b_columns=((0, est.IDENTITY),))
        inner = est._iptw_rows

        def nan_row0(data, W, H):
            values, _ = inner(data, W, H)
            values[0] = np.nan
            return values, np.isfinite(values)

        monkeypatch.setattr(est, "_iptw_rows", nan_row0)
        if tag == "iptw":
            cause = "estimate is not finite"
        else:
            cause = r"outcome fit is singular; collinear columns: \['x1'\]"
        with pytest.raises(EstimatorError, match=f"^{tag}: the full-sample {cause}$"):
            ESTIMATORS[tag](data, spec, CFG, RngStream(22, 0).child(STREAM_KEYS[tag]))


class TestRelabelInvariance:
    NOISE_FREE = [
        "naive",
        "adjusted",
        "iptw",
        "or_ps_info",
        "or_ps_sandwich",
        "dr",
        "clever",
        "or_iptw",
        "two_step_vardecomp",
        "is",
        "is_dr",
    ]

    @pytest.mark.parametrize("tag", NOISE_FREE)
    def test_sign_flip_under_treatment_relabeling(self, tag):
        data, spec = _sim_data(n=200, seed=22)
        flipped = Dataset(
            y=data.y, z=1.0 - data.z, x=data.x, column_names=data.column_names
        )
        rng = RngStream(22, 0).child(STREAM_KEYS[tag])
        a = ESTIMATORS[tag](data, spec, CFG, rng)
        b = ESTIMATORS[tag](flipped, spec, CFG, rng)
        assert b.point == pytest.approx(-a.point, abs=1e-8)

    @pytest.mark.parametrize("tag", ["two_step_forward", "joint"])
    def test_sign_symmetry_up_to_posterior_noise(self, tag):
        # These two carry fresh posterior-normal noise in the point itself,
        # so the relabeled point matches in distribution, not realization.
        data, spec = _sim_data(n=200, seed=23)
        flipped = Dataset(
            y=data.y, z=1.0 - data.z, x=data.x, column_names=data.column_names
        )
        cfg = ResamplingConfig(n_draws=200, n_boot=2)
        rng = RngStream(23, 0).child(STREAM_KEYS[tag])
        a = ESTIMATORS[tag](data, spec, cfg, rng)
        b = ESTIMATORS[tag](flipped, spec, cfg, rng)
        tol = 8.0 * a.se / np.sqrt(cfg.n_draws)
        assert b.point == pytest.approx(-a.point, abs=tol)


# A small desk configuration: every estimator, few draws.
SHARED_CONFIG = SimConfig(n=200, reps=2, seed=31, n_draws=30, n_boot=30)


def _replication_data(config, rep):
    """The data set and stream of replication ``rep``, generated afresh."""
    rep_rng = RngStream(config.seed, stream_id=rep)
    data = generate_data(config.n, rep_rng.child(sim._DATA_KEY))
    return data, apply_scenario(data, config.scenario), rep_rng


class TestSharedPlan:
    """Estimators with a common stream key read one treatment-model fit and
    one resampling plan per data set."""

    @pytest.fixture(scope="class")
    def records(self):
        return {rec.estimator: rec for rec in run_replication(SHARED_CONFIG, 1)}

    @pytest.mark.parametrize("tag", ESTIMATOR_ORDER)
    def test_sharing_is_invisible(self, records, tag):
        # Alone on a fresh, equal data set, each estimator gives the exact
        # record it gives next to the others in a replication.
        data, spec, rep_rng = _replication_data(SHARED_CONFIG, 1)
        alone = ESTIMATORS[tag](
            data, spec, SHARED_CONFIG.resampling(), rep_rng.child(STREAM_KEYS[tag])
        )
        assert records[tag].error is None
        assert (records[tag].point, records[tag].se) == (alone.point, alone.se)

    def test_one_full_sample_fit_and_two_batches_per_replication(self, monkeypatch):
        calls = {"fit_logistic_weighted": 0, "fit_logistic_weighted_many": 0}

        def counting(name):
            inner = getattr(est, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(est, name, counting(name))
        for rep in range(SHARED_CONFIG.reps):
            records = run_replication(SHARED_CONFIG, rep)
            assert all(rec.error is None for rec in records)
        assert calls == {
            "fit_logistic_weighted": SHARED_CONFIG.reps,
            "fit_logistic_weighted_many": 2 * SHARED_CONFIG.reps,
        }

    def test_full_sample_outcome_fits_shared(self, monkeypatch):
        # adjusted fits the plain model, or_ps_info and or_ps_sandwich share
        # the propensity-adjusted fit; dr, clever and or_iptw fit their
        # full-sample row in the same batch as their bootstrap rows.
        calls = []
        inner = est.fit_linear_weighted

        def counting(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(est, "fit_linear_weighted", counting)
        for rep in range(SHARED_CONFIG.reps):
            run_replication(SHARED_CONFIG, rep)
        assert len(calls) == 2 * SHARED_CONFIG.reps

        data, spec = _sim_data(n=100, seed=26)
        info = est.or_ps_info(data, spec)
        info.diagnostics["extra"] = 1.0  # each caller extends its own copy
        assert "extra" not in est.or_ps_sandwich(data, spec).diagnostics
        design, fit, _, _ = est._or_ps_parts(data, spec)
        for values in (fit.phi, fit.cov, design):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

    def test_designs_built_once_and_read_only(self):
        data, spec = _sim_data(n=100, seed=28)
        for build in (est.treatment_design, est.plain_outcome_design):
            design = build(data, spec)
            assert build(data, spec) is design
            with pytest.raises(ValueError, match="read-only"):
                design[0, 0] = 2.0

    def test_bayesian_estimators_share_dirichlet_refits(self):
        data, spec, rep_rng = _replication_data(SHARED_CONFIG, 0)
        cfg = SHARED_CONFIG.resampling()
        coefs = {
            tag: ESTIMATORS[tag](data, spec, cfg, rep_rng.child(STREAM_KEYS[tag])).diagnostics[
                "ps_coef"
            ]
            for tag in ("two_step_forward", "is", "is_dr")
        }
        assert coefs["is"] == coefs["two_step_forward"] == coefs["is_dr"]

    def test_bootstrap_estimators_share_count_matrix(self):
        # Three treated of 40 make single-arm resamples, and so redraws, likely.
        base, _ = _sim_data(n=40, seed=42)
        z = np.zeros(40)
        z[:3] = 1.0
        data = Dataset(y=base.y, z=z, x=base.x)
        spec = CovariateSpec(s_columns=((0, est.IDENTITY),), b_columns=((1, est.IDENTITY),))
        cfg = ResamplingConfig(n_draws=2, n_boot=100)
        rep_rng = RngStream(7, 0)
        redraws = {
            tag: ESTIMATORS[tag](data, spec, cfg, rep_rng.child(STREAM_KEYS[tag])).diagnostics[
                "boot_degenerate_redraws"
            ]
            for tag in ("iptw", "dr", "clever", "or_iptw")
        }
        assert redraws["iptw"] > 0
        assert set(redraws.values()) == {redraws["iptw"]}

    @pytest.mark.parametrize("tag", ["iptw", "dr", "is", "two_step_vardecomp"])
    def test_memo_belongs_to_its_data_set(self, tag):
        data, spec = _sim_data(n=150, seed=24)
        z = data.z.copy()
        z[:10] = 1.0 - z[:10]
        rng = RngStream(24, 0).child(STREAM_KEYS[tag])
        # Equal streams, different treatment column: a fit cached for the
        # first data set must not be served to the second, even when the
        # second is allocated where the freed first one was.
        first = ESTIMATORS[tag](Dataset(y=data.y, z=data.z, x=data.x), spec, CFG, rng)
        second = ESTIMATORS[tag](Dataset(y=data.y, z=z, x=data.x), spec, CFG, rng)
        assert second.diagnostics["ps_coef"] != first.diagnostics["ps_coef"]
        assert second.se != first.se
        alone = ESTIMATORS[tag](data, spec, CFG, rng)
        assert (first.point, first.se) == (alone.point, alone.se)

    def test_data_and_plans_are_read_only(self):
        y = np.arange(6, dtype=float)
        data = Dataset(y=y, z=[1, 0, 1, 0, 1, 0], x=np.zeros((6, 1)))
        y[0] = 99.0  # the caller's array stays writable and is not shared
        assert data.y[0] == 0.0
        for values in (data.y, data.z, data.x):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0

        data, spec = _sim_data(n=100, seed=25)
        rng = RngStream(25, 0).child(STREAM_KEYS["iptw"])
        _, fit, e, _ = est._ps_model(data, spec)
        W, E, H, ok, _ = est._count_plan(data, spec, rng, 20)
        xi, dirichlet_batch, e_d, H_d = est._dirichlet_plan(data, spec, rng, 20)
        for values in (fit.gamma, e, W, E, H, ok, xi, dirichlet_batch.gamma, e_d, H_d):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        # An estimator extends its own copy of the treatment fit's diagnostics.
        assert "weight_max" in iptw(data, spec, CFG, rng).diagnostics
        assert "weight_max" not in est._ps_model(data, spec)[3]
