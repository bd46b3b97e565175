"""The estimator identity suite plus its sensitivity (mutation) checks."""

import pytest

from drbayes.selfcheck import (
    ALL_CHECKS,
    IDENTITY_TOLERANCE,
    _clever_model_dr_terms,
    check_clever_covariate_matches_dr,
    check_saturated_outcome_kills_residual,
    check_saturated_ps_reduces_to_weighted_mean,
    check_treatment_fit_is_outcome_blind,
    check_uniform_weights_match_dr,
    check_uniform_weights_match_weighted_regression,
    run_selfcheck,
    _fixture_data,
)


class TestIdentities:
    def test_uniform_is_equals_or_iptw(self):
        res = check_uniform_weights_match_weighted_regression()
        assert res.passed, res
        assert res.residual < IDENTITY_TOLERANCE

    @pytest.mark.parametrize("stabilize", [True, False])
    def test_uniform_row_identity_either_stabilization(self, stabilize):
        res = check_uniform_weights_match_weighted_regression(stabilize=stabilize)
        assert res.passed, res

    def test_uniform_is_dr_equals_dr(self):
        res = check_uniform_weights_match_dr()
        assert res.passed, res

    def test_clever_model_dr_identity(self):
        res = check_clever_covariate_matches_dr()
        assert res.passed, res

    def test_saturated_outcome_residual_vanishes(self):
        res = check_saturated_outcome_kills_residual()
        assert res.passed, res

    def test_saturated_ps_reduces_to_weighted_mean(self):
        res = check_saturated_ps_reduces_to_weighted_mean()
        assert res.passed, res

    def test_outcome_blind_treatment_fits(self):
        res = check_treatment_fit_is_outcome_blind()
        assert res.passed, res

    def test_run_selfcheck_all_pass(self):
        ok, results = run_selfcheck()
        assert ok
        assert len(results) == len(ALL_CHECKS)


class TestSensitivity:
    def test_corrupted_residual_sign_breaks_clever_identity(self):
        # Mutation check: flipping the sign of the reweighting factor inside
        # the doubly robust residual must be caught by the identity.
        data, spec = _fixture_data()
        value_ok, residual_ok = _clever_model_dr_terms(data, spec)
        value_bad, residual_bad = _clever_model_dr_terms(
            data, spec, corrupt_residual_sign=True
        )
        assert abs(residual_ok) < IDENTITY_TOLERANCE
        assert abs(residual_bad) > 1e-3
        assert abs(value_bad - value_ok) > 1e-3
