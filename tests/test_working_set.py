"""The resampling path's working set, pinned with ``tracemalloc``.

Each (m, n) quantity of a plan or a batched kernel is held once: the
kernels write into arrays they own, so no full-size temporary exists
beside the arrays a plan keeps.  ``tracemalloc`` counts are deterministic,
so the bounds below are exact statements about allocations, not timings.
The in-place forms are checked against the formulas they replaced, bit for
bit.
"""

import tracemalloc

import numpy as np
import pytest

from drbayes import estimators as est
from drbayes.glm import (
    _column_pairs,
    _upper_triangle,
    clever_covariate,
    clever_covariate_,
    fit_logistic_weighted_many,
)
from drbayes.numerics import RngStream
from drbayes.simulation import apply_scenario, generate_data

CFG = est.ResamplingConfig(n_draws=200, n_boot=200)


def _traced_peak(run):
    """Peak traced bytes allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _prepared(n, seed):
    """A scenario I data set whose designs and full-sample treatment fit
    are built before tracing, so that only the plans are counted."""
    data = generate_data(n, RngStream(seed, 0))
    spec = apply_scenario(data, "I")
    est._ps_model(data, spec)
    est.plain_outcome_design(data, spec)
    return data, spec


class TestIrlsWorkingSet:
    N, M = 2000, 50

    def _fit_peak(self, weights):
        data, spec = _prepared(self.N, seed=61)
        design, fit, _, _ = est._ps_model(data, spec)
        peak = _traced_peak(
            lambda: fit_logistic_weighted_many(design, data.z, weights, start=fit.gamma)
        )
        p = design.shape[1]
        # Beside the (m, n) arrays: the column products and a few (n, p)
        # arrays, within 2 n p^2, and one block of 16 rows over which the
        # IRLS weights are formed.
        return peak, 8 * self.M * self.N, 8 * self.N * (2 * p * p + 16)

    def test_rows_converging_together_hold_prob_and_one_buffer(self):
        # Identical rows converge in the same iteration: the kernel holds
        # its probabilities and one residual buffer, nothing else of (m, n).
        row = est._dirichlet_rows(RngStream(62).generator(), 1, self.N)
        peak, array, small = self._fit_peak(np.tile(row, (self.M, 1)))
        assert peak <= 2 * array + small

    def test_rows_converging_apart_add_at_most_the_stragglers(self):
        # Independent Dirichlet rows converge over two iterations; then only
        # the active rows' probabilities are a new array.
        weights = est._dirichlet_rows(RngStream(63).generator(), self.M, self.N)
        peak, array, small = self._fit_peak(weights)
        assert peak <= 3 * array + small


class TestPlanWorkingSet:
    """A plan keeps three (m, n) arrays; building it, and each estimator
    that reads it, needs at most one more, within 10%."""

    def test_dirichlet_plan_then_is_and_is_dr(self):
        data, spec = _prepared(500, seed=64)
        rng = RngStream(64, 0).child(est.STREAM_KEYS["is"])

        def run():
            est._dirichlet_plan(data, spec, rng, CFG.n_draws)
            est.importance_sampling(data, spec, CFG, rng)
            est.importance_sampling_dr(data, spec, CFG, rng)

        peak = _traced_peak(run)
        assert peak <= 1.1 * (3 + 1) * 8 * CFG.n_draws * data.n

    def test_count_plan_then_its_estimators(self):
        data, spec = _prepared(500, seed=65)
        rng = RngStream(65, 0).child(est.STREAM_KEYS["iptw"])

        def run():
            est._count_plan(data, spec, rng, CFG.n_boot)
            for tag in ("iptw", "dr", "clever", "or_iptw"):
                est.ESTIMATORS[tag](data, spec, CFG, rng)

        peak = _traced_peak(run)
        assert peak <= 1.1 * (3 + 1) * 8 * (CFG.n_boot + 1) * data.n


def _probabilities(shape, seed):
    """Probabilities with some entries clamped to each end of the weight
    clip."""
    e = RngStream(seed).generator().uniform(0.0, 1.0, shape)
    e[:, ::7] = 0.0
    e[:, 3::11] = 1.0
    return est._clamp_ps(e)


class TestInPlaceFormsEqualTheFormulas:
    def test_clever_covariate(self):
        z = (np.arange(300) % 3 == 0).astype(float)
        E = _probabilities((20, 300), seed=66)
        formula = z / E - (1.0 - z) / (1.0 - E)
        np.testing.assert_array_equal(clever_covariate(z, E), formula)
        np.testing.assert_array_equal(clever_covariate_(z, E.copy()), formula)
        assert np.isin(E, [est.WEIGHT_CLIP, 1.0 - est.WEIGHT_CLIP]).any()

    @pytest.mark.parametrize("stabilize", [True, False])
    def test_ipw_rows(self, stabilize):
        z = (np.arange(300) % 3 == 0).astype(float)
        E = _probabilities((20, 300), seed=67)
        W = RngStream(68).generator().exponential(size=(20, 300))
        H = clever_covariate(z, E)
        formula = np.abs(H)
        if stabilize:
            pbar = ((W @ z) / W.sum(axis=1))[:, None]
            formula *= np.where(z == 1.0, pbar, 1.0 - pbar)
        np.testing.assert_array_equal(est._ipw_rows(z, W, H, stabilize), formula)

    def test_column_pairs_match_the_fancy_index_product(self):
        # Values and layout: the Gram GEMMs' bits depend on the layout.
        x = RngStream(69).generator().standard_normal((100, 5))
        iu = _upper_triangle(5)
        formula = x[:, iu[0]] * x[:, iu[1]]
        pairs = _column_pairs(x)
        np.testing.assert_array_equal(pairs, formula)
        assert pairs.flags.f_contiguous == formula.flags.f_contiguous

    def test_bootstrap_weights_are_the_counts_below_a_uniform_row(self):
        z = (np.arange(200) % 4 == 0).astype(float)
        W, redraws = est._bootstrap_counts(z, 30, RngStream(70).generator())
        idx, again = est._resample_index_matrix(z, 30, RngStream(70).generator())
        counts = np.stack([np.bincount(row, minlength=200) for row in idx])
        assert redraws == again
        np.testing.assert_array_equal(W[0], np.ones(200))
        np.testing.assert_array_equal(W[1:], counts)
