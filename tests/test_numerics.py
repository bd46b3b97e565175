import warnings

import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from drbayes.estimators import _dirichlet_rows
from drbayes.numerics import (
    PROB_CLIP,
    InvalidArgumentError,
    RngStream,
    batch_means_error,
    expit,
    logistic_,
)


def sample_dirichlet(n, rng):
    """One flat-Dirichlet row as the Bayesian-bootstrap plan draws it."""
    return _dirichlet_rows(rng.generator() if isinstance(rng, RngStream) else rng, 1, n)[0]


class TestRngStream:
    def test_identical_keys_identical_sequences(self):
        a = RngStream(42, 7).generator().standard_normal(32)
        b = RngStream(42, 7).generator().standard_normal(32)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        a = RngStream(42, 0).generator().standard_normal(32)
        b = RngStream(42, 1).generator().standard_normal(32)
        assert not np.array_equal(a, b)

    def test_children_are_pure_and_distinct(self):
        base = RngStream(5, 2)
        a = base.child(3, 1).generator().standard_normal(8)
        b = base.child(3, 1).generator().standard_normal(8)
        c = base.child(3, 2).generator().standard_normal(8)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_independent_of_sibling_consumption(self):
        base = RngStream(5, 2)
        before = base.child(1).generator().standard_normal(4)
        base.child(0).generator().standard_normal(1000)
        after = base.child(1).generator().standard_normal(4)
        np.testing.assert_array_equal(before, after)


class TestExpit:
    def test_zero_is_half(self):
        assert expit(0.0) == 0.5

    def test_log_three(self):
        assert expit(np.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_reflection_identity(self):
        x = 2.7
        assert expit(-x) == pytest.approx(1.0 - expit(x), abs=1e-12)

    def test_clipping_absorbs_overflow(self):
        assert expit(1e4) == pytest.approx(1.0 - 1e-12)
        assert expit(-1e4) == pytest.approx(1e-12)
        vals = expit(np.array([-1e308, 0.0, 1e308]))
        assert np.all(np.isfinite(vals))


def _ulps(a, b):
    """Distance in units in the last place between equal-sign doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


# Where exp(-x) lies in [2^53, 2^54), 1 + exp(-x) is a rounding tie, and a
# one-ulp difference in exp can move the result by up to four ulps.
TIE_WINDOW = (-37.5, -36.7)


class TestLogisticKernel:
    grid = np.linspace(-750.0, 750.0, 1_500_001)

    def test_matches_scipy_within_2_ulp_outside_the_tie_window(self):
        ours = logistic_(self.grid.copy())
        ulps = _ulps(ours, scipy_expit(self.grid))
        tie = (self.grid > TIE_WINDOW[0]) & (self.grid < TIE_WINDOW[1])
        assert ulps[~tie].max() <= 2
        assert ulps[tie].max() <= 4

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="needs extended-precision long double"
    )
    def test_within_2_ulp_of_the_exact_value(self):
        x = self.grid[self.grid > -700.0]  # below, both give 0 for a subnormal
        exact = (1.0 / (1.0 + np.exp(-x.astype(np.longdouble)))).astype(float)
        assert _ulps(logistic_(x.copy()), exact).max() <= 2

    def test_extremes_match_scipy(self):
        x = np.array([1e308, -1e308, np.inf, -np.inf, np.nan, 0.0, -0.0])
        np.testing.assert_array_equal(logistic_(x.copy()), scipy_expit(x))

    def test_no_runtime_warning(self):
        x = np.array([-1e308, -750.0, -710.0, 0.0, 710.0, 1e308, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logistic_(x.copy())
            expit(x)
            expit(-1e308)

    def test_in_place_and_argument_untouched(self):
        x = np.array([-2.0, 0.0, 3.0])
        out = logistic_(x)
        assert out is x
        y = np.array([-2.0, 0.0, 3.0])
        expit(y)
        np.testing.assert_array_equal(y, [-2.0, 0.0, 3.0])

    def test_scalar_in_scalar_out(self):
        for value in (0.3, np.float64(-1.2), 2, -1e308):
            out = expit(value)
            assert np.ndim(out) == 0 and not isinstance(out, np.ndarray)
        assert expit(np.array([0.3])).shape == (1,)

    def test_clipping_unchanged(self):
        assert expit(-1e4) == PROB_CLIP
        assert expit(1e4) == 1.0 - PROB_CLIP
        x = self.grid[::10]
        np.testing.assert_array_equal(
            expit(x), np.clip(logistic_(x.copy()), PROB_CLIP, 1.0 - PROB_CLIP)
        )


class TestSampleDirichlet:
    """Rows of the Bayesian-bootstrap plan (``estimators._dirichlet_rows``)."""

    def test_single_point_simplex(self):
        np.testing.assert_array_equal(sample_dirichlet(1, RngStream(1)), [1.0])

    def test_normalization_and_positivity(self):
        for k in range(5):
            w = sample_dirichlet(37, RngStream(9, k))
            assert abs(w.sum() - 1.0) <= 1e-12
            assert np.all(w > 0)

    def test_flat_dirichlet_moments(self):
        # Monte Carlo check against the flat-Dirichlet mean 1/n and variance
        # (1/n)(1 - 1/n)/(n + 1) for n = 4.
        n, draws = 4, 100_000
        gen = RngStream(31).generator()
        samples = np.vstack([sample_dirichlet(n, gen) for _ in range(draws)])
        np.testing.assert_allclose(samples.mean(axis=0), 0.25, atol=0.005)
        target_var = (1 / n) * (1 - 1 / n) / (n + 1)
        assert np.all(np.abs(samples.var(axis=0) - target_var) < 0.1 * target_var)


class TestBatchMeansError:
    def test_constant_series_is_zero(self):
        assert batch_means_error(np.ones(100), 10) == 0.0

    def test_iid_normal_scale(self):
        gen = RngStream(21).generator()
        values = gen.standard_normal(1000)
        err = batch_means_error(values, 31)
        target = 1.0 / np.sqrt(1000)
        assert abs(err - target) < 0.5 * target

    def test_depends_on_partition_only_through_order(self):
        gen = RngStream(22).generator()
        values = gen.standard_normal(200)
        shuffled = values[gen.permutation(200)]
        # same multiset, different batching: generally different estimates
        assert batch_means_error(values, 10) != batch_means_error(shuffled, 10)

    def test_too_few_batches_rejected(self):
        with pytest.raises(InvalidArgumentError):
            batch_means_error(np.arange(10.0), 1)

    def test_too_few_values_rejected(self):
        with pytest.raises(InvalidArgumentError):
            batch_means_error(np.arange(5.0), 3)

    def test_trailing_remainder_dropped(self):
        values = np.array([1.0, 1.0, 2.0, 2.0, 99.0])
        assert batch_means_error(values, 2) == batch_means_error(values[:4], 2)
