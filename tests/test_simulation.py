import math
import resource

import numpy as np
import pytest

from drbayes import cli, simulation

from drbayes.estimators import ABS_STANDARDIZED, ABS_STD_SCALE, IDENTITY, EstimatorError
from drbayes.numerics import InvalidArgumentError, RngStream, expit
from drbayes.simulation import (
    SCENARIOS,
    SimConfig,
    apply_scenario,
    generate_data,
    run_estimators,
    run_replication,
    run_simulation,
    summarize,
    ReplicationRecord,
)

FAST_ESTIMATORS = ("naive", "adjusted", "dr", "is")


def _fast_config(**kw):
    base = dict(
        n=100,
        reps=4,
        seed=90,
        scenario="I",
        estimators=FAST_ESTIMATORS,
        n_draws=8,
        n_boot=8,
    )
    base.update(kw)
    return SimConfig(**base)


class TestGenerateData:
    def test_shapes_and_names(self):
        data = generate_data(200, RngStream(1, 0))
        assert data.x.shape == (200, 4)
        assert data.column_names == ("x1", "x2", "x3", "x4")
        assert set(np.unique(data.z)) <= {0.0, 1.0}

    def test_deterministic_in_stream(self):
        a = generate_data(50, RngStream(2, 3))
        b = generate_data(50, RngStream(2, 3))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)

    def test_transformed_first_covariate_moments(self):
        # The analytic mean of |X|/sqrt(1 - 2/pi) for standard normal X is
        # sqrt(2/pi)/sqrt(1 - 2/pi); its variance is one by construction.
        data = generate_data(1_000_000, RngStream(3, 1))
        c1 = np.abs(data.x[:, 0]) * ABS_STD_SCALE
        target = math.sqrt(2.0 / math.pi) / math.sqrt(1.0 - 2.0 / math.pi)
        assert c1.mean() == pytest.approx(target, abs=0.003)
        assert c1.var() == pytest.approx(1.0, abs=0.01)

    def test_treated_fraction_matches_quadrature_oracle(self):
        # Independent oracle: integrate expit(0.4 c1 + t) over the half-normal
        # law of c1 and t ~ N(0, 0.4^2 + 0.8^2) by Gauss-Hermite quadrature.
        nodes, weights = np.polynomial.hermite_e.hermegauss(120)
        whalf = weights / math.sqrt(2.0 * math.pi)
        c1_nodes = np.abs(nodes) * ABS_STD_SCALE
        t_sd = math.sqrt(0.4**2 + 0.8**2)
        grid = 0.4 * c1_nodes[:, None] + t_sd * nodes[None, :]
        oracle = float(whalf @ expit(grid) @ whalf)
        data = generate_data(1_000_000, RngStream(4, 2))
        assert data.z.mean() == pytest.approx(oracle, abs=0.003)

    def test_outcome_mechanism_additive_unit_effect(self):
        # Rebuild the conditional mean from the stored covariates: the
        # residual y - (z - c1 - x2 - x3) must be standard normal noise,
        # independent of z, so the treatment effect is additive and equals 1.
        data = generate_data(500_000, RngStream(5, 4))
        c1 = np.abs(data.x[:, 0]) * ABS_STD_SCALE
        resid = data.y - (data.z - c1 - data.x[:, 1] - data.x[:, 2])
        assert resid.mean() == pytest.approx(0.0, abs=0.005)
        assert resid.std() == pytest.approx(1.0, abs=0.005)
        assert abs(resid[data.z == 1].mean() - resid[data.z == 0].mean()) < 0.01


class TestApplyScenario:
    def test_scenario_one_sets(self):
        spec = SCENARIOS["I"]
        assert spec.s_columns == ((0, IDENTITY), (1, IDENTITY), (2, IDENTITY))
        assert spec.b_columns == ((0, ABS_STANDARDIZED), (1, IDENTITY), (3, IDENTITY))

    def test_scenario_two_sets(self):
        spec = SCENARIOS["II"]
        assert spec.s_columns[0] == (0, ABS_STANDARDIZED)
        assert spec.b_columns == ((0, IDENTITY), (1, IDENTITY), (3, IDENTITY))

    def test_round_trip_column_means(self):
        data = generate_data(200_000, RngStream(6, 0))
        spec = apply_scenario(data, "II")
        svals = spec.s_matrix(data)
        target = math.sqrt(2.0 / math.pi) / math.sqrt(1.0 - 2.0 / math.pi)
        assert svals[:, 0].mean() == pytest.approx(target, abs=0.01)
        assert svals[:, 1].mean() == pytest.approx(0.0, abs=0.01)
        assert spec.labels(data)[0] == "abs(x1)"

    def test_unknown_scenario_rejected(self):
        data = generate_data(60, RngStream(7, 0))
        with pytest.raises(KeyError):
            apply_scenario(data, "III")


class TestRunReplication:
    def test_same_index_same_records(self):
        config = _fast_config()
        a = run_replication(config, 2)
        b = run_replication(config, 2)
        assert a == b

    def test_different_index_different_data(self):
        config = _fast_config()
        a = run_replication(config, 0)
        b = run_replication(config, 1)
        assert a[0].point != b[0].point

    def test_covered_flag_consistent(self):
        config = _fast_config(reps=3)
        for rec in run_replication(config, 1):
            assert rec.covered == (abs(rec.point - 1.0) <= 1.96 * rec.se)


class TestRunEstimators:
    def test_only_estimator_errors_become_records(self, monkeypatch):
        # A refusal is data; any other exception is a defect and propagates.
        def raising(error):
            def estimator(*args):
                raise error

            return estimator

        config = _fast_config(estimators=("naive", "adjusted"))
        data = generate_data(config.n, RngStream(config.seed, 0))
        spec = apply_scenario(data, config.scenario)
        monkeypatch.setitem(simulation.ESTIMATORS, "naive", raising(ValueError("a defect")))
        with pytest.raises(ValueError, match="a defect"):
            run_estimators(data, spec, config.resampling(), RngStream(config.seed), ["naive"])
        with pytest.raises(ValueError, match="a defect"):
            run_replication(config, 0)

        monkeypatch.setitem(simulation.ESTIMATORS, "naive", raising(EstimatorError("a refusal")))
        naive, adjusted = run_replication(config, 0)
        assert naive.error == "EstimatorError: a refusal" and math.isnan(naive.point)
        assert adjusted.error is None and math.isfinite(adjusted.point)

    @pytest.mark.parametrize(
        "tags, message",
        [
            (["naive", "naive"], r"repeated estimators \['naive'\]"),
            (["nope"], r"unknown estimators \['nope'\]"),
            ([], "no estimators given"),
        ],
    )
    def test_bad_tags_raise_value_error(self, tags, message):
        # Repeated tags used to collapse into one entry, an unknown one to
        # raise a bare KeyError.
        data = generate_data(100, RngStream(5, 0))
        spec = apply_scenario(data, "I")
        with pytest.raises(ValueError, match=message):
            run_estimators(data, spec, _fast_config().resampling(), RngStream(5), tags)


class TestSummarize:
    def test_degenerate_points(self):
        recs = [
            ReplicationRecord(r, "naive", 1.0, 0.1, True) for r in range(16)
        ]
        row = summarize(recs)[0]
        assert row.mean_point == 1.0
        assert row.rel_bias_pct == 0.0
        assert row.mc_sd == 0.0
        assert row.coverage_pct == 100.0
        assert row.mc_error == 0.0

    def test_two_point_arithmetic(self):
        recs = [
            ReplicationRecord(0, "e", 0.9, 0.2, True),
            ReplicationRecord(1, "e", 1.1, 0.4, True),
        ]
        row = summarize(recs)[0]
        assert row.mean_point == pytest.approx(1.0)
        assert row.mc_sd == pytest.approx(0.1414, abs=5e-4)
        assert row.mean_se == pytest.approx(0.3)
        assert math.isnan(row.mc_error)  # too few replications for batches

    def test_coverage_definition(self):
        recs = [
            ReplicationRecord(0, "e", 1.0, 0.1, True),
            ReplicationRecord(1, "e", 1.3, 0.1, False),
        ]
        assert summarize(recs)[0].coverage_pct == 50.0

    def test_failures_flagged_incomplete(self):
        recs = [ReplicationRecord(r, "e", 1.0, 0.1, True) for r in range(8)]
        recs += [
            ReplicationRecord(8 + i, "e", float("nan"), float("nan"), False, error="x")
            for i in range(2)
        ]
        row = summarize(recs)[0]
        assert row.n_failed == 2
        assert row.incomplete  # 20% failures

    def test_batch_count_rule(self):
        gen = RngStream(8).generator()
        recs = [
            ReplicationRecord(r, "e", float(gen.standard_normal() + 1.0), 0.1, True)
            for r in range(100)
        ]
        row = summarize(recs)[0]
        from drbayes.numerics import batch_means_error

        points = np.array([r.point for r in recs])
        assert row.mc_error == pytest.approx(batch_means_error(points, 10))
        # The batches are taken over the successful replications only: 99
        # of them give 9 batches, not the 10 of 100 replications.
        recs[50] = ReplicationRecord(50, "e", float("nan"), float("nan"), False, error="x")
        row = summarize(recs)[0]
        assert row.n_failed == 1
        good = np.delete(points, 50)
        assert row.mc_error == pytest.approx(batch_means_error(good, 9))


TREND_SIZES = ((250, 300), (1000, 150), (4000, 75))


@pytest.fixture(scope="module")
def rows_by_n():
    out = {}
    for n, reps in TREND_SIZES:
        res = run_simulation(
            SimConfig(
                n=n,
                reps=reps,
                seed=424242,
                scenario="I",
                estimators=("naive", "adjusted", "dr", "or_ps_info"),
                n_draws=2,
                n_boot=2,
            )
        )
        out[n] = {row.estimator: row for row in res.rows}
    return out


class TestConsistencyTrends:
    # Mean points of consistent estimators drift toward the truth as n
    # grows, while the confounded estimators sit at n-free limits.

    @pytest.mark.parametrize("tag", ["dr", "or_ps_info"])
    def test_consistent_estimators_bias_shrinks(self, rows_by_n, tag):
        small, large = rows_by_n[250][tag], rows_by_n[4000][tag]
        slack = 2.0 * (small.mc_error + large.mc_error)
        assert abs(large.mean_point - 1.0) <= abs(small.mean_point - 1.0) + slack

    @pytest.mark.parametrize("tag", ["naive", "adjusted"])
    def test_confounded_estimators_stable_across_n(self, rows_by_n, tag):
        means = [rows_by_n[n][tag] for n, _ in TREND_SIZES]
        for a, b in zip(means, means[1:]):
            gap = abs(a.mean_point - b.mean_point)
            assert gap <= 4.0 * math.hypot(a.mc_error, b.mc_error)


class TestRunSimulation:
    def test_serial_two_workers_identical(self):
        config = _fast_config(reps=4)
        serial = run_simulation(config)
        parallel = run_simulation(_fast_config(reps=4, threads=2))
        assert serial.records == parallel.records
        for a, b in zip(serial.rows, parallel.rows):
            assert a == b

    def test_heap_setting_belongs_to_the_command(self, monkeypatch, tmp_path):
        # The glibc setting is process-wide and lasting: a library caller of
        # run_simulation keeps its allocator as it was, while `drbayes
        # simulate`, which owns its process, sets it.
        calls = []
        monkeypatch.setattr(simulation, "_keep_freed_heap", lambda: calls.append("library"))
        monkeypatch.setattr(cli, "_keep_freed_heap", lambda: calls.append("command"))
        run_simulation(_fast_config(reps=2, threads=1))
        assert calls == []
        argv = ["simulate", "--n", "100", "--reps", "2", "--estimators", "naive"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 0
        assert calls == ["command"]

    def test_weight_matrices_reuse_retained_heap(self):
        # At n=5000 each (50, n) weight array is 489 pages; when freed heap
        # goes back to the kernel every replication faults thousands of
        # them in again (about 8300 per replication with glibc's defaults).
        if not simulation._keep_freed_heap():
            pytest.skip("mallopt is not available")
        config = SimConfig(
            n=5000, reps=3, seed=91, estimators=("is", "is_dr"), n_draws=50, n_boot=2
        )
        run_simulation(config)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_simulation(config)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / config.reps < 1000

    def test_pool_has_no_more_workers_than_replications(self, monkeypatch):
        # Under fork every worker starts at the first submit, used or not.
        started = []

        class InlinePool:
            def __init__(self, max_workers, initializer):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize):
                return map(fn, jobs)

        monkeypatch.setattr(simulation, "ProcessPoolExecutor", InlinePool)
        config = _fast_config(reps=2, threads=32, estimators=("naive",))
        result = run_simulation(config)
        assert started == [2]
        assert result.config.threads == 32
        assert result.records == run_simulation(_fast_config(reps=2, estimators=("naive",))).records

    def test_estimator_filtering(self):
        result = run_simulation(_fast_config(estimators=("naive", "dr")))
        assert [row.estimator for row in result.rows] == ["naive", "dr"]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n=10)
        with pytest.raises(ValueError):
            SimConfig(reps=1)
        with pytest.raises(ValueError):
            SimConfig(scenario="X")
        with pytest.raises(ValueError):
            SimConfig(estimators=("nope",))
        with pytest.raises(ValueError, match=r"repeated estimators \['naive'\]"):
            SimConfig(estimators=("naive", "dr", "naive"))
        with pytest.raises(ValueError, match="no estimators given"):
            SimConfig(estimators=())
        # The resampling counts and the seed follow the library's own rules.
        with pytest.raises(ValueError, match="n_draws=1"):
            SimConfig(n_draws=1)
        with pytest.raises(ValueError, match="n_boot=1"):
            SimConfig(n_boot=1)
        with pytest.raises(InvalidArgumentError, match="seed=-1"):
            SimConfig(seed=-1)
