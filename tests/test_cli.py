import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import drbayes
from drbayes import estimators
from drbayes.cli import main
from drbayes.numerics import RngStream
from drbayes.simulation import _DATA_KEY, SimConfig, generate_data, run_replication

FAST_ARGS = [
    "--n", "100",
    "--reps", "3",
    "--seed", "5",
    "--draws", "8",
    "--boot", "8",
]


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSimulateCommand:
    def test_outputs_and_row_count(self, tmp_path, capsys):
        code = main(["simulate", "--scenario", "I", *FAST_ARGS, "--out", str(tmp_path)])
        assert code == 0
        summary = _read_csv(tmp_path / "summary.csv")
        assert len(summary) == 1 + 13  # header + one row per estimator
        reps = _read_csv(tmp_path / "replications.csv")
        assert len(reps) == 1 + 3 * 13
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["mc_error_batch_rule"] == (
            "per estimator: floor(sqrt(successful replications)) batches"
        )
        assert "Estimator" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", *FAST_ARGS, "--out", str(out1)])
        main(["simulate", *FAST_ARGS, "--out", str(out2)])
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
        assert (out1 / "replications.csv").read_bytes() == (
            out2 / "replications.csv"
        ).read_bytes()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        main(["simulate", *FAST_ARGS, "--threads", "1", "--out", str(out1)])
        main(["simulate", *FAST_ARGS, "--threads", "2", "--out", str(out2)])
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_estimator_filter(self, tmp_path):
        main(["simulate", *FAST_ARGS, "--estimators", "naive,dr", "--out", str(tmp_path)])
        summary = _read_csv(tmp_path / "summary.csv")
        assert [row[0] for row in summary[1:]] == ["naive", "dr"]

    def test_outputs_reproducible_from_manifest(self, tmp_path):
        # The manifest's config block alone must regenerate the data files
        # byte for byte.
        first = tmp_path / "first"
        main(["simulate", *FAST_ARGS, "--out", str(first)])
        manifest = json.loads((first / "manifest.json").read_text())
        cfg = dict(manifest["config"])
        cfg.pop("threads")
        cfg_path = tmp_path / "replay.json"
        cfg_path.write_text(json.dumps(cfg))
        second = tmp_path / "second"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(second)]) == 0
        for name in ("summary.csv", "replications.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 100, "reps": 3, "seed": 9, "estimators": ["naive"], "draws": 8, "boot": 8}))
        out = tmp_path / "out"
        code = main(["simulate", "--config", str(cfg), "--seed", "11", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 11  # flag wins
        assert manifest["config"]["estimators"] == ["naive"]

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_non_boolean_stabilize_exit_2(self, tmp_path, capsys, value):
        # bool("false") is True: a string must not be coerced silently.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"stabilize": value}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert "'stabilize' must be a JSON boolean" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n", "reps", "seed", "draws", "boot", "threads"])
    @pytest.mark.parametrize("value", [2.7, 40.0, True, "40", None])
    def test_non_integer_count_exit_2(self, tmp_path, capsys, key, value):
        # int(2.7) would silently truncate to 2, int(True) give 1.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"config key '{key}' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["out", "scenario"])
    @pytest.mark.parametrize("value", [5, ["I"], None, True])
    def test_non_string_path_and_scenario_exit_2(self, tmp_path, capsys, key, value):
        # Path(5) raised a TypeError traceback; str(["I"]) named no scenario.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["simulate", "--config", str(cfg)]) == 2
        assert f"config key '{key}' must be a JSON string" in capsys.readouterr().err

    def test_boolean_stabilize_false_is_kept(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 60, "reps": 2, "estimators": ["naive"], "stabilize": False}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["stabilize"] is False

    def test_unknown_estimator_exit_2(self):
        assert main(["simulate", *FAST_ARGS, "--estimators", "nope"]) == 2

    def test_no_estimators_exit_2_before_output(self, tmp_path, capsys):
        # Both used to run all 13 estimators.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"estimators": []}))
        out = tmp_path / "out"
        for flags in (["--estimators", ","], ["--config", str(cfg)]):
            assert main(["simulate", *FAST_ARGS, *flags, "--out", str(out)]) == 2
            assert "no estimators given" in capsys.readouterr().err
            assert not out.exists()

    def test_repeated_estimator_exit_2_before_output(self, tmp_path, capsys):
        # A repeated tag used to summarize every replication twice.
        out = tmp_path / "out"
        code = main(["simulate", *FAST_ARGS, "--estimators", "naive,dr,naive", "--out", str(out)])
        assert code == 2
        assert "repeated estimators ['naive']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, message",
        [("--draws", "n_draws=1"), ("--boot", "n_boot=1"), ("--seed", "seed=-1")],
    )
    def test_out_of_range_flag_exit_2_before_output(self, tmp_path, capsys, flag, message):
        # One resampling draw or bootstrap resample, or a negative seed,
        # used to end in a traceback and exit 1 after the output directory
        # was made.
        out = tmp_path / "out"
        value = "-1" if flag == "--seed" else "1"
        assert main(["simulate", *FAST_ARGS, flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("draws", 1, "n_draws=1"), ("boot", 0, "n_boot=0"), ("seed", -3, "seed=-3")],
    )
    def test_out_of_range_config_key_exit_2(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_cli_process_prints_no_traceback(self, tmp_path):
        src = str(Path(drbayes.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-m", "drbayes.cli", "simulate", "--draws", "1",
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


def _write_dataset_csv(path, data):
    # csv.writer writes the shortest repr of each float, which reads back
    # to the same double.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "z", "x1", "x2", "x3", "x4"])
        for i in range(data.n):
            writer.writerow([data.y[i], int(data.z[i]), *data.x[i]])


SCENARIO_ONE_COLUMNS = ["--outcome", "y", "--treatment", "z",
                        "--s-cols", "x1,x2,x3", "--b-cols", "abs:x1,x2,x4"]


class TestEstimateCommand:
    def test_scenario_dataset_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        _write_dataset_csv(path, generate_data(400, RngStream(77, 0)))
        out = tmp_path / "est.csv"
        code = main(
            [
                "estimate",
                "--data", str(path),
                *SCENARIO_ONE_COLUMNS,
                "--estimators", "dr",
                "--draws", "8",
                "--boot", "60",
                "--seed", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["method", "point", "se", "ci_low", "ci_high", "diagnostics"]
        point, se = float(rows[1][1]), float(rows[1][2])
        assert abs(point - 1.0) < 3.0 * se

    def test_replays_simulate_replication(self, tmp_path):
        # Replication 0's data set, run through estimate at the simulation's
        # seed, gives replication 0's records: both commands run one
        # procedure.
        config = SimConfig(n=200, reps=2, seed=31, n_draws=20, n_boot=20)
        path = tmp_path / "rep0.csv"
        _write_dataset_csv(path, generate_data(config.n, RngStream(config.seed, 0).child(_DATA_KEY)))
        out = tmp_path / "est.csv"
        code = main(["estimate", "--data", str(path), *SCENARIO_ONE_COLUMNS, "--draws", "20",
                     "--boot", "20", "--seed", "31", "--out", str(out)])
        assert code == 0
        expected = [[rec.estimator, f"{rec.point:.17g}", f"{rec.se:.17g}"]
                    for rec in run_replication(config, 0)]
        assert len(expected) == 13
        assert [row[:3] for row in _read_csv(out)[1:]] == expected

    def test_two_step_variants_fit_their_draws_once(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        _write_dataset_csv(path, generate_data(200, RngStream(8, 0)))
        argv = ["estimate", "--data", str(path), *SCENARIO_ONE_COLUMNS,
                "--draws", "20", "--boot", "20", "--seed", "8"]
        singles = []
        for tag in ("two_step_forward", "two_step_vardecomp"):
            assert main([*argv, "--estimators", tag, "--out", str(tmp_path / "one.csv")]) == 0
            singles.append(_read_csv(tmp_path / "one.csv")[1])
        calls = []
        fit = estimators.fit_linear_weighted_many

        def counted(*args, **kwargs):
            calls.append(args)
            return fit(*args, **kwargs)

        monkeypatch.setattr(estimators, "fit_linear_weighted_many", counted)
        both = tmp_path / "both.csv"
        assert main([*argv, "--estimators", "two_step_forward,two_step_vardecomp",
                     "--out", str(both)]) == 0
        assert len(calls) == 1
        assert _read_csv(both)[1:] == singles

    def test_repeated_treatment_column_is_refused_and_named(self, tmp_path):
        # The treatment design (1, x2, x2) is rank deficient: every
        # estimator that needs its fit refuses and names the later copy.
        path = tmp_path / "data.csv"
        _write_dataset_csv(path, generate_data(500, RngStream(31, 0)))
        out = tmp_path / "est.csv"
        code = main(["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
                     "--s-cols", "x1,x2", "--b-cols", "x2,x2", "--draws", "20", "--boot", "20",
                     "--out", str(out)])
        assert code == 0
        rows = {row[0]: row for row in _read_csv(out)[1:]}
        assert list(rows) == estimators.ESTIMATOR_ORDER
        for tag, row in rows.items():
            if tag in ("naive", "adjusted"):
                assert row[1] != "nan"
                continue
            assert json.loads(row[5]) == {"error": "EstimatorError: treatment-model fit "
                                          "abandoned by IRLS; collinear columns: ['x2']"}, tag

    def test_empty_estimators_exit_2(self, tmp_path, capsys):
        # An empty list used to run all 13 estimators.
        path = tmp_path / "ok.csv"
        path.write_text("y,z\n1.0,0\n2.0,1\n0.5,0\n1.5,1\n")
        code = main(["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
                     "--estimators", ""])
        assert code == 2
        captured = capsys.readouterr()
        assert "no estimators given" in captured.err and captured.out == ""

    def test_repeated_estimator_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text("y,z\n1.0,0\n2.0,1\n0.5,0\n1.5,1\n")
        code = main(["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
                     "--estimators", "naive,naive"])
        assert code == 2
        captured = capsys.readouterr()
        assert "repeated estimators ['naive']" in captured.err and captured.out == ""

    def test_nonbinary_treatment_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,z,x1\n1.0,0,0.5\n2.0,2,0.1\n0.5,1,0.2\n")
        code = main(
            ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
             "--s-cols", "x1", "--b-cols", "x1", "--estimators", "naive"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "z" in err

    def test_missing_column_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,z\n1.0,0\n2.0,1\n")
        code = main(
            ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
             "--s-cols", "x9", "--b-cols", "", "--estimators", "naive"]
        )
        assert code == 2
        assert "x9" in capsys.readouterr().err

    def test_missing_value_named(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,z,x1\n1.0,0,0.5\n,1,0.1\n")
        code = main(
            ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
             "--s-cols", "x1", "--b-cols", "x1", "--estimators", "naive"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "'y'" in err

    def test_negative_seed_exit_2(self, tmp_path, capsys):
        # A negative seed used to exit 0 with every estimator that draws
        # random numbers recorded as failed.
        path = tmp_path / "ok.csv"
        path.write_text("y,z\n1.0,0\n2.0,1\n0.5,0\n1.5,1\n")
        out = tmp_path / "est.csv"
        code = main(
            ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
             "--seed", "-1", "--out", str(out)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "seed=-1" in captured.err and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--seed", "-1", "seed=-1"), ("--draws", "1", "n_draws=1"), ("--boot", "1", "n_boot=1")],
    )
    def test_bad_flag_blamed_before_data_is_read(self, tmp_path, capsys, flag, value, message):
        missing = tmp_path / "absent.csv"
        code = main(
            ["estimate", "--data", str(missing), "--outcome", "y", "--treatment", "z",
             flag, value]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "absent.csv" not in err

    def test_empty_s_cols_with_naive(self, tmp_path, capsys):
        path = tmp_path / "ok.csv"
        path.write_text("y,z\n1.0,0\n2.0,1\n0.5,0\n1.5,1\n")
        code = main(
            ["estimate", "--data", str(path), "--outcome", "y", "--treatment", "z",
             "--s-cols", "", "--b-cols", "", "--estimators", "naive"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("method,")


class TestSelfcheckCommand:
    def test_passes_quickly(self, capsys):
        start = time.perf_counter()
        code = main(["selfcheck"])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 10.0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out


class TestImport:
    def test_loads_no_scipy(self):
        # No library module imports scipy (tests/test_exports.py), and
        # numpy, which the library does import, loads none of it either.
        src = str(Path(drbayes.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, drbayes.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
