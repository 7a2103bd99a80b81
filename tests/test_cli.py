import csv
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from spec_strategies import network_specs

from resae.cli import (DEFAULT_CONFIG, NETWORK_KEYS, build_dataset, build_shared, build_spec,
                       build_train_config, load_config, main)
from resae.data import Dataset, generate_simulated
from resae.evaluation import GRID_AXES, SharedSettings, compare, grid_search
from resae.network import NetworkSpec
from resae.training import FittedModel, TrainConfig


def tiny_train_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"source": "simulate", "n": 150, "seed": 3},
        "network": {"nnode": [8, 4], "dropout_rate": 0.0},
        "training": {"batch_size": 32, "max_epochs": 8, "seed": 1},
        "out_dir": str(tmp_path / "run"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimulate:
    def test_writes_header_plus_rows(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--n", "50", "--seed", "7", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 51
        assert lines[0] == "x1,x2,x3,x4,x5,x6,x7,x8,y"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--n", "40", "--seed", "9", "--out", str(a)])
        main(["simulate", "--n", "40", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rows_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--n", "0", "--out", str(tmp_path / "x.csv")])
        assert info.value.code == 2

    def test_unwritable_path(self, tmp_path):
        code = main(["simulate", "--n", "10", "--out",
                     str(tmp_path / "missing" / "x.csv")])
        assert code == 2


class TestTrain:
    def test_writes_all_artifacts(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        assert main(["train", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        for name in ("config.json", "dataset.json", "model.json",
                     "history.csv", "metrics.json"):
            assert (run / name).exists(), name
        manifest = json.loads((run / "dataset.json").read_text())
        assert manifest["rows"] == 150
        metrics = json.loads((run / "metrics.json").read_text())
        assert metrics["converged"] is True
        assert "r2" in metrics["test"]
        assert metrics["config"]["training"]["seed"] == 1

    def test_metrics_reproduced_exactly_on_rerun(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        main(["train", "--config", str(cfg)])
        first = (tmp_path / "run" / "metrics.json").read_bytes()
        main(["train", "--config", str(cfg)])
        assert (tmp_path / "run" / "metrics.json").read_bytes() == first

    def test_model_roundtrip_reproduces_predictions(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        main(["train", "--config", str(cfg)])
        doc = json.loads((tmp_path / "run" / "model.json").read_text())
        model_a = FittedModel.from_dict(doc)
        model_b = FittedModel.from_dict(doc)
        from resae.cli import build_dataset, load_config
        dataset = build_dataset(load_config(str(cfg)))
        x = dataset.features[:25]
        np.testing.assert_array_equal(model_a.predict(x), model_b.predict(x))

    def test_residual_flag_preserves_parameter_count(self, tmp_path):
        counts = {}
        for residual in ("on", "off"):
            cfg = tiny_train_config(tmp_path, out_dir=str(tmp_path / residual))
            main(["train", "--config", str(cfg), "--residual", residual,
                  "--out", str(tmp_path / residual)])
            metrics = json.loads((tmp_path / residual / "metrics.json").read_text())
            counts[residual] = metrics["parameter_count"]
        assert counts["on"] == counts["off"]

    def test_truncation_count_flag(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        assert main(["train", "--config", str(cfg), "--residual", "1"]) == 0
        echoed = json.loads((tmp_path / "run" / "config.json").read_text())
        assert echoed["network"]["residual"] == 1

    def test_n_seeds_flag_is_a_usage_error(self, tmp_path):
        # train runs one seed; n_seeds in its config is only echoed
        with pytest.raises(SystemExit) as info:
            main(["train", "--config", str(tiny_train_config(tmp_path)), "--n-seeds", "2"])
        assert info.value.code == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["compare", "sensitivity"])
    def test_residual_flag_on_a_command_that_sets_the_shortcuts_is_a_usage_error(
            self, tmp_path, command):
        # compare and sensitivity choose each job's shortcuts, so the flag would be ignored
        with pytest.raises(SystemExit) as info:
            main([command, "--config", str(tiny_train_config(tmp_path)), "--residual", "2"])
        assert info.value.code == 2
        assert not (tmp_path / "run").exists()

    def test_metrics_equal_the_residual_arm_of_a_one_seed_compare(self, tmp_path):
        # train and every sweep run a job through one path: same seed, same metrics
        cfg = tiny_train_config(tmp_path, n_seeds=3,
                                loss={"l2": 1e-3})
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
        assert main(["compare", "--config", str(cfg), "--out", str(tmp_path / "compare"),
                     "--n-seeds", "1"]) == 0
        metrics = json.loads((tmp_path / "train" / "metrics.json").read_text())
        runs = json.loads((tmp_path / "compare" / "report.json").read_text())["runs"]
        residual = [run for run in runs if run["arm"] == "residual"]
        assert len(runs) == 2 and len(residual) == 1
        assert [residual[0][key] for key in ("seed", "parameter_count", "validation", "test")] \
            == [metrics[key] for key in ("seed", "parameter_count", "validation", "test")]

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_history_val_metric_at_the_best_epoch_is_the_validation_headline(self, tmp_path,
                                                                              task):
        cfg = tiny_train_config(tmp_path)
        if task == "classification":
            data = tmp_path / "c.csv"
            data.write_text("a,b,y\n" + "".join(f"{i % 11},{i * 7 % 5},{i % 3}\n"
                                                 for i in range(90)))
            cfg = tiny_train_config(tmp_path, dataset={
                "source": "csv", "path": str(data), "targets": "y",
                "task": "classification", "n": 1000, "seed": 7})
        assert main(["train", "--config", str(cfg)]) == 0
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        with open(tmp_path / "run" / "history.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        headline = {"regression": "r2", "classification": "accuracy"}[task]
        assert 0 < metrics["best_epoch"] < len(rows)
        assert rows[metrics["best_epoch"]]["val_metric"] == repr(metrics["validation"][headline])

    def test_divergence_exits_3(self, tmp_path):
        cfg = tiny_train_config(
            tmp_path,
            network={"nnode": [8, 4], "dropout_rate": 0.0, "batchnorm": False,
                     "residual_post_op": "activation"},
            training={"batch_size": 32, "max_epochs": 30, "seed": 1,
                      "optimizer": "sgd", "learning_rate": 1e12})
        with np.errstate(all="ignore"):
            assert main(["train", "--config", str(cfg)]) == 3
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["converged"] is False
        assert "non-finite" in metrics["diagnostic"]

    def test_unknown_config_key_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"networkk": {}}))
        assert main(["train", "--config", str(path)]) == 2

    def test_missing_csv_path_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dataset": {"source": "csv"}}))
        assert main(["train", "--config", str(path)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2

    def test_empty_target_bins_exits_2(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("a,y\n" + "".join(f"{i},{i % 7}\n" for i in range(40)))
        cfg = tiny_train_config(tmp_path, dataset={
            "source": "csv", "path": str(data), "targets": ["y"],
            "task": "classification", "target_bins": []})
        assert main(["train", "--config", str(cfg)]) == 2
        assert "target_bins must be non-empty" in capsys.readouterr().err
        assert not (tmp_path / "run" / "config.json").exists()


class TestCompareCommand:
    def test_report_with_paired_runs(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=2)
        assert main(["compare", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        report = json.loads((run / "report.json").read_text())
        assert len(report["runs"]) == 4
        arms = {r["arm"] for r in report["runs"]}
        assert arms == {"residual", "regular"}
        assert (run / "runs.csv").exists()

    def test_n_seeds_override(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=4)
        main(["compare", "--config", str(cfg), "--n-seeds", "1"])
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert len(report["runs"]) == 2

    def test_sweep_on_a_categorical_column_equals_the_library_run(self, tmp_path):
        data = tmp_path / "sites.csv"
        data.write_text("a,b,site,y\n" + "".join(
            f"{i % 7},{i * 3 % 11},{'north' if i % 3 else 'south'},{i * 5 % 13}\n"
            for i in range(90)))
        cfg = tiny_train_config(tmp_path, n_seeds=2, dataset={
            "source": "csv", "path": str(data), "n": 1000, "seed": 7})
        assert main(["compare", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        doc = load_config(str(cfg))
        ds = build_dataset(doc)
        assert ds.feature_names == ["a", "b", "site=north", "site=south"]
        library = compare(ds, build_spec(doc, ds), build_train_config(doc), n_seeds=2,
                          shared=build_shared(doc))
        assert report["runs"] == json.loads(json.dumps([r.to_dict() for r in library.runs]))

    @pytest.mark.parametrize("command, tables", [
        ("train", ("config.json", "dataset.json", "model.json", "history.csv", "metrics.json")),
        ("compare", ("config.json", "report.json", "runs.csv")),
    ])
    def test_seed_flag_writes_the_artifacts_of_that_config_seed(self, tmp_path, command,
                                                                 tables):
        """--seed 3 on a seed-1 config writes what a config of seed 3 writes."""
        written = []
        for seed, flags in ((1, ["--seed", "3"]), (3, [])):
            cfg = tiny_train_config(tmp_path, n_seeds=2, training={"seed": seed})
            assert main([command, "--config", str(cfg), *flags]) == 0
            run = tmp_path / "run"   # one out_dir, so the echoed configs can match
            written.append({name: (run / name).read_bytes() for name in tables})
            assert sorted(p.name for p in run.iterdir()) == sorted(tables)
            shutil.rmtree(run)
        assert written[0] == written[1]
        assert json.loads(written[0]["config.json"])["training"]["seed"] == 3


class TestGridCommand:
    def test_batch_curve_artifacts(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=1,
                                grid={"batch_sizes": [16, 32]})
        assert main(["grid", "--config", str(cfg)]) == 0
        run = tmp_path / "run"
        report = json.loads((run / "report.json").read_text())
        assert len(report["ranked"]) == 2
        curve = (run / "curve.csv").read_text().strip().splitlines()
        assert curve[0] == "batch_size,mean_val_metric"
        assert [int(line.split(",")[0]) for line in curve[1:]] == [16, 32]

    def test_empty_grid_exits_2(self, tmp_path):
        cfg = tiny_train_config(tmp_path)
        assert main(["grid", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("grid, key", [
        ({"batch_sizes": [16, 0]}, "grid.batch_sizes[1]"),
        ({"output_options": [3]}, "grid.output_options[0]"),
        ({"activations": ["elu", "sigmoid"]}, "grid.activations[1]"),
        ({"nnodes": [[8, 0]]}, "grid.nnodes[0]"),
        ({"batch_sizes": [1]}, "grid.batch_sizes[0]"),
    ])
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, capsys, grid, key):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid=grid)
        assert main(["grid", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("grid, message", [
        ({"batch_sizes": [16], "nnodes": []}, "grid.nnodes must be non-empty"),
        ({"batch_sizes": [16, 16]}, "grid.batch_sizes[1] repeats grid.batch_sizes[0]"),
    ])
    def test_empty_or_repeating_axis_exits_2_writing_nothing(self, tmp_path, capsys,
                                                             grid, message):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid=grid)
        assert main(["grid", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_batch_size_of_one_exits_2(self, tmp_path, capsys):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [1]})
        assert main(["grid", "--config", str(cfg)]) == 2
        assert (capsys.readouterr().err ==
                "config error: grid.batch_sizes[0]: batch_size must be >= 2\n")

    @pytest.mark.parametrize("template_option", [1, 2])
    def test_output_option_grid_matches_library_grid_search(self, tmp_path, template_option):
        """Each cell trains with its own head's loss, whatever the template's head."""
        grid = {"output_options": [1, 2]}
        cfg = tiny_train_config(tmp_path, n_seeds=2, grid=grid,
                                network={"output_option": template_option},
                                loss={"l2": 1e-4})
        assert main(["grid", "--config", str(cfg)]) == 0
        ranked = json.loads((tmp_path / "run" / "report.json").read_text())["ranked"]
        doc = load_config(str(cfg))
        ds = generate_simulated(n=150, seed=3)
        library = grid_search(ds, build_spec(doc, ds), build_train_config(doc), grid,
                              n_seeds=2, shared=build_shared(doc))
        assert [(c["label"], c["output_option"], c["mean_val_metric"]) for c in ranked] == [
            (c.label, c.spec.output_option, library.mean_val_metric(c)) for c in library.cells]
        assert sorted(c["output_option"] for c in ranked) == [1, 2]


class TestSensitivityCommand:
    def test_rows_for_every_count(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=1)
        assert main(["sensitivity", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert [row["n_shortcuts"] for row in report["rows"]] == [0, 1, 2]
        csv_lines = (tmp_path / "run" / "sensitivity.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 4


    def test_classification_rows_hold_accuracy_and_cross_entropy(self, tmp_path):
        data = tmp_path / "c.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i * 7 % 5},{i % 3 // 2}\n" for i in range(60)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "dataset": {"source": "csv", "path": str(data), "targets": "y",
                        "task": "classification"},
            "network": {"nnode": [6, 3]}, "n_seeds": 1, "out_dir": str(tmp_path / "run"),
            "training": {"batch_size": 16, "max_epochs": 3, "seed": 1}}))
        assert main(["sensitivity", "--config", str(cfg)]) == 0
        rows = json.loads((tmp_path / "run" / "report.json").read_text())["rows"]
        assert [sorted(row) for row in rows] == [sorted(
            ["n_shortcuts", "mean_test_accuracy", "mean_test_cross_entropy",
             "n_non_convergent"])] * 3
        assert all(0.0 <= row["mean_test_accuracy"] <= 1.0 and row["mean_test_cross_entropy"] > 0
                   for row in rows)
        header = (tmp_path / "run" / "sensitivity.csv").read_text().splitlines()[0]
        assert header == "n_shortcuts,mean_test_accuracy,mean_test_cross_entropy"


class TestSweepReruns:
    @pytest.mark.parametrize("command, grid, tables", [
        ("compare", None, {"runs.csv"}),
        ("grid", {"batch_sizes": [16, 32, 24]}, {"grid.csv", "curve.csv"}),
        ("sensitivity", None, {"sensitivity.csv"}),
    ])
    def test_rerun_into_the_same_directory_is_byte_identical(self, tmp_path, command, grid,
                                                              tables):
        cfg = tiny_train_config(tmp_path, n_seeds=2, grid=grid or {})
        run = tmp_path / "run"
        artifacts = []
        for _ in range(2):
            assert main([command, "--config", str(cfg)]) == 0
            artifacts.append({path.name: path.read_bytes() for path in run.iterdir()})
        assert set(artifacts[0]) == {"config.json", "report.json", *tables}
        assert artifacts[0] == artifacts[1]


class TestConfigErrors:
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, number):
        path = tmp_path / "bad.json"
        path.write_text('{"training": {"learning_rate": %s}, "out_dir": "%s"}'
                        % (number, tmp_path / "run"))
        assert main(["train", "--config", str(path)]) == 2
        assert not (tmp_path / "run" / "config.json").exists()

    def test_non_finite_number_error_passes_through_unchanged(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"training": {"learning_rate": NaN}}')
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: non-finite number NaN in config\n"

    @pytest.mark.parametrize("text, key", [
        ('{"training": {"max_epochs": 2, "max_epochs": 3}, "out_dir": "%s"}', "max_epochs"),
        ('{"out_dir": "%s", "training": {"max_epochs": 2}, "training": {"max_epochs": 2}}',
         "training"),
    ], ids=["in-a-section", "a-section"])
    def test_repeated_key_exits_2_naming_it_writing_nothing(self, tmp_path, capsys, text, key):
        path = tmp_path / "bad.json"
        path.write_text(text % (tmp_path / "run"))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"config error: repeated key '{key}' in config\n"
        assert not (tmp_path / "run").exists()

    def test_integer_over_the_digit_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"training": {"learning_rate": 1%s}, "out_dir": "%s"}'
                        % ("0" * 5000, tmp_path / "run"))
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: config file {path} is not valid JSON: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("loss", [
        {"l2": -1e-3}, {"reconstruction_weight": -1.0},
        {"l2": -1e-300}, {"l2": -1.0, "reconstruction_weight": 0.5},
    ])
    @pytest.mark.parametrize("command", ["train", "compare", "grid", "sensitivity"])
    def test_config_error_writes_no_artifacts(self, tmp_path, capsys, command, loss):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [16]}, loss=loss)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid loss config: ")
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("sensitivity", {"network": {"nnode": [4]}}, "network.nnode"),
        *(("train", {"training": {field: value}}, f"invalid training config: {field}")
          for field, value in (("early_stop_patience", 0), ("early_stop_patience", -7),
                               ("momentum", 1.0), ("momentum", -3.0), ("batch_size", 1))),
    ])
    def test_invalid_variant_or_split_exits_2_writing_nothing(self, tmp_path, capsys,
                                                               command, override, key):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [16]}, **override)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, key", [
        ({"delimiter": ",,"}, "dataset.delimiter"),
        ({"path": 5}, "dataset.path"),
        ({"targets": ["y", 3]}, "dataset.targets[1]"),
        ({"task": None}, "dataset.task"),
        ({"target_bins": [1.0, "2"]}, "dataset.target_bins[1]"),
        ({"task": "classification", "target_bins": [3.0, 3.0]}, "dataset.target_bins"),
        ({"targets": ["y", "y"]}, "dataset.targets"),
    ])
    def test_csv_option_of_wrong_type_or_length_exits_2_naming_key(self, tmp_path, capsys,
                                                                   override, key):
        data = tmp_path / "t.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{2 * i}\n" for i in range(20)))
        cfg = tiny_train_config(tmp_path, dataset={"source": "csv", "path": str(data),
                                                   **override})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, key, value", [
        ("training", "adam_beta1", 0.9), ("training", "adam_beta2", 0.999),
        ("training", "adam_epsilon", 1e-8), ("training", "shuffle", True),
        ("network", "output_activation", "linear"), ("network", "elu_alpha", 1.0),
        ("dataset", "correlation_length", 0.15), ("dataset", "n_bumps", 4),
        ("dataset", "spatial_noise_sd", 0.5),
    ])
    def test_a_setting_that_is_now_a_constant_is_an_unknown_key(self, tmp_path, capsys,
                                                                 section, key, value):
        override = {key: value, **({"source": "spatial-field"} if section == "dataset" else {})}
        cfg = tiny_train_config(tmp_path, **{section: override})   # at its old default
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: unknown config keys: "
                                           f"['{section}.{key}']\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("loss", [{"regularizer": "l2"}, {"coefficient": 0.5},
                                      {"regularizer": "l2", "coefficient": 1e-3}],
                             ids=["regularizer", "coefficient", "both"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_a_penalty_key_before_l2_is_an_unknown_key(self, tmp_path, capsys, command, loss):
        # l2 replaced both keys; a config that set only coefficient once trained
        # without a penalty, and read as l2 it would now train with one
        cfg = tiny_train_config(tmp_path, n_seeds=1, loss=loss)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: unknown config keys: "
                                           f"{sorted('loss.' + key for key in loss)}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cells, task, message", [
        ("{i},3\n", "regression",
         "dataset.targets must vary over the kept rows, but each of ['y'] is constant"),
        ("{i},u\n", "classification",
         "dataset.targets must hold at least two classes over the kept rows, 'y' holds only 'u'"),
    ], ids=["constant", "one-class"])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_a_target_that_cannot_be_learned_exits_2_writing_nothing(self, tmp_path, capsys,
                                                                      command, cells, task,
                                                                      message):
        # a constant target once wrote config.json and dataset.json, then failed in
        # scoring; a one-class target trained to accuracy 1.0 and exited 0
        data = tmp_path / "t.csv"
        data.write_text("a,y\n" + "".join(cells.format(i=i) for i in range(40)))
        cfg = tiny_train_config(tmp_path, n_seeds=1, dataset={
            "source": "csv", "path": str(data), "targets": "y", "task": task,
            "n": 1000, "seed": 7})
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dataset, message", [
        ({"source": "spatial-field", "n": 10}, "dataset.n must be >= 50, got 10"),
        ({"noise_sd": -1.0}, "dataset.noise_sd must be >= 0, got -1.0"),
        ({"n": 0}, "dataset.n must be >= 1, got 0"),
        *((dataset, f"dataset.n must be at most {np.iinfo(np.intp).max}")
          for dataset in ({"n": 10 ** 40}, {"source": "spatial-field", "n": 10 ** 40})),
        ({"n": 100, "noise_sd": 1e308},
         "dataset.noise_sd must leave the targets finite, got 1e+308"),
    ])
    def test_generator_range_error_names_the_config_key(self, tmp_path, capsys,
                                                        dataset, message):
        cfg = tiny_train_config(tmp_path, dataset=dataset)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    # In range, but numpy refuses each allocation at once, so nothing is allocated.
    def test_size_beyond_memory_exits_2_writing_nothing(self, tmp_path, capsys):
        cfg = tiny_train_config(tmp_path, dataset={"n": 10 ** 15})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not (tmp_path / "run").exists()

    def test_simulated_rows_beyond_memory_exit_2_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--n", str(10 ** 15), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not out.exists()

    @pytest.mark.parametrize("source, key, value", [
        ("simulate", "target_bins", [1.0]), ("simulate", "task", "classification"),
        ("simulate", "path", 5), ("simulate", "delimiter", ",,"),
        ("simulate", "with_coordinates", False), ("spatial-field", "noise_sd", 5.0),
        ("spatial-field", "targets", ["z"]), ("csv", "n", 150), ("csv", "seed", 8),
    ])
    def test_key_of_another_source_exits_2_writing_nothing(self, tmp_path, capsys,
                                                            source, key, value):
        data = tmp_path / "t.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{2 * i}\n" for i in range(30)))
        dataset = {"source": source, "n": 1000, "seed": 7,   # n and seed at their defaults
                   "path": str(data) if source == "csv" else None, key: value}
        cfg = tiny_train_config(tmp_path, dataset=dataset)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: dataset.{key} is not read by "
                                           f"source '{source}'\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source, key, value, expected", [
        ("csv", "seed", 7.0, "an integer, got 7.0"),
        ("simulate", "with_coordinates", 1, "true or false, got 1"),
        ("csv", "n", 1000.0, "an integer, got 1000.0"),
        ("csv", "with_coordinates", 1, "true or false, got 1"),
    ])
    def test_key_of_another_source_equal_to_its_default_but_of_another_type_exits_2(
            self, tmp_path, capsys, source, key, value, expected):
        data = tmp_path / "t.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{2 * i}\n" for i in range(30)))
        dataset = {"source": source, "n": 1000, "seed": 7,   # n and seed at their defaults
                   "path": str(data) if source == "csv" else None, key: value}
        cfg = tiny_train_config(tmp_path, dataset=dataset)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: dataset.{key} must be {expected}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, message", [
        ({"targets": ["y", "a"], "task": "classification"},
         "dataset.targets must name one column to classify, got ['y', 'a']"),
        ({"targets": ["site"]}, "dataset.targets must be numeric columns, 'site' is not numeric"),
        ({"targets": "site", "task": "classification", "target_bins": [1.0]},
         "dataset.target_bins needs a numeric target, 'site' is not numeric"),
        ({"targets": ["nope"]},
         "dataset.targets must name header columns, 'nope' is not in ['a', 'site', 'y']"),
        ({"target_bins": [1.0]},
         "dataset.target_bins needs task 'classification', got 'regression'"),
        ({"targets": []}, "dataset.targets must name at least one column, got []"),
    ], ids=["two-classification-targets", "text-regression-target", "bins-on-a-text-target",
            "target-not-in-the-header", "bins-on-a-regression", "no-targets"])
    def test_csv_target_that_cannot_be_read_exits_2_naming_key(self, tmp_path, capsys,
                                                               override, message):
        data = tmp_path / "t.csv"
        data.write_text("a,site,y\n" + "".join(f"{i},s{i % 3},{2 * i}\n" for i in range(20)))
        cfg = tiny_train_config(tmp_path, dataset={"source": "csv", "path": str(data),
                                                   **override})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("content, message", [
        (b"a,y\n1,2\n" + b"x" * 131073 + b",3\n",
         "line 3 is not valid CSV: field larger than field limit (131072)"),
        ("a,y\ncafé,1\n".encode("latin-1"), "not UTF-8 text (invalid continuation byte)"),
        (b"a, ,y\n1,x,2\n3,z,4\n", "header column 2 is blank"),
    ], ids=["cell-beyond-the-field-limit", "not-utf8", "blank-header-cell"])
    def test_csv_file_that_cannot_be_read_exits_2_naming_it(self, tmp_path, capsys,
                                                            content, message):
        data = tmp_path / "t.csv"
        data.write_bytes(content)
        cfg = tiny_train_config(tmp_path, dataset={"source": "csv", "path": str(data),
                                                   "targets": ["y"]})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"error: {data}: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_key_of_another_source_may_be_an_integer_where_a_number_is_read(self, tmp_path):
        data = tmp_path / "t.csv"
        data.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{2 * i}\n" for i in range(30)))
        cfg = tiny_train_config(tmp_path, dataset={"source": "csv", "path": str(data),
                                                   "n": 1000, "seed": 7, "noise_sd": 100})
        assert main(["train", "--config", str(cfg)]) == 0
        echoed = json.loads((tmp_path / "run" / "config.json").read_text())
        assert echoed["dataset"]["noise_sd"] == 100

    @pytest.mark.parametrize("source", [["csv"], {"csv": 1}, 5, None])
    def test_dataset_source_of_another_json_type_exits_2(self, tmp_path, capsys, source):
        cfg = tiny_train_config(tmp_path, dataset={"source": source})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: unknown dataset source {source!r}\n"
        assert not (tmp_path / "run").exists()

    def test_zero_seeds_exits_2_before_writing(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=0)
        assert main(["sensitivity", "--config", str(cfg)]) == 2
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("train", {"training": {"batch_size": 32.9}}, "training.batch_size"),
        ("train", {"training": {"seed": True}}, "training.seed"),
        ("train", {"network": {"batchnorm": "no"}}, "network.batchnorm"),
        ("train", {"network": {"output_option": 1.7}}, "network.output_option"),
        ("train", {"network": {"nnode": [8.9, 4]}}, "network.nnode[0]"),
        ("train", {"network": {"residual": 1.5}}, "network.residual"),
        ("train", {"network": {"activation": None}}, "network.activation"),
        ("train", {"network": {"activation": ["elu", 3]}}, "network.activation[1]"),
        ("train", {"dataset": {"n": None}}, "dataset.n"),
        ("grid", {"grid": {"batch_sizes": [None]}, "n_seeds": 1}, "grid.batch_sizes[0]"),
        ("grid", {"grid": {"nnodes": [[8, 4.5]]}, "n_seeds": 1}, "grid.nnodes[0][1]"),
        ("train", {"network": {"residual_post_op": None}}, "network.residual_post_op"),
        ("train", {"network": {"dropout_placement": ["all"]}}, "network.dropout_placement"),
        ("grid", {"grid": {"activations": [["elu"]]}, "n_seeds": 1}, "grid.activations[0]"),
        ("train", {"loss": {"l2": "0.1"}}, "loss.l2"),
        ("train", {"loss": {"reconstruction_weight": "1"}}, "loss.reconstruction_weight"),
        ("train", {"loss": {"l2": True}}, "loss.l2"),
        ("train", {"training": {"max_epochs": 8.0}}, "training.max_epochs"),
        ("train", {"training": {"early_stop_patience": 2.5}}, "training.early_stop_patience"),
        ("train", {"training": {"optimizer": 5}}, "training.optimizer"),
        ("train", {"training": {"momentum": "0.9"}}, "training.momentum"),
        ("train", {"dataset": {"seed": 3.5}}, "dataset.seed"),
        ("train", {"dataset": {"source": "spatial-field", "n": 60, "with_coordinates": 0}},
         "dataset.with_coordinates"),
        ("compare", {"n_seeds": 2.0}, "n_seeds"),
        ("grid", {"grid": {"output_options": [1.5]}, "n_seeds": 1}, "grid.output_options[0]"),
        *(("train", {section: {key: 10 ** 400}}, f"{section}.{key}")   # beyond float range
          for section, key in (("training", "learning_rate"), ("network", "dropout_rate"),
                               ("dataset", "noise_sd"))),
    ])
    def test_wrong_json_type_exits_2_naming_key(self, tmp_path, capsys, command, override, key):
        cfg = tiny_train_config(tmp_path, **override)
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key}") and " must be " in err
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command, section, value", [
        *((command, section, value)
          for command in ("train", "compare", "grid", "sensitivity")
          for section, value in (("network", 5), ("training", []), ("loss", "l2"))),
        ("grid", "grid", None),
    ])
    def test_section_of_wrong_json_type_exits_2_naming_key(self, tmp_path, capsys,
                                                           command, section, value):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [16]})
        doc = json.loads(cfg.read_text())
        doc[section] = value
        cfg.write_text(json.dumps(doc))
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (f"config error: {section} must be a JSON object, "
                                           f"got {json.dumps(value)}\n")
        assert not (tmp_path / "run" / "config.json").exists()

    def test_out_dir_of_wrong_json_type_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tiny_train_config(tmp_path, out_dir=5)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: out_dir must be a string, got 5\n"
        assert list(tmp_path.rglob("config.json")) == [cfg]

    @staticmethod
    def _classification_config(tmp_path, **overrides):
        data = tmp_path / "c.csv"
        data.write_text("a,b,y\n" + "".join(f"{i % 11},{i * 7 % 5},{i % 3}\n"
                                             for i in range(90)))
        return tiny_train_config(tmp_path, dataset={
            "source": "csv", "path": str(data), "targets": "y", "task": "classification",
            "n": 1000, "seed": 7}, n_seeds=1, **overrides)

    @pytest.mark.parametrize("command", ["train", "compare", "sensitivity", "grid"])
    def test_option_2_on_a_classification_task_exits_2_before_writing(self, tmp_path, capsys,
                                                                      command):
        # cross entropy gives the reconstruction outputs no gradient: option 2 would train
        # nothing more than option 1
        cfg = self._classification_config(tmp_path, network={"output_option": 2},
                                          grid={"batch_sizes": [16, 32]})
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: network.output_option must be 1 for task 'classification', got 2: "
            "cross entropy gives the reconstruction outputs no gradient\n")
        assert not (tmp_path / "run").exists()

    def test_an_option_2_grid_cell_on_a_classification_task_exits_2_before_writing(
            self, tmp_path, capsys):
        cfg = self._classification_config(tmp_path, grid={"output_options": [1, 2]})
        assert main(["grid", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "config error: grid.output_options[1]: output_option must be 1 for task "
            "'classification', got 2: cross entropy gives the reconstruction outputs no "
            "gradient\n")
        assert not (tmp_path / "run").exists()

    def test_a_classification_grid_of_option_1_runs_on_an_option_2_template(self, tmp_path):
        # the grid's axis, not the template, is the option its jobs train
        cfg = self._classification_config(tmp_path, network={"output_option": 2},
                                          grid={"output_options": [1]})
        assert main(["grid", "--config", str(cfg)]) == 0
        ranked = json.loads((tmp_path / "run" / "report.json").read_text())["ranked"]
        assert [cell["output_option"] for cell in ranked] == [1]


@settings(max_examples=60, deadline=None)
@given(network_specs())
def test_network_section_written_from_a_spec_reads_back_to_that_spec(spec):
    config_key = {"acts": "activation", "use_batchnorm": "batchnorm"}
    section = {config_key.get(name, name): value for name, value in spec.to_dict().items()
               if name not in ("nfea", "k")}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"network": section}))
        cfg = load_config(str(path))
    dataset = Dataset(features=np.zeros((10, spec.nfea)), targets=np.zeros((10, spec.k)),
                      feature_names=[f"x{i}" for i in range(spec.nfea)],
                      target_names=[f"y{i}" for i in range(spec.k)], task="regression")
    assert build_spec(cfg, dataset).to_dict() == spec.to_dict()


def test_each_record_section_defaults_to_its_records_own_defaults():
    assert DEFAULT_CONFIG["training"] == asdict(TrainConfig(seed=1))
    assert DEFAULT_CONFIG["loss"] == asdict(SharedSettings())
    spec = asdict(NetworkSpec(nfea=3, nnode=(32, 16, 8, 4), k=1))
    assert DEFAULT_CONFIG["network"] == {
        NETWORK_KEYS.get(name, name): list(value) if name == "nnode" else value
        for name, value in spec.items() if name not in ("nfea", "k")}


def _config_keys():
    """(dotted key, default) for every leaf of DEFAULT_CONFIG."""
    for key, default in DEFAULT_CONFIG.items():
        if isinstance(default, dict):
            yield from ((f"{key}.{leaf}", value) for leaf, value in default.items())
        else:
            yield key, default


# the JSON kinds a key takes where its default's kind does not tell them
_KINDS = {"dataset.path": (str,), "dataset.target_bins": (list,), "dataset.targets": (str, list),
          "network.activation": (str, list), "network.residual": (str, int),
          **{f"grid.{axis}": (list,) for axis in GRID_AXES}}
_JSON_VALUES = [None, True, 3, 2.5, "x", [], {"a": 1}]


def _takes(key, default, value) -> bool:
    """Whether value is of a JSON kind that key takes (a number for a real)."""
    if value is None:
        return default is None
    kinds = _KINDS.get(key) or ((int, float) if type(default) is float else (type(default),))
    return type(value) in kinds


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_config_keys())), st.sampled_from(_JSON_VALUES))
def test_config_value_of_a_wrong_json_type_exits_2_naming_its_key(key_default, value):
    key, default = key_default
    assume(not _takes(key, default, value))
    section, _, leaf = key.rpartition(".")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg = tiny_train_config(tmp)
        doc = json.loads(cfg.read_text())
        (doc.setdefault(section, {}) if section else doc)[leaf] = value
        cfg.write_text(json.dumps(doc))
        err = io.StringIO()
        with redirect_stderr(err):
            code = main(["train", "--config", str(cfg)])
        assert code == 2
        assert err.getvalue().startswith("config error: ")
        assert key in err.getvalue() or key.replace(".", " ") in err.getvalue()
        assert list(tmp.rglob("*")) == [cfg]
