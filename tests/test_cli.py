import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from spec_strategies import network_specs

from resae.cli import build_regularizer, build_spec, build_train_config, load_config, main
from resae.data import Dataset, generate_simulated
from resae.evaluation import grid_search
from resae.training import FittedModel


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
    ])
    def test_out_of_range_value_exits_2_naming_key(self, tmp_path, capsys, grid, key):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid=grid)
        assert main(["grid", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("template_option", [1, 2])
    def test_output_option_grid_matches_library_grid_search(self, tmp_path, template_option):
        """Each cell trains with its own head's loss, whatever the template's head."""
        grid = {"output_options": [1, 2]}
        cfg = tiny_train_config(tmp_path, n_seeds=2, grid=grid,
                                network={"output_option": template_option},
                                loss={"regularizer": "l2", "coefficient": 1e-4})
        assert main(["grid", "--config", str(cfg)]) == 0
        ranked = json.loads((tmp_path / "run" / "report.json").read_text())["ranked"]
        doc = load_config(str(cfg))
        ds = generate_simulated(n=150, seed=3)
        library = grid_search(ds, build_spec(doc, ds), build_train_config(doc), grid,
                              n_seeds=2, regularizer=build_regularizer(doc))
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


class TestSweepReruns:
    @pytest.mark.parametrize("command, grid, tables", [
        ("compare", None, {"runs.csv"}),
        ("grid", {"batch_sizes": [16, 32, 16]}, {"grid.csv", "curve.csv"}),
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

    @pytest.mark.parametrize("loss", [
        {"regularizer": "l3"}, {"reconstruction_weight": -1.0},
        {"regularizer": "L2", "coefficient": 1e-3}, {"regularizer": "l1", "coefficient": -1e-3},
    ])
    @pytest.mark.parametrize("command", ["train", "compare", "grid", "sensitivity"])
    def test_config_error_writes_no_artifacts(self, tmp_path, capsys, command, loss):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [16]}, loss=loss)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: invalid loss config: ")
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("sensitivity", {"network": {"nnode": [4]}}, "network.nnode"),
        *((command, {"stratify": True}, "stratify")
          for command in ("train", "compare", "grid", "sensitivity")),
        *(("train", {"training": {field: value}}, f"invalid training config: {field}")
          for field, value in (("early_stop_patience", 0), ("early_stop_patience", -7),
                               ("adam_beta1", 1.0), ("adam_beta2", -0.5),
                               ("momentum", 1.0), ("momentum", -3.0),
                               ("adam_epsilon", 0.0), ("adam_epsilon", -1e-3))),
    ])
    def test_invalid_variant_or_split_exits_2_writing_nothing(self, tmp_path, capsys,
                                                               command, override, key):
        cfg = tiny_train_config(tmp_path, n_seeds=1, grid={"batch_sizes": [16]}, **override)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override, key", [
        ({"stratify_column": ["a"]}, "dataset.stratify_column"),
        ({"delimiter": ",,"}, "dataset.delimiter"),
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

    def test_negative_n_bumps_exits_2_writing_nothing(self, tmp_path, capsys):
        cfg = tiny_train_config(tmp_path, dataset={"source": "spatial-field", "n": 60,
                                                   "n_bumps": -1})
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "config error: dataset.n_bumps must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("dataset, message", [
        ({"source": "spatial-field", "n": 60, "spatial_noise_sd": -1.0},
         "dataset.spatial_noise_sd must be >= 0, got -1.0"),
        ({"source": "spatial-field", "n": 60, "correlation_length": -2.0},
         "dataset.correlation_length must be > 0, got -2.0"),
        ({"source": "spatial-field", "n": 10}, "dataset.n must be >= 50, got 10"),
        ({"noise_sd": -1.0}, "dataset.noise_sd must be >= 0, got -1.0"),
        ({"n": 0}, "dataset.n must be >= 1, got 0"),
    ])
    def test_generator_range_error_names_the_config_key(self, tmp_path, capsys,
                                                        dataset, message):
        cfg = tiny_train_config(tmp_path, dataset=dataset)
        assert main(["train", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("source, key, value", [
        ("simulate", "n_bumps", -1), ("simulate", "correlation_length", -2.0),
        ("simulate", "path", 5), ("simulate", "delimiter", ",,"),
        ("simulate", "with_coordinates", False), ("spatial-field", "noise_sd", 5.0),
        ("spatial-field", "targets", ["z"]), ("csv", "n", 150), ("csv", "spatial_noise_sd", 0.1),
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

    def test_zero_seeds_exits_2_before_writing(self, tmp_path):
        cfg = tiny_train_config(tmp_path, n_seeds=0)
        assert main(["sensitivity", "--config", str(cfg)]) == 2
        assert not (tmp_path / "run" / "config.json").exists()

    @pytest.mark.parametrize("command, override, key", [
        ("train", {"training": {"shuffle": "false"}}, "training.shuffle"),
        ("train", {"training": {"batch_size": 32.9}}, "training.batch_size"),
        ("train", {"training": {"seed": True}}, "training.seed"),
        ("train", {"network": {"batchnorm": "no"}}, "network.batchnorm"),
        ("train", {"network": {"output_option": 1.7}}, "network.output_option"),
        ("train", {"network": {"nnode": [8.9, 4]}}, "network.nnode[0]"),
        ("train", {"network": {"residual": 1.5}}, "network.residual"),
        ("train", {"network": {"activation": None}}, "network.activation"),
        ("train", {"dataset": {"n": None}}, "dataset.n"),
        ("grid", {"grid": {"batch_sizes": [None]}, "n_seeds": 1}, "grid.batch_sizes[0]"),
        ("grid", {"grid": {"nnodes": [[8, 4.5]]}, "n_seeds": 1}, "grid.nnodes[0][1]"),
        ("train", {"network": {"output_activation": 5}}, "network.output_activation"),
        ("train", {"network": {"residual_post_op": None}}, "network.residual_post_op"),
        ("train", {"network": {"dropout_placement": ["all"]}}, "network.dropout_placement"),
        ("grid", {"grid": {"activations": [["elu"]]}, "n_seeds": 1}, "grid.activations[0]"),
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
