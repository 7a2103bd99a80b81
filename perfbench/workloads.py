"""The three benchmark workloads.

Each workload names in `REFERENCE` the parts of `run.REFERENCE_PARTS` that
gauge the machine's speed for it (see README.md).  It has four steps:

- `prepare(seed, out_dir)` makes the inputs from the workload seed.  The seed
  reaches nothing else: training seeds, split seeds and sizes are constants.
- `setup(pkg, inputs)` is what `setup_s` times after the import: dataset
  generation or `load_csv`, the split, and a network build.
- `run(pkg, state)` is one repetition of the timed work.  Every repetition of
  one seed must give bit-identical results, which `fingerprint` captures.
- `check(pkg, state, outcome)` returns the failed correctness checks.  It runs
  outside the timed region.

`pkg` is the imported `resae` package; the workloads use its public API only.
Every job trains exactly `EPOCHS` epochs: early-stopping patience equals the
epoch limit, so a change cannot get faster by training less.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

TRAIN_SEED = 1


@dataclass
class Outcome:
    """What one repetition produced."""

    jobs: int                 # training jobs attempted
    non_convergent: int       # jobs stopped by a non-finite loss
    train_span: tuple         # perf_counter at the start and end of training (train_rows_per_s)
    train_rows: int           # training rows x epochs, over all jobs
    quality: dict             # deterministic quality metrics, checked against the band
    fingerprint: str          # must be identical across repetitions of one seed
    artifacts: dict = field(default_factory=dict)
    predict_ms: list = field(default_factory=list)


def _band_problems(quality: dict, bands: dict) -> list[str]:
    return [f"{name} = {quality[name]!r} is outside the reference band [{lo}, {hi}]"
            for name, (lo, hi) in bands.items() if not lo <= quality[name] <= hi]


def _train_config(pkg, epochs: int, **overrides):
    return pkg.TrainConfig(max_epochs=epochs, early_stop_patience=epochs,
                           seed=TRAIN_SEED, **overrides)


# ---------------------------------------------------------------------------
# paper_compare: the paper's residual-vs-regular comparison, small arrays
# ---------------------------------------------------------------------------

class PaperCompare:
    name = "paper_compare"
    why = ("the paper's experiment: evaluation.compare, both arms, 2 seeds, Adam on arrays of at most "
           "100x32, so per-call Python overhead (optimizer, batch norm, dispatch) dominates")
    ROWS = 1000
    NNODE = (32, 16, 8, 4)
    EPOCHS = 60
    N_SEEDS = 2
    REFERENCE = ("b16", "b100", "b250")
    BANDS = {"test_r2": (0.70, 0.97), "r2_gap": (-0.08, 0.12)}

    def prepare(self, seed: int, out_dir: Path) -> dict:
        return {"seed": seed}

    def setup(self, pkg, inputs: dict) -> dict:
        dataset = pkg.generate_simulated(n=self.ROWS, seed=inputs["seed"])
        spec = pkg.make_spec(dataset, self.NNODE)      # ELU, batch norm, dropout 0.1 at the code
        splits = [pkg.split(dataset, seed=TRAIN_SEED + i) for i in range(self.N_SEEDS)]
        return {
            "dataset": dataset,
            "spec": spec,
            "cfg": _train_config(pkg, self.EPOCHS, batch_size=100, optimizer="adam"),
            "rows_per_epoch": 2 * sum(len(s.train) for s in splits),   # both arms
            "parameter_counts": {
                arm: pkg.build_network(replace(spec, residual=residual), rng=0).count_parameters()
                for arm, residual in (("residual", "full"), ("regular", "off"))},
        }

    def run(self, pkg, state: dict) -> Outcome:
        start = time.perf_counter()
        report = pkg.compare(state["dataset"], state["spec"], state["cfg"], n_seeds=self.N_SEEDS)
        train_span = (start, time.perf_counter())
        residual = report.mean_test_headline("residual")
        regular = report.mean_test_headline("regular")
        quality = {}
        if residual is not None and regular is not None:    # None: an arm never converged
            quality = {"test_r2": residual, "r2_gap": residual - regular, "regular_test_r2": regular}
        return Outcome(
            jobs=len(report.runs),
            non_convergent=sum(not r.converged for r in report.runs),
            train_span=train_span,
            train_rows=self.EPOCHS * state["rows_per_epoch"],
            quality=quality,
            fingerprint=json.dumps(report.to_dict(), sort_keys=True),
            artifacts={"report": report})

    def check(self, pkg, state: dict, outcome: Outcome) -> list[str]:
        report = outcome.artifacts["report"]
        problems = []
        if len(report.runs) != 2 * self.N_SEEDS:
            problems.append(f"compare ran {len(report.runs)} jobs, expected {2 * self.N_SEEDS}")
        counts = {r.parameter_count for r in report.runs}
        built = set(state["parameter_counts"].values())
        if len(counts) != 1 or counts != built:
            problems.append(f"arms report parameter counts {sorted(counts)}, "
                            f"built networks have {sorted(built)}")
        if outcome.non_convergent:
            return problems     # no quality metrics without converged runs
        if outcome.quality["r2_gap"] == 0.0:
            problems.append("residual and regular arms scored identically: shortcuts had no effect")
        return problems + _band_problems(outcome.quality, self.BANDS)


# ---------------------------------------------------------------------------
# wide_sgd_recon: wide layers, big batches, reconstruction loss
# ---------------------------------------------------------------------------

class WideSgdRecon:
    name = "wide_sgd_recon"
    why = ("train_model on 10k rows, widths 256-128-64-32, SGD momentum, batch 1000, reconstruction "
           "loss: per-element work dominates, so overhead-only changes should not move it")
    ROWS = 10000
    NNODE = (256, 128, 64, 32)
    EPOCHS = 8
    REFERENCE = ("b250",)     # slows about half as much as the small-array parts
    BANDS = {"test_r2": (0.65, 0.95)}

    def prepare(self, seed: int, out_dir: Path) -> dict:
        return {"seed": seed}

    def setup(self, pkg, inputs: dict) -> dict:
        dataset = pkg.generate_simulated(n=self.ROWS, seed=inputs["seed"])
        spec = pkg.make_spec(dataset, self.NNODE, output_option=2)
        return {
            "dataset": dataset,
            "split": pkg.split(dataset, seed=TRAIN_SEED),
            "spec": spec,
            "cfg": _train_config(pkg, self.EPOCHS, batch_size=1000, optimizer="sgd",
                                 learning_rate=0.05, momentum=0.9),
            "parameter_count": pkg.build_network(spec, rng=0).count_parameters(),
        }

    def run(self, pkg, state: dict) -> Outcome:
        dataset, split = state["dataset"], state["split"]
        start = time.perf_counter()
        try:
            model = pkg.train_model(dataset, split, state["spec"], state["cfg"])
        except pkg.TrainingDiverged as exc:
            return Outcome(jobs=1, non_convergent=1, train_span=(0.0, 0.0), train_rows=0,
                           quality={}, fingerprint=str(exc))
        train_span = (start, time.perf_counter())
        metrics = pkg.evaluate_model(model, dataset, split.test)
        history = model.history
        return Outcome(
            jobs=1, non_convergent=0, train_span=train_span,
            train_rows=len(split.train) * len(history),
            quality={"test_r2": metrics.r2},
            fingerprint=json.dumps([history.to_rows(), history.best_epoch, metrics.to_dict()]),
            artifacts={"model": model})

    def check(self, pkg, state: dict, outcome: Outcome) -> list[str]:
        if outcome.non_convergent:
            return []
        model = outcome.artifacts["model"]
        problems = []
        if len(model.history) != self.EPOCHS:
            problems.append(f"trained {len(model.history)} epochs, expected {self.EPOCHS}")
        if model.network.count_parameters() != state["parameter_count"]:
            problems.append("trained network's parameter count differs from the built one")
        reloaded = pkg.FittedModel.from_dict(json.loads(json.dumps(model.to_dict())))
        rows = state["dataset"].features[state["split"].test]
        if not np.array_equal(reloaded.predict(rows), model.predict(rows)):
            problems.append("reloaded model does not predict bit-identically")
        return problems + _band_problems(outcome.quality, self.BANDS)


# ---------------------------------------------------------------------------
# csv_classify_b16: the CLI path from a CSV file to artifacts, then scoring
# ---------------------------------------------------------------------------

class CsvClassifyB16:
    name = "csv_classify_b16"
    why = ("cli train on a generated CSV (one categorical column, 3 binned classes), ReLU, batch 16, "
           "dropout after every layer, then reload model.json and time 1000 predict calls on 64 rows")
    ROWS = 5000
    NNODE = (32, 16, 8, 4)
    EPOCHS = 3
    REFERENCE = ("b16", "b100", "b250")
    BINS = (0.7, 1.9)          # near the tertiles of the generated score
    SITES = ("east", "north", "south", "west")
    PREDICT_CALLS = 1000
    PREDICT_ROWS = 64
    BANDS = {"test_accuracy": (0.6, 0.9)}

    def prepare(self, seed: int, out_dir: Path) -> dict:
        rng = np.random.default_rng(seed % (1 << 64))
        x = rng.uniform(0.0, 1.0, size=(self.ROWS, 6))
        site = rng.integers(0, len(self.SITES), size=self.ROWS)
        score = (2.0 * x[:, 0] + np.sin(6.0 * x[:, 1]) + 3.0 * x[:, 2] * x[:, 3] - x[:, 4]
                 + np.array([0.25, -0.5, 0.0, 0.5])[site]
                 + rng.normal(0.0, 0.3, size=self.ROWS))
        csv_path = out_dir / "data.csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("x1,x2,x3,x4,x5,x6,site,score\n")
            for row, s, y in zip(x.tolist(), site.tolist(), score.tolist()):
                fh.write(",".join(map(repr, row)) + f",{self.SITES[s]},{y!r}\n")
        config = {
            "dataset": {"source": "csv", "path": str(csv_path), "targets": ["score"],
                        "task": "classification", "target_bins": list(self.BINS)},
            "network": {"nnode": list(self.NNODE), "activation": "relu",
                        "dropout_placement": "all"},
            "training": {"batch_size": 16, "max_epochs": self.EPOCHS,
                         "early_stop_patience": self.EPOCHS, "seed": TRAIN_SEED},
        }
        config_path = out_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return {"csv": csv_path, "config": config_path, "run_dir": out_dir / "run"}

    def setup(self, pkg, inputs: dict) -> dict:
        dataset = pkg.load_csv(inputs["csv"], ["score"], "classification",
                               target_bins=list(self.BINS))
        spec = pkg.make_spec(dataset, self.NNODE, acts="relu", dropout_placement="all")
        n_slices = dataset.n_rows // self.PREDICT_ROWS
        return {
            "inputs": inputs,
            "dataset": dataset,
            "split": pkg.split(dataset, seed=TRAIN_SEED),
            "parameter_count": pkg.build_network(spec, rng=0).count_parameters(),
            "slices": [dataset.features[(i % n_slices) * self.PREDICT_ROWS:
                                        (i % n_slices + 1) * self.PREDICT_ROWS]
                       for i in range(self.PREDICT_CALLS)],
        }

    def run(self, pkg, state: dict) -> Outcome:
        inputs = state["inputs"]
        run_dir = inputs["run_dir"]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(["train", "--config", str(inputs["config"]),
                                 "--out", str(run_dir)])
        train_span = (start, time.perf_counter())
        if code != 0:
            return Outcome(jobs=1, non_convergent=int(code == 3), train_span=(0.0, 0.0),
                           train_rows=0, quality={}, fingerprint=f"exit code {code}",
                           artifacts={"exit_code": code})
        model_bytes = (run_dir / "model.json").read_bytes()
        metrics_bytes = (run_dir / "metrics.json").read_bytes()
        model = pkg.FittedModel.from_dict(json.loads(model_bytes))
        timings = []
        for rows in state["slices"]:
            start = time.perf_counter()
            model.predict(rows)
            timings.append(time.perf_counter() - start)
        metrics = json.loads(metrics_bytes)
        return Outcome(
            jobs=1, non_convergent=0, train_span=train_span,
            train_rows=len(state["split"].train) * metrics["epochs_run"],
            quality={"test_accuracy": metrics["test"]["accuracy"]},
            fingerprint=hashlib.sha256(model_bytes + metrics_bytes).hexdigest(),
            artifacts={"exit_code": code, "model": model, "metrics": metrics},
            predict_ms=[1e3 * t for t in timings])

    def check(self, pkg, state: dict, outcome: Outcome) -> list[str]:
        code = outcome.artifacts["exit_code"]
        if code != 0:
            return [] if code == 3 else [f"resae train exited with code {code}"]
        metrics = outcome.artifacts["metrics"]
        problems = []
        if metrics["epochs_run"] != self.EPOCHS:
            problems.append(f"trained {metrics['epochs_run']} epochs, expected {self.EPOCHS}")
        if metrics["parameter_count"] != state["parameter_count"]:
            problems.append("metrics.json parameter count differs from the built network's")
        # metrics.json was scored by the in-memory model; the reloaded one must match exactly
        rescored = pkg.evaluate_model(outcome.artifacts["model"], state["dataset"],
                                      state["split"].test).to_dict()
        if rescored != metrics["test"]:
            problems.append(f"reloaded model.json scores {rescored}, "
                            f"the in-memory model scored {metrics['test']}")
        return problems + _band_problems(outcome.quality, self.BANDS)


WORKLOADS = {w.name: w for w in (PaperCompare(), WideSgdRecon(), CsvClassifyB16())}
