"""Metrics and the experiment harnesses: residual-vs-regular comparison,
grid search, and the shortcut-count sensitivity study.

Conventions printed into every report: R^2 = 1 - SS_res/SS_tot, RMSE in
target units, nRMSE = RMSE / (max(y) - min(y)) over the observed targets,
AUC by trapezoid over the ROC curve (ties contribute diagonal segments).
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace
from itertools import product

import numpy as np

from .data import Dataset, SplitIndices, split
from .matrix import checked_json, checked_json_list
from .network import NetworkSpec, build_network
from .training import (
    FittedModel,
    LossSpec,
    Regularizer,
    TrainConfig,
    TrainingDiverged,
    train_model,
)

NRMSE_DEFINITION = "rmse / (max(observed) - min(observed))"


def r2(y: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1) if np.ndim(y) == 1 else np.asarray(y)
    y_pred = (np.asarray(y_pred, dtype=np.float64).reshape(-1, 1)
              if np.ndim(y_pred) == 1 else np.asarray(y_pred))
    if y.shape != y_pred.shape:
        raise ValueError(f"r2 shape mismatch: {y.shape} vs {y_pred.shape}")
    if y.shape[0] < 2:
        raise ValueError("r2 needs at least 2 observations")
    ss_tot = float(((y - y.mean(axis=0)) ** 2).sum())
    if ss_tot == 0.0:
        raise ValueError("r2 undefined for constant observations")
    ss_res = float(((y - y_pred) ** 2).sum())
    return 1.0 - ss_res / ss_tot


def rmse_and_nrmse(y: np.ndarray, y_pred: np.ndarray) -> tuple[float, float | None]:
    """RMSE in target units and range-normalized RMSE (None if range is zero)."""
    y = np.asarray(y, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y.shape != y_pred.shape:
        raise ValueError(f"rmse shape mismatch: {y.shape} vs {y_pred.shape}")
    rmse = float(np.sqrt(((y - y_pred) ** 2).mean()))
    spread = float(y.max() - y.min())
    return rmse, (rmse / spread if spread > 0.0 else None)


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Area under the ROC curve by trapezoid; tied scores share one sweep point."""
    labels = np.asarray(labels).ravel()
    scores = np.asarray(scores, dtype=np.float64).ravel()
    pos = int((labels == 1).sum())
    neg = int((labels == 0).sum())
    if pos == 0 or neg == 0:
        raise ValueError("roc_auc needs both classes present")
    if not np.isfinite(scores).all():
        raise ValueError("roc_auc needs finite scores")
    order = np.argsort(-scores, kind="stable")
    s, l = scores[order], labels[order]
    ends = np.append(s[1:] != s[:-1], True)   # the last row of each run of tied scores
    tpr = np.append(0.0, np.cumsum(l == 1)[ends] / pos)
    fpr = np.append(0.0, np.cumsum(l == 0)[ends] / neg)
    # trapezoids summed one by one in sweep order
    return float(np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)[-1])


def classification_metrics(y: np.ndarray, probabilities: np.ndarray
                           ) -> tuple[float, float, float | None]:
    """(accuracy, mean cross entropy, AUC); AUC is None when y has one class.

    Binary AUC scores the positive class; with more classes it is the macro
    average of one-vs-rest AUCs over the classes present in y.
    """
    classes = np.asarray(y, dtype=np.int64).ravel()
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != classes.shape[0]:
        raise ValueError(f"probabilities must be (n, C) matching y, got {p.shape}")
    sums = p.sum(axis=1)
    if np.abs(sums - 1.0).max() > 1e-6:
        raise ValueError("probability rows must sum to 1 within 1e-6")
    n = classes.shape[0]
    accuracy = float((p.argmax(axis=1) == classes).mean())
    cross_entropy = float(-np.log(np.maximum(p[np.arange(n), classes], 1e-15)).mean())
    present = np.unique(classes)
    if present.size < 2:
        return accuracy, cross_entropy, None
    if p.shape[1] == 2:
        auc = roc_auc((classes == 1).astype(int), p[:, 1])
    else:
        auc = float(np.mean([roc_auc((classes == c).astype(int), p[:, c])
                             for c in present]))
    return accuracy, cross_entropy, auc


def _headline(task: str) -> str:
    """The ranking metric: R^2 for regression, accuracy for classification."""
    return "r2" if task == "regression" else "accuracy"


@dataclass
class Metrics:
    r2: float | None = None
    rmse: float | None = None
    nrmse: float | None = None
    accuracy: float | None = None
    cross_entropy: float | None = None
    auc: float | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


def evaluate_model(model: FittedModel, dataset: Dataset, indices: np.ndarray) -> Metrics:
    """Score a fitted model on the given dataset rows, in original units."""
    predictions = model.predict(dataset.features[indices])
    if dataset.task == "classification":
        acc, ce, auc = classification_metrics(dataset.targets[indices], predictions)
        return Metrics(accuracy=acc, cross_entropy=ce, auc=auc)
    observed = dataset.targets[indices]
    rmse, nrmse = rmse_and_nrmse(observed, predictions)
    return Metrics(r2=r2(observed, predictions), rmse=rmse, nrmse=nrmse)


# ---------------------------------------------------------------------------
# The shared sweep: (variant, seed) jobs on shared splits
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    seed: int
    arm: str                    # "residual" | "regular" | "shortcuts=N" | grid label
    converged: bool
    parameter_count: int
    validation: Metrics | None = None
    test: Metrics | None = None
    diagnostic: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self),
                "validation": self.validation.to_dict() if self.validation else None,
                "test": self.test.to_dict() if self.test else None}


def train_and_score(dataset: Dataset, split_idx: SplitIndices, spec: NetworkSpec,
                    cfg: TrainConfig, regularizer: Regularizer | None = None,
                    loss: LossSpec | None = None,
                    arm: str = "train") -> tuple[RunResult, FittedModel | None]:
    """One job: train with cfg's seed on the split, then score the
    validation and test rows.  Returns the run and the fitted model; on a
    non-finite loss the model is None and the run carries the diagnostic."""
    parameter_count = build_network(spec, rng=0).count_parameters()
    try:
        model = train_model(dataset, split_idx, spec, cfg, regularizer=regularizer, loss=loss)
    except TrainingDiverged as exc:
        return RunResult(seed=cfg.seed, arm=arm, converged=False,
                         parameter_count=parameter_count, diagnostic=str(exc)), None
    return RunResult(seed=cfg.seed, arm=arm, converged=True,
                     parameter_count=parameter_count,
                     validation=evaluate_model(model, dataset, split_idx.validation),
                     test=evaluate_model(model, dataset, split_idx.test)), model


def _seeds(cfg: TrainConfig, n_seeds: int) -> list[int]:
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return [cfg.seed + i for i in range(n_seeds)]


def _sweep(dataset: Dataset, variants: list[tuple[str, NetworkSpec, TrainConfig]],
           seeds: list[int], regularizer: Regularizer | None, loss: LossSpec | None,
           stratify: bool) -> list[list[RunResult]]:
    """Train each (label, spec, cfg) variant once per seed; returns each
    variant's runs in seed order.

    Each seed's split is built once and shared by every variant, and the
    seed also fixes the initial weights, so variants differ only in their
    spec and train config.  Every variant is validated before any training.
    """
    for _, spec, cfg in variants:
        spec.validate()
        cfg.validate()
    splits = {seed: split(dataset, seed=seed, stratify=stratify) for seed in seeds}
    return [[train_and_score(dataset, splits[seed], spec, replace(cfg, seed=seed),
                             regularizer, loss, label)[0]
             for seed in seeds]
            for label, spec, cfg in variants]


def _converged_stats(runs: list[RunResult], part: str, metric: str) -> dict:
    """Mean, range and count of one metric over the converged runs."""
    values = [getattr(getattr(r, part), metric) for r in runs if r.converged]
    values = [v for v in values if v is not None]
    if not values:
        return {"mean": None, "min": None, "max": None, "n": 0}
    return {"mean": float(np.mean(values)), "min": float(min(values)),
            "max": float(max(values)), "n": len(values)}


def _summarize(runs: list[RunResult], task: str) -> dict:
    fields = (["r2", "rmse", "nrmse"] if task == "regression"
              else ["accuracy", "cross_entropy", "auc"])
    out: dict = {"n_runs": len(runs),
                 "n_converged": sum(r.converged for r in runs),
                 "n_non_convergent": sum(not r.converged for r in runs)}
    for part in ("validation", "test"):
        for f in fields:
            out[f"{part}_{f}"] = _converged_stats(runs, part, f)
    return out


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

@dataclass
class ComparisonReport:
    """Paired residual/regular results over shared seeds and splits."""

    task: str
    seeds: list[int]
    runs: list[RunResult]
    summary: dict = field(default_factory=dict)

    def arm_runs(self, arm: str) -> list[RunResult]:
        return [r for r in self.runs if r.arm == arm]

    def mean_test_headline(self, arm: str) -> float | None:
        return self.summary[arm][f"test_{_headline(self.task)}"]["mean"]

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "seeds": self.seeds,
            "definitions": {"nrmse": NRMSE_DEFINITION},
            "runs": [r.to_dict() for r in self.runs],
            "summary": self.summary,
        }

    def write_runs_csv(self, path) -> None:
        _write_csv(path, ["seed", "arm", "converged", "parameter_count",
                          "split", "metric", "value"],
                   ([run.seed, run.arm, run.converged, run.parameter_count,
                     part, name, value]
                    for run in self.runs
                    for part in ("validation", "test") if getattr(run, part) is not None
                    for name, value in getattr(run, part).to_dict().items()))


def compare(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig, n_seeds: int = 5,
            regularizer: Regularizer | None = None, loss: LossSpec | None = None,
            stratify: bool = False) -> ComparisonReport:
    """Train residual and regular arms on identical splits for each seed.

    A non-finite training loss marks that arm non-convergent for the seed;
    summaries average over the converged runs only and count the failures.
    """
    seeds = _seeds(cfg, n_seeds)
    residual, regular = _sweep(dataset, [("residual", replace(spec, residual="full"), cfg),
                                         ("regular", replace(spec, residual="off"), cfg)],
                               seeds, regularizer, loss, stratify)
    runs = [run for pair in zip(residual, regular) for run in pair]   # seed-major
    return ComparisonReport(task=dataset.task, seeds=seeds, runs=runs, summary={
        "residual": _summarize(residual, dataset.task),
        "regular": _summarize(regular, dataset.task),
    })


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass
class GridCell:
    label: str
    spec: NetworkSpec
    batch_size: int
    mean_val_metric: float | None
    parameter_count: int
    runs: list[RunResult]

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "nnode": list(self.spec.nnode),
            "acts": list(self.spec.act_list()),
            "output_option": self.spec.output_option,
            "residual": self.spec.residual,
            "batch_size": self.batch_size,
            "mean_val_metric": self.mean_val_metric,
            "parameter_count": self.parameter_count,
            "n_non_convergent": sum(not r.converged for r in self.runs),
        }


@dataclass
class GridResult:
    task: str
    cells: list[GridCell]        # ranked best first
    axes: dict

    def best(self) -> GridCell:
        return self.cells[0]

    def to_dict(self) -> dict:
        return {"task": self.task, "axes": self.axes,
                "definitions": {"nrmse": NRMSE_DEFINITION},
                "ranked": [c.to_dict() for c in self.cells]}

    def write_cells_csv(self, path) -> None:
        _write_csv(path, ["rank", "label", "batch_size", "nnode", "acts",
                          "output_option", "mean_val_metric", "parameter_count"],
                   ([rank, c.label, c.batch_size, " ".join(str(w) for w in c.spec.nnode),
                     " ".join(c.spec.act_list()), c.spec.output_option,
                     c.mean_val_metric, c.parameter_count]
                    for rank, c in enumerate(self.cells)))

    def batch_size_curve(self) -> list[tuple[int, float | None]]:
        """(batch size, mean validation metric) sorted by batch size."""
        return sorted((c.batch_size, c.mean_val_metric) for c in self.cells)

    def write_curve_csv(self, path) -> None:
        _write_csv(path, ["batch_size", "mean_val_metric"], self.batch_size_curve())


GRID_AXES = ("nnodes", "activations", "output_options", "batch_sizes")   # product order


def grid_variants(spec: NetworkSpec, cfg: TrainConfig,
                  grid: dict) -> tuple[dict, list[tuple[str, NetworkSpec, TrainConfig]]]:
    """The grid's axes, missing ones filled from the template, and one
    validated (label, spec, cfg) variant per cell in product order.

    Each value's JSON type is checked (nnodes are lists of integers,
    activations strings, the other axes integers), and an unknown axis, a
    wrong type or an invalid cell is a ValueError naming the grid values,
    e.g. "grid.nnodes[0][1] must be an integer" or
    "grid.batch_sizes[0]: batch_size must be >= 1".
    """
    axes = {"batch_sizes": [cfg.batch_size], "nnodes": [spec.nnode],
            "activations": [spec.acts], "output_options": [spec.output_option]}
    for key, values in grid.items():
        if key not in axes:
            raise ValueError(f"grid.{key} is not a grid axis; the axes are "
                             f"{', '.join(GRID_AXES)}")
        if key == "nnodes":
            axes[key] = [tuple(checked_json_list(nnode, int, f"grid.nnodes[{i}]"))
                         for i, nnode in enumerate(checked_json(values, list, "grid.nnodes"))]
        else:
            axes[key] = checked_json_list(values, str if key == "activations" else int,
                                          f"grid.{key}")
    if any(len(v) == 0 for v in axes.values()):
        raise ValueError("grid axes must be non-empty")
    variants = []
    for index in product(*(range(len(axes[key])) for key in GRID_AXES)):
        nnode, act, option, batch = (axes[key][i] for key, i in zip(GRID_AXES, index))
        cell_spec = replace(spec, nnode=nnode, acts=act, output_option=option)
        cell_cfg = replace(cfg, batch_size=batch)
        try:
            cell_spec.validate()
            cell_cfg.validate()
        except ValueError as exc:
            where = ", ".join(f"grid.{key}[{i}]" for key, i in zip(GRID_AXES, index)
                              if key in grid)
            raise ValueError(f"{where or 'grid template'}: {exc}") from None
        variants.append((f"nnode={list(nnode)} act={act} out{option} batch={batch}",
                         cell_spec, cell_cfg))
    return axes, variants


def grid_search(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                grid: dict, n_seeds: int = 3,
                regularizer: Regularizer | None = None,
                loss: LossSpec | None = None,
                stratify: bool = False) -> GridResult:
    """Full factorial search ranked by mean validation R^2 (or accuracy).

    Recognized axes: batch_sizes, nnodes, activations, output_options;
    missing axes fall back to the template value.  Ties rank the smaller
    parameter count first, then the smaller batch size.  Splits and seeds
    are shared across cells.
    """
    axes, variants = grid_variants(spec, cfg, grid)
    sweep = _sweep(dataset, variants, _seeds(cfg, n_seeds), regularizer, loss, stratify)
    metric = _headline(dataset.task)
    cells = [GridCell(label=label, spec=cell_spec, batch_size=cell_cfg.batch_size,
                      mean_val_metric=_converged_stats(runs, "validation", metric)["mean"],
                      parameter_count=runs[0].parameter_count, runs=runs)
             for (label, cell_spec, cell_cfg), runs in zip(variants, sweep)]
    cells.sort(key=lambda c: (-(c.mean_val_metric if c.mean_val_metric is not None
                                else -np.inf),
                              c.parameter_count, c.batch_size))
    return GridResult(task=dataset.task, cells=cells, axes=axes)


# ---------------------------------------------------------------------------
# Residual-count sensitivity
# ---------------------------------------------------------------------------

@dataclass
class SensitivityRow:
    n_shortcuts: int
    mean_test_r2: float | None
    mean_test_rmse: float | None
    runs: list[RunResult]

    def to_dict(self) -> dict:
        return {"n_shortcuts": self.n_shortcuts,
                "mean_test_r2": self.mean_test_r2,
                "mean_test_rmse": self.mean_test_rmse,
                "n_non_convergent": sum(not r.converged for r in self.runs)}


@dataclass
class SensitivityResult:
    rows: list[SensitivityRow]

    def to_dict(self) -> dict:
        return {"definitions": {"nrmse": NRMSE_DEFINITION},
                "rows": [r.to_dict() for r in self.rows]}

    def write_csv(self, path) -> None:
        _write_csv(path, ["n_shortcuts", "mean_test_r2", "mean_test_rmse"],
                   ([row.n_shortcuts, row.mean_test_r2, row.mean_test_rmse]
                    for row in self.rows))


def residual_sensitivity(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                         n_seeds: int = 5, regularizer: Regularizer | None = None,
                         loss: LossSpec | None = None,
                         stratify: bool = False) -> SensitivityResult:
    """Train variants keeping 0..all outermost shortcuts on shared splits."""
    total = spec.n_shortcut_pairs
    if total < 2:
        raise ValueError("sensitivity study needs at least 2 shortcut pairs")
    counts = range(total + 1)
    sweep = _sweep(dataset, [(f"shortcuts={count}", replace(spec, residual=count), cfg)
                             for count in counts],
                   _seeds(cfg, n_seeds), regularizer, loss, stratify)
    return SensitivityResult(rows=[
        SensitivityRow(n_shortcuts=count,
                       mean_test_r2=_converged_stats(runs, "test", "r2")["mean"],
                       mean_test_rmse=_converged_stats(runs, "test", "rmse")["mean"],
                       runs=runs)
        for count, runs in zip(counts, sweep)])
