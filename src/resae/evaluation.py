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

from .data import Dataset, split
from .matrix import check_field_types, checked_json_list
from .network import Network, NetworkSpec
from .training import (
    FittedModel,
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


def accuracy(y: np.ndarray, probabilities: np.ndarray) -> float:
    """Share of rows whose most probable class is the observed class."""
    classes = np.asarray(y, dtype=np.int64).ravel()
    return float((np.asarray(probabilities).argmax(axis=1) == classes).mean())


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
    if not (np.abs(p.sum(axis=1) - 1.0) <= 1e-6).all():   # also false for a NaN or inf row
        raise ValueError("probability rows must be finite and sum to 1 within 1e-6")
    n = classes.shape[0]
    acc = accuracy(classes, p)
    cross_entropy = float(-np.log(np.maximum(p[np.arange(n), classes], 1e-15)).mean())
    present = np.unique(classes)
    if present.size < 2:
        return acc, cross_entropy, None
    if p.shape[1] == 2:
        auc = roc_auc((classes == 1).astype(int), p[:, 1])
    else:
        auc = float(np.mean([roc_auc((classes == c).astype(int), p[:, c])
                             for c in present]))
    return acc, cross_entropy, auc


# Each task's metrics, headline first: R^2 ranks regression runs, accuracy classification ones
TASK_METRICS = {"regression": ("r2", "rmse", "nrmse"),
                "classification": ("accuracy", "cross_entropy", "auc")}
# Each task's headline alone, as a function of the observed targets and FittedModel.outputs
HEADLINE_METRIC = {"regression": r2, "classification": accuracy}


def _headline(task: str) -> str:
    return TASK_METRICS[task][0]


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


def score(task: str, observed: np.ndarray, predictions: np.ndarray) -> Metrics:
    """The task's metrics of FittedModel.outputs against the observed targets."""
    if task == "classification":
        acc, ce, auc = classification_metrics(observed, predictions)
        return Metrics(accuracy=acc, cross_entropy=ce, auc=auc)
    rmse, nrmse = rmse_and_nrmse(observed, predictions)
    return Metrics(r2=r2(observed, predictions), rmse=rmse, nrmse=nrmse)


def evaluate_model(model: FittedModel, dataset: Dataset, indices: np.ndarray) -> Metrics:
    """Score a fitted model on the given dataset rows, in original units."""
    return score(dataset.task, dataset.targets[indices], model.predict(dataset.features[indices]))


# ---------------------------------------------------------------------------
# One job path: run_job, and the sweep of (seed, variant) jobs on shared splits
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


@dataclass(frozen=True)
class SharedSettings:
    """What every job shares besides the dataset, checked when made: the loss
    section, a weight penalty and the reconstruction weight."""

    regularizer: str = "none"   # the penalty's kind: "none" | "l1" | "l2"
    coefficient: float = 0.0
    reconstruction_weight: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        self.penalty   # a Regularizer checks its kind and coefficient when made
        if not self.reconstruction_weight >= 0:
            raise ValueError("reconstruction_weight must be >= 0")

    @property
    def penalty(self) -> Regularizer:
        return Regularizer(self.regularizer, self.coefficient)


@dataclass(frozen=True)
class Job:
    """One training run: a label, a spec and a train config at the run's seed;
    with the dataset and SharedSettings it fixes the run, bit for bit."""

    label: str
    spec: NetworkSpec
    cfg: TrainConfig


def run_job(dataset: Dataset, job: Job,
            shared: SharedSettings) -> tuple[RunResult, FittedModel | None]:
    """Split on the job's seed, train, then score the validation and test rows.
    Returns the run and the fitted model; on a non-finite loss the model is
    None and the run carries the diagnostic."""
    split_idx = split(dataset, seed=job.cfg.seed)
    try:
        model = train_model(dataset, split_idx, job.spec, job.cfg,
                            shared.penalty, shared.reconstruction_weight)
    except TrainingDiverged as exc:
        return RunResult(seed=job.cfg.seed, arm=job.label, converged=False,
                         parameter_count=Network(job.spec).count_parameters(),
                         diagnostic=str(exc)), None
    return RunResult(seed=job.cfg.seed, arm=job.label, converged=True,
                     parameter_count=model.network.count_parameters(),
                     validation=evaluate_model(model, dataset, split_idx.validation),
                     test=evaluate_model(model, dataset, split_idx.test)), model


@dataclass(frozen=True)
class Variant(Job):
    """A job that a sweep trains once per seed, at the seeds counting up from
    its own, and the runs that the sweep hands it."""

    runs: list[RunResult] = field(default_factory=list)

    def mean(self, part: str, metric: str) -> float | None:
        """Mean of one validation or test metric over the converged runs."""
        return _converged_stats(self.runs, part, metric)["mean"]


def _sweep(dataset: Dataset, variants: list[Variant], n_seeds: int,
           shared: SharedSettings) -> list[RunResult]:
    """The run table: every (seed, variant) job in seed-major order, each run
    also handed to its variant.  The seeds count up from the variants' shared
    train-config seed; a seed fixes the split and the initial weights, so
    variants differ only in their spec and train config.
    """
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    seeds = range(variants[0].cfg.seed, variants[0].cfg.seed + n_seeds)
    table = []
    for seed, v in product(seeds, variants):
        run = run_job(dataset, Job(v.label, v.spec, replace(v.cfg, seed=seed)), shared)[0]
        v.runs.append(run)
        table.append(run)
    return table


def _converged_stats(runs: list[RunResult], part: str, metric: str) -> dict:
    """Mean, range and count of one metric over the converged runs."""
    values = [getattr(getattr(r, part), metric) for r in runs if r.converged]
    values = [v for v in values if v is not None]
    if not values:
        return {"mean": None, "min": None, "max": None, "n": 0}
    return {"mean": float(np.mean(values)), "min": float(min(values)),
            "max": float(max(values)), "n": len(values)}


def _summarize(runs: list[RunResult], task: str) -> dict:
    out: dict = {"n_runs": len(runs),
                 "n_converged": sum(r.converged for r in runs),
                 "n_non_convergent": sum(not r.converged for r in runs)}
    for part in ("validation", "test"):
        for f in TASK_METRICS[task]:
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
    runs: list[RunResult]       # the run table: per seed, the residual then the regular run

    def arm_runs(self, arm: str) -> list[RunResult]:
        return [r for r in self.runs if r.arm == arm]

    @property
    def seeds(self) -> list[int]:
        return [r.seed for r in self.arm_runs("residual")]

    @property
    def summary(self) -> dict:
        return {arm: _summarize(self.arm_runs(arm), self.task) for arm in ("residual", "regular")}

    def mean_test_headline(self, arm: str) -> float | None:
        return _converged_stats(self.arm_runs(arm), "test", _headline(self.task))["mean"]

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
            shared: SharedSettings = SharedSettings()) -> ComparisonReport:
    """Train residual and regular arms on identical splits for each seed.

    A non-finite training loss marks that arm non-convergent for the seed;
    summaries average over the converged runs only and count the failures.
    """
    arms = [Variant("residual", replace(spec, residual="full"), cfg),
            Variant("regular", replace(spec, residual="off"), cfg)]
    return ComparisonReport(task=dataset.task, runs=_sweep(dataset, arms, n_seeds, shared))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass
class GridResult:
    task: str
    cells: list[Variant]        # ranked best first
    axes: dict

    def best(self) -> Variant:
        return self.cells[0]

    def mean_val_metric(self, cell: Variant) -> float | None:
        """The ranking metric: mean validation R^2 (or accuracy) over converged runs."""
        return cell.mean("validation", _headline(self.task))

    def to_dict(self) -> dict:
        return {"task": self.task, "axes": self.axes,
                "definitions": {"nrmse": NRMSE_DEFINITION},
                "ranked": [{"label": c.label,
                            "nnode": list(c.spec.nnode),
                            "acts": list(c.spec.act_list()),
                            "output_option": c.spec.output_option,
                            "residual": c.spec.residual,
                            "batch_size": c.cfg.batch_size,
                            "mean_val_metric": self.mean_val_metric(c),
                            "parameter_count": c.runs[0].parameter_count,
                            "n_non_convergent": sum(not r.converged for r in c.runs)}
                           for c in self.cells]}

    def write_cells_csv(self, path) -> None:
        _write_csv(path, ["rank", "label", "batch_size", "nnode", "acts",
                          "output_option", "mean_val_metric", "parameter_count"],
                   ([rank, c.label, c.cfg.batch_size, " ".join(str(w) for w in c.spec.nnode),
                     " ".join(c.spec.act_list()), c.spec.output_option,
                     self.mean_val_metric(c), c.runs[0].parameter_count]
                    for rank, c in enumerate(self.cells)))

    def batch_size_curve(self) -> list[tuple[int, float | None]]:
        """(batch size, mean validation metric) sorted by batch size, cells
        of one batch size in rank order; a mean is None if every run diverged."""
        return sorted(((c.cfg.batch_size, self.mean_val_metric(c)) for c in self.cells),
                      key=lambda row: row[0])

    def write_curve_csv(self, path) -> None:
        _write_csv(path, ["batch_size", "mean_val_metric"], self.batch_size_curve())


# each grid axis's value kind (see checked_json), in product order
GRID_KINDS = {"nnodes": NetworkSpec.READERS["nnode"], "activations": str,
              "output_options": int, "batch_sizes": int}
GRID_AXES = tuple(GRID_KINDS)


def grid_variants(spec: NetworkSpec, cfg: TrainConfig,
                  grid: dict) -> tuple[dict, list[Variant]]:
    """The grid's axes, missing ones filled from the template, and one
    variant per cell in product order.

    Each value's JSON type is checked (nnodes are lists of integers,
    activations strings, the other axes integers), and an unknown axis, a
    wrong type, an empty axis, a repeated value or an invalid cell is a
    ValueError naming the grid values, e.g. "grid.nnodes[0][1] must be an
    integer", "grid.batch_sizes[1] repeats grid.batch_sizes[0]" or
    "grid.batch_sizes[0]: batch_size must be >= 2".
    """
    axes = {"batch_sizes": [cfg.batch_size], "nnodes": [spec.nnode],
            "activations": [spec.acts], "output_options": [spec.output_option]}
    for key, values in grid.items():
        if key not in axes:
            raise ValueError(f"grid.{key} is not a grid axis; the axes are "
                             f"{', '.join(GRID_AXES)}")
        axes[key] = checked_json_list(values, GRID_KINDS[key], f"grid.{key}")
        if not axes[key]:
            raise ValueError(f"grid.{key} must be non-empty")
        for i, value in enumerate(axes[key]):
            if value in axes[key][:i]:
                raise ValueError(f"grid.{key}[{i}] repeats grid.{key}[{axes[key].index(value)}]")
    variants = []
    for index in product(*(range(len(axes[key])) for key in GRID_AXES)):
        nnode, act, option, batch = (axes[key][i] for key, i in zip(GRID_AXES, index))
        try:
            variants.append(Variant(f"nnode={list(nnode)} act={act} out{option} batch={batch}",
                                    replace(spec, nnode=nnode, acts=act, output_option=option),
                                    replace(cfg, batch_size=batch)))
        except ValueError as exc:
            where = ", ".join(f"grid.{key}[{i}]" for key, i in zip(GRID_AXES, index)
                              if key in grid)
            raise ValueError(f"{where or 'grid template'}: {exc}") from None
    return axes, variants


def grid_search(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                grid: dict, n_seeds: int = 3,
                shared: SharedSettings = SharedSettings()) -> GridResult:
    """Full factorial search ranked by mean validation R^2 (or accuracy).

    Recognized axes: batch_sizes, nnodes, activations, output_options;
    missing axes fall back to the template value.  Ties rank the smaller
    parameter count first, then the smaller batch size.  Splits and seeds
    are shared across cells.
    """
    axes, variants = grid_variants(spec, cfg, grid)
    _sweep(dataset, variants, n_seeds, shared)
    result = GridResult(task=dataset.task, axes=axes, cells=variants)
    result.cells.sort(key=lambda c: (np.inf if (mean := result.mean_val_metric(c)) is None
                                     else -mean, c.runs[0].parameter_count, c.cfg.batch_size))
    return result


# ---------------------------------------------------------------------------
# Residual-count sensitivity
# ---------------------------------------------------------------------------

@dataclass
class SensitivityResult:
    task: str
    rows: list[Variant]         # one per count of outermost shortcuts kept, 0..all

    def table(self) -> list[dict]:
        """Per row, the shortcuts kept and the mean test value of the task's first two metrics."""
        return [{"n_shortcuts": r.spec.residual_count(),
                 **{f"mean_test_{m}": r.mean("test", m) for m in TASK_METRICS[self.task][:2]}}
                for r in self.rows]

    def to_dict(self) -> dict:
        return {"definitions": {"nrmse": NRMSE_DEFINITION},
                "rows": [{**row, "n_non_convergent": sum(not run.converged for run in r.runs)}
                         for row, r in zip(self.table(), self.rows)]}

    def write_csv(self, path) -> None:
        table = self.table()
        _write_csv(path, list(table[0]), (list(row.values()) for row in table))


def sensitivity_variants(spec: NetworkSpec, cfg: TrainConfig) -> list[Variant]:
    """One variant per count of outermost shortcuts kept, 0..all (2 or more pairs)."""
    if spec.n_shortcut_pairs < 2:
        raise ValueError(f"nnode: sensitivity study needs at least 2 shortcut pairs "
                         f"(one per width), got {list(spec.nnode)}")
    return [Variant(f"shortcuts={count}", replace(spec, residual=count), cfg)
            for count in range(spec.n_shortcut_pairs + 1)]


def residual_sensitivity(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                         n_seeds: int = 5,
                         shared: SharedSettings = SharedSettings()) -> SensitivityResult:
    """Train variants keeping 0..all outermost shortcuts on shared splits."""
    variants = sensitivity_variants(spec, cfg)
    _sweep(dataset, variants, n_seeds, shared)
    return SensitivityResult(task=dataset.task, rows=variants)
