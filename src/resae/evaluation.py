"""Metrics and the experiment harnesses: residual-vs-regular comparison,
grid search, and the shortcut-count sensitivity study.

Conventions printed into every report: R^2 = 1 - SS_res/SS_tot, RMSE in
target units, nRMSE = RMSE / (max(y) - min(y)) over the observed targets,
AUC by trapezoid over the ROC curve (ties contribute diagonal segments).
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from itertools import product

import numpy as np

from .data import Dataset, split
from .matrix import checked_json_list
from .network import Network, NetworkSpec
from .training import (
    FittedModel,
    SharedSettings,
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


def _class_indices(y: np.ndarray, p: np.ndarray, who: str) -> np.ndarray:
    """y as one class index per row of the (n, C) probabilities p, read before
    anything indexes with it: each label must be a whole number in [0, C), and
    a ValueError names who, the first other label and its row."""
    labels = np.asarray(y, dtype=np.float64).ravel()
    if p.ndim != 2:
        raise ValueError(f"{who} needs (n, C) probabilities, got shape {p.shape}")
    if labels.shape[0] != p.shape[0]:
        raise ValueError(f"{who} needs one label per probability row, got "
                         f"{labels.shape[0]} labels for {p.shape[0]} rows")
    valid = (labels == np.floor(labels)) & (labels >= 0) & (labels < p.shape[1])
    if not valid.all():
        i = int(np.argmin(valid))
        raise ValueError(f"{who} labels must be whole numbers in [0, {p.shape[1]}), "
                         f"got {np.asarray(y).ravel()[i].item()!r} at row {i}")
    return labels.astype(np.int64)


def accuracy(y: np.ndarray, probabilities: np.ndarray) -> float:
    """Share of rows whose most probable class is the observed class; y is
    read by _class_indices."""
    p = np.asarray(probabilities)
    labels = _class_indices(y, p, "accuracy")
    return float((p.argmax(axis=1) == labels).mean())


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
    """Area under the ROC curve by trapezoid; tied scores share one sweep point.
    Each label is 0 or 1 (or a bool); a ValueError names the first other one."""
    labels = np.asarray(labels).ravel()
    other = (labels != 0) & (labels != 1)
    if other.any():
        i = int(np.argmax(other))
        raise ValueError(f"roc_auc labels must be 0 or 1, got {labels[i].item()!r} at index {i}")
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
    p = np.asarray(probabilities, dtype=np.float64)
    classes = _class_indices(y, p, "classification_metrics")
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
    """The task's metrics of FittedModel.outputs against at least one observed row."""
    if len(observed) == 0:
        raise ValueError(f"no observed rows to score the {task} predictions on")
    if task == "classification":
        acc, ce, auc = classification_metrics(observed, predictions)
        return Metrics(accuracy=acc, cross_entropy=ce, auc=auc)
    rmse, nrmse = rmse_and_nrmse(observed, predictions)
    return Metrics(r2=r2(observed, predictions), rmse=rmse, nrmse=nrmse)


def evaluate_model(model: FittedModel, dataset: Dataset, indices: np.ndarray) -> Metrics:
    """Score a fitted model on the given dataset rows, in original units."""
    return score(dataset.task, dataset.targets[indices], model.predict(dataset.features[indices]))


# ---------------------------------------------------------------------------
# One job path: run_job, and the sweep of seeded jobs on shared splits
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
        model = train_model(dataset, split_idx, job.spec, job.cfg, shared)
    except TrainingDiverged as exc:
        return RunResult(seed=job.cfg.seed, arm=job.label, converged=False,
                         parameter_count=Network(job.spec).count_parameters(),
                         diagnostic=str(exc)), None
    return RunResult(seed=job.cfg.seed, arm=job.label, converged=True,
                     parameter_count=model.network.count_parameters(),
                     validation=evaluate_model(model, dataset, split_idx.validation),
                     test=evaluate_model(model, dataset, split_idx.test)), model


def seed_jobs(jobs: list[Job], n_seeds: int) -> list[Job]:
    """Every job at n_seeds seeds counting up from the first job's, seed-major.
    A seed fixes the split and the initial weights, so the jobs of one seed
    differ only in their spec and train config."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    seeds = range(jobs[0].cfg.seed, jobs[0].cfg.seed + n_seeds)
    return [Job(j.label, j.spec, replace(j.cfg, seed=seed)) for seed in seeds for j in jobs]


def _sweep(dataset: Dataset, jobs: list[Job], n_seeds: int,
           shared: SharedSettings) -> list[RunResult]:
    """The run table: the run of each seeded job, in job order."""
    return [run_job(dataset, job, shared)[0] for job in seed_jobs(jobs, n_seeds)]


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


@dataclass
class Sweep:
    """A sweep's jobs, one per label in listed order, and its run table, grouped by label."""

    task: str
    jobs: list[Job]
    runs: list[RunResult]       # the run table: per seed, one run per job in job order

    def arm_runs(self, label: str) -> list[RunResult]:
        return [r for r in self.runs if r.arm == label]

    def mean(self, label: str, part: str, metric: str) -> float | None:
        """Mean of one validation or test metric over the label's converged runs."""
        return _converged_stats(self.arm_runs(label), part, metric)["mean"]

    @property
    def summary(self) -> dict:
        return {j.label: _summarize(self.arm_runs(j.label), self.task) for j in self.jobs}


# ---------------------------------------------------------------------------
# Comparison harness
# ---------------------------------------------------------------------------

class ComparisonReport(Sweep):
    """Paired residual/regular results over shared seeds and splits."""

    @property
    def seeds(self) -> list[int]:
        return [r.seed for r in self.arm_runs("residual")]

    def mean_test_headline(self, arm: str) -> float | None:
        return self.mean(arm, "test", _headline(self.task))

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
    arms = [Job("residual", replace(spec, residual="full"), cfg),
            Job("regular", replace(spec, residual="off"), cfg)]
    return ComparisonReport(dataset.task, arms, _sweep(dataset, arms, n_seeds, shared))


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------

@dataclass
class GridResult(Sweep):
    axes: dict

    @property
    def cells(self) -> list[Job]:
        """The jobs ranked best first by mean validation metric, all-diverged cells
        last; ties rank the smaller parameter count, then batch size, first."""
        return sorted(self.jobs, key=lambda c: (
            np.inf if (mean := self.mean_val_metric(c)) is None else -mean,
            self.parameter_count(c), c.cfg.batch_size))

    def best(self) -> Job:
        return self.cells[0]

    def mean_val_metric(self, cell: Job) -> float | None:
        """The ranking metric: mean validation R^2 (or accuracy) over converged runs."""
        return self.mean(cell.label, "validation", _headline(self.task))

    def parameter_count(self, cell: Job) -> int:
        return self.arm_runs(cell.label)[0].parameter_count

    def to_dict(self) -> dict:
        summary = self.summary
        return {"task": self.task, "axes": self.axes,
                "definitions": {"nrmse": NRMSE_DEFINITION},
                "ranked": [{"label": c.label,
                            "nnode": list(c.spec.nnode),
                            "acts": list(c.spec.act_list()),
                            "output_option": c.spec.output_option,
                            "residual": c.spec.residual,
                            "batch_size": c.cfg.batch_size,
                            "mean_val_metric": self.mean_val_metric(c),
                            "parameter_count": self.parameter_count(c),
                            "n_non_convergent": summary[c.label]["n_non_convergent"]}
                           for c in self.cells]}

    def write_cells_csv(self, path) -> None:
        _write_csv(path, ["rank", "label", "batch_size", "nnode", "acts",
                          "output_option", "mean_val_metric", "parameter_count"],
                   ([rank, c.label, c.cfg.batch_size, " ".join(str(w) for w in c.spec.nnode),
                     " ".join(c.spec.act_list()), c.spec.output_option,
                     self.mean_val_metric(c), self.parameter_count(c)]
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
                  grid: dict) -> tuple[dict, list[Job]]:
    """The grid's axes, missing ones filled from the template, and one
    job per cell in product order.

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
    jobs = []
    for index in product(*(range(len(axes[key])) for key in GRID_AXES)):
        nnode, act, option, batch = (axes[key][i] for key, i in zip(GRID_AXES, index))
        try:
            jobs.append(Job(f"nnode={list(nnode)} act={act} out{option} batch={batch}",
                            replace(spec, nnode=nnode, acts=act, output_option=option),
                            replace(cfg, batch_size=batch)))
        except ValueError as exc:
            where = ", ".join(f"grid.{key}[{i}]" for key, i in zip(GRID_AXES, index)
                              if key in grid)
            raise ValueError(f"{where or 'grid template'}: {exc}") from None
    return axes, jobs


def grid_search(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                grid: dict, n_seeds: int = 3,
                shared: SharedSettings = SharedSettings()) -> GridResult:
    """Full factorial search ranked by mean validation R^2 (or accuracy).

    Recognized axes: batch_sizes, nnodes, activations, output_options;
    missing axes fall back to the template value.  Splits and seeds are
    shared across cells; GridResult.cells ranks them.
    """
    axes, jobs = grid_variants(spec, cfg, grid)
    return GridResult(dataset.task, jobs, _sweep(dataset, jobs, n_seeds, shared), axes)


# ---------------------------------------------------------------------------
# Residual-count sensitivity
# ---------------------------------------------------------------------------

class SensitivityResult(Sweep):
    """One job per count of outermost shortcuts kept, 0..all."""

    def table(self) -> list[dict]:
        """Per job, the shortcuts kept and the mean test value of the task's first two metrics."""
        return [{"n_shortcuts": j.spec.residual_count(),
                 **{f"mean_test_{m}": self.mean(j.label, "test", m)
                    for m in TASK_METRICS[self.task][:2]}}
                for j in self.jobs]

    def to_dict(self) -> dict:
        summary = self.summary
        return {"definitions": {"nrmse": NRMSE_DEFINITION},
                "rows": [{**row, "n_non_convergent": summary[j.label]["n_non_convergent"]}
                         for row, j in zip(self.table(), self.jobs)]}

    def write_csv(self, path) -> None:
        table = self.table()
        _write_csv(path, list(table[0]), (list(row.values()) for row in table))


def sensitivity_variants(spec: NetworkSpec, cfg: TrainConfig) -> list[Job]:
    """One job per count of outermost shortcuts kept, 0..all (2 or more pairs)."""
    if spec.n_shortcut_pairs < 2:
        raise ValueError(f"nnode: sensitivity study needs at least 2 shortcut pairs "
                         f"(one per width), got {list(spec.nnode)}")
    return [Job(f"shortcuts={count}", replace(spec, residual=count), cfg)
            for count in range(spec.n_shortcut_pairs + 1)]


def residual_sensitivity(dataset: Dataset, spec: NetworkSpec, cfg: TrainConfig,
                         n_seeds: int = 5,
                         shared: SharedSettings = SharedSettings()) -> SensitivityResult:
    """Train jobs keeping 0..all outermost shortcuts on shared splits."""
    jobs = sensitivity_variants(spec, cfg)
    return SensitivityResult(dataset.task, jobs, _sweep(dataset, jobs, n_seeds, shared))
