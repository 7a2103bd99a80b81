"""Datasets: the simulated benchmark generator, CSV ingestion with one-hot
encoding, 64/16/20 splitting, and the synthetic spatial field used for the
coordinate-covariate ablation.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .matrix import Matrix, Rng, checked_json

TASKS = ("regression", "classification")

# Uniform sampling ranges for the eight simulated inputs.  They span several
# scales, keep every term of the response within one order of magnitude of
# the others, and keep x5 strictly positive for the power term.
SIMULATED_RANGES = (
    (0.0, 100.0),    # x1
    (0.0, 10.0),     # x2
    (0.0, 10.0),     # x3
    (0.0, 100.0),    # x4
    (100.0, 1000.0), # x5
    (0.0, 100.0),    # x6
    (0.0, 30.0),     # x7
    (0.0, 100.0),    # x8
)


@dataclass
class Dataset:
    """Feature matrix, target matrix, and the metadata needed to report on them."""

    features: Matrix                  # (n, m)
    targets: Matrix                   # (n, k); class indices for classification
    feature_names: list[str]
    target_names: list[str]
    task: str                         # one of TASKS
    n_classes: int | None = None
    stratify: np.ndarray | None = None   # per-row labels
    n_dropped: int = 0
    encodings: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.targets.shape[0] != n:
            raise ValueError(f"row mismatch: {n} feature rows vs "
                             f"{self.targets.shape[0]} target rows")
        if self.stratify is not None and len(self.stratify) != n:
            raise ValueError(f"row mismatch: {n} rows vs {len(self.stratify)} "
                             f"stratify labels")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def manifest(self) -> dict:
        return {
            "rows": self.n_rows,
            "feature_columns": self.n_features,
            "target_columns": self.targets.shape[1],
            "feature_names": list(self.feature_names),
            "target_names": list(self.target_names),
            "task": self.task,
            "n_classes": self.n_classes,
            "dropped_rows": self.n_dropped,
            "encodings": self.encodings,
        }


# ---------------------------------------------------------------------------
# Simulated benchmark data
# ---------------------------------------------------------------------------

def simulated_response(x: Matrix) -> np.ndarray:
    """Noise-free response for the eight-variable simulated benchmark."""
    if x.ndim != 2 or x.shape[1] != 8:
        raise ValueError(f"simulated response needs (n, 8) inputs, got {x.shape}")
    return (x[:, 0]
            + x[:, 1] * x[:, 2] ** 2
            + x[:, 3]
            + (1.0 / (x[:, 4] / 500.0)) ** 0.3
            - x[:, 5]
            + x[:, 6] ** 2
            + x[:, 7])


def generate_simulated(n: int = 1000, seed: int = 0, noise_sd: float = 100.0,
                       ranges=SIMULATED_RANGES) -> Dataset:
    """Eight uniform inputs of different scales plus Gaussian noise on the target."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if len(ranges) != 8:
        raise ValueError("exactly eight feature ranges required")
    if ranges[4][0] <= 0.0:
        raise ValueError("x5 range must be strictly positive")
    if not noise_sd >= 0.0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = Rng(seed)
    cols = [rng.uniform(n, low=lo, high=hi) for lo, hi in ranges]
    x = np.column_stack(cols)
    y = simulated_response(x)
    if noise_sd > 0.0:
        y = y + rng.normal(n, sd=noise_sd)
    return Dataset(features=x, targets=y.reshape(-1, 1),
                   feature_names=[f"x{i}" for i in range(1, 9)],
                   target_names=["y"], task="regression")


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

# cell values treated as missing rather than as category labels
MISSING_MARKERS = frozenset({"", "na", "n/a", "nan", "null", "?"})


def bin_to_classes(values: np.ndarray, upper_bounds) -> tuple[np.ndarray, list[str]]:
    """Bin numeric values into len(bounds)+1 ordinal classes.

    upper_bounds are inclusive: with bounds (8, 10) a value of 9 lands in the
    middle class, 10 still does, 11 in the last.
    """
    bounds = [float(b) for b in upper_bounds]
    if not bounds:
        raise ValueError("target_bins must be non-empty: give at least one class bound")
    if sorted(bounds) != bounds:
        raise ValueError(f"bin bounds must be increasing, got {upper_bounds}")
    classes = np.zeros(len(values), dtype=np.int64)
    for b in bounds:
        classes += values > b
    names = [f"<= {bounds[0]:g}"]
    names += [f"{bounds[i]:g} < v <= {bounds[i + 1]:g}" for i in range(len(bounds) - 1)]
    names += [f"> {bounds[-1]:g}"]
    return classes, names


def checked_delimiter(value, name: str = "delimiter") -> str:
    """A one-character string; anything else is a ValueError naming `name`."""
    if len(checked_json(value, str, name)) != 1:
        raise ValueError(f"{name} must be one character, got {value!r}")
    return value


def load_csv(path, target_columns, task: str, stratify_column: str | None = None,
             target_bins=None, delimiter: str = ",") -> Dataset:
    """Load a header-ed CSV into a Dataset.

    Blank lines are skipped, short rows are padded with missing cells, and a
    non-blank cell beyond the header's columns is an error.  Columns whose
    every non-missing cell parses as a number are numeric; all others are
    categorical and one-hot encoded (sorted category order, names
    "col=value").  Cells matching MISSING_MARKERS ("", NA, ?, ...) count as
    missing: any row containing one is dropped and counted.  An infinite
    value in a numeric column is an error naming the column and row.
    Classification targets are label-encoded in sorted order; numeric
    targets can instead be binned with `target_bins` (inclusive upper bounds).
    """
    if task not in TASKS:
        raise ValueError(f"task must be regression or classification, got {task!r}")
    if isinstance(target_columns, str):
        target_columns = [target_columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=checked_delimiter(delimiter))
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [cells for row in reader if any(cells := [c.strip() for c in row])]

    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header {header}")
    for col in list(target_columns) + ([stratify_column] if stratify_column else []):
        if col not in header:
            raise ValueError(f"{path}: column {col!r} not in header {header}")

    # one (rows, columns) table of stripped cells, and the mask of present ones
    width = len(header)
    for row_no, row in enumerate(rows, start=1):
        if any(row[width:]):
            raise ValueError(f"{path}: data row {row_no} has {len(row)} cells, "
                             f"but the header has {width}")
    rows = [row[:width] + [""] * (width - len(row)) for row in rows]
    present = np.array([[c.lower() not in MISSING_MARKERS for c in row] for row in rows],
                       dtype=bool).reshape(len(rows), width)

    # a column is numeric when it has present cells and every one parses as a number
    numeric = {}
    for j, name in enumerate(header):
        try:
            values = np.array([float(row[j]) if ok else np.nan
                               for row, ok in zip(rows, present[:, j])], dtype=np.float64)
        except ValueError:
            continue
        bad = np.flatnonzero(present[:, j] & ~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{path}: numeric column {name!r} has the non-finite "
                             f"value {rows[bad[0]][j]!r} in data row {bad[0] + 1}")
        if present[:, j].any():
            numeric[name] = values

    keep = present.all(axis=1)
    n_dropped = len(rows) - int(keep.sum())
    if not keep.any():
        raise ValueError(f"{path}: no usable rows (dropped {n_dropped})")
    kept = dict(zip(header, np.array(rows, dtype=object)[keep].T))   # name -> kept cells

    encodings, feature_blocks, feature_names = {}, [], []
    for name in header:
        if name in target_columns or name == stratify_column:
            continue
        if name in numeric:
            feature_blocks.append(numeric[name][keep].reshape(-1, 1))
            feature_names.append(name)
        else:
            cats, codes = np.unique(kept[name], return_inverse=True)
            encodings[name] = cats.tolist()
            feature_blocks.append(np.eye(len(cats))[codes])
            feature_names.extend(f"{name}={c}" for c in cats)

    n_classes = None
    if task == "classification":
        if len(target_columns) != 1:
            raise ValueError("classification expects a single target column")
        name = target_columns[0]
        if target_bins is not None:
            if name not in numeric:
                raise ValueError(f"target {name!r} must be numeric to bin")
            classes, class_names = bin_to_classes(numeric[name][keep], target_bins)
        else:
            labels, classes = np.unique(kept[name], return_inverse=True)
            class_names = labels.tolist()
        encodings[name] = class_names
        targets = classes.astype(np.float64).reshape(-1, 1)
        n_classes = len(class_names)
    else:
        for name in target_columns:
            if name not in numeric:
                raise ValueError(f"regression target {name!r} is not numeric")
        targets = np.column_stack([numeric[name][keep] for name in target_columns])

    if not feature_blocks:
        raise ValueError(f"{path}: no feature columns left after removing "
                         f"targets and the stratify column")

    stratify = np.array(kept[stratify_column].tolist()) if stratify_column else None
    return Dataset(features=np.column_stack(feature_blocks), targets=targets,
                   feature_names=feature_names, target_names=list(target_columns),
                   task=task, n_classes=n_classes, stratify=stratify,
                   n_dropped=n_dropped, encodings=encodings)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def _split_three(indices: np.ndarray, rng: Rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = len(indices)
    order = indices[rng.permutation(n)]
    n_test = int(round(0.2 * n))
    rest = n - n_test
    n_val = int(round(0.2 * rest))
    test = order[:n_test]
    val = order[n_test:n_test + n_val]
    train = order[n_test + n_val:]
    return train, val, test


def split(ds: Dataset, seed: int = 0, stratify: bool = False) -> SplitIndices:
    """20% independent test, then 20% of the rest validation, 64% train.

    Stratified mode applies the same proportions inside each label of the
    dataset's stratify column; strata smaller than 5 rows force a fallback
    to the plain random split (with a warning).
    """
    n = ds.n_rows
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    rng = Rng(seed)
    if stratify:
        if ds.stratify is None:
            raise ValueError("dataset has no stratify column")
        labels, counts = np.unique(ds.stratify, return_counts=True)
        if counts.min() < 5:
            warnings.warn(f"stratified split fell back to plain random: smallest "
                          f"stratum has {counts.min()} rows (< 5)", stacklevel=2)
        else:
            trains, vals, tests = [], [], []
            for label in labels:
                part_tr, part_val, part_te = _split_three(
                    np.flatnonzero(ds.stratify == label), rng)
                trains.append(part_tr)
                vals.append(part_val)
                tests.append(part_te)
            return SplitIndices(np.concatenate(trains), np.concatenate(vals),
                                np.concatenate(tests))
    train, val, test = _split_three(np.arange(n), rng)
    return SplitIndices(train, val, test)


# ---------------------------------------------------------------------------
# Spatial proxy features and the synthetic field
# ---------------------------------------------------------------------------

def spatial_features(x, y):
    """Coordinate proxies for spatial autocorrelation: (x, y, x^2, y^2, xy)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return x, y, x * x, y * y, x * y


def spatial_feature_matrix(sites: Matrix) -> Matrix:
    """(n, 5) matrix of the coordinate proxies for (n, 2) site coordinates."""
    return np.column_stack(spatial_features(sites[:, 0], sites[:, 1]))


def gaussian_bump_field(sites: Matrix, centers: Matrix, amplitudes: np.ndarray,
                        length: float) -> np.ndarray:
    """Sum of isotropic Gaussian bumps evaluated at each site."""
    sq = ((sites[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return (amplitudes[None, :] * np.exp(-sq / (2.0 * length ** 2))).sum(axis=1)


@dataclass
class SpatialFieldPair:
    """The same synthetic surface exposed with and without coordinate proxies."""

    plain: Dataset          # 3 non-spatial covariates only
    with_coordinates: Dataset   # covariates + (x, y, x^2, y^2, xy)
    sites: Matrix
    centers: Matrix
    amplitudes: np.ndarray
    covariate_coef: np.ndarray
    correlation_length: float
    noise_sd: float


def generate_spatial_field(n: int = 600, seed: int = 0,
                           correlation_length: float = 0.15,
                           n_bumps: int = 4, noise_sd: float = 0.5,
                           covariate_coef=(1.5, -1.0, 0.5)) -> SpatialFieldPair:
    """Random sites on the unit square with a smooth bump surface target.

    target = bump field(site) + covariates . coef + noise.  The plain variant
    carries only the three covariates, so the spatial part of the signal is
    unreachable for it; the other variant appends the five coordinate proxies.
    """
    if n < 50:
        raise ValueError(f"n must be >= 50, got {n}")
    if n_bumps < 0:
        raise ValueError(f"n_bumps must be >= 0, got {n_bumps}")
    if not correlation_length > 0.0:
        raise ValueError(f"correlation_length must be > 0, got {correlation_length}")
    if not noise_sd >= 0.0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = Rng(seed)
    sites = rng.uniform(n, 2)
    centers = rng.uniform(n_bumps, 2)
    amplitudes = rng.uniform(n_bumps, low=2.0, high=4.0) * np.where(
        rng.uniform(n_bumps) < 0.5, -1.0, 1.0)
    coef = np.asarray(covariate_coef, dtype=np.float64)
    covariates = rng.normal(n, len(coef))
    y = gaussian_bump_field(sites, centers, amplitudes, correlation_length)
    y = y + covariates @ coef
    if noise_sd > 0.0:
        y = y + rng.normal(n, sd=noise_sd)
    targets = y.reshape(-1, 1)
    cov_names = [f"c{i}" for i in range(1, len(coef) + 1)]
    plain = Dataset(features=covariates.copy(), targets=targets.copy(),
                    feature_names=list(cov_names), target_names=["y"],
                    task="regression")
    spatial = Dataset(features=np.column_stack([covariates, spatial_feature_matrix(sites)]),
                      targets=targets.copy(),
                      feature_names=cov_names + ["x", "y", "x2", "y2", "xy"],
                      target_names=["y"], task="regression")
    return SpatialFieldPair(plain=plain, with_coordinates=spatial, sites=sites,
                            centers=centers, amplitudes=amplitudes,
                            covariate_coef=coef,
                            correlation_length=correlation_length,
                            noise_sd=noise_sd)
