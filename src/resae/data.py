"""Datasets: the simulated benchmark generator, CSV ingestion with one-hot
encoding, 64/16/20 splitting, and the synthetic spatial field used for the
coordinate-covariate ablation.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import compress

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
    n_dropped: int = 0
    encodings: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.features.shape[0]
        if self.targets.shape[0] != n:
            raise ValueError(f"row mismatch: {n} feature rows vs "
                             f"{self.targets.shape[0]} target rows")

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


def _noisy(y: np.ndarray, rng: Rng, noise_sd: float) -> np.ndarray:
    """y plus Gaussian noise of sd noise_sd; a ValueError names noise_sd where the
    sum is not finite, as a finite sd near the float limit overflows it."""
    if noise_sd == 0.0:
        return y
    with np.errstate(over="ignore", invalid="ignore"):
        y = y + rng.normal(y.shape[0], sd=noise_sd)
    if not np.isfinite(y).all():
        raise ValueError(f"noise_sd must leave the targets finite, got {noise_sd}")
    return y


def _check_rows(n: int, least: int) -> None:
    """A row count from least up to the largest numpy index; a ValueError names n."""
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")
    if n > np.iinfo(np.intp).max:
        raise ValueError(f"n must be at most {np.iinfo(np.intp).max}")


def generate_simulated(n: int = 1000, seed: int = 0, noise_sd: float = 100.0) -> Dataset:
    """Eight uniform inputs of SIMULATED_RANGES plus Gaussian noise on the target."""
    _check_rows(n, 1)
    if not noise_sd >= 0.0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = Rng(seed)
    cols = [rng.uniform(n, low=lo, high=hi) for lo, hi in SIMULATED_RANGES]
    x = np.column_stack(cols)
    y = _noisy(simulated_response(x), rng, noise_sd)
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
    if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
        raise ValueError(f"target_bins must be strictly increasing, got {upper_bounds}")
    classes = np.zeros(len(values), dtype=np.int64)
    for b in bounds:
        classes += values > b
    names = [f"<= {bounds[0]:g}"]
    names += [f"{bounds[i]:g} < v <= {bounds[i + 1]:g}" for i in range(len(bounds) - 1)]
    names += [f"> {bounds[-1]:g}"]
    return classes, names


def _categories(cells) -> tuple[list[str], np.ndarray]:
    """The sorted distinct cells, and each cell's index among them."""
    cells = list(cells)
    cats = sorted(set(cells))
    index = dict(zip(cats, range(len(cats))))
    return cats, np.fromiter(map(index.__getitem__, cells), np.intp, len(cells))


def load_csv(path, targets, task: str, target_bins=None,
             delimiter: str = ",") -> Dataset:
    """Load a header-ed CSV into a Dataset.

    Header names must be non-blank and distinct.  Blank lines are skipped,
    short rows are padded with missing cells, and a non-blank cell beyond the
    header's columns is an error.  Columns whose every non-missing cell
    parses as a number are numeric; all others are categorical and one-hot
    encoded (sorted category order, names "col=value").  Cells matching MISSING_MARKERS ("", NA, ?, ...) count as
    missing: any row containing one is dropped and counted.  An infinite
    value in a numeric column is an error naming the column and row.
    Classification targets are label-encoded in sorted order; numeric
    targets can instead be binned with `target_bins` (inclusive upper bounds),
    which a regression rejects.  A file that is not UTF-8 text, or that the
    csv module cannot read, is a ValueError naming the path.
    """
    if task not in TASKS:
        raise ValueError(f"task must be regression or classification, got {task!r}")
    if target_bins is not None and task != "classification":
        raise ValueError(f"target_bins needs task 'classification', got {task!r}")
    target_columns = [targets] if isinstance(targets, str) else list(targets)
    if not target_columns:
        raise ValueError(f"targets must name at least one column, got {target_columns}")
    if len(set(target_columns)) != len(target_columns):
        raise ValueError(f"targets must be distinct names, got {target_columns}")
    if len(checked_json(delimiter, str, "delimiter")) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
            rows = [row for row in reader if any(map(str.strip, row))]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num} is not valid CSV: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None

    if "" in header:
        raise ValueError(f"{path}: header column {header.index('') + 1} is blank")
    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header {header}")
    for col in target_columns:
        if col not in header:
            raise ValueError(f"targets must name header columns, {col!r} is not in {header}")

    width = len(header)
    for row_no, row in enumerate(rows, start=1):
        if len(row) != width:
            if any(map(str.strip, row[width:])):
                raise ValueError(f"{path}: data row {row_no} has {len(row)} cells, "
                                 f"but the header has {width}")
            rows[row_no - 1] = row[:width] + [""] * (width - len(row))
    n = len(rows)
    stripped = [list(map(str.strip, cells)) for cells in zip(*rows)] or [[]] * width
    columns = dict(zip(header, stripped))   # name -> its stripped cells

    # A column is numeric when it has present cells and every one parses as a number.
    # The one marker that parses is "nan", so when a whole column parses, only its NaN
    # cells need the marker test.
    keep = np.ones(n, dtype=bool)           # rows whose every cell is present
    numeric = {}
    for name, cells in columns.items():
        try:
            values = np.fromiter(map(float, cells), np.float64, n)
        except ValueError:
            mask = [c.lower() not in MISSING_MARKERS for c in cells]
            present = np.array(mask, dtype=bool)
            try:
                parsed = np.fromiter(map(float, compress(cells, mask)), np.float64)
            except ValueError:
                keep &= present
                continue
            values = np.full(n, np.nan)
            values[present] = parsed
        else:
            nan_cells = np.flatnonzero(np.isnan(values)).tolist()
            present = np.ones(n, dtype=bool)
            present[[i for i in nan_cells if cells[i].lower() in MISSING_MARKERS]] = False
        bad = np.flatnonzero(present & ~np.isfinite(values))
        if bad.size:
            raise ValueError(f"{path}: numeric column {name!r} has the non-finite "
                             f"value {cells[bad[0]]!r} in data row {bad[0] + 1}")
        keep &= present
        if present.any():
            numeric[name] = values

    n_dropped = n - int(keep.sum())
    if not keep.any():
        raise ValueError(f"{path}: no usable rows (dropped {n_dropped})")
    kept_rows = keep.tolist()

    encodings, feature_blocks, feature_names = {}, [], []
    for name in header:
        if name in target_columns:
            continue
        if name in numeric:
            feature_blocks.append(numeric[name][keep].reshape(-1, 1))
            feature_names.append(name)
        else:
            cats, codes = _categories(compress(columns[name], kept_rows))
            encodings[name] = cats
            feature_blocks.append(np.eye(len(cats))[codes])
            feature_names.extend(f"{name}={c}" for c in cats)

    n_classes = None
    if task == "classification":
        if len(target_columns) != 1:
            raise ValueError(f"targets must name one column to classify, got {target_columns}")
        name = target_columns[0]
        if target_bins is not None:
            if name not in numeric:
                raise ValueError(f"target_bins needs a numeric target, {name!r} is not numeric")
            classes, class_names = bin_to_classes(numeric[name][keep], target_bins)
        else:
            class_names, classes = _categories(compress(columns[name], kept_rows))
        encodings[name] = class_names
        y = classes.astype(np.float64).reshape(-1, 1)
        n_classes = len(class_names)
    else:
        for name in target_columns:
            if name not in numeric:
                raise ValueError(f"targets must be numeric columns, {name!r} is not numeric")
        y = np.column_stack([numeric[name][keep] for name in target_columns])

    if not feature_blocks:
        raise ValueError(f"{path}: no feature columns left after removing the targets")

    return Dataset(features=np.column_stack(feature_blocks), targets=y,
                   feature_names=feature_names, target_names=target_columns,
                   task=task, n_classes=n_classes, n_dropped=n_dropped, encodings=encodings)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitIndices:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray


def split(ds: Dataset, seed: int = 0) -> SplitIndices:
    """20% independent test, then 20% of the rest validation, 64% train, all
    drawn from one seeded permutation of the rows."""
    n = ds.n_rows
    if n < 10:
        raise ValueError(f"need at least 10 rows to split, got {n}")
    order = Rng(seed).permutation(n)
    n_test = int(round(0.2 * n))
    n_val = int(round(0.2 * (n - n_test)))
    return SplitIndices(train=order[n_test + n_val:], validation=order[n_test:n_test + n_val],
                        test=order[:n_test])


# ---------------------------------------------------------------------------
# Spatial proxy features and the synthetic field
# ---------------------------------------------------------------------------

# The spatial field's constants: the weights of its three Gaussian covariates in the
# target, the width and count of its bumps, and the sd of the noise on the target
SPATIAL_COVARIATE_COEF = (1.5, -1.0, 0.5)
SPATIAL_CORRELATION_LENGTH = 0.15
SPATIAL_N_BUMPS = 4
SPATIAL_NOISE_SD = 0.5


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


def generate_spatial_field(n: int = 600, seed: int = 0,
                           with_coordinates: bool = True) -> Dataset:
    """Random sites on the unit square with a smooth bump surface target.

    target = bump field(site) + covariates . SPATIAL_COVARIATE_COEF + noise,
    with SPATIAL_N_BUMPS bumps of width SPATIAL_CORRELATION_LENGTH and noise
    of sd SPATIAL_NOISE_SD.
    Without coordinates the features are only the three covariates, so the
    spatial part of the signal is unreachable; with them, the five coordinate
    proxies follow.  The draws do not depend on with_coordinates, so both
    variants of a seed share one surface.
    """
    _check_rows(n, 50)
    rng = Rng(seed)
    sites = rng.uniform(n, 2)
    centers = rng.uniform(SPATIAL_N_BUMPS, 2)
    amplitudes = rng.uniform(SPATIAL_N_BUMPS, low=2.0, high=4.0) * np.where(
        rng.uniform(SPATIAL_N_BUMPS) < 0.5, -1.0, 1.0)
    coef = np.asarray(SPATIAL_COVARIATE_COEF, dtype=np.float64)
    features = rng.normal(n, len(coef))
    y = gaussian_bump_field(sites, centers, amplitudes, SPATIAL_CORRELATION_LENGTH)
    y = _noisy(y + features @ coef, rng, SPATIAL_NOISE_SD)
    names = [f"c{i}" for i in range(1, len(coef) + 1)]
    if with_coordinates:
        features = np.column_stack([features, spatial_feature_matrix(sites)])
        names += ["x", "y", "x2", "y2", "xy"]
    return Dataset(features=features, targets=y.reshape(-1, 1), feature_names=names,
                   target_names=["y"], task="regression")
