"""Numeric core: dense float64 matrices, a deterministic RNG, column
standardization, and the checked reading of JSON values.

Every batch, weight and gradient in this package is a 2-D float64 numpy array
with rows = samples and columns = features.  The helpers here add the shape
checking and the reproducibility guarantees the rest of the code relies on.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass
from typing import get_type_hints

import numpy as np

# Alias used in signatures throughout the package: a 2-D float64 ndarray.
Matrix = np.ndarray

SD_FLOOR = 1e-12


def _require_2d(a: Matrix, name: str) -> None:
    if not isinstance(a, np.ndarray) or a.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got "
                         f"{getattr(a, 'shape', type(a).__name__)}")


# ---------------------------------------------------------------------------
# Checked JSON values: configs and saved documents are read, never coerced
# ---------------------------------------------------------------------------

# A tuple passes as a list, so records made in code are checked as JSON is read.
_JSON_KINDS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
               float: ((int, float), "a number"), str: ((str,), "a string"),
               list: ((list, tuple), "a list"), dict: ((dict,), "a JSON object")}


def checked_json(value, kind: type, name: str):
    """value as kind, if its JSON type fits: bool takes only true/false, int
    only integers, float any number; a boolean is never a number, and null
    fits no kind.  Otherwise a ValueError names `name`."""
    types, expected = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {expected}, got {json.dumps(value, default=repr)}")
    return kind(value)


def checked_json_list(value, kind: type, name: str) -> list:
    return [checked_json(v, kind, f"{name}[{i}]")
            for i, v in enumerate(checked_json(value, list, name))]


def checked_names(value, name: str) -> str | tuple[str, ...]:
    """A string, or a list of strings (one name per layer or column) as a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(checked_json_list(value, str, name))
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string or a list of strings, "
                         f"got {json.dumps(value, default=repr)}")
    return value


@functools.cache
def field_types(cls: type) -> tuple[tuple[str, type], ...]:
    """(name, annotated type) of each of a dataclass's fields, resolved once
    per class: get_type_hints evaluates every annotation on each call."""
    return tuple(get_type_hints(cls).items())


def check_field_types(record) -> None:
    """Each field of a dataclass record checked as its annotated type (see checked_json)."""
    for name, kind in field_types(type(record)):
        checked_json(getattr(record, name), kind, name)


def checked_entry(doc: dict, key: str, kind: type, name: str):
    """doc[key] as kind (see checked_json); a missing key is a ValueError
    naming it too.  kind np.ndarray reads a list of finite numbers as a
    float64 vector."""
    if key not in doc:
        raise ValueError(f"{name} is missing")
    if kind is not np.ndarray:
        return checked_json(doc[key], kind, name)
    values = checked_json(doc[key], list, name)
    if not set(map(type, values)) <= {int, float}:   # one pass in C, else name the entry
        checked_json_list(values, float, name)
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must hold finite numbers only")
    return array


# ---------------------------------------------------------------------------
# Deterministic random numbers
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the splitmix64 increment


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraparound arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _mix64_int(value: int) -> int:
    return int(_mix64(np.array([value & _MASK64], dtype=np.uint64))[0])


class Rng:
    """Counter-based deterministic random generator (splitmix64 stream).

    Draw i of a generator seeded with s is ``mix64(mix64(s) + i * GOLDEN)``:
    pure 64-bit integer arithmetic, so equal seeds give bit-identical
    sequences on every platform and numpy version.  The counter state can be
    saved and restored, which training uses to replay dropout masks.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._key = _mix64_int(self.seed)
        self._count = 0

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> tuple[int, int]:
        return (self._key, self._count)

    @state.setter
    def state(self, value: tuple[int, int]) -> None:
        self._key, self._count = int(value[0]), int(value[1])

    def spawn(self, tag: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tag)."""
        return Rng(_mix64_int(self._key + (int(tag) + 1) * _GOLDEN))

    # -- raw draws ----------------------------------------------------------

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return _mix64(np.uint64(self._key) + idx * np.uint64(_GOLDEN))

    def _uniform_flat(self, n: int) -> np.ndarray:
        # top 53 bits -> float64 in [0, 1)
        return (self._raw(n) >> np.uint64(11)) * (1.0 / (1 << 53))

    # -- public draws -------------------------------------------------------

    def uniform(self, rows: int, cols: int | None = None,
                low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform draws in [low, high); 1-D if cols is None, else rows x cols."""
        n = rows if cols is None else rows * cols
        u = low + (high - low) * self._uniform_flat(n)
        return u if cols is None else u.reshape(rows, cols)

    def normal(self, rows: int, cols: int | None = None,
               mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on the uniform stream."""
        n = rows if cols is None else rows * cols
        pairs = (n + 1) // 2
        u1 = ((self._raw(pairs) >> np.uint64(11)) + np.uint64(1)) * (1.0 / (1 << 53))  # (0, 1]
        u2 = self._uniform_flat(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = mean + sd * z
        return out if cols is None else out.reshape(rows, cols)

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n)."""
        return np.argsort(self._uniform_flat(n), kind="stable")

    def subset(self, n: int, size: int) -> np.ndarray:
        """`size` distinct indices drawn from range(n)."""
        if size > n:
            raise ValueError(f"cannot draw {size} distinct indices from {n}")
        return self.permutation(n)[:size]


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@dataclass
class StandardizeStats:
    """Per-column mean and (floored) population standard deviation."""

    mean: np.ndarray           # (1, m)
    sd: np.ndarray             # (1, m), every entry >= SD_FLOOR
    constant_columns: tuple[int, ...] = ()

    @property
    def n_columns(self) -> int:
        return self.mean.shape[1]

    def apply(self, x: Matrix) -> Matrix:
        _require_2d(x, "x")
        if x.shape[1] != self.n_columns:
            raise ValueError(f"standardize: input has {x.shape[1]} columns, "
                             f"stats were fitted on {self.n_columns}")
        return (x - self.mean) / self.sd

    def invert(self, x: Matrix) -> Matrix:
        _require_2d(x, "x")
        if x.shape[1] != self.n_columns:
            raise ValueError(f"standardize: input has {x.shape[1]} columns, "
                             f"stats were fitted on {self.n_columns}")
        return x * self.sd + self.mean

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean.ravel()],
            "sd": [float(v) for v in self.sd.ravel()],
            "constant_columns": list(self.constant_columns),
        }

    @classmethod
    def from_dict(cls, d: dict, name: str = "stats") -> "StandardizeStats":
        """Inverse of to_dict; a ValueError names the first bad field.  Every
        sd must be at least SD_FLOOR, as fitted ones are."""
        d = checked_json(d, dict, name)
        mean = checked_entry(d, "mean", np.ndarray, f"{name}.mean")
        sd = checked_entry(d, "sd", np.ndarray, f"{name}.sd")
        small = np.flatnonzero(sd < SD_FLOOR)
        if small.size:
            raise ValueError(f"{name}.sd[{small[0]}] must be >= {SD_FLOOR}, "
                             f"got {float(sd[small[0]])!r}")
        return cls(mean=mean.reshape(1, -1), sd=sd.reshape(1, -1), constant_columns=tuple(
            checked_json_list(d.get("constant_columns", []), int, f"{name}.constant_columns")))


def standardize_fit_apply(x: Matrix,
                          stats: StandardizeStats | None = None
                          ) -> tuple[Matrix, StandardizeStats]:
    """Standardize columns to mean 0 / sd 1.

    With `stats` given, applies them (column count must match).  Otherwise
    fits mean and population sd on `x`; zero-variance columns get their sd
    floored at SD_FLOOR and a warning, so constant columns map to all zeros.
    """
    _require_2d(x, "x")
    if stats is None:
        mean = x.mean(axis=0, keepdims=True)
        sd = x.std(axis=0, keepdims=True)  # population convention (divide by N)
        constant = tuple(int(i) for i in np.flatnonzero(sd < SD_FLOOR))
        if constant:
            warnings.warn(f"standardize: zero-variance columns {constant} "
                          f"floored at sd={SD_FLOOR}", stacklevel=2)
            sd = np.maximum(sd, SD_FLOOR)
        stats = StandardizeStats(mean=mean, sd=sd, constant_columns=constant)
    return stats.apply(x), stats
