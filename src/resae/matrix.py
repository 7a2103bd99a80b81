"""Numeric core: dense float64 matrices, a deterministic RNG, column
standardization, and the checked reading of JSON values.

Every batch, weight and gradient in this package is a 2-D float64 numpy array
with rows = samples and columns = features.  The helpers here add the shape
checking and the reproducibility guarantees the rest of the code relies on.
"""

from __future__ import annotations

import functools
import json
import operator
import warnings
from dataclasses import MISSING, dataclass, fields
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


def checked_json(value, kind, name: str):
    """value as kind, if its JSON type fits: bool takes only true/false, int
    only integers, float any number that a float holds; a boolean is never a
    number, and null fits no kind.  Otherwise a ValueError names `name`.  A
    kind that is not a type reads a value that is not one JSON type, called
    as kind(value, name)."""
    if not isinstance(kind, type):
        return kind(value, name)
    types, expected = _JSON_KINDS[kind]
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, types):
        raise ValueError(f"{name} must be {expected}, got {json.dumps(value, default=repr)}")
    try:
        return kind(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number in float range, "
                         "got an integer too large for a float") from None


def checked_json_list(value, kind, name: str) -> list:
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
    """(name, kind) of each of a dataclass's fields, resolved once per class
    (get_type_hints evaluates every annotation on each call): its annotated
    type, or the reader that the class's READERS maps it to (see checked_json)."""
    readers = getattr(cls, "READERS", {})
    return tuple((name, readers.get(name, kind)) for name, kind in get_type_hints(cls).items())


def check_field_types(record) -> None:
    """Each field of a dataclass record read as its kind (see field_types); a
    field that a reader reads keeps what it returns, such as a list as a tuple."""
    for name, kind in field_types(type(record)):
        value = checked_json(getattr(record, name), kind, name)
        if not isinstance(kind, type):
            object.__setattr__(record, name, value)


def read_record(cls, doc: dict, where: str, keys: dict[str, str] | None = None,
                saved: bool = False):
    """The dataclass record cls read from the JSON object doc, the one reader of
    a config section or a saved record: each field is read as its kind (see
    field_types), never coerced, and a ValueError names it as where.key, then a
    range error from cls's own checks as "invalid {where} config".  A config
    section may omit a field with a default; a saved record (saved) holds every
    field its to_dict wrote.  keys maps a field to the document's key, where
    they differ."""
    key_of = {name: (keys or {}).get(name, name) for name, _ in field_types(cls)}
    missing = [key_of[f.name] for f in fields(cls) if key_of[f.name] not in doc and
               (saved or f.default is MISSING and f.default_factory is MISSING)]
    if missing:
        raise ValueError(f"{where} is missing fields {missing}")
    unknown = sorted(set(doc) - set(key_of.values()))
    if unknown:
        raise ValueError(f"{where} has unknown fields {unknown}")
    values = {name: checked_json(doc[key_of[name]], kind, f"{where}.{key_of[name]}")
              for name, kind in field_types(cls) if key_of[name] in doc}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"invalid {where} config: {exc}") from None


def checked_entry(doc: dict, key: str, kind: type, name: str):
    """doc[key] as kind (see checked_json); a missing key is a ValueError
    naming it too.  kind np.ndarray reads a list of finite numbers as a
    float64 vector."""
    if key not in doc:
        raise ValueError(f"{name} is missing")
    if kind is not np.ndarray:
        return checked_json(doc[key], kind, name)
    values = checked_json(doc[key], list, name)
    if not set(map(type, values)) <= {float}:   # one pass in C, else each entry, named
        values = checked_json_list(values, float, name)
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must hold finite numbers only")
    return array


# ---------------------------------------------------------------------------
# Deterministic random numbers
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, the splitmix64 increment
_BLOCK = 4096  # fewest raw draws an Rng computes ahead at once


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on a uint64 array the caller owns
    (wraparound arithmetic)."""
    t = np.empty_like(z)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=t)
        z ^= t
        z *= np.uint64(factor)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def _mix64_int(value: int) -> int:
    return int(_mix64(np.array([value & _MASK64], dtype=np.uint64))[0])


def _integer(value, name: str) -> int:
    """value as an int, or a ValueError naming it: never a float or string read as one."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_count(value: int, name: str) -> int:
    """value as an int (a numpy integer too, so the counter stays an int); a
    negative one is a ValueError naming it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _draw_count(rows: int, cols: int | None) -> int:
    """rows, or rows * cols when cols is given, each checked by _check_count."""
    rows = _check_count(rows, "rows")
    return rows if cols is None else rows * _check_count(cols, "cols")


class Rng:
    """Counter-based deterministic random generator (splitmix64 stream).

    Draw i of a generator seeded with s is ``mix64(mix64(s) + i * GOLDEN)``:
    pure 64-bit integer arithmetic, so equal seeds give bit-identical
    sequences on every platform and numpy version.  The counter state can be
    saved and restored, which training uses to replay dropout masks.

    Draws are computed ahead, at least _BLOCK at a time, in a block that
    starts at the counter, and handed out in slices.  Draw i depends only on
    the key and i, so the stream is the same as drawing each request alone.
    """

    def __init__(self, seed: int):
        self.seed = _integer(seed, "seed")
        self.state = (_mix64_int(self.seed), 0)

    # -- state -------------------------------------------------------------

    @property
    def state(self) -> tuple[int, int]:
        return (self._key, self._count)

    @state.setter
    def state(self, value: tuple[int, int]) -> None:
        self._key, self._count = int(value[0]), int(value[1])
        self._block = np.empty(0, dtype=np.uint64)   # holds draws _block_start + 1, ...
        self._block_start = self._count

    def spawn(self, tag: int) -> "Rng":
        """Independent child stream; deterministic in (seed, tag), an integer."""
        return Rng(_mix64_int(self._key + (_integer(tag, "tag") + 1) * _GOLDEN))

    # -- raw draws ----------------------------------------------------------

    def _raw(self, n: int) -> np.ndarray:
        """The next n raw draws, a view into the block: read, never written."""
        at = self._count - self._block_start
        if at + n > self._block.size:
            size = max(n, _BLOCK)
            block = np.arange(1, size + 1, dtype=np.uint64)
            block *= np.uint64(_GOLDEN)
            block += np.uint64((self._key + self._count * _GOLDEN) & _MASK64)
            self._block, self._block_start, at = _mix64(block), self._count, 0
        self._count += n
        return self._block[at:at + n]

    def _uniform_flat(self, n: int) -> np.ndarray:
        # top 53 bits -> float64 in [0, 1)
        return (self._raw(n) >> np.uint64(11)) * (1.0 / (1 << 53))

    # -- public draws -------------------------------------------------------

    def uniform(self, rows: int, cols: int | None = None,
                low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform draws in [low, high); 1-D if cols is None, else rows x cols."""
        n = _draw_count(rows, cols)
        u = self._uniform_flat(n)
        if low != 0.0 or high != 1.0:   # else the affine map gives u's own bits
            u = low + (high - low) * u
        return u if cols is None else u.reshape(rows, cols)

    def normal(self, rows: int, cols: int | None = None,
               mean: float = 0.0, sd: float = 1.0) -> np.ndarray:
        """Gaussian draws via Box-Muller on the uniform stream."""
        n = _draw_count(rows, cols)
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
        return np.argsort(self._uniform_flat(_check_count(n, "n")), kind="stable")

    def subset(self, n: int, size: int) -> np.ndarray:
        """`size` distinct indices drawn from range(n)."""
        n, size = _check_count(n, "n"), _check_count(size, "size")
        if size > n:
            raise ValueError(f"cannot draw {size} distinct indices from {n}")
        return self.permutation(n)[:size]


# ---------------------------------------------------------------------------
# Standardization
# ---------------------------------------------------------------------------

@dataclass
class StandardizeStats:
    """Per-column mean and population sd, floored at SD_FLOOR (a constant column's sd)."""

    mean: np.ndarray           # (1, m)
    sd: np.ndarray             # (1, m), every entry >= SD_FLOOR

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
        }

    @classmethod
    def from_dict(cls, d: dict, name: str = "stats") -> "StandardizeStats":
        """Inverse of to_dict; a ValueError names the first bad field.  sd has
        one entry per mean, each at least SD_FLOOR as fitted ones are.  The
        constant_columns that an earlier version wrote are ignored."""
        d = checked_json(d, dict, name)
        mean = checked_entry(d, "mean", np.ndarray, f"{name}.mean")
        sd = checked_entry(d, "sd", np.ndarray, f"{name}.sd")
        if sd.size != mean.size:
            raise ValueError(f"{name}.sd must have one entry per {name}.mean entry "
                             f"({mean.size}), got {sd.size}")
        small = np.flatnonzero(sd < SD_FLOOR)
        if small.size:
            raise ValueError(f"{name}.sd[{small[0]}] must be >= {SD_FLOOR}, "
                             f"got {float(sd[small[0]])!r}")
        return cls(mean=mean.reshape(1, -1), sd=sd.reshape(1, -1))


def standardize_fit_apply(x: Matrix) -> tuple[Matrix, StandardizeStats]:
    """Fit column mean and population sd on `x`, and standardize it to mean 0 / sd 1.

    Zero-variance columns get their sd floored at SD_FLOOR and a warning, so
    constant columns map to all zeros.  StandardizeStats.apply applies fitted stats.
    """
    _require_2d(x, "x")
    mean = x.mean(axis=0, keepdims=True)
    sd = x.std(axis=0, keepdims=True)  # population convention (divide by N)
    constant = tuple(int(i) for i in np.flatnonzero(sd < SD_FLOOR))
    if constant:
        warnings.warn(f"standardize: zero-variance columns {constant} "
                      f"floored at sd={SD_FLOOR}", stacklevel=2)
        sd = np.maximum(sd, SD_FLOOR)
    stats = StandardizeStats(mean=mean, sd=sd)
    return stats.apply(x), stats
