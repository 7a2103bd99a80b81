"""A plain, per-array retelling of one fit() run, for bit-for-bit comparison.

It reads a network only through layer_summary(), get_state() and its Rng,
and computes every step with the textbook expressions the kernels replace:
x @ W.T + b.T, np.where ELU, np.mean/np.var batch norm, one optimizer update
per array, and momentum * running + (1 - momentum) * batch stats.

PlainRng is the random generator drawn one request at a time, with no block
computed ahead, for the same comparison of the drawn stream.

plain_load_csv is CSV ingestion a row at a time, for the same comparison of
the Dataset it reads.
"""

import csv

import numpy as np

from resae.data import MISSING_MARKERS, TASKS, Dataset, bin_to_classes
from resae.layers import BN_EPSILON, BN_MOMENTUM
from resae.matrix import Rng, checked_json
from resae.training import TrainingDiverged


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def plain_mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array (wraparound arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _plain_mix64_int(value: int) -> int:
    return int(plain_mix64(np.array([value & _MASK64], dtype=np.uint64))[0])


class PlainRng(Rng):
    """Rng that computes each request's draws on their own, with plain_mix64:
    its _raw and uniform are Rng's before draws were computed ahead in a
    block.  normal, permutation and subset are Rng's, on this _raw; the key
    and spawned children use plain_mix64 too."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.state = (_plain_mix64_int(self.seed), 0)

    def spawn(self, tag: int) -> "PlainRng":
        return PlainRng(_plain_mix64_int(self._key + (int(tag) + 1) * _GOLDEN))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        return plain_mix64(np.uint64(self._key) + idx * np.uint64(_GOLDEN))

    def uniform(self, rows: int, cols: int | None = None,
                low: float = 0.0, high: float = 1.0) -> np.ndarray:
        n = rows if cols is None else rows * cols
        u = low + (high - low) * self._uniform_flat(n)
        return u if cols is None else u.reshape(rows, cols)


def adam_reference(w, m, v, g, t, lr, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """One Adam update of one array, as in Kingma & Ba 2015, Algorithm 1."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat, v_hat = m / (1.0 - beta1 ** t), v / (1.0 - beta2 ** t)
    return w - lr * m_hat / (np.sqrt(v_hat) + epsilon), m, v


def sgd_reference(w, velocity, g, lr, momentum=0.9):
    """One momentum-SGD update of one array: v = momentum * v + g, w -= lr * v."""
    velocity = momentum * velocity + g
    return w - lr * velocity, velocity


def _named_rows(rows):
    """Each summary row with the state-name prefix of its layer (None if it has none)."""
    layer = 0
    for row in rows:
        prefix = None
        if row["kind"] in ("dense", "batchnorm"):
            prefix = f"L{layer:03d}.{'dense' if row['kind'] == 'dense' else 'bn'}"
            layer += 1
        yield row, prefix


def plain_activation(fn, z):
    if fn == "relu":
        return np.maximum(z, 0.0)
    if fn == "elu":
        with np.errstate(over="ignore"):
            return np.where(z >= 0.0, z, np.expm1(z))
    if fn == "tanh":
        return np.tanh(z)
    return z


def plain_forward(rows, state, x, train, rng):
    """The head output and each step's cache; a train pass blends running stats in state."""
    caches, saved = [], {}
    for row, p in _named_rows(rows):
        kind, cache = row["kind"], x
        if kind == "dense":
            x = x @ state[p + ".W"].T + state[p + ".b"].T
        elif kind == "activation":
            x = plain_activation(row["fn"], x)
        elif kind == "batchnorm" and train:
            mean, var = np.mean(x, axis=0, keepdims=True), np.var(x, axis=0, keepdims=True)
            inv = 1.0 / np.sqrt(var + BN_EPSILON)
            xhat = (x - mean) * inv
            cache = (xhat, inv)
            x = state[p + ".gamma"] * xhat + state[p + ".beta"]
            for stat, batch in (("running_mean", mean), ("running_var", var)):
                m, r = BN_MOMENTUM, state[f"{p}.{stat}"]
                state[f"{p}.{stat}"] = m * r + (1.0 - m) * batch
        elif kind == "batchnorm":
            inv = 1.0 / np.sqrt(state[p + ".running_var"] + BN_EPSILON)
            x = state[p + ".gamma"] * ((x - state[p + ".running_mean"]) * inv) + state[p + ".beta"]
        elif kind == "dropout":
            cache = None
            if train:
                cache = (rng.uniform(x.shape[0], x.shape[1]) >= row["rate"]) / (1.0 - row["rate"])
                x = x * cache
        elif kind == "save":
            saved[row["slot"]] = x
        elif kind == "add":
            x = saved[row["slot"]] + x
        caches.append(cache)
    return x, caches


def plain_backward(rows, state, caches, g):
    """Every parameter's gradient, by name, from the head gradient g."""
    grads, at_add = {}, {}
    for (row, p), cache in reversed(list(zip(_named_rows(rows), caches))):
        kind = row["kind"]
        if kind == "dense":
            grads[p + ".W"] = g.T @ cache
            grads[p + ".b"] = g.sum(axis=0, keepdims=True).T
            g = g @ state[p + ".W"]
        elif kind == "activation" and row["fn"] == "relu":
            g = g * (cache > 0.0)
        elif kind == "activation" and row["fn"] == "elu":
            with np.errstate(over="ignore"):
                g = g * np.where(cache >= 0.0, 1.0, np.exp(cache))
        elif kind == "activation" and row["fn"] == "tanh":
            t = np.tanh(cache)
            g = g * (1.0 - t * t)
        elif kind == "batchnorm":
            xhat, inv = cache
            n = xhat.shape[0]
            grads[p + ".gamma"] = (g * xhat).sum(axis=0, keepdims=True)
            grads[p + ".beta"] = g.sum(axis=0, keepdims=True)
            dxhat = g * state[p + ".gamma"]
            g = (inv / n) * (n * dxhat
                             - dxhat.sum(axis=0, keepdims=True)
                             - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
        elif kind == "dropout":
            g = g * cache
        elif kind == "add":
            at_add[row["slot"]] = g
        elif kind == "save":
            g = at_add.pop(row["slot"]) + g
    return grads


def plain_mse(head, y, x, k, weight):
    """The 1/(2n) squared error of the k target columns, plus weight times the
    reconstruction's where the head is wider; and its head gradient."""
    n = y.shape[0]
    r = head[:, :k] - y
    value = float((r * r).sum()) / (2.0 * n)
    grad = [r / n]
    if head.shape[1] > k:
        rr = head[:, k:] - x
        value += weight * float((rr * rr).sum()) / (2.0 * n)
        grad.append(weight * rr / n)
    return value, np.concatenate(grad, axis=1)


def plain_fit(net, x_train, y_train, x_val, y_val, cfg, regularizer, weight=1.0):
    """fit() on a copy of net's state with an MSE loss: the state dict it would end
    with, or the TrainingDiverged it would raise at the first non-finite loss."""
    rows, k = net.layer_summary(), y_train.shape[1]
    state = net.get_state()
    names = [p.name for p in net.parameters()]
    moments = {name: (np.zeros_like(state[name]), np.zeros_like(state[name])) for name in names}
    rng = Rng(0)
    rng.state = net.rng.state
    shuffle_rng = Rng(cfg.seed).spawn(2)
    n = x_train.shape[0]
    best_val, best, t = np.inf, None, 0
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n)
        batch = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if idx.shape[0] == 1 and n > 1:
                continue
            xb, yb = x_train[idx], y_train[idx]
            head, caches = plain_forward(rows, state, xb, True, rng)
            value, head_grad = plain_mse(head, yb, xb, k, weight)
            if regularizer.kind == "l2":
                value += regularizer.coefficient * sum(float((state[n] ** 2).sum()) for n in names)
            elif regularizer.kind == "l1":
                value += regularizer.coefficient * sum(float(np.abs(state[n]).sum()) for n in names)
            if not np.isfinite(value):
                raise TrainingDiverged(epoch, batch, value)
            grads = plain_backward(rows, state, caches, head_grad)
            t += 1
            batch += 1
            for name in names:
                w, g = state[name], grads[name]
                if regularizer.kind == "l2" and regularizer.coefficient != 0.0:
                    g = g + 2.0 * regularizer.coefficient * w
                elif regularizer.kind == "l1" and regularizer.coefficient != 0.0:
                    g = g + regularizer.coefficient * np.sign(w)
                if cfg.optimizer == "adam":
                    state[name], *moments[name] = adam_reference(
                        w, *moments[name], g, t, cfg.learning_rate)
                else:
                    state[name], velocity = sgd_reference(w, moments[name][0], g,
                                                          cfg.learning_rate, cfg.momentum)
                    moments[name] = (velocity, None)
        val_value = plain_mse(plain_forward(rows, state, x_val, False, rng)[0],
                              y_val, x_val, k, weight)[0]
        if not np.isfinite(val_value):
            raise TrainingDiverged(epoch, -1, val_value)
        if val_value < best_val:
            best_val, best = val_value, {name: arr.copy() for name, arr in state.items()}
    return state if best is None else best


def plain_load_csv(path, targets, task: str, target_bins=None,
                   delimiter: str = ",") -> Dataset:
    """data.load_csv as it was before it read a column at a time: every cell
    stripped, tested against MISSING_MARKERS and parsed in one pass over the
    rows, and the kept cells encoded from a row-major object table.

    Load a header-ed CSV into a Dataset.

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
    target_columns = [targets] if isinstance(targets, str) else list(targets)
    if len(set(target_columns)) != len(target_columns):
        raise ValueError(f"targets must be distinct names, got {target_columns}")
    if len(checked_json(delimiter, str, "delimiter")) != 1:
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = [cells for row in reader if any(cells := [c.strip() for c in row])]

    if len(set(header)) != len(header):
        raise ValueError(f"{path}: duplicate column names in header {header}")
    for col in target_columns:
        if col not in header:
            raise ValueError(f"targets must name header columns, {col!r} is not in {header}")

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
        if name in target_columns:
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
            raise ValueError(f"targets must name one column to classify, got {target_columns}")
        name = target_columns[0]
        if target_bins is not None:
            if name not in numeric:
                raise ValueError(f"target_bins needs a numeric target, {name!r} is not numeric")
            classes, class_names = bin_to_classes(numeric[name][keep], target_bins)
        else:
            labels, classes = np.unique(kept[name], return_inverse=True)
            class_names = labels.tolist()
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
