"""A plain, per-array retelling of one fit() run, for bit-for-bit comparison.

It reads a network only through layer_summary(), get_state() and its Rng,
and computes every step with the textbook expressions the kernels replace:
x @ W.T + b.T, np.where ELU, np.mean/np.var batch norm, one optimizer update
per array, and momentum * running + (1 - momentum) * batch stats.

PlainRng is the random generator drawn one request at a time, with no block
computed ahead, for the same comparison of the drawn stream.
"""

import numpy as np

from resae.layers import BN_EPSILON, BN_MOMENTUM
from resae.matrix import Rng
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
