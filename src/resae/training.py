"""Losses, regularizers, optimizers, the mini-batch training loop, and
numerical gradient verification.

Regression losses use the 1/(2n) squared-error convention throughout, so the
option-2 composite is (1/2n)||y - yhat||^2 + w * (1/2n)||x - xhat||^2 plus
the regularizer.  Cross entropy is softmax over the k head logits, averaged
over the batch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import TASKS
from .matrix import (Matrix, Rng, StandardizeStats, check_field_types, checked_entry,
                     standardize_fit_apply)
from .network import Network, NetworkSpec, Param, Predictions, build_network

LOSS_KINDS = ("mse", "mse_reconstruction", "cross_entropy")


class TrainingDiverged(RuntimeError):
    """Raised when a batch or validation loss stops being finite."""

    def __init__(self, epoch: int, batch: int, value: float):
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.value = value


@dataclass(frozen=True)
class LossSpec:
    """A loss kind and weight, checked when made, so every loss in use is valid."""

    kind: str = "mse"
    reconstruction_weight: float = 1.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected {LOSS_KINDS}")
        if not self.reconstruction_weight >= 0:
            raise ValueError("reconstruction_weight must be >= 0")


@dataclass(frozen=True)
class Regularizer:
    """A weight penalty, checked when made, like LossSpec."""

    kind: str = "none"        # "none" | "l1" | "l2"
    coefficient: float = 0.0

    def __post_init__(self):
        check_field_types(self)
        if self.kind not in ("none", "l1", "l2"):
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if not self.coefficient >= 0:
            raise ValueError("regularizer coefficient must be >= 0")

    def value(self, params: list[Param]) -> float:
        if self.kind == "none" or self.coefficient == 0.0:
            return 0.0
        if self.kind == "l2":
            return self.coefficient * sum(float((p.value * p.value).sum()) for p in params)
        return self.coefficient * sum(float(np.abs(p.value).sum()) for p in params)

    def add_gradients(self, p: Param) -> None:
        """Add the penalty's gradient to p.grad; elementwise, so one call on
        a network's flat vector covers every parameter."""
        if self.kind == "none" or self.coefficient == 0.0:
            return
        if self.kind == "l2":
            p.grad += 2.0 * self.coefficient * p.value
        else:
            p.grad += self.coefficient * np.sign(p.value)


def softmax(logits: Matrix) -> Matrix:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def loss_and_head_gradient(loss: LossSpec, preds: Predictions, targets: Matrix,
                           inputs: Matrix | None = None,
                           regularizer: Regularizer | None = None,
                           params: list[Param] | None = None) -> tuple[float, Matrix]:
    """Loss value plus the gradient with respect to the raw head output.

    The regularizer contributes to the value only; its parameter gradients
    are added separately after the network backward pass.
    """
    n = targets.shape[0]
    head_grad = np.zeros_like(preds.head)
    k = preds.y.shape[1]

    if loss.kind in ("mse", "mse_reconstruction"):
        if preds.y.shape != targets.shape:
            raise ValueError(f"loss shape mismatch: predictions {preds.y.shape} "
                             f"vs targets {targets.shape}")
        r = preds.y - targets
        value = float((r * r).sum()) / (2.0 * n)
        head_grad[:, :k] = r / n
        if loss.kind == "mse_reconstruction":
            if preds.reconstruction is None or inputs is None:
                raise ValueError("reconstruction loss needs an option-2 head "
                                 "and the input batch")
            w = loss.reconstruction_weight
            rr = preds.reconstruction - inputs
            value += w * float((rr * rr).sum()) / (2.0 * n)
            head_grad[:, k:] = w * rr / n
    else:   # cross_entropy, the one kind left in a LossSpec
        classes = np.asarray(targets, dtype=np.int64).ravel()
        if classes.shape[0] != n or classes.min() < 0 or classes.max() >= k:
            raise ValueError(f"cross entropy expects class indices in [0, {k}), "
                             f"got range [{classes.min()}, {classes.max()}]")
        p = softmax(preds.y)
        # no clipping: an underflowed probability yields an infinite loss,
        # which the training loop surfaces as divergence
        with np.errstate(divide="ignore"):
            value = float(-np.log(p[np.arange(n), classes]).sum()) / n
        grad = p.copy()
        grad[np.arange(n), classes] -= 1.0
        head_grad[:, :k] = grad / n

    if regularizer is not None and params is not None:
        value += regularizer.value(params)
    return value, head_grad


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------

class SgdMomentum:
    """SGD with momentum, bound to one Param: v = momentum * v + grad, then
    value -= lr * v, in place."""

    def __init__(self, param: Param, momentum: float = 0.9):
        self.param = param
        self.momentum = float(momentum)
        self._velocity = np.zeros_like(param.value)

    def step(self, lr: float) -> None:
        v, p = self._velocity, self.param
        v *= self.momentum
        v += p.grad
        p.value -= lr * v


class Adam:
    """Adam (Kingma & Ba 2015), bound to one Param, with bias-corrected moments."""

    def __init__(self, param: Param, beta1: float = 0.9, beta2: float = 0.999,
                 epsilon: float = 1e-8):
        self.param = param
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._m = np.zeros_like(param.value)
        self._v = np.zeros_like(param.value)
        self._t = 0

    def step(self, lr: float) -> None:
        self._t += 1
        c1 = 1.0 - self.beta1 ** self._t
        c2 = 1.0 - self.beta2 ** self._t
        m, v, p = self._m, self._v, self.param
        m *= self.beta1
        m += (1.0 - self.beta1) * p.grad
        v *= self.beta2
        v += (1.0 - self.beta2) * (p.grad * p.grad)
        p.value -= lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 100
    max_epochs: int = 300
    learning_rate: float = 1e-3
    optimizer: str = "adam"        # "adam" | "sgd"
    momentum: float = 0.9
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    early_stop_patience: int = 50
    seed: int = 0
    shuffle: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be >= 0 and finite, got {self.learning_rate}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        for name in ("momentum", "adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not self.adam_epsilon > 0.0:
            raise ValueError(f"adam_epsilon must be > 0, got {self.adam_epsilon}")
        if self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1")

    def make_optimizer(self, param: Param):
        """The configured optimizer, bound to param."""
        if self.optimizer == "sgd":
            return SgdMomentum(param, self.momentum)
        return Adam(param, self.adam_beta1, self.adam_beta2, self.adam_epsilon)


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)
    best_epoch: int = -1

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_rows(self) -> list[tuple]:
        return [(e, self.train_loss[e], self.val_loss[e], self.val_metric[e])
                for e in range(len(self))]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "val_loss", "val_metric"])
            for row in self.to_rows():
                writer.writerow([row[0], repr(float(row[1])), repr(float(row[2])),
                                 repr(float(row[3]))])


def _mini_batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.shape[0] == 1 and n > 1:
            # a trailing single row cannot go through train-mode batch norm
            continue
        yield idx


def fit(net: Network, x_train: Matrix, y_train: Matrix,
        x_val: Matrix, y_val: Matrix, loss: LossSpec, cfg: TrainConfig,
        regularizer: Regularizer | None = None,
        val_metric_fn=None) -> TrainHistory:
    """Mini-batch training with per-epoch validation and best-weights restore.

    Stops at max_epochs or once the validation loss has not improved for
    early_stop_patience consecutive epochs; the parameters achieving the best
    recorded validation loss are restored before returning.
    """
    regularizer = regularizer or Regularizer()
    params = net.parameters()
    optimizer = cfg.make_optimizer(net.flat)
    shuffle_rng = Rng(cfg.seed).spawn(2)
    n = x_train.shape[0]
    history = TrainHistory()
    best_val = np.inf
    best = None     # flat copies of the parameters and running stats
    stale = 0

    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(n) if cfg.shuffle else np.arange(n)
        epoch_losses = []
        for b, idx in enumerate(_mini_batches(n, cfg.batch_size, order)):
            xb, yb = x_train[idx], y_train[idx]
            preds = net.forward(xb, "train")
            value, head_grad = loss_and_head_gradient(
                loss, preds, yb, inputs=xb, regularizer=regularizer, params=params)
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, b, value)
            net.backward(head_grad)
            regularizer.add_gradients(net.flat)
            optimizer.step(cfg.learning_rate)
            epoch_losses.append(value)

        val_preds = net.forward(x_val, "infer")
        val_value, _ = loss_and_head_gradient(loss, val_preds, y_val, inputs=x_val)
        if not math.isfinite(val_value):
            raise TrainingDiverged(epoch, -1, val_value)
        metric = float(val_metric_fn(val_preds)) if val_metric_fn is not None else -val_value
        history.train_loss.append(float(np.mean(epoch_losses)))
        history.val_loss.append(float(val_value))
        history.val_metric.append(metric)

        if val_value < best_val:
            best_val = val_value
            best = (net.flat.value.copy(), net.running.copy())
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.early_stop_patience:
                break

    if best is not None:
        net.flat.value[...], net.running[...] = best
    return history


# ---------------------------------------------------------------------------
# Dataset-level pipeline
# ---------------------------------------------------------------------------

def default_loss_for(task: str, output_option: int,
                     reconstruction_weight: float = 1.0) -> LossSpec:
    if task == "classification":
        return LossSpec("cross_entropy", reconstruction_weight)
    if output_option == 2:
        return LossSpec("mse_reconstruction", reconstruction_weight)
    return LossSpec("mse", reconstruction_weight)


def dataset_dims(dataset) -> dict:
    """The spec fields an encoded dataset fixes: nfea and k."""
    k = dataset.n_classes if dataset.task == "classification" else dataset.targets.shape[1]
    return {"nfea": dataset.features.shape[1], "k": int(k)}


def make_spec(dataset, nnode, **overrides) -> NetworkSpec:
    """nfea and k from an encoded dataset, integer widths nnode, other fields from overrides."""
    return replace(NetworkSpec.from_dict({"nnode": list(nnode), **dataset_dims(dataset)}),
                   **overrides)


@dataclass
class FittedModel:
    """A trained network plus the preprocessing needed to score raw rows."""

    network: Network
    feature_stats: StandardizeStats
    target_stats: StandardizeStats | None
    task: str
    loss: LossSpec
    history: TrainHistory | None = None

    def predict(self, features_raw: Matrix) -> Matrix:
        """Targets in original units (regression) or class probabilities."""
        x = self.feature_stats.apply(features_raw)
        preds = self.network.forward(x, "infer")
        if self.task == "classification":
            return softmax(preds.y)
        if self.target_stats is not None:
            return self.target_stats.invert(preds.y)
        return preds.y

    def to_dict(self) -> dict:
        return {
            "format": "resae-model",
            "version": 1,
            "task": self.task,
            "loss": asdict(self.loss),
            "feature_stats": self.feature_stats.to_dict(),
            "target_stats": self.target_stats.to_dict() if self.target_stats else None,
            "network": self.network.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedModel":
        """Inverse of to_dict.  Every field is checked, never coerced, and a
        ValueError names the first bad one."""
        if d.get("format") != "resae-model":
            raise ValueError("not a serialized model document")
        task = checked_entry(d, "task", str, "task")
        if task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {task!r}")
        loss_doc = checked_entry(d, "loss", dict, "loss")
        kind = checked_entry(loss_doc, "kind", str, "loss.kind")
        if kind not in LOSS_KINDS:
            raise ValueError(f"loss.kind must be one of {LOSS_KINDS}, got {kind!r}")
        loss = LossSpec(kind, checked_entry(loss_doc, "reconstruction_weight", float,
                                            "loss.reconstruction_weight"))
        return cls(
            network=Network.from_dict(checked_entry(d, "network", dict, "network")),
            feature_stats=StandardizeStats.from_dict(
                checked_entry(d, "feature_stats", dict, "feature_stats"), "feature_stats"),
            target_stats=(None if d.get("target_stats") is None else
                          StandardizeStats.from_dict(d["target_stats"], "target_stats")),
            task=task, loss=loss)


def train_model(dataset, split, spec: NetworkSpec, cfg: TrainConfig,
                regularizer: Regularizer | None = None,
                reconstruction_weight: float = 1.0) -> FittedModel:
    """Standardize, build, and fit one network on a train/validation split.

    The loss is default_loss_for the task and the spec's output option.
    Features are standardized on the training partition; regression targets
    likewise, with predictions inverse-transformed back to original units.
    """
    loss = default_loss_for(dataset.task, spec.output_option, reconstruction_weight)
    x_tr, feature_stats = standardize_fit_apply(dataset.features[split.train])
    x_val = feature_stats.apply(dataset.features[split.validation])

    target_stats = None
    if dataset.task == "regression":
        y_tr, target_stats = standardize_fit_apply(dataset.targets[split.train])
        y_val = target_stats.apply(dataset.targets[split.validation])
        y_val_raw = dataset.targets[split.validation]

        def val_metric(preds: Predictions) -> float:
            from .evaluation import r2
            return r2(y_val_raw, target_stats.invert(preds.y))
    else:
        y_tr = dataset.targets[split.train]
        y_val = dataset.targets[split.validation]
        classes = np.asarray(y_val, dtype=np.int64).ravel()

        def val_metric(preds: Predictions) -> float:
            return float((softmax(preds.y).argmax(axis=1) == classes).mean())

    root = Rng(cfg.seed)
    net = build_network(spec, rng=root.spawn(1))
    history = fit(net, x_tr, y_tr, x_val, y_val, loss, cfg,
                  regularizer=regularizer, val_metric_fn=val_metric)
    return FittedModel(network=net, feature_stats=feature_stats,
                       target_stats=target_stats, task=dataset.task,
                       loss=loss, history=history)


# ---------------------------------------------------------------------------
# Gradient verification
# ---------------------------------------------------------------------------

def gradient_check(net: Network, x: Matrix, targets: Matrix, loss: LossSpec,
                   regularizer: Regularizer | None = None, eps: float = 1e-5,
                   n_sample: int = 200, seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    Checks a random subsample of parameter entries.  The network RNG state is
    pinned before every forward so dropout masks are identical across all
    evaluations; train mode is used throughout, so batch-norm gradients are
    exercised against the batch-statistics forward.
    """
    regularizer = regularizer or Regularizer()
    params = net.parameters()
    rng_state = net.rng.state
    saved = net.get_state()

    def evaluate() -> float:
        net.rng.state = rng_state
        preds = net.forward(x, "train")
        value, _ = loss_and_head_gradient(loss, preds, targets, inputs=x,
                                          regularizer=regularizer, params=params)
        return value

    net.rng.state = rng_state
    preds = net.forward(x, "train")
    _, head_grad = loss_and_head_gradient(loss, preds, targets, inputs=x,
                                          regularizer=regularizer, params=params)
    net.backward(head_grad)
    regularizer.add_gradients(net.flat)
    analytic = net.flat.grad.copy()

    values = net.flat.value      # every parameter entry, in parameters() order
    chosen = Rng(seed).subset(values.size, min(n_sample, values.size))
    worst = 0.0
    for i in chosen:
        original = values[i]
        values[i] = original + eps
        up = evaluate()
        values[i] = original - eps
        down = evaluate()
        values[i] = original
        numeric = (up - down) / (2.0 * eps)
        a = analytic[i]
        scale = max(abs(a), abs(numeric), 1e-6)
        worst = max(worst, abs(a - numeric) / scale)

    net.set_state(saved)       # running stats were touched by the probe forwards
    net.rng.state = rng_state
    return worst
