"""Network steps: dense, activations, batch norm, dropout, and the two ends
of an identity shortcut.

Every step has one interface: forward(x, train=False, rng=None) returns its
output, backward(upstream) returns the gradient with respect to its input,
and summary() returns its row of a serialized network's layer list.

Conventions: batches are (n, width) float64 matrices; each step caches what
its backward pass needs during forward; backward writes parameter gradients
into preallocated arrays so optimizer references stay valid.  A layer's
PARAMS names its trainable attributes, and the gradient buffer of attribute
X is attribute dX; a Network rebinds both to views of its one flat parameter
vector.  A batch-norm layer's train forward only records its batch stats;
the owning Network blends every layer's into its running stats at once,
with the constant momentum BN_MOMENTUM."""

from __future__ import annotations

import numpy as np

from .matrix import Matrix, Rng

ACTIVATION_KINDS = ("relu", "elu", "tanh", "linear")
BN_MOMENTUM = 0.9     # running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch
BN_EPSILON = 1e-5


def activation_forward(kind: str, z: Matrix, alpha: float = 1.0) -> Matrix:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":     # expm1(min(z, 0)): the same where z < 0, and no overflow for large z
        e = np.expm1(np.minimum(z, 0.0))
        if alpha != 1.0:
            e *= alpha
        return np.where(z >= 0.0, z, e)
    if kind == "tanh":
        return np.tanh(z)
    if kind == "linear":
        return z
    raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")


def activation_backward(kind: str, z: Matrix, upstream: Matrix, alpha: float = 1.0) -> Matrix:
    if z.shape != upstream.shape:
        raise ValueError(f"activation backward shape mismatch: {z.shape} vs {upstream.shape}")
    if kind == "relu":
        return upstream * (z > 0.0)          # derivative at 0 fixed to 0
    if kind == "elu":     # exp(min(z, 0)) is 1 where z >= 0 (so 1 at 0) and never overflows
        e = np.exp(np.minimum(z, 0.0))
        if alpha == 1.0:
            return upstream * e
        e *= alpha
        e *= upstream
        return np.where(z >= 0.0, upstream, e)
    if kind == "tanh":
        t = np.tanh(z)
        return upstream * (1.0 - t * t)
    if kind == "linear":
        return upstream
    raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")


class Activation:
    """Pointwise activation step with cached pre-activation."""

    def __init__(self, kind: str, alpha: float = 1.0):
        if kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        self.kind = kind
        self.alpha = float(alpha)
        self._z: Matrix | None = None

    def forward(self, z: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        self._z = z
        return activation_forward(self.kind, z, self.alpha)

    def backward(self, upstream: Matrix) -> Matrix:
        if self._z is None:
            raise RuntimeError("activation backward called before forward")
        return activation_backward(self.kind, self._z, upstream, self.alpha)

    def summary(self) -> dict:
        return {"kind": "activation", "fn": self.kind, "alpha": self.alpha}


class DenseLayer:
    """Fully connected layer: out = x @ W.T + b.T with W (out x in), b (out x 1)."""

    PARAMS = ("W", "b")

    def __init__(self, n_in: int, n_out: int):
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.W = np.zeros((self.n_out, self.n_in))
        self.b = np.zeros((self.n_out, 1))
        self.dW = np.zeros_like(self.W)
        self.db = np.zeros_like(self.b)
        self._x: Matrix | None = None

    def init_weights(self, rng: Rng, activation: str) -> None:
        # He scaling for the piecewise-linear activations, Xavier otherwise.
        if activation in ("relu", "elu"):
            scale = np.sqrt(2.0 / self.n_in)
        else:
            scale = np.sqrt(1.0 / self.n_in)
        self.W[...] = rng.normal(self.n_out, self.n_in, sd=scale)
        self.b[...] = 0.0

    def forward(self, x: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense layer expects (n, {self.n_in}) input, got "
                             f"{x.shape}; weights are {self.W.shape}")
        self._x = x
        return x @ self.W.T + self.b.T

    def backward(self, upstream: Matrix) -> Matrix:
        if self._x is None:
            raise RuntimeError("dense backward called before forward")
        np.matmul(upstream.T, self._x, out=self.dW)
        np.add.reduce(upstream, axis=0, keepdims=True, out=self.db.T)
        return upstream @ self.W

    def summary(self) -> dict:
        return {"kind": "dense", "in": self.n_in, "out": self.n_out}


class BatchNormLayer:
    """Per-column batch normalization.

    A train-mode forward normalizes with the batch stats and writes them into
    batch_mean and batch_var; the owning Network blends those into
    running_mean and running_var, which an inference forward uses.
    """

    PARAMS = ("gamma", "beta")

    def __init__(self, width: int):
        self.width = int(width)
        self.gamma = np.ones((1, self.width))
        self.beta = np.zeros((1, self.width))
        self.running_mean = np.zeros((1, self.width))
        self.running_var = np.ones((1, self.width))
        self.batch_mean = np.zeros_like(self.running_mean)
        self.batch_var = np.zeros_like(self.running_var)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        if x.shape[1] != self.width:
            raise ValueError(f"batchnorm expects width {self.width}, got {x.shape}")
        if not train:
            inv = 1.0 / np.sqrt(self.running_var + BN_EPSILON)
            return self.gamma * ((x - self.running_mean) * inv) + self.beta
        if x.shape[0] < 2:
            raise ValueError(f"batchnorm needs a batch of at least 2 rows in "
                             f"train mode, got {x.shape[0]}")
        # np.mean/np.var's own arithmetic, without their wrappers: column sums
        # divided by n, then the centred batch squared, summed and divided by n
        n = x.shape[0]
        mean = np.add.reduce(x, axis=0, keepdims=True, out=self.batch_mean)
        mean /= n
        xhat = x - mean
        var = np.add.reduce(xhat * xhat, axis=0, keepdims=True, out=self.batch_var)
        var /= n                                                    # population variance
        inv = 1.0 / np.sqrt(var + BN_EPSILON)
        xhat *= inv
        self._cache = (xhat, inv)
        out = self.gamma * xhat
        out += self.beta
        return out

    def backward(self, upstream: Matrix) -> Matrix:
        if self._cache is None:
            raise RuntimeError("batchnorm backward called before a train-mode forward")
        xhat, inv = self._cache
        n = xhat.shape[0]
        t = upstream * xhat
        np.add.reduce(t, axis=0, keepdims=True, out=self.dgamma)
        np.add.reduce(upstream, axis=0, keepdims=True, out=self.dbeta)
        dxhat = upstream * self.gamma
        # exact gradient of the train-mode forward (mean and var both depend on x):
        # (inv / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated left to right in the buffers t and dxhat
        col_sum = np.add.reduce(dxhat, axis=0, keepdims=True)
        np.multiply(dxhat, xhat, out=t)
        np.multiply(xhat, np.add.reduce(t, axis=0, keepdims=True), out=t)
        dxhat *= n
        dxhat -= col_sum
        dxhat -= t
        dxhat *= inv / n
        return dxhat

    def summary(self) -> dict:
        return {"kind": "batchnorm", "width": self.width}


class DropoutLayer:
    """Inverted dropout: train-mode masks scale by 1/(1-rate), inference is identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask: Matrix | None = None

    def forward(self, x: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        if not train or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (rng.uniform(x.shape[0], x.shape[1]) >= self.rate) / keep
        return x * self._mask

    def backward(self, upstream: Matrix) -> Matrix:
        if self._mask is None:
            return upstream
        return upstream * self._mask

    def summary(self) -> dict:
        return {"kind": "dropout", "rate": self.rate}


class ShortcutSave:
    """Encode end of an identity shortcut: keeps its input as tensor for the add step.

    The add step's backward runs first and sets grad; this step's backward
    adds the encode-path gradient in, so grad ends as the save point's total.
    A new forward pass drops the last pass's grad.
    """

    def __init__(self, slot: int, width: int):
        self.slot = slot
        self.width = width
        self.tensor: Matrix | None = None
        self.grad: Matrix | None = None

    def forward(self, x: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        self.tensor, self.grad = x, None
        return x

    def backward(self, upstream: Matrix) -> Matrix:
        self.grad = self.grad + upstream
        return self.grad

    def summary(self) -> dict:
        return {"kind": "save", "slot": self.slot}


class ResidualAddNode:
    """Decode end of an identity shortcut: adds the tensor kept by `save`.

    Backward hands the upstream gradient to the save step and passes it on
    down the deep branch unchanged.
    """

    def __init__(self, save: ShortcutSave, label: str = ""):
        self.save = save
        self.slot = save.slot
        self.label = label or f"shortcut slot {save.slot}"

    def forward(self, deep: Matrix, train: bool = False, rng: Rng | None = None) -> Matrix:
        shallow = self.save.tensor
        if shallow.shape != deep.shape:
            raise ValueError(f"residual shortcut shape mismatch at {self.label}: "
                             f"encode side {shallow.shape} vs decode side {deep.shape}")
        return shallow + deep

    def backward(self, upstream: Matrix) -> Matrix:
        if self.save.tensor is None:
            raise RuntimeError(f"{self.label}: backward called before forward")
        self.save.grad = upstream
        return upstream

    def summary(self) -> dict:
        return {"kind": "add", "slot": self.slot}
