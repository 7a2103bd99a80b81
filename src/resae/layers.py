"""Layer forward/backward passes: dense, activations, batch norm, dropout,
and the residual addition node.

Conventions: batches are (n, width) float64 matrices; each layer caches what
its backward pass needs during forward; backward writes parameter gradients
into preallocated arrays so optimizer references stay valid.
"""

from __future__ import annotations

import numpy as np

from .matrix import Matrix, Rng

ACTIVATION_KINDS = ("relu", "elu", "tanh", "linear")


def activation_forward(kind: str, z: Matrix, alpha: float = 1.0) -> Matrix:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "elu":
        return np.where(z >= 0.0, z, alpha * np.expm1(z))
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
    if kind == "elu":
        return upstream * np.where(z >= 0.0, 1.0, alpha * np.exp(z))  # derivative at 0 fixed to 1
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

    def forward(self, z: Matrix) -> Matrix:
        self._z = z
        return activation_forward(self.kind, z, self.alpha)

    def backward(self, upstream: Matrix) -> Matrix:
        if self._z is None:
            raise RuntimeError("activation backward called before forward")
        return activation_backward(self.kind, self._z, upstream, self.alpha)

    def params(self):
        return []


class DenseLayer:
    """Fully connected layer: out = x @ W.T + b.T with W (out x in), b (out x 1)."""

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

    def forward(self, x: Matrix) -> Matrix:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense layer expects (n, {self.n_in}) input, got "
                             f"{x.shape}; weights are {self.W.shape}")
        self._x = x
        return x @ self.W.T + self.b.T

    def backward(self, upstream: Matrix) -> Matrix:
        if self._x is None:
            raise RuntimeError("dense backward called before forward")
        self.dW[...] = upstream.T @ self._x
        self.db[...] = upstream.sum(axis=0, keepdims=True).T
        return upstream @ self.W

    def params(self):
        return [("W", self.W, self.dW), ("b", self.b, self.db)]


class BatchNormLayer:
    """Per-column batch normalization with momentum-tracked running stats."""

    def __init__(self, width: int, momentum: float = 0.9, epsilon: float = 1e-5):
        self.width = int(width)
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.gamma = np.ones((1, self.width))
        self.beta = np.zeros((1, self.width))
        self.running_mean = np.zeros((1, self.width))
        self.running_var = np.ones((1, self.width))
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x: Matrix, train: bool) -> Matrix:
        if x.shape[1] != self.width:
            raise ValueError(f"batchnorm expects width {self.width}, got {x.shape}")
        if not train:
            inv = 1.0 / np.sqrt(self.running_var + self.epsilon)
            return self.gamma * ((x - self.running_mean) * inv) + self.beta
        if x.shape[0] < 2:
            raise ValueError(f"batchnorm needs a batch of at least 2 rows in "
                             f"train mode, got {x.shape[0]}")
        mean = x.mean(axis=0, keepdims=True)
        var = x.var(axis=0, keepdims=True)  # population variance
        self.running_mean[...] = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
        self.running_var[...] = self.momentum * self.running_var + (1.0 - self.momentum) * var
        inv = 1.0 / np.sqrt(var + self.epsilon)
        xhat = (x - mean) * inv
        self._cache = (xhat, inv)
        return self.gamma * xhat + self.beta

    def backward(self, upstream: Matrix) -> Matrix:
        if self._cache is None:
            raise RuntimeError("batchnorm backward called before a train-mode forward")
        xhat, inv = self._cache
        n = xhat.shape[0]
        self.dgamma[...] = (upstream * xhat).sum(axis=0, keepdims=True)
        self.dbeta[...] = upstream.sum(axis=0, keepdims=True)
        dxhat = upstream * self.gamma
        # exact gradient of the train-mode forward (mean and var both depend on x)
        return (inv / n) * (n * dxhat
                            - dxhat.sum(axis=0, keepdims=True)
                            - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))

    def params(self):
        return [("gamma", self.gamma, self.dgamma), ("beta", self.beta, self.dbeta)]


class DropoutLayer:
    """Inverted dropout: train-mode masks scale by 1/(1-rate), inference is identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask: Matrix | None = None

    def forward(self, x: Matrix, train: bool, rng: Rng) -> Matrix:
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

    def params(self):
        return []


class ResidualAddNode:
    """Identity shortcut step: adds the tensor saved under `slot` into the current one.

    The backward pass hands the upstream gradient to both branches unchanged.
    """

    def __init__(self, slot: int, label: str = ""):
        self.slot = slot
        self.label = label or "residual add"
        self._seen_forward = False

    def forward(self, shallow: Matrix, deep: Matrix) -> Matrix:
        if shallow.shape != deep.shape:
            raise ValueError(f"residual shortcut shape mismatch at {self.label}: "
                             f"encode side {shallow.shape} vs decode side {deep.shape}")
        self._seen_forward = True
        return shallow + deep

    def backward(self, upstream: Matrix) -> tuple[Matrix, Matrix]:
        if not self._seen_forward:
            raise RuntimeError(f"{self.label}: backward called before forward")
        return upstream, upstream
