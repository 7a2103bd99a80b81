"""Network steps: dense, activations, batch norm, dropout, and the two ends
of an identity shortcut.

Every step has one interface: forward(x, train=False, scale=None) returns
its output, backward(upstream) returns the gradient with respect to its
input, and summary() returns its row of a serialized network's layer list.
scale is the factor that the pass computes once for every step of a kind:
a dropout step's mask in a train pass (one of dropout_masks), a batch-norm
step's inverse sd in an inference pass (a view of inverse_sd's result); the
other steps ignore it, and no step writes into it.

Conventions: batches are (n, width) float64 matrices; each step caches what
its backward needs during a train-mode forward, and an inference forward
keeps nothing for it, so a backward pairs with the last train-mode forward (a
dense, batch-norm or non-linear activation backward with none raises
RuntimeError); backward writes parameter gradients into preallocated arrays
so optimizer references stay valid.  An activation keeps the one array its
backward reads (see Activation); tanh's is the output it returned, which
stays intact because a kernel works in place only on arrays it allocated in
the same call, never on its input, its cache or an array it returned before.
A layer's PARAMS names its trainable attributes, and the gradient buffer of
attribute X is attribute dX; a Network rebinds both to views of its one flat
parameter vector.  A batch-norm layer's train forward only records its batch
stats; the owning Network blends every layer's into its running stats at
once, with the constant momentum BN_MOMENTUM.

The kernels call numpy through the module-level names below, bound once, with
positional arguments (out= stays a keyword for maximum and minimum, whose
positional out numpy deprecates), and divide by batch sizes as floats: the
same operations in the same order as the plain expressions, with less
dispatch per call."""

from __future__ import annotations

import numpy as np

from .matrix import Matrix, Rng

ACTIVATION_KINDS = ("relu", "elu", "tanh", "linear")
BN_MOMENTUM = 0.9     # running = BN_MOMENTUM * running + (1 - BN_MOMENTUM) * batch
BN_EPSILON = 1e-5

_add, _subtract, _multiply, _divide = np.add, np.subtract, np.multiply, np.divide
_maximum, _minimum, _matmul = np.maximum, np.minimum, np.matmul
_sqrt, _exp, _expm1, _tanh = np.sqrt, np.exp, np.expm1, np.tanh
_sum = np.add.reduce        # _sum(a, axis, dtype, out, keepdims)


def activation_forward(kind: str, z: Matrix) -> tuple[Matrix, Matrix | None]:
    """The activation of z, and the array that activation_backward reads for it:
    min(0, z) for ELU, the output for tanh, z for ReLU and none for linear."""
    if kind == "relu":
        return _maximum(z, 0.0), z
    if kind == "elu":     # ELU with alpha = 1
        # max(z, expm1(min(0, z))) has the bits of np.where(z >= 0, z, expm1(z)) on
        # every input but a signaling NaN, which it may leave unquieted: numpy's
        # minimum returns its second argument on a tie, so a z of -0.0 gives
        # expm1(-0.0) = -0.0; expm1(z) >= z below 0, and never overflows there
        m = _minimum(0.0, z)
        e = _expm1(m)
        _maximum(z, e, out=e)
        return e, m
    if kind == "tanh":
        t = _tanh(z)
        return t, t
    if kind == "linear":
        return z, None
    raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")


def activation_backward(kind: str, kept: Matrix | None, upstream: Matrix) -> Matrix:
    """The gradient with respect to z, from the array activation_forward kept for z."""
    if kind == "linear":
        return upstream
    if kept.shape != upstream.shape:
        raise ValueError(f"activation backward shape mismatch: {kept.shape} vs {upstream.shape}")
    if kind == "relu":
        return _multiply(upstream, kept > 0.0)       # derivative at 0 fixed to 0
    if kind == "elu":     # exp(min(0, z)) is 1 where z >= 0 (so 1 at 0) and never overflows
        e = _exp(kept)
        _multiply(e, upstream, e)
        return e
    if kind == "tanh":    # from its output t: upstream * (1 - t^2), with no second tanh
        g = _multiply(kept, kept)
        _subtract(1.0, g, g)
        return _multiply(upstream, g, g)
    raise ValueError(f"unknown activation {kind!r}, expected one of {ACTIVATION_KINDS}")


def inverse_sd(var: Matrix, out: Matrix | None = None) -> Matrix:
    """1 / sqrt(var + BN_EPSILON), the scale batch norm normalizes by, in out if given."""
    out = _add(var, BN_EPSILON, out)
    _sqrt(out, out)
    return _divide(1.0, out, out)


def dropout_masks(rng: Rng, rate: float, n: int, bounds) -> list[Matrix]:
    """Inverted-dropout masks (entries 0 or 1/(1-rate)) for a pass of n rows
    through dropout steps whose columns, laid end to end, are the ranges
    (lo, hi) of bounds: one draw of n * (last hi) uniforms, thresholded and
    scaled at once.  A step's mask is the (n, hi - lo) view of its block
    n*lo:n*hi of the draw, the blocks whole and in step order, so the masks
    are those of one draw per step, in step order."""
    keep = (rng.uniform(n * bounds[-1][1]) >= rate) / (1.0 - rate)
    return [keep[n * lo:n * hi].reshape(n, hi - lo) for lo, hi in bounds]


class Activation:
    """Pointwise activation step.  A train-mode forward keeps in `kept` the one
    array its backward reads: min(0, z) for ELU, the output for tanh, the
    pre-activation z for ReLU; linear keeps nothing and its backward returns
    upstream itself."""

    def __init__(self, kind: str):
        if kind not in ACTIVATION_KINDS:
            raise ValueError(f"unknown activation {kind!r}")
        self.kind = kind
        self.kept: Matrix | None = None

    def forward(self, z: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        out, kept = activation_forward(self.kind, z)
        if train:
            self.kept = kept
        return out

    def backward(self, upstream: Matrix) -> Matrix:
        if self.kept is None and self.kind != "linear":
            raise RuntimeError("activation backward called before a train-mode forward")
        return activation_backward(self.kind, self.kept, upstream)

    def summary(self) -> dict:
        return {"kind": "activation", "fn": self.kind}


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

    def forward(self, x: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"dense layer expects (n, {self.n_in}) input, got "
                             f"{x.shape}; weights are {self.W.shape}")
        if train:
            self._x = x
        out = _matmul(x, self.W.T)
        _add(out, self.b.T, out)
        return out

    def backward(self, upstream: Matrix) -> Matrix:
        if self._x is None:
            raise RuntimeError("dense backward called before a train-mode forward")
        _matmul(upstream.T, self._x, self.dW)
        _sum(upstream, 0, None, self.db.T, True)
        return _matmul(upstream, self.W)

    def summary(self) -> dict:
        return {"kind": "dense", "in": self.n_in, "out": self.n_out}


class BatchNormLayer:
    """Per-column batch normalization.

    A train-mode forward normalizes with the batch stats and writes them into
    batch_mean and batch_var; the owning Network blends those into
    running_mean and running_var, which an inference forward uses, scaled by
    the inverse sd of running_var that it is given.
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

    def forward(self, x: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        if x.shape[1] != self.width:
            raise ValueError(f"batchnorm expects width {self.width}, got {x.shape}")
        if not train:   # scale is inverse_sd(running_var)
            out = _subtract(x, self.running_mean)    # gamma * ((x - running_mean) * inv) + beta
            _multiply(out, scale, out)
            _multiply(self.gamma, out, out)
            _add(out, self.beta, out)
            return out
        if x.shape[0] < 2:
            raise ValueError(f"batchnorm needs a batch of at least 2 rows in "
                             f"train mode, got {x.shape[0]}")
        # np.mean/np.var's own arithmetic, without their wrappers: column sums
        # divided by n, then the centred batch squared, summed and divided by n;
        # the squares' buffer then takes the output
        n = float(x.shape[0])
        mean = _sum(x, 0, None, self.batch_mean, True)
        _divide(mean, n, mean)
        xhat = _subtract(x, mean)
        out = _multiply(xhat, xhat)
        var = _sum(out, 0, None, self.batch_var, True)
        _divide(var, n, var)                                        # population variance
        inv = inverse_sd(var)
        _multiply(xhat, inv, xhat)
        self._cache = (xhat, inv)
        _multiply(self.gamma, xhat, out)
        _add(out, self.beta, out)
        return out

    def backward(self, upstream: Matrix) -> Matrix:
        if self._cache is None:
            raise RuntimeError("batchnorm backward called before a train-mode forward")
        xhat, inv = self._cache
        n = float(xhat.shape[0])
        t = _multiply(upstream, xhat)
        _sum(t, 0, None, self.dgamma, True)
        _sum(upstream, 0, None, self.dbeta, True)
        dxhat = _multiply(upstream, self.gamma)
        # exact gradient of the train-mode forward (mean and var both depend on x):
        # (inv / n) * (n * dxhat - sum(dxhat) - xhat * sum(dxhat * xhat)),
        # evaluated left to right in the buffers t and dxhat
        col_sum = _sum(dxhat, 0, None, None, True)
        _multiply(dxhat, xhat, t)
        _multiply(xhat, _sum(t, 0, None, None, True), t)
        _multiply(dxhat, n, dxhat)
        _subtract(dxhat, col_sum, dxhat)
        _subtract(dxhat, t, dxhat)
        _multiply(dxhat, _divide(inv, n), dxhat)
        return dxhat

    def summary(self) -> dict:
        return {"kind": "batchnorm", "width": self.width}


class DropoutLayer:
    """Inverted dropout: train-mode masks scale by 1/(1-rate), inference is identity.

    A train-mode forward applies the mask it is given (see dropout_masks) and
    keeps it for backward.  An inference forward leaves the last train-mode
    mask in place; with no mask (rate 0, or no train-mode forward yet)
    backward is identity too."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._mask: Matrix | None = None

    def forward(self, x: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        if not train or self.rate == 0.0:
            return x
        self._mask = scale
        return _multiply(x, scale)

    def backward(self, upstream: Matrix) -> Matrix:
        if self._mask is None:
            return upstream
        return _multiply(upstream, self._mask)

    def summary(self) -> dict:
        return {"kind": "dropout", "rate": self.rate}


class ShortcutSave:
    """Encode end of an identity shortcut: keeps its input as tensor for the add step.

    The add step takes the tensor when it reads it, later in the same pass, so
    no pass leaves rows here.  The add step's backward runs first and sets
    grad; this step's backward adds the encode-path gradient in, so grad ends
    as the save point's total.  A new forward pass drops the last pass's grad.
    """

    def __init__(self, slot: int, width: int):
        self.slot = slot
        self.width = width
        self.tensor: Matrix | None = None
        self.grad: Matrix | None = None

    def forward(self, x: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        self.tensor, self.grad = x, None
        return x

    def backward(self, upstream: Matrix) -> Matrix:
        self.grad = _add(self.grad, upstream)
        return self.grad

    def summary(self) -> dict:
        return {"kind": "save", "slot": self.slot}


class ResidualAddNode:
    """Decode end of an identity shortcut: adds the tensor kept by `save`,
    taking it from `save` as it reads it.

    Backward hands the upstream gradient to the save step and passes it on
    down the deep branch unchanged, so it reads nothing that a forward kept.
    """

    def __init__(self, save: ShortcutSave, label: str = ""):
        self.save = save
        self.slot = save.slot
        self.label = label or f"shortcut slot {save.slot}"

    def forward(self, deep: Matrix, train: bool = False, scale: Matrix | None = None) -> Matrix:
        shallow, self.save.tensor = self.save.tensor, None
        if shallow.shape != deep.shape:
            raise ValueError(f"residual shortcut shape mismatch at {self.label}: "
                             f"encode side {shallow.shape} vs decode side {deep.shape}")
        return _add(shallow, deep)

    def backward(self, upstream: Matrix) -> Matrix:
        self.save.grad = upstream
        return upstream

    def summary(self) -> dict:
        return {"kind": "add", "slot": self.slot}
