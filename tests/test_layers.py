import math
import warnings

import numpy as np
import pytest

from resae.layers import (
    BN_EPSILON,
    BN_MOMENTUM,
    Activation,
    BatchNormLayer,
    DenseLayer,
    DropoutLayer,
    ResidualAddNode,
    ShortcutSave,
    activation_backward,
    activation_forward,
)
from resae.matrix import Rng
from resae.network import Network, NetworkSpec, build_network


def numeric_grad(fn, x, h=1e-5):
    """Central finite differences of a scalar function over an array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn()
        flat[i] = orig - h
        down = fn()
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return g


class TestActivationForward:
    def test_relu_values(self):
        z = np.array([[-2.0, 3.0]])
        np.testing.assert_array_equal(activation_forward("relu", z), [[0.0, 3.0]])

    def test_elu_zero_for_any_alpha(self):
        for alpha in (0.5, 1.0, 2.0):
            assert activation_forward("elu", np.array([[0.0]]), alpha)[0, 0] == 0.0

    def test_elu_negative_formula(self):
        out = activation_forward("elu", np.array([[-1.0]]), alpha=1.0)
        assert out[0, 0] == pytest.approx(math.expm1(-1.0))   # ~ -0.63212

    def test_elu_alpha_scales_negative_branch(self):
        out = activation_forward("elu", np.array([[-2.0]]), alpha=3.0)
        assert out[0, 0] == pytest.approx(3.0 * math.expm1(-2.0))

    def test_relu_equals_elu_for_nonnegative(self):
        z = np.linspace(0.0, 8.0, 33).reshape(3, 11)
        for alpha in (0.3, 1.0, 5.0):
            np.testing.assert_array_equal(activation_forward("relu", z),
                                          activation_forward("elu", z, alpha))

    def test_tanh_and_linear(self):
        z = np.array([[0.5, -0.5]])
        np.testing.assert_allclose(activation_forward("tanh", z), np.tanh(z))
        assert activation_forward("linear", z) is z

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation_forward("sigmoid", np.zeros((1, 1)))


class TestActivationBackward:
    def test_relu_gates_upstream(self):
        out = activation_backward("relu", np.array([[2.0, -2.0]]), np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(out, [[5.0, 0.0]])

    def test_relu_derivative_zero_at_zero(self):
        out = activation_backward("relu", np.array([[0.0]]), np.array([[7.0]]))
        assert out[0, 0] == 0.0

    def test_elu_derivative_one_at_zero(self):
        out = activation_backward("elu", np.array([[0.0]]), np.array([[7.0]]))
        assert out[0, 0] == 7.0

    def test_linear_passthrough(self):
        up = np.random.default_rng(0).normal(size=(4, 3))
        assert activation_backward("linear", np.zeros((4, 3)), up) is up

    @pytest.mark.parametrize("kind", ["tanh", "elu", "linear"])
    def test_smooth_kinds_match_finite_differences(self, kind):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(5, 4))
        up = rng.normal(size=(5, 4))

        def loss():
            return float((activation_forward(kind, z) * up).sum())

        analytic = activation_backward(kind, z, up)
        np.testing.assert_allclose(analytic, numeric_grad(loss, z), rtol=1e-5, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            activation_backward("relu", np.zeros((2, 2)), np.zeros((2, 3)))


def assert_same_bits(got, want):
    """Equal shape and equal bytes, so 0.0 and -0.0 count as different."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_elu_is_bit_identical_to_where_reference(alpha):
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(scale=3.0, size=(20, 6)),
                        [[0.0, -0.0, -30.0, -745.0, -1e300, 1e-310],
                         [709.0, 710.0, 800.0, 1e300, np.inf, -np.inf]]])
    upstream = rng.normal(size=z.shape)
    upstream[-2, :3] = [0.0, -0.0, -2.5]
    upstream[-1] = 0.0     # exp(z) overflows here, so an unclipped exp * 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        forward_ref = np.where(z >= 0.0, z, alpha * np.expm1(z))
        backward_ref = upstream * np.where(z >= 0.0, 1.0, alpha * np.exp(z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no overflow or invalid-value warnings either
        forward = activation_forward("elu", z, alpha)
        backward = activation_backward("elu", z, upstream, alpha)
    assert_same_bits(forward, forward_ref)
    assert_same_bits(backward, backward_ref)


class TestDenseLayer:
    def test_identity_weights(self):
        layer = DenseLayer(3, 3)
        layer.W[...] = np.eye(3)
        x = np.random.default_rng(0).normal(size=(4, 3))
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_direct_arithmetic(self):
        layer = DenseLayer(2, 1)
        layer.W[...] = [[1.0, 1.0]]
        layer.b[...] = [[3.0]]
        np.testing.assert_array_equal(layer.forward(np.array([[2.0, 5.0]])), [[10.0]])

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        layer = DenseLayer(6, 5)
        layer.W[...] = rng.normal(size=(5, 6))
        layer.b[...] = rng.normal(size=(5, 1))
        x = rng.normal(size=(4, 6))
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                expected[i, j] = sum(x[i, t] * layer.W[j, t] for t in range(6)) + layer.b[j, 0]
        np.testing.assert_allclose(layer.forward(x), expected, rtol=0, atol=1e-12)

    def test_backward_gradients(self):
        rng = np.random.default_rng(1)
        layer = DenseLayer(3, 2)
        layer.W[...] = rng.normal(size=(2, 3))
        layer.b[...] = rng.normal(size=(2, 1))
        x = rng.normal(size=(5, 3))
        up = rng.normal(size=(5, 2))

        def loss():
            return float((layer.forward(x) * up).sum())

        layer.forward(x)
        dx = layer.backward(up)
        np.testing.assert_allclose(layer.dW, numeric_grad(loss, layer.W), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(layer.db, numeric_grad(loss, layer.b), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("n, n_in, n_out", [(2, 1, 1), (5, 3, 2), (100, 32, 16)])
    def test_backward_is_bit_identical_to_matmul_and_sum(self, n, n_in, n_out):
        rng = np.random.default_rng(n + n_in)
        layer = DenseLayer(n_in, n_out)
        layer.W[...] = rng.normal(size=(n_out, n_in))
        x = rng.normal(size=(n, n_in))
        up = rng.normal(size=(n, n_out))
        layer.forward(x)
        dx = layer.backward(up)
        assert_same_bits(layer.dW, up.T @ x)
        assert_same_bits(layer.db, up.sum(axis=0, keepdims=True).T)
        assert_same_bits(dx, up @ layer.W)

    def test_gradient_shapes_mirror_parameters(self):
        layer = DenseLayer(4, 3)
        layer.forward(np.zeros((2, 4)))
        layer.backward(np.ones((2, 3)))
        assert layer.dW.shape == layer.W.shape
        assert layer.db.shape == layer.b.shape

    def test_shape_error(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            DenseLayer(3, 2).forward(np.zeros((2, 4)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            DenseLayer(2, 2).backward(np.zeros((1, 2)))


class TestBatchNorm:
    def test_train_normalizes(self):
        bn = BatchNormLayer(4)
        x = np.random.default_rng(0).normal(loc=5.0, scale=3.0, size=(64, 4))
        out = bn.forward(x, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-6
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_affine_shift(self):
        bn = BatchNormLayer(2)
        bn.gamma[...] = 2.0
        bn.beta[...] = 3.0
        x = np.random.default_rng(1).normal(size=(32, 2))
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out.mean(axis=0), [3.0, 3.0], atol=1e-9)

    def test_train_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            BatchNormLayer(2).forward(np.zeros((1, 2)), train=True)

    def test_infer_is_pure_function_of_running_stats(self):
        bn = BatchNormLayer(3)
        bn.forward(np.random.default_rng(2).normal(size=(16, 3)), train=True)
        x = np.random.default_rng(3).normal(size=(5, 3))
        np.testing.assert_array_equal(bn.forward(x, train=False), bn.forward(x, train=False))

    def test_running_stats_momentum_blend(self):
        # the layer only records its batch stats; the network that owns it
        # blends them into the running stats at BN_MOMENTUM = 0.9
        x = np.array([[0.0], [2.0]])   # mean 1, population var 1
        alone = BatchNormLayer(1)
        alone.forward(x, train=True)
        assert (alone.batch_mean[0, 0], alone.batch_var[0, 0]) == (1.0, 1.0)
        assert (alone.running_mean[0, 0], alone.running_var[0, 0]) == (0.0, 1.0)
        bn = BatchNormLayer(1)
        Network(NetworkSpec(nfea=1, nnode=(1,), k=1), [bn], Rng(0)).forward(x, "train")
        assert BN_MOMENTUM == 0.9
        assert bn.running_mean[0, 0] == pytest.approx(0.1 * 1.0)
        assert bn.running_var[0, 0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_backward_before_forward_rejected(self):
        with pytest.raises(RuntimeError):
            BatchNormLayer(2).backward(np.ones((4, 2)))

    def test_zero_upstream_gives_zero_gradients(self):
        bn = BatchNormLayer(3)
        bn.forward(np.random.default_rng(4).normal(size=(8, 3)), train=True)
        dx = bn.backward(np.zeros((8, 3)))
        np.testing.assert_array_equal(dx, np.zeros((8, 3)))
        np.testing.assert_array_equal(bn.dgamma, np.zeros((1, 3)))
        np.testing.assert_array_equal(bn.dbeta, np.zeros((1, 3)))

    def test_dbeta_is_column_sum(self):
        bn = BatchNormLayer(3)
        bn.forward(np.random.default_rng(5).normal(size=(8, 3)), train=True)
        up = np.random.default_rng(6).normal(size=(8, 3))
        bn.backward(up)
        np.testing.assert_allclose(bn.dbeta, up.sum(axis=0, keepdims=True))

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(8, 4)) * 2.0 + 1.0
        up = rng.normal(size=(8, 4))
        bn = BatchNormLayer(4)
        bn.gamma[...] = rng.normal(size=(1, 4))
        bn.beta[...] = rng.normal(size=(1, 4))

        def loss():
            fresh = BatchNormLayer(4)
            fresh.gamma[...] = bn.gamma
            fresh.beta[...] = bn.beta
            return float((fresh.forward(x, train=True) * up).sum())

        bn.forward(x, train=True)
        dx = bn.backward(up)
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(bn.dgamma, numeric_grad(loss, bn.gamma), rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(bn.dbeta, numeric_grad(loss, bn.beta), rtol=1e-5, atol=1e-5)


def batchnorm_reference(bn, x, upstream):
    """Train-mode forward and backward written with np.mean/np.var and .sum,
    for bit-for-bit comparison with the layer."""
    mean = x.mean(axis=0, keepdims=True)
    var = x.var(axis=0, keepdims=True)
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    xhat = (x - mean) * inv
    out = bn.gamma * xhat + bn.beta
    n = x.shape[0]
    dgamma = (upstream * xhat).sum(axis=0, keepdims=True)
    dbeta = upstream.sum(axis=0, keepdims=True)
    dxhat = upstream * bn.gamma
    dx = (inv / n) * (n * dxhat
                      - dxhat.sum(axis=0, keepdims=True)
                      - xhat * (dxhat * xhat).sum(axis=0, keepdims=True))
    return out, mean, var, dx, dgamma, dbeta


@pytest.mark.parametrize("batch", [2, 100, 1000])
@pytest.mark.parametrize("width", [1, 4, 256])
def test_batchnorm_is_bit_identical_to_mean_var_reference(batch, width):
    rng = np.random.default_rng(batch * 1000 + width)
    bn = BatchNormLayer(width)
    bn.gamma[...] = rng.normal(size=(1, width))
    bn.beta[...] = rng.normal(size=(1, width))
    bn.running_mean[...] = rng.normal(size=(1, width))
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=(1, width))
    x = rng.normal(loc=3.0, scale=2.5, size=(batch, width))
    upstream = rng.normal(size=(batch, width))
    running = (bn.running_mean.copy(), bn.running_var.copy())
    expected = batchnorm_reference(bn, x, upstream)
    out = bn.forward(x, train=True)
    dx = bn.backward(upstream)
    for got, want in zip((out, bn.batch_mean, bn.batch_var, dx, bn.dgamma, bn.dbeta),
                         expected):
        np.testing.assert_array_equal(got, want)
    for got, want in zip((bn.running_mean, bn.running_var), running):   # left to the network
        np.testing.assert_array_equal(got, want)


class TestDropout:
    def test_infer_is_identity(self):
        layer = DropoutLayer(0.4)
        x = np.random.default_rng(0).normal(size=(6, 5))
        assert layer.forward(x, train=False, rng=Rng(0)) is x

    def test_rate_zero_is_identity_in_train(self):
        layer = DropoutLayer(0.0)
        x = np.random.default_rng(1).normal(size=(6, 5))
        assert layer.forward(x, train=True, rng=Rng(0)) is x

    def test_train_preserves_expectation(self):
        layer = DropoutLayer(0.3)
        rng = Rng(42)
        x = np.ones((10_000, 1))
        out = layer.forward(x, train=True, rng=rng)
        # kept entries scale to 1/0.7; mean stays 1 within 3 standard errors
        se = np.sqrt(0.3 / 0.7 / 10_000)
        assert abs(out.mean() - 1.0) < 3 * se

    def test_backward_applies_same_mask(self):
        layer = DropoutLayer(0.5)
        x = np.ones((4, 4))
        out = layer.forward(x, train=True, rng=Rng(3))
        g = layer.backward(np.ones((4, 4)))
        np.testing.assert_array_equal(g, out)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            DropoutLayer(1.0)


def shortcut(width, shallow, label=""):
    """A save step that has kept `shallow`, and the add step paired with it."""
    save = ShortcutSave(slot=0, width=width)
    save.forward(shallow)
    return save, ResidualAddNode(save, label=label)


class TestResidualAdd:
    def test_zero_deep_branch_is_identity(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        _, node = shortcut(4, x)
        np.testing.assert_array_equal(node.forward(np.zeros((3, 4))), x)

    def test_direct_sum(self):
        _, node = shortcut(2, np.array([[1.0, 2.0]]))
        out = node.forward(np.array([[0.5, -0.5]]))
        np.testing.assert_array_equal(out, [[1.5, 1.5]])

    def test_backward_none_is_bit_identical_passthrough(self):
        save, node = shortcut(3, np.ones((2, 3)))
        node.forward(np.ones((2, 3)))
        g = np.random.default_rng(1).normal(size=(2, 3))
        assert node.backward(g) is g
        assert save.grad is g

    def test_backward_zero_upstream(self):
        save, node = shortcut(2, np.ones((2, 2)))
        node.forward(np.ones((2, 2)))
        d_deep = node.backward(np.zeros((2, 2)))
        d_shallow = save.backward(np.zeros((2, 2)))
        np.testing.assert_array_equal(d_deep, np.zeros((2, 2)))
        np.testing.assert_array_equal(d_shallow, np.zeros((2, 2)))

    def test_shape_mismatch_names_pair(self):
        _, node = shortcut(16, np.zeros((2, 16)), label="encode width 16 <-> decode width 8")
        with pytest.raises(ValueError, match="encode width 16"):
            node.forward(np.zeros((2, 8)))


def _dense(n_in, n_out):
    return {"kind": "dense", "in": n_in, "out": n_out}


def _act(fn="elu"):
    return {"kind": "activation", "fn": fn, "alpha": 1.0}


def _bn(width):
    return {"kind": "batchnorm", "width": width}


def _save(slot):
    return {"kind": "save", "slot": slot}


def _add(slot):
    return {"kind": "add", "slot": slot}


# nfea 3, nnode (4, 2), dropout 0.25 at the code layer, default post-op
# (activation + batch norm after each shortcut addition), every shortcut on
FULL_ROWS = [
    _save(0), _dense(3, 4), _act(), _bn(4),
    _save(1), _dense(4, 2), _act(), _bn(2), {"kind": "dropout", "rate": 0.25},
    _dense(2, 4), _act(), _bn(4), _add(1), _act(), _bn(4),
    _dense(4, 3), _act(), _bn(3), _add(0), _act(), _bn(3),
    _dense(3, 1), _act("linear"),
]


@pytest.mark.parametrize("residual, rows", [
    ("full", FULL_ROWS),
    (1, [r for r in FULL_ROWS if r not in (_save(1), _add(1))]),
    ("off", [r for r in FULL_ROWS if r["kind"] not in ("save", "add")]),
])
def test_layer_summary_rows_at_each_residual_setting(residual, rows):
    spec = NetworkSpec(nfea=3, nnode=(4, 2), k=1, dropout_rate=0.25, residual=residual)
    assert build_network(spec, rng=0).layer_summary() == rows


def test_activation_layer_caches_preactivation():
    act = Activation("tanh")
    z = np.random.default_rng(0).normal(size=(3, 3))
    act.forward(z)
    up = np.ones((3, 3))
    np.testing.assert_allclose(act.backward(up), 1.0 - np.tanh(z) ** 2)
    with pytest.raises(RuntimeError):
        Activation("relu").backward(up)
