import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
    dropout_masks,
    inverse_sd,
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
        np.testing.assert_array_equal(activation_forward("relu", z)[0], [[0.0, 3.0]])

    def test_elu_zero_at_zero(self):
        assert activation_forward("elu", np.array([[0.0]]))[0][0, 0] == 0.0

    def test_elu_negative_formula(self):
        out, _ = activation_forward("elu", np.array([[-1.0]]))
        assert out[0, 0] == pytest.approx(math.expm1(-1.0))   # ~ -0.63212

    def test_elu_saturates_at_minus_one(self):
        assert activation_forward("elu", np.array([[-50.0]]))[0][0, 0] == -1.0

    def test_relu_equals_elu_for_nonnegative(self):
        z = np.linspace(0.0, 8.0, 33).reshape(3, 11)
        np.testing.assert_array_equal(activation_forward("relu", z)[0],
                                      activation_forward("elu", z)[0])

    def test_tanh_and_linear(self):
        z = np.array([[0.5, -0.5]])
        np.testing.assert_allclose(activation_forward("tanh", z)[0], np.tanh(z))
        out, kept = activation_forward("linear", z)
        assert out is z and kept is None

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation_forward("sigmoid", np.zeros((1, 1)))


def elu_kept(z):
    """The array an ELU forward keeps for z, which its backward reads."""
    return activation_forward("elu", np.array(z))[1]


class TestActivationBackward:
    def test_relu_gates_upstream(self):
        out = activation_backward("relu", np.array([[2.0, -2.0]]), np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(out, [[5.0, 0.0]])

    def test_relu_derivative_zero_at_zero(self):
        out = activation_backward("relu", np.array([[0.0]]), np.array([[7.0]]))
        assert out[0, 0] == 0.0

    def test_elu_derivative_one_at_zero(self):
        out = activation_backward("elu", elu_kept([[0.0]]), np.array([[7.0]]))
        assert out[0, 0] == 7.0

    def test_elu_derivative_is_continuous_at_zero(self):
        out = activation_backward("elu", elu_kept([[-1e-300]]), np.array([[7.0]]))
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
            return float((activation_forward(kind, z)[0] * up).sum())

        analytic = activation_backward(kind, activation_forward(kind, z)[1], up)
        np.testing.assert_allclose(analytic, numeric_grad(loss, z), rtol=1e-5, atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            activation_backward("relu", np.zeros((2, 2)), np.zeros((2, 3)))


def assert_same_bits(got, want):
    """Equal shape and equal bytes, so 0.0 and -0.0 count as different."""
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_elu_is_bit_identical_to_where_reference():
    rng = np.random.default_rng(11)
    z = np.concatenate([rng.normal(scale=3.0, size=(20, 6)),
                        [[0.0, -0.0, -30.0, -745.0, -1e300, 1e-310],
                         [709.0, 710.0, 800.0, 1e300, np.inf, -np.inf]]])
    upstream = rng.normal(size=z.shape)
    upstream[-2, :3] = [0.0, -0.0, -2.5]
    upstream[-1] = 0.0     # exp(z) overflows here, so an unclipped exp * 0 is nan
    with np.errstate(over="ignore", invalid="ignore"):
        forward_ref = np.where(z >= 0.0, z, np.expm1(z))
        backward_ref = upstream * np.where(z >= 0.0, 1.0, np.exp(z))
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # no overflow or invalid-value warnings either
        forward, kept = activation_forward("elu", z)
        backward = activation_backward("elu", kept, upstream)
    assert_same_bits(forward, forward_ref)
    assert_same_bits(backward, backward_ref)


EXPONENT, QUIET = np.uint64(0x7FF0_0000_0000_0000), np.uint64(1 << 51)
# any sign, any mantissa, and an exponent that is often all zeros (±0 and subnormals)
# or all ones (±inf and NaNs of any payload); and the points where expm1 and exp
# reach -1, round to 0 or overflow
FLOAT_BITS = st.one_of(
    st.sampled_from(np.array([-1e-310, -40.0, -745.0, 709.0, 710.0]).view(np.uint64).tolist()),
    st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
              st.integers(0, 1), st.one_of(st.sampled_from([0, 0x7FF]), st.integers(0, 0x7FF)),
              st.integers(0, 2 ** 52 - 1)))


@settings(deadline=None)
@given(hnp.arrays(np.uint64, st.tuples(st.just(2), st.integers(1, 4), st.integers(1, 6)),
                  elements=FLOAT_BITS))
def test_kernels_are_bit_identical_to_where_and_tanh_references_on_any_float(bits):
    # a signaling NaN (all exponent bits, quiet bit clear, a payload) is made quiet
    # first: max(z, expm1(min(0, z))) may hand one back unquieted, as libm's expm1
    # may, where an add or a multiply quiets it; no arithmetic makes one, and an
    # activation's input is the output of a dense layer or an add
    nan = ((bits & EXPONENT) == EXPONENT) & ((bits << np.uint64(12)) != 0)
    z, upstream = np.where(nan, bits | QUIET, bits).view(np.float64)
    with np.errstate(all="ignore"):
        elu_forward = np.where(z >= 0.0, z, np.expm1(z))
        elu_backward = np.where(z >= 0.0, 1.0, np.exp(z)) * upstream
        t = np.tanh(z)
        tanh_backward = upstream * (1.0 - t * t)
        out, kept = activation_forward("elu", z)
        assert_same_bits(out, elu_forward)
        assert_same_bits(activation_backward("elu", kept, upstream), elu_backward)
        out, kept = activation_forward("tanh", z)
        assert out is kept
        assert_same_bits(out, t)
        assert_same_bits(activation_backward("tanh", kept, upstream), tanh_backward)


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

        layer.forward(x, train=True)
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
        layer.forward(x, train=True)
        dx = layer.backward(up)
        assert_same_bits(layer.dW, up.T @ x)
        assert_same_bits(layer.db, up.sum(axis=0, keepdims=True).T)
        assert_same_bits(dx, up @ layer.W)

    @pytest.mark.parametrize("n, n_in, n_out", [(2, 1, 1), (100, 32, 16), (1000, 256, 128)])
    def test_forward_is_bit_identical_to_matmul_plus_bias(self, n, n_in, n_out):
        rng = np.random.default_rng(n + n_out)
        layer = DenseLayer(n_in, n_out)
        layer.W[...] = rng.normal(size=(n_out, n_in))
        layer.b[...] = rng.normal(size=(n_out, 1))
        x = rng.normal(size=(n, n_in))
        assert_same_bits(layer.forward(x), x @ layer.W.T + layer.b.T)

    def test_gradient_shapes_mirror_parameters(self):
        layer = DenseLayer(4, 3)
        layer.forward(np.zeros((2, 4)), train=True)
        layer.backward(np.ones((2, 3)))
        assert layer.dW.shape == layer.W.shape
        assert layer.db.shape == layer.b.shape

    def test_shape_error(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            DenseLayer(3, 2).forward(np.zeros((2, 4)))

    def test_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            DenseLayer(2, 2).backward(np.zeros((1, 2)))


@pytest.mark.parametrize("step", [DenseLayer(2, 2), Activation("elu")], ids=["dense", "activation"])
def test_backward_after_only_an_inference_forward_is_rejected(step):
    step.forward(np.ones((3, 2)))
    with pytest.raises(RuntimeError, match="before a train-mode forward"):
        step.backward(np.ones((3, 2)))


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
        np.testing.assert_array_equal(bn.forward(x, False, inverse_sd(bn.running_var)),
                                      bn.forward(x, False, inverse_sd(bn.running_var)))

    def test_running_stats_momentum_blend(self):
        # the layer only records its batch stats; the network that owns it
        # blends them into the running stats at BN_MOMENTUM = 0.9
        x = np.array([[0.0], [2.0]])   # mean 1, population var 1
        alone = BatchNormLayer(1)
        alone.forward(x, train=True)
        assert (alone.batch_mean[0, 0], alone.batch_var[0, 0]) == (1.0, 1.0)
        assert (alone.running_mean[0, 0], alone.running_var[0, 0]) == (0.0, 1.0)
        # a linear dense layer of weight 1 before the network's first batch norm hands it x
        net = Network(NetworkSpec(nfea=1, nnode=(1,), k=1, acts="linear", dropout_rate=0.0,
                                  residual="off"))
        dense, bn = net.steps[0], net.steps[2]
        assert isinstance(dense, DenseLayer) and isinstance(bn, BatchNormLayer)
        dense.W[...] = 1.0
        net.forward(x, "train")
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


def seeded_batchnorm(width, seed):
    """A batch-norm layer with random affine parameters and running stats."""
    rng = np.random.default_rng(seed)
    bn = BatchNormLayer(width)
    bn.gamma[...] = rng.normal(size=(1, width))
    bn.beta[...] = rng.normal(size=(1, width))
    bn.running_mean[...] = rng.normal(size=(1, width))
    bn.running_var[...] = rng.uniform(0.5, 2.0, size=(1, width))
    return bn


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


@pytest.mark.parametrize("batch", [2, 100, 1000])
@pytest.mark.parametrize("width", [1, 4, 256])
def test_batchnorm_inference_is_bit_identical_to_running_stats_reference(batch, width):
    bn = seeded_batchnorm(width, seed=batch + width)
    x = np.random.default_rng(width).normal(loc=3.0, scale=2.5, size=(batch, width))
    x[0, 0] = -0.0
    inv = 1.0 / np.sqrt(bn.running_var + BN_EPSILON)
    assert_same_bits(bn.forward(x, False, inverse_sd(bn.running_var)),
                     bn.gamma * ((x - bn.running_mean) * inv) + bn.beta)


class TestDropout:
    def test_infer_is_identity(self):
        layer = DropoutLayer(0.4)
        x = np.random.default_rng(0).normal(size=(6, 5))
        assert layer.forward(x, train=False) is x

    def test_rate_zero_is_identity_in_train(self):
        layer = DropoutLayer(0.0)
        x = np.random.default_rng(1).normal(size=(6, 5))
        assert layer.forward(x, True, dropout_masks(Rng(0), 0.0, 6, [(0, 5)])[0]) is x

    def test_train_preserves_expectation(self):
        layer = DropoutLayer(0.3)
        rng = Rng(42)
        x = np.ones((10_000, 1))
        out = layer.forward(x, True, dropout_masks(rng, 0.3, 10_000, [(0, 1)])[0])
        # kept entries scale to 1/0.7; mean stays 1 within 3 standard errors
        se = np.sqrt(0.3 / 0.7 / 10_000)
        assert abs(out.mean() - 1.0) < 3 * se

    def test_backward_applies_same_mask(self):
        layer = DropoutLayer(0.5)
        x = np.ones((4, 4))
        out = layer.forward(x, True, dropout_masks(Rng(3), 0.5, 4, [(0, 4)])[0])
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
    return {"kind": "activation", "fn": fn}


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
    act.forward(z, train=True)
    up = np.ones((3, 3))
    np.testing.assert_allclose(act.backward(up), 1.0 - np.tanh(z) ** 2)
    with pytest.raises(RuntimeError):
        Activation("relu").backward(up)


def test_a_train_pass_keeps_one_array_per_non_linear_activation_and_inference_none():
    spec = NetworkSpec(nfea=3, nnode=(5, 4, 2), k=1, acts=("elu", "tanh", "relu"),
                       dropout_rate=0.0)
    net = build_network(spec, rng=0)
    x = np.random.default_rng(1).normal(size=(6, 3))
    activations = [step for step in net.steps if isinstance(step, Activation)]
    assert {a.kind for a in activations} == {"elu", "tanh", "relu", "linear"}
    net.forward(x)
    assert all(a.kept is None for a in activations)
    net.forward(x, "train")
    kept = [a.kept for a in activations]
    for a, array in zip(activations, kept):
        if a.kind == "linear":
            assert array is None
        else:
            assert isinstance(array, np.ndarray) and array.shape[0] == 6
    non_linear = [array for a, array in zip(activations, kept) if a.kind != "linear"]
    assert len({id(array) for array in non_linear}) == len(non_linear)
    net.forward(x)       # an inference pass leaves the train pass's arrays in place
    assert all(a.kept is array for a, array in zip(activations, kept))


WIDTH = 5


def _step(name):
    """A step of every kind the network builds, by test id, with random parameters."""
    rng = np.random.default_rng(4)
    if name == "dense":
        layer = DenseLayer(WIDTH, WIDTH)
        layer.W[...] = rng.normal(size=layer.W.shape)
        layer.b[...] = rng.normal(size=layer.b.shape)
        return layer
    if name.startswith("batchnorm"):
        return seeded_batchnorm(WIDTH, seed=4)
    if name.startswith("dropout"):
        return DropoutLayer(0.3)
    return Activation(name)


# the three kernels that fill an array they just made, and the arrays they read
REWRITTEN = {"dense": ("W", "b"), "elu": (),
             "batchnorm-infer": ("gamma", "beta", "running_mean", "running_var")}


@pytest.mark.parametrize("name", ["dense", "relu", "elu", "tanh", "linear",
                                  "batchnorm-train", "batchnorm-infer",
                                  "dropout-train", "dropout-infer"])
def test_no_step_writes_into_its_input_upstream_or_output(name):
    rng = np.random.default_rng(5)
    x, upstream = rng.normal(size=(8, WIDTH)), rng.normal(size=(8, WIDTH))
    x[0, :2], upstream[0, :2] = [0.0, -0.0], [-0.0, 0.0]
    step = _step(name)
    scale = {"batchnorm-infer": inverse_sd(np.full((1, WIDTH), 0.5)),
             "dropout-train": dropout_masks(Rng(0), 0.3, 8, [(0, WIDTH)])[0]}.get(name)
    given = (x.tobytes(), upstream.tobytes(), None if scale is None else scale.tobytes())
    out = step.forward(x, not name.endswith("-infer"), scale)
    returned = out.tobytes()
    kept = getattr(step, "kept", None)      # what an activation's backward reads
    kept_bytes = None if kept is None else kept.tobytes()
    if name == "elu":                       # min(0, z), apart from the output
        assert not np.shares_memory(out, kept) and not np.shares_memory(kept, x)
    if name != "batchnorm-infer":    # a batch-norm backward needs a train-mode forward
        grad = step.backward(upstream)
        if name == "elu":            # the rewritten backward
            assert not np.shares_memory(grad, x) and not np.shares_memory(grad, upstream)
    assert (x.tobytes(), upstream.tobytes(), None if scale is None else scale.tobytes()) == given
    assert out.tobytes() == returned
    assert (None if kept is None else kept.tobytes()) == kept_bytes
    if name in REWRITTEN:
        for array in (x, scale, *(getattr(step, attr) for attr in REWRITTEN[name])):
            assert array is None or not np.shares_memory(out, array)


def test_shortcut_steps_write_into_no_array_they_are_given():
    shallow, deep, up_add, up_save = np.random.default_rng(6).normal(size=(4, 8, WIDTH))
    given = [a.tobytes() for a in (shallow, deep, up_add, up_save)]
    save, add = shortcut(WIDTH, shallow)
    out = add.forward(deep)
    returned = out.tobytes()
    add.backward(up_add)
    save.backward(up_save)
    assert [a.tobytes() for a in (shallow, deep, up_add, up_save)] == given
    assert out.tobytes() == returned
