import json
import math
from dataclasses import replace

import numpy as np
import pytest

from resae.data import generate_simulated, split
from resae.layers import DenseLayer
from resae.network import NetworkSpec, Predictions, build_network
from resae.training import (
    Adam,
    FittedModel,
    LossSpec,
    Regularizer,
    SgdMomentum,
    TrainConfig,
    TrainingDiverged,
    fit,
    gradient_check,
    loss_and_head_gradient,
    make_spec,
    train_model,
)


def preds_for(head, k):
    if head.shape[1] == k:
        return Predictions(y=head, reconstruction=None, head=head)
    return Predictions(y=head[:, :k], reconstruction=head[:, k:], head=head)


class TestLoss:
    def test_perfect_fit_is_zero(self):
        y = np.array([[1.0], [2.0]])
        value, grad = loss_and_head_gradient(LossSpec("mse"), preds_for(y.copy(), 1), y)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_half_squared_error_convention(self):
        value, grad = loss_and_head_gradient(
            LossSpec("mse"), preds_for(np.array([[2.0]]), 1), np.array([[0.0]]))
        assert value == pytest.approx(2.0)   # (1/2) * 4
        np.testing.assert_allclose(grad, [[2.0]])

    def test_reconstruction_term_added(self):
        head = np.array([[1.0, 0.5, -0.5]])
        inputs = np.array([[0.0, 0.0]])
        targets = np.array([[0.0]])
        base, _ = loss_and_head_gradient(LossSpec("mse"), preds_for(head, 1), targets)
        both, grad = loss_and_head_gradient(
            LossSpec("mse_reconstruction"), preds_for(head, 1), targets, inputs=inputs)
        assert base == pytest.approx(0.5)
        assert both == pytest.approx(0.5 + 0.5 * (0.25 + 0.25))
        assert both >= base   # reconstruction term is non-negative
        np.testing.assert_allclose(grad, [[1.0, 0.5, -0.5]])

    def test_reconstruction_weight_scales_term(self):
        head = np.array([[1.0, 2.0, 2.0]])
        inputs = np.zeros((1, 2))
        targets = np.array([[1.0]])
        half, _ = loss_and_head_gradient(
            LossSpec("mse_reconstruction", reconstruction_weight=0.5),
            preds_for(head, 1), targets, inputs=inputs)
        assert half == pytest.approx(0.5 * (4.0 + 4.0) / 2.0)

    def test_option2_without_reconstruction_rejected(self):
        with pytest.raises(ValueError, match="reconstruction"):
            loss_and_head_gradient(LossSpec("mse_reconstruction"),
                                   preds_for(np.zeros((2, 1)), 1), np.zeros((2, 1)))

    def test_cross_entropy_values(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        targets = np.array([[0.0], [1.0]])
        value, _ = loss_and_head_gradient(LossSpec("cross_entropy"),
                                          preds_for(logits, 2), targets)
        assert value == pytest.approx(0.0, abs=1e-6)
        uniform = np.zeros((4, 3))
        value, _ = loss_and_head_gradient(LossSpec("cross_entropy"),
                                          preds_for(uniform, 3),
                                          np.array([[0.0], [1.0], [2.0], [0.0]]))
        assert value == pytest.approx(math.log(3.0))

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        value, grad = loss_and_head_gradient(LossSpec("cross_entropy"),
                                             preds_for(logits, 3), np.array([[1.0]]))
        z = np.exp(logits - logits.max())
        p = z / z.sum()
        expected = p.copy()
        expected[0, 1] -= 1.0
        np.testing.assert_allclose(grad, expected)

    def test_bad_class_index_rejected(self):
        with pytest.raises(ValueError, match="class indices"):
            loss_and_head_gradient(LossSpec("cross_entropy"),
                                   preds_for(np.zeros((1, 2)), 2), np.array([[5.0]]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LossSpec("huber")

    def test_invalid_loss_rejected_when_made(self):
        with pytest.raises(ValueError, match="unknown loss kind 'huber'"):
            LossSpec("huber")
        for weight in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="reconstruction_weight must be >= 0"):
                LossSpec("mse_reconstruction", reconstruction_weight=weight)

    def test_losses_are_non_negative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, k, m = int(rng.integers(1, 9)), int(rng.integers(1, 4)), 3
            head = rng.normal(size=(n, k + m)) * rng.uniform(0.1, 10)
            targets = rng.normal(size=(n, k)) * rng.uniform(0.1, 10)
            inputs = rng.normal(size=(n, m))
            v, _ = loss_and_head_gradient(LossSpec("mse"), preds_for(head, k), targets)
            assert v >= 0.0
            v, _ = loss_and_head_gradient(LossSpec("mse_reconstruction"),
                                          preds_for(head, k), targets, inputs=inputs)
            assert v >= 0.0
            classes = np.asarray(rng.integers(0, k, size=(n, 1)), dtype=np.float64)
            v, _ = loss_and_head_gradient(LossSpec("cross_entropy"),
                                          preds_for(head, k), classes)
            assert v >= 0.0


class TestRegularizer:
    @pytest.mark.parametrize("kind, coefficient, match", [
        ("L2", 1e-3, "unknown regularizer 'L2'"), ("ridge", 0.1, "unknown regularizer"),
        ("l1", -1e-3, "coefficient must be >= 0"), ("l2", float("nan"), "coefficient must be >= 0"),
    ])
    def test_invalid_regularizer_rejected_when_made(self, kind, coefficient, match):
        with pytest.raises(ValueError, match=match):
            Regularizer(kind, coefficient)

    def test_zero_coefficient_contributes_nothing(self):
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0), rng=0)
        params = net.parameters()
        reg = Regularizer("l2", 0.0)
        assert reg.value(params) == 0.0
        net.flat.grad[...] = np.arange(net.flat.grad.size)
        before = net.flat.grad.copy()
        reg.add_gradients(net.flat)
        np.testing.assert_array_equal(before, net.flat.grad)

    def test_l2_value_and_gradient(self):
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0,
                                        use_batchnorm=False), rng=1)
        params = net.parameters()
        lam = 0.01
        reg = Regularizer("l2", lam)
        expected = lam * sum(float((p.value ** 2).sum()) for p in params)
        assert reg.value(params) == pytest.approx(expected)
        net.flat.grad[...] = 0.0
        reg.add_gradients(net.flat)     # each parameter's grad is a view of net.flat.grad
        for p in params:
            np.testing.assert_allclose(p.grad, 2 * lam * p.value)

    def test_l1_gradient_is_sign(self):
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0,
                                        use_batchnorm=False), rng=2)
        params = net.parameters()
        reg = Regularizer("l1", 0.5)
        net.flat.grad[...] = 0.0
        reg.add_gradients(net.flat)
        for p in params:
            np.testing.assert_allclose(p.grad, 0.5 * np.sign(p.value))

    def test_l2_matches_finite_differences_through_gradient_check(self):
        spec = NetworkSpec(nfea=4, nnode=(5,), k=1, acts="tanh", dropout_rate=0.0)
        net = build_network(spec, rng=3)
        x = np.random.default_rng(0).normal(size=(6, 4))
        y = np.random.default_rng(1).normal(size=(6, 1))
        err = gradient_check(net, x, y, LossSpec("mse"),
                             regularizer=Regularizer("l2", 0.05), n_sample=80)
        assert err < 1e-5


class TestOptimizers:
    def test_sgd_zero_gradient_fixed_point(self):
        from resae.network import Param
        value = np.array([[1.0, -2.0]])
        p = Param("w", value, np.zeros_like(value))
        SgdMomentum(p, momentum=0.0).step(lr=0.1)
        np.testing.assert_array_equal(p.value, [[1.0, -2.0]])

    def test_sgd_single_step(self):
        from resae.network import Param
        p = Param("w", np.array([[1.0]]), np.array([[1.0]]))
        SgdMomentum(p, momentum=0.0).step(lr=0.1)
        assert p.value[0, 0] == pytest.approx(0.9)

    def test_sgd_momentum_accumulates(self):
        from resae.network import Param
        p = Param("w", np.array([[0.0]]), np.array([[1.0]]))
        opt = SgdMomentum(p, momentum=0.5)
        opt.step(lr=1.0)    # v = 1, w = -1
        opt.step(lr=1.0)    # v = 1.5, w = -2.5
        assert p.value[0, 0] == pytest.approx(-2.5)

    def test_adam_first_step_matches_hand_computation(self):
        from resae.network import Param
        g = 0.3
        p = Param("w", np.array([[2.0]]), np.array([[g]]))
        opt = Adam(p, beta1=0.9, beta2=0.999, epsilon=1e-8)
        opt.step(lr=0.1)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = 2.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
        assert p.value[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_adam_two_steps_match_hand_stepped_oracle(self):
        from resae.network import Param
        grads = [0.3, -0.2]
        p = Param("w", np.array([[1.0]]), np.array([[0.0]]))
        opt = Adam(p)
        w, m, v = 1.0, 0.0, 0.0
        for t, g in enumerate(grads, start=1):
            p.grad[...] = g
            opt.step(lr=0.05)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            w -= 0.05 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert p.value[0, 0] == pytest.approx(w, rel=1e-12)


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


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_flat_step_is_bit_identical_to_per_array_steps(optimizer):
    spec = NetworkSpec(nfea=5, nnode=(8, 4), k=2, dropout_placement="all")
    net = build_network(spec, rng=6)
    opt = TrainConfig(optimizer=optimizer).make_optimizer(net.flat)
    arrays = [(p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value))
              for p in net.parameters()]
    rng = np.random.default_rng(7)
    for t in (1, 2):    # the second step exercises momentum and Adam's bias correction
        preds = net.forward(rng.normal(size=(10, 5)), "train")
        net.backward(rng.normal(size=preds.head.shape))
        grads = [p.grad.copy() for p in net.parameters()]
        opt.step(0.01)
        if optimizer == "adam":
            arrays = [adam_reference(w, m, v, g, t, 0.01)
                      for (w, m, v), g in zip(arrays, grads)]
        else:
            arrays = [(*sgd_reference(w, vel, g, 0.01), None)
                      for (w, vel, _), g in zip(arrays, grads)]
        for p, (w, *_) in zip(net.parameters(), arrays):
            np.testing.assert_array_equal(p.value, w)


@pytest.mark.parametrize("field, value", [
    ("early_stop_patience", 0), ("early_stop_patience", -7),
    ("adam_beta1", 1.0), ("adam_beta1", -0.1), ("adam_beta2", 1.5), ("adam_beta2", float("nan")),
    ("momentum", 1.0), ("momentum", -3.0), ("momentum", float("nan")),
    ("adam_epsilon", 0.0), ("adam_epsilon", -1e-3), ("adam_epsilon", float("nan")),
])
def test_train_config_rejects_values_it_would_reinterpret(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", 32.9, "batch_size must be an integer, got 32.9"),
    ("batch_size", True, "batch_size must be an integer, got true"),
    ("shuffle", "false", 'shuffle must be true or false, got "false"'),
    ("optimizer", None, "optimizer must be a string"),
    *(("learning_rate", value, "learning_rate must be >= 0 and finite")
      for value in (float("nan"), float("inf"), -1e-3)),
])
def test_train_config_checks_types_and_ranges_when_made(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        replace(TrainConfig(), **{field: value})


@pytest.mark.parametrize("make", [lambda: LossSpec("mse", "1.0"), lambda: LossSpec(None),
                                  lambda: Regularizer("l2", None), lambda: Regularizer(2)])
def test_loss_and_regularizer_check_types_when_made(make):
    with pytest.raises(ValueError, match="must be a"):
        make()


def tiny_linear_dataset(n=160, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (2.0 * x[:, 0] - x[:, 1]).reshape(-1, 1)
    return x, y


class TestFit:
    def _net_and_data(self, seed=0):
        x, y = tiny_linear_dataset()
        spec = NetworkSpec(nfea=2, nnode=(6, 3), k=1, acts="elu", dropout_rate=0.0)
        net = build_network(spec, rng=seed)
        return net, x[:120], y[:120], x[120:], y[120:]

    def test_zero_learning_rate_is_fixed_point(self):
        net, xtr, ytr, xv, yv = self._net_and_data()
        before = {p.name: p.value.copy() for p in net.parameters()}
        fit(net, xtr, ytr, xv, yv, LossSpec("mse"),
            TrainConfig(batch_size=32, max_epochs=5, learning_rate=0.0, seed=1))
        for p in net.parameters():
            np.testing.assert_array_equal(p.value, before[p.name])

    def test_linear_toy_reaches_high_r2(self):
        from resae.evaluation import r2
        x, y = tiny_linear_dataset(n=300, seed=3)
        spec = NetworkSpec(nfea=2, nnode=(8, 4), k=1, acts="elu", dropout_rate=0.0)
        net = build_network(spec, rng=1)
        xtr, ytr, xv, yv = x[:240], y[:240], x[240:], y[240:]
        fit(net, xtr, ytr, xv, yv, LossSpec("mse"),
            TrainConfig(batch_size=32, max_epochs=200, learning_rate=3e-3, seed=2))
        pred = net.forward(xv, "infer").y
        assert r2(yv, pred) > 0.99

    def test_history_and_early_stop_restore(self):
        net, xtr, ytr, xv, yv = self._net_and_data(seed=4)
        cfg = TrainConfig(batch_size=32, max_epochs=60, learning_rate=5e-3,
                          early_stop_patience=10, seed=3)
        history = fit(net, xtr, ytr, xv, yv, LossSpec("mse"), cfg)
        assert len(history) <= 60
        assert history.best_epoch == int(np.argmin(history.val_loss))
        # restored parameters reproduce the minimum recorded validation loss
        preds = net.forward(xv, "infer")
        value, _ = loss_and_head_gradient(LossSpec("mse"), preds, yv)
        assert value == pytest.approx(min(history.val_loss), rel=1e-9)

    def test_early_stop_restores_the_best_epochs_state_bit_for_bit(self):
        # a run cut off after its best epoch ends in the state an early stop restores
        cfg = TrainConfig(batch_size=32, max_epochs=60, learning_rate=5e-2,
                          early_stop_patience=4, seed=3)
        net, xtr, ytr, xv, yv = self._net_and_data(seed=4)
        history = fit(net, xtr, ytr, xv, yv, LossSpec("mse"), cfg)
        assert history.best_epoch < len(history) - 1
        cut, *_ = self._net_and_data(seed=4)
        fit(cut, xtr, ytr, xv, yv, LossSpec("mse"),
            replace(cfg, max_epochs=history.best_epoch + 1))
        assert json.dumps(net.to_dict()) == json.dumps(cut.to_dict())

    def test_determinism(self):
        runs = []
        for _ in range(2):
            net, xtr, ytr, xv, yv = self._net_and_data(seed=7)
            history = fit(net, xtr, ytr, xv, yv, LossSpec("mse"),
                          TrainConfig(batch_size=16, max_epochs=12, seed=11))
            runs.append((history.to_rows(), {p.name: p.value.copy()
                                             for p in net.parameters()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_zero_coefficient_regularizer_reproduces_plain_run(self):
        results = []
        for reg in (None, Regularizer("l2", 0.0)):
            net, xtr, ytr, xv, yv = self._net_and_data(seed=9)
            history = fit(net, xtr, ytr, xv, yv, LossSpec("mse"),
                          TrainConfig(batch_size=32, max_epochs=8, seed=5),
                          regularizer=reg)
            results.append(history.to_rows())
        assert results[0] == results[1]

    def test_divergence_reported_with_location(self):
        x, y = tiny_linear_dataset()
        spec = NetworkSpec(nfea=2, nnode=(6, 3), k=1, acts="elu",
                           dropout_rate=0.0, use_batchnorm=False,
                           residual_post_op="activation")
        net = build_network(spec, rng=2)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingDiverged) as info:
                fit(net, x[:120], y[:120], x[120:], y[120:], LossSpec("mse"),
                    TrainConfig(batch_size=32, max_epochs=50, optimizer="sgd",
                                learning_rate=1e12, seed=1))
        assert info.value.epoch >= 0

    def test_history_csv(self, tmp_path):
        net, xtr, ytr, xv, yv = self._net_and_data(seed=5)
        history = fit(net, xtr, ytr, xv, yv, LossSpec("mse"),
                      TrainConfig(batch_size=32, max_epochs=4, seed=1))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_metric"
        assert len(lines) == len(history) + 1


class TestGradientCheck:
    def test_linear_network_is_exact(self):
        spec = NetworkSpec(nfea=4, nnode=(5,), k=1, acts="linear",
                           output_activation="linear", dropout_rate=0.0,
                           use_batchnorm=False, residual_post_op="none")
        net = build_network(spec, rng=1)
        x = np.random.default_rng(0).normal(size=(8, 4))
        y = np.random.default_rng(1).normal(size=(8, 1))
        assert gradient_check(net, x, y, LossSpec("mse"), n_sample=200) < 1e-8

    def test_elu_tanh_residual_network(self):
        spec = NetworkSpec(nfea=5, nnode=(7, 4), k=2, acts=("elu", "tanh"),
                           dropout_rate=0.1, output_option=2)
        net = build_network(spec, rng=2)
        x = np.random.default_rng(2).normal(size=(8, 5))
        y = np.random.default_rng(3).normal(size=(8, 2))
        assert gradient_check(net, x, y, LossSpec("mse_reconstruction"),
                              n_sample=200) < 1e-4

    def test_relu_network_away_from_kinks(self):
        spec = NetworkSpec(nfea=4, nnode=(6, 3), k=1, acts="relu",
                           dropout_rate=0.0, use_batchnorm=False,
                           residual_post_op="activation")
        net = build_network(spec, rng=6)
        x = np.random.default_rng(5).normal(size=(6, 4)) + 0.3
        y = np.random.default_rng(6).normal(size=(6, 1))
        assert gradient_check(net, x, y, LossSpec("mse"), n_sample=200, eps=1e-6) < 1e-4

    def test_cross_entropy_head(self):
        spec = NetworkSpec(nfea=4, nnode=(6,), k=3, acts="tanh", dropout_rate=0.0)
        net = build_network(spec, rng=3)
        x = np.random.default_rng(7).normal(size=(9, 4))
        y = np.asarray(np.random.default_rng(8).integers(0, 3, size=(9, 1)), dtype=np.float64)
        assert gradient_check(net, x, y, LossSpec("cross_entropy"), n_sample=150) < 1e-4

    def test_zero_head_gradient_gives_zero_parameter_gradients(self):
        spec = NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0)
        net = build_network(spec, rng=0)
        net.forward(np.random.default_rng(0).normal(size=(4, 3)), "train")
        net.backward(np.zeros((4, 1)))
        for p in net.parameters():
            np.testing.assert_array_equal(p.grad, np.zeros_like(p.grad))

    def test_shortcut_gradient_identity_with_zero_deep_branch(self):
        spec = NetworkSpec(nfea=6, nnode=(8, 4), k=1, acts="elu",
                           residual_post_op="none", dropout_rate=0.0)
        net = build_network(spec, rng=4)
        for pair in net.shortcuts:
            for i in range(pair.add_index - 1, -1, -1):
                if isinstance(net.steps[i], DenseLayer):
                    net.steps[i].W[...] = 0.0
                    break
            preds = net.forward(np.random.default_rng(1).normal(size=(5, 6)), "train")
            trace = {}
            net.backward(np.ones_like(preds.head), trace=trace)
            np.testing.assert_array_equal(trace[("save", pair.slot)],
                                          trace[("add", pair.slot)])


class TestTrainModelPipeline:
    def test_regression_pipeline_and_model_roundtrip(self):
        ds = generate_simulated(n=200, seed=3)
        sp = split(ds, seed=1)
        spec = make_spec(ds, (8, 4), dropout_rate=0.0)
        cfg = TrainConfig(batch_size=32, max_epochs=15, seed=2)
        model = train_model(ds, sp, spec, cfg)
        preds = model.predict(ds.features[sp.test])
        assert preds.shape == (len(sp.test), 1)
        clone = FittedModel.from_dict(model.to_dict())
        np.testing.assert_array_equal(preds, clone.predict(ds.features[sp.test]))

    def test_training_reduces_loss_on_simulated_data(self):
        for seed in range(5):
            ds = generate_simulated(n=300, seed=seed)
            sp = split(ds, seed=seed)
            spec = make_spec(ds, (8, 4))
            model = train_model(ds, sp, spec, TrainConfig(batch_size=50, max_epochs=25,
                                                          seed=seed))
            assert model.history.train_loss[-1] < model.history.train_loss[0]

    def test_classification_pipeline(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(200, 3))
        labels = (x[:, 0] + 0.3 * x[:, 1] > 0).astype(np.float64).reshape(-1, 1)
        from resae.data import Dataset
        ds = Dataset(features=x, targets=labels, feature_names=["a", "b", "c"],
                     target_names=["cls"], task="classification", n_classes=2)
        sp = split(ds, seed=4)
        spec = make_spec(ds, (6, 3), dropout_rate=0.0)
        assert spec.k == 2
        model = train_model(ds, sp, spec, TrainConfig(batch_size=32, max_epochs=40, seed=1))
        probs = model.predict(ds.features[sp.test])
        assert probs.shape == (len(sp.test), 2)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        accuracy = float((probs.argmax(axis=1) == ds.targets[sp.test].ravel()).mean())
        assert accuracy > 0.8

    def test_make_spec_reads_widths_without_coercing_them(self):
        ds = generate_simulated(n=20, seed=0)
        assert make_spec(ds, (8, 4)).nnode == make_spec(ds, [8, 4]).nnode == (8, 4)
        for nnode in ([8.9, "4"], [8, 4.0], [True, 4]):
            with pytest.raises(ValueError, match=r"nnode\[\d\] must be an integer"):
                make_spec(ds, nnode)


def saved_model_document():
    ds = generate_simulated(n=120, seed=3)
    model = train_model(ds, split(ds, seed=1), make_spec(ds, (6, 3), dropout_rate=0.0),
                        TrainConfig(batch_size=32, max_epochs=2, seed=2))
    return json.loads(json.dumps(model.to_dict()))


def _set_weight(doc, index, value):
    doc["network"]["weights"]["L000.dense.W"]["data"][index] = value


class TestModelDocument:
    """A damaged or hand-edited model.json is a ValueError naming the field."""

    def test_saved_document_loads(self):
        doc = saved_model_document()
        assert FittedModel.from_dict(doc).to_dict() == doc

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(task="regresion"), r"task must be one of .*'regresion'"),
        (lambda d: d.update(loss={"kind": "mae"}), r"loss.kind must be one of .*'mae'"),
        (lambda d: _set_weight(d, 3, "0.5"),
         r'weights.L000.dense.W.data\[3\] must be a number, got "0.5"'),
        (lambda d: _set_weight(d, 0, True),
         r"weights.L000.dense.W.data\[0\] must be a number, got true"),
        (lambda d: d["feature_stats"]["sd"].__setitem__(2, 0.0),
         r"feature_stats.sd\[2\] must be >= 1e-12, got 0.0"),
        (lambda d: d["network"].pop("weights"), "weights is missing"),
        (lambda d: d.pop("feature_stats"), "feature_stats is missing"),
    ], ids=["task", "loss-kind", "string-weight", "boolean-weight", "zero-sd",
            "no-weights", "no-feature-stats"])
    def test_bad_document_rejected_naming_field(self, edit, message):
        doc = saved_model_document()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            FittedModel.from_dict(doc)
