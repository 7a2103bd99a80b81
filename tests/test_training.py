import json
import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from plain_reference import adam_reference, plain_fit, sgd_reference
from spec_strategies import network_specs

from resae.data import Dataset, generate_simulated, split
from resae.layers import DenseLayer
from resae.matrix import Rng
from resae.network import NetworkSpec, Predictions, build_network
from resae.training import (
    Adam,
    FittedModel,
    SgdMomentum,
    SharedSettings,
    TrainConfig,
    TrainingDiverged,
    batch_gradients,
    dataset_dims,
    fit,
    gradient_check,
    loss_and_head_gradient,
    loss_kind,
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
        value, grad = loss_and_head_gradient("mse", preds_for(y.copy(), 1), y)
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros((2, 1)))

    def test_half_squared_error_convention(self):
        value, grad = loss_and_head_gradient(
            "mse", preds_for(np.array([[2.0]]), 1), np.array([[0.0]]))
        assert value == pytest.approx(2.0)   # (1/2) * 4
        np.testing.assert_allclose(grad, [[2.0]])

    def test_reconstruction_term_added(self):
        head = np.array([[1.0, 0.5, -0.5]])
        inputs = np.array([[0.0, 0.0]])
        targets = np.array([[0.0]])
        base, _ = loss_and_head_gradient("mse", preds_for(head, 1), targets)
        both, grad = loss_and_head_gradient(
            "mse_reconstruction", preds_for(head, 1), targets, inputs=inputs)
        assert base == pytest.approx(0.5)
        assert both == pytest.approx(0.5 + 0.5 * (0.25 + 0.25))
        assert both >= base   # reconstruction term is non-negative
        np.testing.assert_allclose(grad, [[1.0, 0.5, -0.5]])

    def test_reconstruction_weight_scales_term(self):
        head = np.array([[1.0, 2.0, 2.0]])
        inputs = np.zeros((1, 2))
        targets = np.array([[1.0]])
        half, _ = loss_and_head_gradient("mse_reconstruction", preds_for(head, 1), targets,
                                         inputs, SharedSettings(reconstruction_weight=0.5))
        assert half == pytest.approx(0.5 * (4.0 + 4.0) / 2.0)

    def test_option2_without_reconstruction_rejected(self):
        with pytest.raises(ValueError, match="reconstruction"):
            loss_and_head_gradient("mse_reconstruction",
                                   preds_for(np.zeros((2, 1)), 1), np.zeros((2, 1)))

    def test_cross_entropy_values(self):
        logits = np.array([[10.0, -10.0], [-10.0, 10.0]])
        targets = np.array([[0.0], [1.0]])
        value, _ = loss_and_head_gradient("cross_entropy",
                                          preds_for(logits, 2), targets)
        assert value == pytest.approx(0.0, abs=1e-6)
        uniform = np.zeros((4, 3))
        value, _ = loss_and_head_gradient("cross_entropy",
                                          preds_for(uniform, 3),
                                          np.array([[0.0], [1.0], [2.0], [0.0]]))
        assert value == pytest.approx(math.log(3.0))

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self):
        logits = np.array([[1.0, 2.0, 0.5]])
        value, grad = loss_and_head_gradient("cross_entropy",
                                             preds_for(logits, 3), np.array([[1.0]]))
        z = np.exp(logits - logits.max())
        p = z / z.sum()
        expected = p.copy()
        expected[0, 1] -= 1.0
        np.testing.assert_allclose(grad, expected)

    def test_bad_class_index_rejected(self):
        with pytest.raises(ValueError, match="class indices"):
            loss_and_head_gradient("cross_entropy",
                                   preds_for(np.zeros((1, 2)), 2), np.array([[5.0]]))

    @pytest.mark.parametrize("kind", ["huber", "MSE", None])
    def test_unknown_kind_rejected(self, kind):
        # never scored as cross entropy, which these class-index targets would allow
        with pytest.raises(ValueError, match=rf"^unknown loss kind {kind!r}, expected \("):
            loss_and_head_gradient(kind, preds_for(np.zeros((2, 2)), 2), np.array([[0.0], [1.0]]))

    def test_losses_are_non_negative(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, k, m = int(rng.integers(1, 9)), int(rng.integers(1, 4)), 3
            head = rng.normal(size=(n, k + m)) * rng.uniform(0.1, 10)
            targets = rng.normal(size=(n, k)) * rng.uniform(0.1, 10)
            inputs = rng.normal(size=(n, m))
            v, _ = loss_and_head_gradient("mse", preds_for(head, k), targets)
            assert v >= 0.0
            v, _ = loss_and_head_gradient("mse_reconstruction",
                                          preds_for(head, k), targets, inputs=inputs)
            assert v >= 0.0
            classes = np.asarray(rng.integers(0, k, size=(n, 1)), dtype=np.float64)
            v, _ = loss_and_head_gradient("cross_entropy",
                                          preds_for(head, k), classes)
            assert v >= 0.0


class TestRegularizer:
    @pytest.mark.parametrize("l2, match", [
        (-1e-3, "l2 must be >= 0 and finite, got -0.001"),
        (float("nan"), "l2 must be >= 0 and finite, got nan"),
        (float("inf"), "l2 must be >= 0 and finite, got inf"),
        (True, "l2 must be a number, got true"), (None, "l2 must be a number, got null"),
    ])
    def test_invalid_l2_rejected_when_made(self, l2, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            SharedSettings(l2)

    def _batch(self, l2, seed):
        """batch_gradients on one batch of a fresh network at l2: its value, the
        network's parameters and the loss alone, with its gradient."""
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0,
                                        use_batchnorm=False), rng=seed)
        x = np.random.default_rng(seed).normal(size=(5, 3))
        y = np.random.default_rng(seed + 1).normal(size=(5, 1))
        bare = batch_gradients(net, x, y, "mse", SharedSettings()), net.flat.grad.copy()
        return batch_gradients(net, x, y, "mse", SharedSettings(l2)), net, bare

    def test_zero_l2_contributes_nothing(self):
        value, net, (bare, bare_grad) = self._batch(0.0, 0)
        assert value == bare
        np.testing.assert_array_equal(net.flat.grad, bare_grad)

    def test_l2_value_and_gradient(self):
        lam = 0.01
        value, net, (bare, bare_grad) = self._batch(lam, 1)
        params = net.parameters()
        assert value == bare + lam * sum(float((p.value * p.value).sum()) for p in params)
        # each parameter's grad is a view of net.flat.grad
        np.testing.assert_array_equal(net.flat.grad, bare_grad + 2.0 * lam * net.flat.value)

    def test_l2_matches_finite_differences_through_gradient_check(self):
        spec = NetworkSpec(nfea=4, nnode=(5,), k=1, acts="tanh", dropout_rate=0.0)
        net = build_network(spec, rng=3)
        x = np.random.default_rng(0).normal(size=(6, 4))
        y = np.random.default_rng(1).normal(size=(6, 1))
        err = gradient_check(net, x, y, "mse", SharedSettings(0.05), n_sample=80)
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
        opt = Adam(p)    # at beta1 0.9, beta2 0.999 and epsilon 1e-8
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

    # where |g| is near epsilon the first step is lr * g / (|g| + 1e-8), not lr * sign(g)
    @pytest.mark.parametrize("g", [0.0, 1e-12, 1e-8, -1e-8])
    def test_adam_first_step_of_a_gradient_near_epsilon(self, g):
        from resae.network import Param
        p = Param("w", np.array([[2.0]]), np.array([[g]]))
        Adam(p).step(lr=0.1)
        assert p.value[0, 0] == pytest.approx(2.0 - 0.1 * g / (abs(g) + 1e-8), rel=1e-12)


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


@settings(max_examples=40, deadline=None)
@example(   # plain SGD on this draw overflows at the eighth batch
    NetworkSpec(nfea=1, nnode=(9, 9, 6), k=3, acts=("linear", "relu", "relu"),
                dropout_rate=0.0, residual="full", residual_post_op="none",
                use_batchnorm=False),
    "sgd", 0.0, 2, 1, 0)
@given(network_specs(), st.sampled_from(["adam", "sgd"]), st.sampled_from([0.0, 1e-3]),
       st.integers(2, 12), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_fit_is_bit_identical_to_plain_per_array_reference(
        spec, optimizer, l2, batch_size, epochs, seed):
    data = np.random.default_rng(seed)     # the spec draws use_batchnorm either way
    x_train, x_val = data.normal(size=(23, spec.nfea)), data.normal(size=(7, spec.nfea))
    y_train, y_val = data.normal(size=(23, spec.k)), data.normal(size=(7, spec.k))
    net = build_network(spec, rng=seed)
    cfg = TrainConfig(batch_size=batch_size, max_epochs=epochs, learning_rate=0.01,
                      optimizer=optimizer, seed=seed)
    kind, shared = (("mse_reconstruction", SharedSettings(l2, 0.5)) if spec.output_option == 2
                    else ("mse", SharedSettings(l2)))
    try:   # a drawn network may diverge; then fit must stop at the same batch
        with np.errstate(over="ignore", invalid="ignore"):
            want = plain_fit(net, x_train, y_train, x_val, y_val, cfg, l2,
                             shared.reconstruction_weight)
    except TrainingDiverged as diverged:
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(TrainingDiverged) as got:
            fit(net, x_train, y_train, x_val, y_val, kind, cfg, shared)
        assert (got.value.epoch, got.value.batch) == (diverged.epoch, diverged.batch)
        return
    fit(net, x_train, y_train, x_val, y_val, kind, cfg, shared)
    params = [p.name for p in net.parameters()]
    stats = [name for name in want if name not in params]   # running stats, in net.running order
    assert net.flat.value.tobytes() == np.concatenate([want[n].ravel() for n in params]).tobytes()
    assert net.running.tobytes() == np.concatenate(
        [want[n].ravel() for n in stats] or [np.empty(0)]).tobytes()


@pytest.mark.parametrize("field, value", [
    ("early_stop_patience", 0), ("early_stop_patience", -7),
    ("momentum", 1.0), ("momentum", -3.0), ("momentum", float("nan")),
])
def test_train_config_rejects_values_it_would_reinterpret(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("batch_size", 32.9, "batch_size must be an integer, got 32.9"),
    ("batch_size", True, "batch_size must be an integer, got true"),
    *(("batch_size", value, "batch_size must be >= 2") for value in (1, 0, -4)),
    ("optimizer", None, "optimizer must be a string"),
    *(("learning_rate", value, "learning_rate must be >= 0 and finite")
      for value in (float("nan"), float("inf"), -1e-3)),
])
def test_train_config_checks_types_and_ranges_when_made(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        replace(TrainConfig(), **{field: value})


@pytest.mark.parametrize("make", [lambda: SharedSettings(0.0, "1.0"),
                                  lambda: SharedSettings(0.0, None),
                                  lambda: SharedSettings(None), lambda: SharedSettings("0")])
def test_shared_settings_check_types_when_made(make):
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
        fit(net, xtr, ytr, xv, yv, "mse",
            TrainConfig(batch_size=32, max_epochs=5, learning_rate=0.0, seed=1))
        for p in net.parameters():
            np.testing.assert_array_equal(p.value, before[p.name])

    def test_linear_toy_reaches_high_r2(self):
        from resae.evaluation import r2
        x, y = tiny_linear_dataset(n=300, seed=3)
        spec = NetworkSpec(nfea=2, nnode=(8, 4), k=1, acts="elu", dropout_rate=0.0)
        net = build_network(spec, rng=1)
        xtr, ytr, xv, yv = x[:240], y[:240], x[240:], y[240:]
        fit(net, xtr, ytr, xv, yv, "mse",
            TrainConfig(batch_size=32, max_epochs=200, learning_rate=3e-3, seed=2))
        pred = net.forward(xv, "infer").y
        assert r2(yv, pred) > 0.99

    # 10 rows: batches that divide them, leave 1 (skipped) or 2 over, or take them all
    @pytest.mark.parametrize("batch_size", [2, 3, 4, 10])
    def test_each_epoch_trains_on_a_fresh_permutation_drawn_from_its_seed(self, batch_size):
        n, epochs = 10, 3
        x = np.arange(n, dtype=float).reshape(-1, 1)    # each row's feature is its index
        net = build_network(NetworkSpec(nfea=1, nnode=(3,), k=1, dropout_rate=0.0), rng=0)
        seen, forward = [], net.forward
        def recording_forward(xb, mode="infer"):
            if mode == "train":
                seen.append(xb[:, 0].astype(int))
            return forward(xb, mode)
        net.forward = recording_forward
        fit(net, x, 0.5 * x, x[:4], 0.5 * x[:4], "mse",
            TrainConfig(batch_size=batch_size, max_epochs=epochs,
                        early_stop_patience=epochs, seed=5))
        rng = Rng(5).spawn(2)
        expected = []
        for _ in range(epochs):
            order = rng.permutation(n)
            expected += [order[s:s + batch_size] for s in range(0, n, batch_size)
                         if order[s:s + batch_size].size > 1]
        assert [b.tolist() for b in seen] == [b.tolist() for b in expected]

    def test_history_and_early_stop_restore(self):
        net, xtr, ytr, xv, yv = self._net_and_data(seed=4)
        cfg = TrainConfig(batch_size=32, max_epochs=60, learning_rate=5e-3,
                          early_stop_patience=10, seed=3)
        history = fit(net, xtr, ytr, xv, yv, "mse", cfg)
        assert len(history) <= 60
        assert history.best_epoch == int(np.argmin(history.val_loss))
        # restored parameters reproduce the minimum recorded validation loss
        preds = net.forward(xv, "infer")
        value, _ = loss_and_head_gradient("mse", preds, yv)
        assert value == pytest.approx(min(history.val_loss), rel=1e-9)

    def test_early_stop_restores_the_best_epochs_state_bit_for_bit(self):
        # a run cut off after its best epoch ends in the state an early stop restores
        cfg = TrainConfig(batch_size=32, max_epochs=60, learning_rate=5e-2,
                          early_stop_patience=4, seed=3)
        net, xtr, ytr, xv, yv = self._net_and_data(seed=4)
        history = fit(net, xtr, ytr, xv, yv, "mse", cfg)
        assert history.best_epoch < len(history) - 1
        cut, *_ = self._net_and_data(seed=4)
        fit(cut, xtr, ytr, xv, yv, "mse",
            replace(cfg, max_epochs=history.best_epoch + 1))
        assert json.dumps(net.to_dict()) == json.dumps(cut.to_dict())

    @pytest.mark.parametrize("patience, best_epoch", [(2, 1), (5, 34)])
    def test_an_early_stop_runs_patience_epochs_past_the_best(self, patience, best_epoch):
        net, xtr, ytr, xv, yv = self._net_and_data(seed=4)
        history = fit(net, xtr, ytr, xv, yv, "mse",
                      TrainConfig(batch_size=32, max_epochs=200, learning_rate=5e-2,
                                  early_stop_patience=patience, seed=3))
        assert history.best_epoch == best_epoch
        assert len(history) == best_epoch + patience + 1

    def test_determinism(self):
        runs = []
        for _ in range(2):
            net, xtr, ytr, xv, yv = self._net_and_data(seed=7)
            history = fit(net, xtr, ytr, xv, yv, "mse",
                          TrainConfig(batch_size=16, max_epochs=12, seed=11))
            runs.append((history.to_rows(), {p.name: p.value.copy()
                                             for p in net.parameters()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][name], runs[1][1][name])

    def test_zero_coefficient_regularizer_reproduces_plain_run(self):
        results = []
        for shared in ({}, {"shared": SharedSettings(0.0)}):
            net, xtr, ytr, xv, yv = self._net_and_data(seed=9)
            history = fit(net, xtr, ytr, xv, yv, "mse",
                          TrainConfig(batch_size=32, max_epochs=8, seed=5), **shared)
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
                fit(net, x[:120], y[:120], x[120:], y[120:], "mse",
                    TrainConfig(batch_size=32, max_epochs=50, optimizer="sgd",
                                learning_rate=1e12, seed=1))
        assert info.value.epoch >= 0

    @pytest.mark.parametrize("target, l2", [(np.inf, 0.0), (1.0, 1e308)],
                             ids=["loss", "penalty"])
    def test_a_non_finite_batch_returns_its_value_before_any_backward(self, target, l2):
        # fit raises TrainingDiverged on this value; no gradient of it is ever formed
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1, dropout_rate=0.0), rng=0)
        net.flat.grad[...] = np.arange(net.flat.grad.size)
        before = net.flat.grad.copy()
        x = np.random.default_rng(0).normal(size=(5, 3))
        value = batch_gradients(net, x, np.full((5, 1), target), "mse", SharedSettings(l2))
        assert value == math.inf
        np.testing.assert_array_equal(net.flat.grad, before)

    @pytest.mark.parametrize("cut, message", [
        (lambda x, y, xv, yv: (x[:20], y[:24], xv, yv), "^x_train has 20 rows but y_train has 24$"),
        (lambda x, y, xv, yv: (x[:24], y[:20], xv, yv), "^x_train has 24 rows but y_train has 20$"),
        (lambda x, y, xv, yv: (x, y, xv[:5], yv[:6]), "^x_val has 5 rows but y_val has 6$"),
        (lambda x, y, xv, yv: (x, y, xv[:0], yv[:0]), "^x_val has no rows$"),
        (lambda x, y, xv, yv: (x[:0], y[:0], xv, yv), "^x_train has no rows$"),
    ], ids=["extra-targets", "missing-targets", "val-mismatch", "empty-val", "empty-train"])
    def test_features_and_targets_must_hold_the_same_rows(self, cut, message):
        net, *data = self._net_and_data()
        before = net.flat.value.copy()
        with pytest.raises(ValueError, match=message):
            fit(net, *cut(*data), "mse", TrainConfig(batch_size=8, max_epochs=2))
        np.testing.assert_array_equal(net.flat.value, before)

    def test_history_csv(self, tmp_path):
        net, xtr, ytr, xv, yv = self._net_and_data(seed=5)
        history = fit(net, xtr, ytr, xv, yv, "mse",
                      TrainConfig(batch_size=32, max_epochs=4, seed=1))
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_metric"
        assert len(lines) == len(history) + 1


class TestGradientCheck:
    def test_linear_network_is_exact(self):
        spec = NetworkSpec(nfea=4, nnode=(5,), k=1, acts="linear", dropout_rate=0.0,
                           use_batchnorm=False, residual_post_op="none")
        net = build_network(spec, rng=1)
        x = np.random.default_rng(0).normal(size=(8, 4))
        y = np.random.default_rng(1).normal(size=(8, 1))
        assert gradient_check(net, x, y, "mse", n_sample=200) < 1e-8

    def test_elu_tanh_residual_network(self):
        spec = NetworkSpec(nfea=5, nnode=(7, 4), k=2, acts=("elu", "tanh"),
                           dropout_rate=0.1, output_option=2)
        net = build_network(spec, rng=2)
        x = np.random.default_rng(2).normal(size=(8, 5))
        y = np.random.default_rng(3).normal(size=(8, 2))
        assert gradient_check(net, x, y, "mse_reconstruction", n_sample=200) < 1e-4

    def test_relu_network_away_from_kinks(self):
        spec = NetworkSpec(nfea=4, nnode=(6, 3), k=1, acts="relu",
                           dropout_rate=0.0, use_batchnorm=False,
                           residual_post_op="activation")
        net = build_network(spec, rng=6)
        x = np.random.default_rng(5).normal(size=(6, 4)) + 0.3
        y = np.random.default_rng(6).normal(size=(6, 1))
        assert gradient_check(net, x, y, "mse", n_sample=200, eps=1e-6) < 1e-4

    def test_cross_entropy_head(self):
        spec = NetworkSpec(nfea=4, nnode=(6,), k=3, acts="tanh", dropout_rate=0.0)
        net = build_network(spec, rng=3)
        x = np.random.default_rng(7).normal(size=(9, 4))
        y = np.asarray(np.random.default_rng(8).integers(0, 3, size=(9, 1)), dtype=np.float64)
        assert gradient_check(net, x, y, "cross_entropy", n_sample=150) < 1e-4

    def _net_and_batch(self):
        spec = NetworkSpec(nfea=4, nnode=(5,), k=1, acts="tanh", dropout_rate=0.0)
        x = np.random.default_rng(0).normal(size=(6, 4))
        return build_network(spec, rng=3), x, np.random.default_rng(1).normal(size=(6, 1))

    @pytest.mark.parametrize("damage, eps, where", [
        (lambda net, x: net.flat.value.__setitem__(0, np.nan), 1e-5,
         "at the network's parameters"),
        (lambda net, x: x.__setitem__((2, 1), np.nan), 1e-5, "at the network's parameters"),
        (lambda net, x: None, 1e300, r"with parameter entry \d+ raised by eps"),
    ], ids=["nan-weight", "nan-input-row", "overflowing-step"])
    def test_a_non_finite_loss_is_rejected(self, damage, eps, where):
        # max(worst, nan) keeps worst, so a NaN must not reach it as a perfect score
        net, x, y = self._net_and_batch()
        damage(net, x)
        saved, rng_state = net.get_state(), net.rng.state
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match=rf"^gradient_check: non-finite loss \S+ {where}$"):
            gradient_check(net, x, y, "mse", eps=eps, n_sample=20)
        assert net.rng.state == rng_state
        for name, value in net.get_state().items():
            np.testing.assert_array_equal(value, saved[name])

    def test_a_non_finite_relative_error_is_rejected(self):
        net, x, y = self._net_and_batch()
        net.backward = lambda head_grad: net.flat.grad.fill(np.nan)    # finite loss, NaN gradient
        with pytest.raises(ValueError, match=r"^gradient_check: non-finite relative error nan "
                                             r"at entry \d+$"):
            gradient_check(net, x, y, "mse", n_sample=20)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, float("nan"), float("inf")])
    def test_eps_must_be_a_finite_number_above_zero(self, eps):
        net, x, y = self._net_and_batch()
        with pytest.raises(ValueError, match=f"^eps must be a finite number > 0, got {eps}$"):
            gradient_check(net, x, y, "mse", eps=eps)

    @pytest.mark.parametrize("n_sample, message", [
        (0, "n_sample must be >= 1, got 0"), (-5, "n_sample must be >= 1, got -5"),
        (2.5, "n_sample must be an integer, got 2.5"),
        (True, "n_sample must be an integer, got true"),
        (None, "n_sample must be an integer, got null")])
    def test_n_sample_must_be_an_integer_above_zero(self, n_sample, message):
        # checking no entry is no score: 0 would report a perfect 0.0
        net, x, y = self._net_and_batch()
        with pytest.raises(ValueError, match=f"^{message}$"):
            gradient_check(net, x, y, "mse", n_sample=n_sample)

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
            for i in range(net.steps.index(pair) - 1, -1, -1):
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

    def test_per_epoch_metric_of_a_classification_run_computes_no_auc(self, monkeypatch):
        from resae import evaluation
        calls = []
        monkeypatch.setattr(evaluation, "roc_auc", lambda *args: calls.append(args) or 0.5)
        ds = small_dataset("classification")    # 3 classes
        model = train_model(ds, split(ds, seed=0), make_spec(ds, (4,), dropout_rate=0.0),
                            TrainConfig(batch_size=8, max_epochs=3, early_stop_patience=3,
                                        seed=1))
        assert len(model.history.val_metric) == 3
        assert calls == []

    def test_option_2_on_a_classification_task_is_rejected_before_training(self, monkeypatch):
        # cross entropy would give the head's reconstruction outputs no gradient
        from resae import training
        calls = []
        monkeypatch.setattr(training, "fit", lambda *args: calls.append(args))
        ds = small_dataset("classification")
        spec = make_spec(ds, (4,), dropout_rate=0.0, output_option=2)
        message = (r"^output_option must be 1 for task 'classification', got 2: cross "
                   r"entropy gives the reconstruction outputs no gradient$")
        with pytest.raises(ValueError, match=message):
            loss_kind("classification", spec)
        with pytest.raises(ValueError, match=message):
            train_model(ds, split(ds, seed=0), spec, TrainConfig(batch_size=8, max_epochs=2))
        assert calls == []
        assert loss_kind("regression", spec) == "mse_reconstruction"
        assert loss_kind("classification", replace(spec, output_option=1)) == "cross_entropy"

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


def _weight(doc, name):
    return doc["network"]["weights"][name]


def _set_weight(doc, index, value):
    _weight(doc, "L000.dense.W")["data"][index] = value


class TestModelDocument:
    """A damaged or hand-edited model.json is a ValueError naming the field."""

    def test_saved_document_loads(self):
        doc = saved_model_document()
        assert FittedModel.from_dict(doc).to_dict() == doc

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(task="regresion"), r"task must be one of .*'regresion'"),
        (lambda d: _set_weight(d, 3, "0.5"),
         r'weights.L000.dense.W.data\[3\] must be a number, got "0.5"'),
        (lambda d: _set_weight(d, 0, True),
         r"weights.L000.dense.W.data\[0\] must be a number, got true"),
        (lambda d: _set_weight(d, 1, 10 ** 400),
         r"weights.L000.dense.W.data\[1\] must be a number in float range"),
        (lambda d: d["feature_stats"]["sd"].__setitem__(2, 0.0),
         r"feature_stats.sd\[2\] must be >= 1e-12, got 0.0"),
        (lambda d: d["network"].pop("weights"), "weights is missing"),
        (lambda d: d.pop("feature_stats"), "feature_stats is missing"),
        (lambda d: d.update(target_stats=None), "target_stats must be a JSON object, got null"),
        (lambda d: d.pop("target_stats"), "target_stats must be a JSON object, got null"),
        (lambda d: d.update(task="classification"),
         "target_stats must be null for a classification model"),
        (lambda d: d["feature_stats"].update(sd=[1.0]),
         r"feature_stats.sd must have one entry per feature_stats.mean entry \(8\), got 1"),
        (lambda d: d["feature_stats"].update(mean=[0.0] * 3, sd=[1.0] * 3),
         "feature_stats must have the network's nfea = 8 columns, got 3"),
        (lambda d: d["target_stats"].update(mean=[0.0] * 2, sd=[1.0] * 2),
         "target_stats must have the network's k = 1 columns, got 2"),
        (lambda d: _weight(d, "L000.dense.b").update(shape=[-1, 1]),
         r"^weights.L000.dense.b.shape must be \[6, 1\], got \[-1, 1\]$"),
        (lambda d: _weight(d, "L000.dense.b")["data"].pop(),
         "^weights.L000.dense.b.data must hold 6 numbers, got 5$"),
        (lambda d: _weight(d, "L003.bn.running_var")["data"].__setitem__(2, -0.5),
         r"^weights.L003.bn.running_var.data\[2\] must be >= 0, got -0.5$"),
    ], ids=["task", "string-weight", "boolean-weight", "huge-integer-weight",
            "zero-sd", "no-weights", "no-feature-stats", "null-target-stats",
            "no-target-stats", "classification-target-stats", "sd-length",
            "feature-stats-width", "target-stats-width", "inferred-weight-shape",
            "short-weight-data", "negative-running-variance"])
    def test_bad_document_rejected_naming_field(self, edit, message):
        doc = saved_model_document()
        edit(doc)
        with pytest.raises(ValueError, match=message):
            FittedModel.from_dict(doc)

    @pytest.mark.parametrize("where, key", [
        ("network", "layers"), ("network", "parameter_count"),
        ("feature_stats", "constant_columns"), ("target_stats", "constant_columns")])
    @pytest.mark.parametrize("value", [[99, -4], "7", None])
    def test_a_field_that_earlier_versions_wrote_is_ignored(self, where, key, value):
        # Network(spec) derives the layers and the parameter count, and no reader uses
        # the constant columns, so an older model.json loads the same whatever they hold
        doc = saved_model_document()
        model = FittedModel.from_dict(doc)
        doc[where][key] = value
        loaded = FittedModel.from_dict(doc)
        assert loaded.to_dict() == model.to_dict()
        x = np.random.default_rng(0).normal(size=(5, 8))
        assert loaded.predict(x).tobytes() == model.predict(x).tobytes()

    def test_zero_running_variance_loads(self):
        doc = saved_model_document()
        _weight(doc, "L003.bn.running_var")["data"][2] = 0.0     # BN_EPSILON is added to it
        model = FittedModel.from_dict(doc)
        assert np.isfinite(model.predict(np.ones((4, 8)))).all()

    @pytest.mark.parametrize("field", [f.name for f in fields(NetworkSpec)])
    def test_saved_spec_without_a_field_is_rejected_naming_it(self, field):
        doc = saved_model_document()    # a saved spec holds every field, defaults too
        doc["network"]["spec"].pop(field)
        with pytest.raises(ValueError, match=rf"^spec is missing fields \['{field}'\]$"):
            FittedModel.from_dict(doc)

    def test_a_model_saved_with_a_loss_object_loads_and_predicts_bit_identically(self):
        # written by a version that also saved the loss object, the layer summary, the
        # parameter count and each stats' constant columns; loading derives or drops each
        saved = json.loads((Path(__file__).parent / "saved_models_with_loss.json").read_text())
        assert [entry["document"]["loss"]["kind"] for entry in saved] == [
            "mse_reconstruction", "cross_entropy"]
        for entry in saved:
            doc = entry["document"]
            model = FittedModel.from_dict(doc)
            predictions = model.predict(np.array(entry["features"]))
            assert predictions.tobytes() == np.array(entry["predictions"]).tobytes()
            doc.pop("loss")
            doc["network"].pop("layers")
            doc["network"].pop("parameter_count")
            for stats in (doc["feature_stats"], doc["target_stats"]):
                if stats is not None:
                    stats.pop("constant_columns")
            assert model.to_dict() == doc

    @pytest.mark.parametrize("field, value", [("elu_alpha", 1.0), ("output_activation", "linear")])
    def test_spec_with_a_field_that_is_now_a_constant_is_rejected(self, field, value):
        doc = saved_model_document()    # as a model.json of a spec that could set it
        doc["network"]["spec"][field] = value
        with pytest.raises(ValueError, match=rf"^spec has unknown fields \['{field}'\]$"):
            FittedModel.from_dict(doc)


def small_dataset(task: str) -> Dataset:
    rng = np.random.default_rng(5)
    x = rng.normal(size=(40, 3))
    if task == "classification":
        return Dataset(features=x, targets=np.digitize(x[:, :1], [-0.5, 0.5]).astype(np.float64),
                       feature_names=["a", "b", "c"], target_names=["cls"],
                       task="classification", n_classes=3)
    return Dataset(features=x, targets=x @ [[1.0, 0.0], [0.5, 2.0], [0.0, -1.0]],
                   feature_names=["a", "b", "c"], target_names=["y1", "y2"],
                   task="regression")


@settings(max_examples=20, deadline=None)
@given(network_specs(), st.sampled_from(["regression", "classification"]))
def test_drawn_spec_trained_saves_and_reloads_bit_identically(spec, task):
    ds = small_dataset(task)
    spec = replace(spec, **dataset_dims(ds))
    if task == "classification":    # cross entropy trains no reconstruction outputs
        spec = replace(spec, output_option=1)
    model = train_model(ds, split(ds, seed=0), spec,
                        TrainConfig(batch_size=8, max_epochs=2, seed=3))
    clone = FittedModel.from_dict(json.loads(json.dumps(model.to_dict())))
    np.testing.assert_array_equal(clone.predict(ds.features), model.predict(ds.features))
    assert clone.to_dict() == model.to_dict()
