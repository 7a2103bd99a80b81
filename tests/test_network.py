import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from spec_strategies import network_specs

from resae.layers import BN_MOMENTUM, BatchNormLayer, DenseLayer
from resae.network import Network, NetworkSpec, build_network, build_regular_network, build_residual_network


def random_spec(rng: np.random.Generator, **forced) -> NetworkSpec:
    depth = int(rng.integers(1, 5))
    widths = tuple(int(rng.integers(2, 13)) for _ in range(depth))
    fields = dict(
        nfea=int(rng.integers(2, 9)),
        nnode=widths,
        k=int(rng.integers(1, 4)),
        acts=str(rng.choice(["relu", "elu", "tanh", "linear"])),
        dropout_rate=float(rng.choice([0.0, 0.1, 0.3])),
        residual="full",
        residual_post_op=str(rng.choice(["none", "activation", "activation_batchnorm"])),
        output_option=int(rng.choice([1, 2])),
        use_batchnorm=bool(rng.choice([True, False])),
    )
    fields.update(forced)
    return NetworkSpec(**fields)


class TestBuilder:
    def test_smallest_instance_has_only_input_shortcut(self):
        spec = NetworkSpec(nfea=3, nnode=(4,), k=1)
        net = build_network(spec, rng=0)
        assert len(net.shortcuts) == 1
        assert net.shortcuts[0].slot == 0
        assert net.shortcuts[0].width == 3

    def test_four_layer_wiring(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=0)
        assert [p.slot for p in net.shortcuts] == [0, 1, 2, 3]
        assert [p.width for p in net.shortcuts] == [8, 32, 16, 8]

    def test_benchmark_structure_builds(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=1)
        preds = net.forward(np.zeros((3, 8)), "infer")
        assert preds.y.shape == (3, 1)

    def test_mirrored_decode_widths(self):
        spec = NetworkSpec(nfea=5, nnode=(12, 7, 3), k=2, residual="off")
        net = build_network(spec, rng=0)
        dense_shapes = [(row["in"], row["out"]) for row in net.layer_summary()
                        if row["kind"] == "dense"]
        # encode, mirrored decode, final nfea layer, head
        assert dense_shapes == [(5, 12), (12, 7), (7, 3),
                                (3, 7), (7, 12), (12, 5), (5, 2)]

    def test_shortcut_widths_agree_over_random_specs(self):
        rng = np.random.default_rng(20)
        for _ in range(20):
            spec = random_spec(rng)
            net = build_network(spec, rng=3)
            x = np.random.default_rng(0).normal(size=(4, spec.nfea))
            net.forward(x, "infer")   # any width disagreement would raise
            expected_widths = [spec.nfea] + list(spec.nnode[:-1])
            assert [p.width for p in net.shortcuts] == expected_widths

    def test_option2_head_width(self):
        spec = NetworkSpec(nfea=6, nnode=(5,), k=2, output_option=2)
        net = build_network(spec, rng=0)
        preds = net.forward(np.zeros((4, 6)), "infer")
        assert preds.y.shape == (4, 2)
        assert preds.reconstruction.shape == (4, 6)
        assert preds.head.shape == (4, 8)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            NetworkSpec(nfea=3, nnode=(), k=1)
        with pytest.raises(ValueError):
            NetworkSpec(nfea=3, nnode=(4,), k=0)
        with pytest.raises(ValueError):
            NetworkSpec(nfea=3, nnode=(4, 2), k=1, residual=5)
        with pytest.raises(ValueError):
            NetworkSpec(nfea=3, nnode=(4,), k=1, output_option=3)

    @pytest.mark.parametrize("field, value, message", [
        ("nnode", (4.7, 2), r"nnode\[0\] must be an integer, got 4.7"),
        ("nnode", (4, True), r"nnode\[1\] must be an integer, got true"),
        ("nnode", "48", "nnode must be a list"),
        ("acts", ("elu", 3), r"acts\[1\] must be a string"),
        ("output_option", 1.0, "output_option must be an integer, got 1.0"),
        ("residual", "2", 'residual, if not "full" or "off", must be an integer, got "2"'),
        ("residual", "half", 'residual, if not "full" or "off", must be an integer'),
        ("residual", 1.0, 'residual, if not "full" or "off", must be an integer'),
        ("use_batchnorm", "no", "use_batchnorm must be true or false"),
        ("nfea", 3.0, "nfea must be an integer"),
        ("dropout_rate", "0.1", "dropout_rate must be a number"),
        *(("elu_alpha", value, "elu_alpha must be finite and > 0")
          for value in (float("nan"), float("inf"), 0.0, -1.0)),
        ("dropout_rate", float("nan"), r"dropout_rate must be in \[0, 1\)"),
        ("residual", 3, "residual count 3 out of range 0..2"),
    ])
    def test_spec_checks_types_and_ranges_when_made(self, field, value, message):
        fields = dict(nfea=3, nnode=(4, 2), k=1)
        with pytest.raises(ValueError, match=message):
            NetworkSpec(**{**fields, field: value})
        with pytest.raises(ValueError, match=message):
            replace(NetworkSpec(**fields), **{field: value})

    def test_widths_and_acts_may_be_lists(self):
        spec = NetworkSpec(nfea=3, nnode=[4, 2], k=1, acts=["elu", "tanh"])
        assert build_network(spec, rng=0).layer_summary() == build_network(
            NetworkSpec(nfea=3, nnode=(4, 2), k=1, acts=("elu", "tanh")), rng=0).layer_summary()


class TestParameterCounts:
    def test_dense_and_batchnorm_sizes(self):
        dense = DenseLayer(3, 2)
        assert sum(getattr(dense, a).size for a in dense.PARAMS) == 8   # 3*2 weights + 2 biases
        bn = BatchNormLayer(2)
        assert sum(getattr(bn, a).size for a in bn.PARAMS) == 4         # gamma + beta
        assert 8 + 4 == 12

    def test_residual_on_off_equal_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            spec = random_spec(rng)
            res = build_residual_network(spec, rng=0)
            reg = build_regular_network(spec, rng=0)
            assert res.count_parameters() == reg.count_parameters()

    def test_truncation_preserves_count(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=0)
        full = net.count_parameters()
        for n in range(len(net.shortcuts) + 1):
            assert net.truncate_residuals(n).count_parameters() == full


class TestForward:
    def test_infer_is_deterministic(self):
        net = build_network(NetworkSpec(nfea=4, nnode=(6, 3), k=1), rng=5)
        x = np.random.default_rng(1).normal(size=(7, 4))
        np.testing.assert_array_equal(net.forward(x, "infer").head,
                                      net.forward(x, "infer").head)

    def test_identity_chain_with_zero_weights(self):
        spec = NetworkSpec(nfea=5, nnode=(9, 4), k=1, acts="linear",
                           dropout_rate=0.0, residual_post_op="none",
                           use_batchnorm=False)
        net = build_network(spec, rng=0)
        for step in net.steps:
            if isinstance(step, DenseLayer):
                step.W[...] = 0.0
                step.b[...] = 0.0
        x = np.random.default_rng(2).normal(size=(6, 5))
        trace = {}
        net.forward(x, "infer", trace=trace)
        input_pair = net.shortcuts[0]
        np.testing.assert_array_equal(trace[input_pair.add_index], x)

    def test_zeroed_decoder_differs_from_regular_by_shortcut(self):
        spec = NetworkSpec(nfea=4, nnode=(6, 3), k=1, acts="linear",
                           dropout_rate=0.0, residual_post_op="none",
                           use_batchnorm=False)
        res = build_network(spec, rng=7)
        reg = build_network(replace(spec, residual="off"), rng=7)
        # zero every decode-side dense (everything after the innermost encode block)
        for net in (res, reg):
            dense_steps = [s for s in net.steps if isinstance(s, DenseLayer)]
            for layer in dense_steps[len(spec.nnode):-1]:   # decode layers, not the head
                layer.W[...] = 0.0
                layer.b[...] = 0.0
        x = np.random.default_rng(3).normal(size=(5, 4))
        t_res, t_reg = {}, {}
        res.forward(x, "infer", trace=t_res)
        reg.forward(x, "infer", trace=t_reg)
        pre_head_res = t_res[res.shortcuts[0].add_index]
        # the regular decode collapses to zero; the residual one carries x through
        reg_dense = [i for i, s in enumerate(reg.steps) if isinstance(s, DenseLayer)]
        pre_head_reg = t_reg[reg_dense[-1] - 1]   # output just before the head dense
        np.testing.assert_array_equal(pre_head_res, x)
        np.testing.assert_array_equal(pre_head_reg, np.zeros_like(x))

    def test_single_row_matches_batch_row_in_infer(self):
        net = build_network(NetworkSpec(nfea=4, nnode=(6, 3), k=2), rng=9)
        net.forward(np.random.default_rng(0).normal(size=(16, 4)), "train")  # settle BN stats
        x = np.random.default_rng(4).normal(size=(10, 4))
        full = net.forward(x, "infer").y
        one = net.forward(x[3:4], "infer").y
        np.testing.assert_allclose(one, full[3:4], rtol=1e-12, atol=1e-12)

    def test_forward_shape_and_mode_errors(self):
        net = build_network(NetworkSpec(nfea=4, nnode=(3,), k=1), rng=0)
        with pytest.raises(ValueError, match=r"\(n, 4\)"):
            net.forward(np.zeros((2, 5)), "infer")
        with pytest.raises(ValueError, match="mode"):
            net.forward(np.zeros((2, 4)), "test")


class TestTruncate:
    def test_full_truncation_is_identity(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=3)
        x = np.random.default_rng(0).normal(size=(5, 8))
        same = net.truncate_residuals(len(net.shortcuts))
        np.testing.assert_array_equal(net.forward(x, "infer").head,
                                      same.forward(x, "infer").head)

    def test_zero_truncation_matches_regular_structure(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=3)
        zero = net.truncate_residuals(0)
        reg = build_regular_network(spec, rng=3)
        assert zero.layer_summary() == reg.layer_summary()
        assert len(zero.shortcuts) == 0

    def test_keep_one_leaves_input_pair_only(self):
        spec = NetworkSpec(nfea=8, nnode=(32, 16, 8, 4), k=1)
        net = build_network(spec, rng=3)
        one = net.truncate_residuals(1)
        assert [p.slot for p in one.shortcuts] == [0]
        assert one.shortcuts[0].width == 8

    def test_truncation_beyond_total_rejected(self):
        net = build_network(NetworkSpec(nfea=3, nnode=(4,), k=1), rng=0)
        with pytest.raises(ValueError):
            net.truncate_residuals(2)

    def test_truncation_copies_parameters(self):
        spec = NetworkSpec(nfea=6, nnode=(10, 5), k=1)
        net = build_network(spec, rng=8)
        cut = net.truncate_residuals(1)
        for a, b in zip(net.parameters(), cut.parameters()):
            assert a.name == b.name
            np.testing.assert_array_equal(a.value, b.value)


class TestSerialization:
    def test_roundtrip_is_bit_identical(self):
        spec = NetworkSpec(nfea=6, nnode=(12, 5), k=2, output_option=2)
        net = build_network(spec, rng=9)
        for _ in range(3):   # give the batch-norm running stats real values
            net.forward(np.random.default_rng(5).normal(size=(9, 6)), "train")
        x = np.random.default_rng(3).normal(size=(7, 6))
        before = net.forward(x, "infer")
        payload = json.loads(json.dumps(net.to_dict()))
        after = Network.from_dict(payload).forward(x, "infer")
        np.testing.assert_array_equal(before.head, after.head)

    def test_document_carries_spec_echo_and_shapes(self):
        spec = NetworkSpec(nfea=3, nnode=(4,), k=1)
        doc = build_network(spec, rng=0).to_dict()
        assert doc["spec"]["nnode"] == [4]
        assert doc["parameter_count"] == build_network(spec, rng=0).count_parameters()
        kinds = {row["kind"] for row in doc["layers"]}
        assert {"dense", "activation", "save", "add"} <= kinds

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="serialized network"):
            Network.from_dict({"format": "something-else"})

    def test_set_state_rejects_wrong_shape(self):
        net = build_network(NetworkSpec(nfea=4, nnode=(5, 3), k=1), rng=2)
        state = net.get_state()
        state["L000.dense.W"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match=r"'L000.dense.W'.*\(1, 1\).*\(5, 4\)"):
            net.set_state(state)

    def test_set_state_rejects_missing_and_unknown_names(self):
        net = build_network(NetworkSpec(nfea=4, nnode=(5, 3), k=1), rng=2)
        before = net.get_state()
        missing = dict(before)
        del missing["L001.bn.running_var"]
        with pytest.raises(ValueError, match="missing parameter 'L001.bn.running_var'"):
            net.set_state(missing)
        with pytest.raises(ValueError, match="L999.dense.W"):
            net.set_state({**before, "L999.dense.W": np.zeros((5, 4))})
        # a rejected state leaves the network untouched
        for name, arr in net.get_state().items():
            np.testing.assert_array_equal(arr, before[name])

    def test_from_dict_rejects_weights_of_wrong_shape(self):
        doc = build_network(NetworkSpec(nfea=4, nnode=(5, 3), k=1), rng=2).to_dict()
        doc["weights"]["L000.dense.W"] = {"shape": [1, 1], "data": [0.5]}
        with pytest.raises(ValueError, match="L000.dense.W"):
            Network.from_dict(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("use_batchnorm", "false", "spec.use_batchnorm must be true or false"),
        ("use_batchnorm", 0, "spec.use_batchnorm must be true or false"),
        ("nfea", 4.0, "spec.nfea must be an integer"),
        ("k", True, "spec.k must be an integer"),
        ("nnode", [5, "3"], r"spec.nnode\[1\] must be an integer"),
        ("nnode", 5, "spec.nnode must be a list"),
        ("acts", ["elu", None], r"spec.acts\[1\] must be a string"),
        ("dropout_rate", "0.1", "spec.dropout_rate must be a number"),
        ("residual", "2", "spec.residual, if not \"full\" or \"off\", must be an integer"),
        ("residual", 1.0, "spec.residual, if not \"full\" or \"off\", must be an integer"),
        ("output_option", None, "spec.output_option must be an integer"),
        ("dropout_placement", ["all"], "spec.dropout_placement must be a string"),
    ])
    def test_from_dict_rejects_hand_edited_spec_types(self, field, value, message):
        doc = json.loads(json.dumps(
            build_network(NetworkSpec(nfea=4, nnode=(5, 3), k=1), rng=2).to_dict()))
        doc["spec"][field] = value
        with pytest.raises(ValueError, match=message):
            Network.from_dict(doc)

    def test_spec_from_dict_reports_missing_and_unknown_fields(self):
        d = NetworkSpec(nfea=4, nnode=(5, 3), k=1).to_dict()
        assert NetworkSpec.from_dict(d) == NetworkSpec(nfea=4, nnode=(5, 3), k=1,
                                                       acts=("elu", "elu"))
        assert NetworkSpec.from_dict({"nfea": 4, "nnode": [5], "k": 1}) == \
            NetworkSpec(nfea=4, nnode=(5,), k=1)
        del d["k"]
        with pytest.raises(ValueError, match=r"missing fields \['k'\]"):
            NetworkSpec.from_dict(d)
        with pytest.raises(ValueError, match=r"unknown fields \['use_batchnrom'\]"):
            NetworkSpec.from_dict({**d, "k": 1, "use_batchnrom": False})


def _assert_state_views_flat(net):
    """Every parameter and its gradient is a view of net.flat, and every
    batch-norm running stat a view of net.running, in layer order; the
    layers' own attributes and the named state are those same views."""
    flat = net.flat
    offset = 0
    layers = [step for step in net.steps if isinstance(step, (DenseLayer, BatchNormLayer))]
    attrs = [(layer, a) for layer in layers for a in layer.PARAMS]
    assert len(net.parameters()) == len(attrs)
    for p, (layer, a) in zip(net.parameters(), attrs):
        assert p.value is getattr(layer, a) and p.grad is getattr(layer, "d" + a)
        assert np.shares_memory(p.value, flat.value) and np.shares_memory(p.grad, flat.grad)
        np.testing.assert_array_equal(p.value.ravel(), flat.value[offset:offset + p.value.size])
        offset += p.value.size
    assert offset == flat.value.size == flat.grad.size == net.count_parameters()
    norms = [step for step in net.steps if isinstance(step, BatchNormLayer)]
    stats = [stat for bn in norms for stat in (bn.running_mean, bn.running_var)]
    assert norms and all(np.shares_memory(stat, net.running) for stat in stats)
    np.testing.assert_array_equal(np.concatenate([stat.ravel() for stat in stats]), net.running)
    state = net.get_state()
    assert list(state) == ([p.name for p in net.parameters()] +
                           [f"L{i:03d}.bn.running_{stat}" for i, layer in enumerate(layers)
                            if isinstance(layer, BatchNormLayer) for stat in ("mean", "var")])


class TestFlatParameters:
    spec = NetworkSpec(nfea=5, nnode=(8, 4), k=2)

    def test_build_network_packs_every_parameter(self):
        _assert_state_views_flat(build_network(self.spec, rng=1))

    def test_from_dict_truncate_and_set_state_keep_the_views(self):
        net = build_network(self.spec, rng=1)
        x = np.random.default_rng(0).normal(size=(6, 5))
        net.forward(x, "train")
        loaded = Network.from_dict(json.loads(json.dumps(net.to_dict())))
        cut = net.truncate_residuals(1)
        other = build_network(self.spec, rng=2)
        other.set_state(net.get_state())
        for copy in (loaded, cut, other):
            _assert_state_views_flat(copy)
            np.testing.assert_array_equal(copy.flat.value, net.flat.value)
            np.testing.assert_array_equal(copy.running, net.running)
            copy.forward(x, "train")    # the views still see the blend into net.running
            _assert_state_views_flat(copy)
            assert not np.array_equal(copy.running, net.running)

    def test_backward_fills_the_flat_gradient(self):
        net = build_network(self.spec, rng=3)
        x = np.random.default_rng(4).normal(size=(6, 5))
        inputs, grads = {}, {}
        preds = net.forward(x, "train", trace=inputs)
        net.backward(np.random.default_rng(5).normal(size=preds.head.shape), trace=grads)
        assert np.abs(net.flat.grad).sum() > 0.0
        np.testing.assert_array_equal(
            net.flat.grad, np.concatenate([p.grad.ravel() for p in net.parameters()]))
        for i, step in enumerate(net.steps):
            if isinstance(step, DenseLayer):   # the flat views hold upstream.T @ x and its sum
                x_in, up = inputs.get(i - 1, x), grads[i + 1]
                assert (step.dW == up.T @ x_in).all()
                assert (step.db == up.sum(axis=0, keepdims=True).T).all()

    def test_train_forwards_blend_running_stats_at_bn_momentum(self):
        net = build_network(replace(self.spec, dropout_placement="all"), rng=5)
        norms = [(i, step) for i, step in enumerate(net.steps)
                 if isinstance(step, BatchNormLayer)]
        for j, (_, bn) in enumerate(norms):   # distinct starting stats per layer
            bn.running_mean[...] = j
            bn.running_var[...] = 1.0 + j
        expected = {i: (bn.running_mean.copy(), bn.running_var.copy()) for i, bn in norms}

        def blend(i, x):   # momentum * running + (1 - momentum) * batch stat
            m = 0.9
            mean, var = expected[i]
            expected[i] = (m * mean + (1.0 - m) * x.mean(axis=0, keepdims=True),
                           m * var + (1.0 - m) * x.var(axis=0, keepdims=True))

        assert BN_MOMENTUM == 0.9
        rng = np.random.default_rng(6)
        for _ in range(4):
            x, inputs = rng.normal(size=(10, 5)), {}
            net.forward(x, "train", trace=inputs)
            for i, _ in norms:
                blend(i, inputs[i - 1])   # a dense step precedes each
            net.forward(x, "infer")       # inference leaves them alone
        for i, bn in norms:
            np.testing.assert_array_equal(bn.running_mean, expected[i][0])
            np.testing.assert_array_equal(bn.running_var, expected[i][1])


def test_identical_seeds_give_identical_initial_weights_across_variants():
    spec = NetworkSpec(nfea=5, nnode=(8, 4), k=1)
    res = build_residual_network(spec, rng=13)
    reg = build_regular_network(spec, rng=13)
    for a, b in zip(res.parameters(), reg.parameters()):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value, b.value)


@settings(max_examples=40, deadline=None)
@given(network_specs(), st.integers(0, 2**32 - 1))
def test_drawn_spec_arms_match_and_saved_network_infers_bit_identically(spec, seed):
    residual = build_network(replace(spec, residual="full"), rng=seed)
    regular = build_network(replace(spec, residual="off"), rng=seed)
    assert residual.count_parameters() == regular.count_parameters()
    net = build_network(spec, rng=seed)
    x = np.random.default_rng(seed).normal(size=(6, spec.nfea))
    net.forward(x, "train")   # moves the batch-norm running stats off their initial values
    loaded = Network.from_dict(json.loads(json.dumps(net.to_dict())))
    np.testing.assert_array_equal(loaded.forward(x, "infer").head, net.forward(x, "infer").head)


# values of another JSON type than each plain int, bool and float spec field takes
_WRONG_TYPE = {int: st.floats() | st.booleans() | st.text(max_size=3) | st.none(),
               bool: st.integers() | st.floats() | st.text(max_size=3) | st.none(),
               float: st.booleans() | st.text(max_size=3) | st.none() | st.lists(st.floats())}
_PLAIN_FIELDS = {"nfea": int, "k": int, "output_option": int, "use_batchnorm": bool,
                 "dropout_rate": float, "elu_alpha": float}


@settings(max_examples=100, deadline=None)
@given(network_specs(), st.sampled_from(sorted(_PLAIN_FIELDS)), st.data())
def test_spec_with_a_field_of_the_wrong_type_is_never_made(spec, field, data):
    value = data.draw(_WRONG_TYPE[_PLAIN_FIELDS[field]])
    with pytest.raises(ValueError, match=f"^{field} must be "):
        replace(spec, **{field: value})
