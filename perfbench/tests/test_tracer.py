import importlib
import json
from pathlib import Path

import pytest

import resae
from tracer import LAYERS, SPANS, Tracer, instrument, per_layer_units

ROOT = Path(__file__).resolve().parents[2]


def scripted_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds child [1, 4] (which holds leaf [2, 3]) and child [5, 6]
    tracer = Tracer(clock=scripted_clock(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("child"):
            with tracer.span("leaf"):
                pass
        with tracer.span("child"):
            pass
    assert tracer.self_times().tolist() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.summary() == {"outer": (1, 6.0), "child": (2, 3.0), "leaf": (1, 1.0)}
    assert tracer.self_times().sum() == 10.0


def test_wrapped_call_records_a_span_under_the_caller():
    tracer = Tracer(clock=scripted_clock(0.0, 2.0, 5.0, 6.0))
    importlib.import_module("resae.cli")
    with instrument(tracer):
        with tracer.span("bench.run"):
            resae.matrix.Rng(3).uniform(4)
    assert tracer.span_parent == [-1, 0]
    assert tracer.summary()["matrix.Rng.uniform"] == (1, 3.0)
    assert tracer.summary()["bench.run"] == (1, 3.0)
    assert tracer.counts == {"matrix.rng.values_drawn": 4}


def snapshot():
    """Identity of every attribute of every module and class of the package."""
    modules = [resae] + [importlib.import_module(f"resae.{layer}") for layer in LAYERS]
    entries = {}
    for module in modules:
        for name, value in vars(module).items():
            entries[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__.startswith("resae"):
                for attribute, raw in vars(value).items():
                    entries[(module.__name__, name, attribute)] = raw
    return entries


def tiny_training():
    dataset = resae.generate_simulated(n=60, seed=3)
    split = resae.split(dataset, seed=1)
    spec = resae.make_spec(dataset, (4, 2))
    cfg = resae.TrainConfig(batch_size=16, max_epochs=2, early_stop_patience=2, seed=1)
    model = resae.train_model(dataset, split, spec, cfg)
    return resae.evaluate_model(model, dataset, split.test)


def test_traced_run_restores_every_wrapped_attribute():
    before = snapshot()
    tracer = Tracer()
    with instrument(tracer) as patched:
        assert resae.training.fit is not before[("resae.training", "fit")]
        assert resae.evaluation.train_model is not before[("resae.evaluation", "train_model")]
        tiny_training()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {owner_attr[1] for owner_attr in patched} >= {q.split(".")[-1] for _, q, _ in SPANS}
    assert tracer.summary()["training.fit"][0] == 1
    assert tracer.counts["training.epochs"] == 2


def test_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            raise RuntimeError("stop")
    after = snapshot()
    assert all(after[key] is before[key] for key in before)


def test_traced_and_untraced_results_are_identical():
    untraced = tiny_training()
    with instrument(Tracer()):
        traced = tiny_training()
    assert traced == untraced


def test_benchmark_json_declares_the_reported_metrics():
    import run

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == per_layer_units()
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(run.WORKLOADS)
