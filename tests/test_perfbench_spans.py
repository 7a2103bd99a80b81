"""The traced benchmark wraps resae functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from resae import TrainConfig, compare, generate_simulated, make_spec

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("layer, qualname", [(layer, qualname)
                                             for layer, qualname, _ in tracer.SPANS])
def test_every_traced_name_exists(layer, qualname):
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"resae.{layer}")
    if "." in qualname:
        class_name, attribute = qualname.split(".")
        # the tracer patches the class's own attribute, not an inherited one
        assert attribute in vars(getattr(module, class_name)), qualname
    else:
        assert callable(getattr(module, qualname)), qualname


def test_a_two_seed_compare_records_one_split_and_one_train_model_span_per_job():
    # the job path reaches split, train_model and evaluate_model as module globals,
    # so the tracer's wrappers see every call
    ds = generate_simulated(n=150, seed=0)
    spec, cfg = make_spec(ds, (6, 3)), TrainConfig(batch_size=32, max_epochs=2, seed=1)
    recorder = tracer.Tracer()
    with tracer.instrument(recorder):
        report = compare(ds, spec, cfg, n_seeds=2)
    spans = [recorder.names[i] for i in recorder.span_name]
    assert len(report.runs) == 4
    assert [spans.count(name) for name in ("data.split", "training.train_model",
                                           "evaluation.evaluate_model")] == [4, 4, 8]
