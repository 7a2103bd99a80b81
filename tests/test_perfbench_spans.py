"""The traced benchmark wraps resae functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
