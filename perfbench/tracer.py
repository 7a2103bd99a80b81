"""In-memory span tracer, and the instrumentation that wraps resae's public API.

A span is one call of a wrapped function: which function, when it started and
ended, and which span was open when it began.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the time its direct
children cover, so the self times of all spans under a root add up to the
root's duration.

`instrument` wraps functions from outside the package and puts every original
object back when it exits, so untraced runs execute unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("matrix", "layers", "network", "training", "data", "evaluation", "cli")


class Tracer:
    """Records nested spans and named counts for one traced repetition."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack = [-1]
        self.counts: dict[str, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(self.clock())    # last, so bookkeeping is outside the span
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = self.clock()     # first, for the same reason
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield index
        finally:
            self.close(index)

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self) -> np.ndarray:
        """Self time of every recorded span, in recording order."""
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        return duration - covered

    def summary(self) -> dict[str, tuple[int, float]]:
        """(calls, total self seconds) for every span name seen so far."""
        names = np.asarray(self.span_name, dtype=np.int64)
        calls = np.bincount(names, minlength=len(self.names))
        self_s = np.bincount(names, weights=self.self_times(), minlength=len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Save the recorded spans, one array per field."""
        np.savez_compressed(path, names=np.asarray(self.names),
                            name=np.asarray(self.span_name, dtype=np.int32),
                            parent=np.asarray(self.span_parent, dtype=np.int32),
                            start=np.asarray(self.span_start),
                            end=np.asarray(self.span_end))


# ---------------------------------------------------------------------------
# Counts taken at span boundaries
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_draws(tracer, args, kwargs, result):
    tracer.count("matrix.rng.values_drawn", int(result.size))


def _count_dense_forward(tracer, args, kwargs, result):
    layer = args[0]
    tracer.count("layers.dense.flops", 2 * result.shape[0] * layer.n_in * layer.n_out)


def _count_dense_backward(tracer, args, kwargs, result):
    # dW = upstream.T @ x and dx = upstream @ W, each 2 * n * in * out
    layer = args[0]
    rows = _arg(args, kwargs, 1, "upstream").shape[0]
    tracer.count("layers.dense.flops", 4 * rows * layer.n_in * layer.n_out)


def _count_step(tracer, args, kwargs, result):
    tracer.count("training.steps")


def _count_fit(tracer, args, kwargs, history):
    epochs = len(history)
    tracer.count("training.epochs", epochs)
    tracer.count("training.epochs_configured", _arg(args, kwargs, 6, "cfg").max_epochs)
    tracer.count("training.rows", _arg(args, kwargs, 1, "x_train").shape[0] * epochs)
    tracer.count("training.useful_epochs", history.best_epoch + 1)


# (layer, function or Class.method, count hook)
SPANS = (
    ("matrix", "Rng.uniform", _count_draws),
    ("matrix", "Rng.normal", _count_draws),
    ("matrix", "Rng.permutation", _count_draws),
    ("matrix", "standardize_fit_apply", None),
    ("matrix", "StandardizeStats.apply", None),
    ("layers", "DenseLayer.forward", _count_dense_forward),
    ("layers", "DenseLayer.backward", _count_dense_backward),
    ("layers", "Activation.forward", None),
    ("layers", "Activation.backward", None),
    ("layers", "BatchNormLayer.forward", None),
    ("layers", "BatchNormLayer.backward", None),
    ("layers", "DropoutLayer.forward", None),
    ("layers", "DropoutLayer.backward", None),
    ("layers", "ResidualAddNode.forward", None),
    ("layers", "ResidualAddNode.backward", None),
    ("network", "Network.forward", None),
    ("network", "Network.backward", None),
    ("network", "Network.get_state", None),
    ("network", "Network.set_state", None),
    ("network", "Network.to_dict", None),
    ("network", "Network.from_dict", None),
    ("network", "build_network", None),
    ("training", "fit", _count_fit),
    ("training", "loss_and_head_gradient", None),
    ("training", "Adam.step", _count_step),
    ("training", "SgdMomentum.step", _count_step),
    ("training", "train_model", None),
    ("training", "FittedModel.predict", None),
    ("training", "FittedModel.from_dict", None),
    ("data", "generate_simulated", None),
    ("data", "load_csv", None),
    ("data", "split", None),
    ("evaluation", "compare", None),
    ("evaluation", "evaluate_model", None),
    ("cli", "main", None),
    ("cli", "load_config", None),
    ("cli", "build_dataset", None),
)
SPAN_NAMES = tuple(f"{layer}.{qualname}" for layer, qualname, _ in SPANS)


def _wrap(tracer: Tracer, name: str, fn, hook):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        finally:
            tracer.close(index)

    return traced


@contextmanager
def instrument(tracer: Tracer, package: str = "resae"):
    """Wrap every function in SPANS so each call records a span in `tracer`.

    Modules import functions from each other by name, so a module-level
    function is replaced in every module of the package that holds it.
    Yields the (owner, attribute, original) list; all are restored on exit.
    """
    patched = []
    try:
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        namespaces = [importlib.import_module(package), *modules.values()]
        for layer, qualname, hook in SPANS:
            module = modules[layer]
            name = f"{layer}.{qualname}"
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, name, raw.__func__, hook))
                else:
                    wrapped = _wrap(tracer, name, raw, hook)
                patched.append((owner, attribute, raw))
                setattr(owner, attribute, wrapped)
            else:
                original = getattr(module, qualname)
                wrapped = _wrap(tracer, name, original, hook)
                for namespace in namespaces:
                    for attribute, value in list(vars(namespace).items()):
                        if value is original:
                            patched.append((namespace, attribute, original))
                            setattr(namespace, attribute, wrapped)
        yield patched
    finally:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced repetition
# ---------------------------------------------------------------------------

# Spans that only some workloads run.  The result line carries their call
# counts alone, so that no reported time is a constant zero; their times are
# in the saved trace and the results file.
PARTIAL_SPANS = frozenset({
    "network.Network.to_dict", "network.Network.from_dict",
    "training.Adam.step", "training.SgdMomentum.step", "training.FittedModel.from_dict",
    "data.generate_simulated", "data.load_csv", "evaluation.compare",
    "cli.main", "cli.load_config", "cli.build_dataset",
})

# Every workload runs exactly one optimizer, so their sum is timed everywhere.
SPAN_GROUPS = {"training.optimizer_step": ("training.Adam.step", "training.SgdMomentum.step")}

# Layers whose total self time is reported; cli runs on one workload only.
TIMED_LAYERS = tuple(layer for layer in LAYERS if layer != "cli")

COUNTS = (
    ("training.steps", "count"),
    ("training.epochs", "count"),
    ("training.rows", "count"),
    ("training.useful_epoch_share", "ratio"),
    ("matrix.rng.values_drawn", "count"),
    ("layers.dense.flops", "flop-computed"),
)

TRACE_METRICS = (
    ("trace.setup_s", "s"),         # traced set-up
    ("trace.run_s", "s"),           # traced run_s
    ("trace.overhead_s", "s"),      # traced run_s minus untraced run_s
    ("trace.unattributed_s", "s"),  # traced set-up and run not inside any package span
)


def _timed_spans() -> list[str]:
    return [s for s in SPAN_NAMES if s not in PARTIAL_SPANS] + list(SPAN_GROUPS)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in reporting order."""
    units = {}
    for span in _timed_spans():
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
        units[f"{span}.us_per_call"] = "us"
    for span in sorted(PARTIAL_SPANS):
        units[f"{span}.calls"] = "count"
    for layer in TIMED_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    units.update(TRACE_METRICS)
    return units


def per_layer_values(summary: dict[str, tuple[int, float]], counts: dict[str, int]) -> dict:
    """Per-layer metrics (all but the trace.* ones) from one repetition's spans."""
    stats = {span: summary.get(span, (0, 0.0)) for span in SPAN_NAMES}
    for group, members in SPAN_GROUPS.items():
        stats[group] = (sum(stats[m][0] for m in members), sum(stats[m][1] for m in members))
    values = {}
    for span in _timed_spans():
        calls, self_s = stats[span]
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = self_s
        values[f"{span}.us_per_call"] = 1e6 * self_s / calls if calls else 0.0
    for span in sorted(PARTIAL_SPANS):
        values[f"{span}.calls"] = stats[span][0]
    for layer in TIMED_LAYERS:
        values[f"{layer}.self_s"] = sum(stats[span][1] for span in SPAN_NAMES
                                        if span.startswith(layer + "."))
    for key, _ in COUNTS:
        values[key] = counts.get(key, 0)
    epochs = counts.get("training.epochs", 0)
    values["training.useful_epoch_share"] = (counts.get("training.useful_epochs", 0) / epochs
                                             if epochs else 0.0)
    return values
