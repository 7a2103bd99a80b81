"""Time the per-batch kernels of two checkouts against each other in one process.

    python tools/kernel_bench.py PARENT_DIR CHANGE_DIR --rounds 12 --out BENCH_<n>.json

It imports each checkout's `resae` from its `src/` in turn and keeps both
copies, installing one copy's modules in `sys.modules` while its side runs,
so a function-level import reaches its own checkout.  Each round times, on
both sides:

- a train step (`batch_gradients`, then an Adam step) of the paper's spec
  (nnode 32-16-8-4, ELU, batch norm, dropout 0.1 at the code) at batch 100,
  and of the CSV workload's spec (ReLU, dropout after every layer, 3
  classes) at batch 16;
- an inference pass of 64 rows through the CSV workload's network;
- the µs per call of each step kind's forward and backward, of the Adam
  and SGD steps and of the two losses, at batch 100 and width 32.

It runs with one BLAS thread, as `perfbench/run.py` does.  Within a round
the two sides of each measure run back to back, the parent first in
even-numbered rounds, so a burst of load from elsewhere on the machine
lands on both.  A measure calls its function CALLS times (a whole pass
CALLS // 20 times, at least CHUNKS) in CHUNKS equal chunks, with the garbage
collector off and after one untimed call, and records the fastest chunk's
µs per call.  Every input comes from numpy's own generator, so both sides
see the same numbers.  The output file gets a "kernels" entry with each
side's median µs per call, each round's ratio (change over parent), the
median of those ratios and the rounds the change was faster; the other
entries already in the file are kept.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is imported, as perfbench/run.py runs
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
CHUNKS = 5
ROWS, WIDTH = 100, 32
NNODE = (32, 16, 8, 4)      # the paper's spec and the CSV workload's share the widths


def _resae_names() -> list[str]:
    return [name for name in sys.modules if name == "resae" or name.startswith("resae.")]


def load(checkout: Path) -> dict:
    """Import checkout's resae afresh; its modules by name."""
    for name in _resae_names():
        del sys.modules[name]
    sys.path.insert(0, str(checkout / "src"))
    try:
        importlib.import_module("resae")
    finally:
        sys.path.pop(0)
    return {name: sys.modules[name] for name in _resae_names()}


def activate(modules: dict):
    """Install one side's modules in sys.modules; its resae package."""
    for name in _resae_names():
        del sys.modules[name]
    sys.modules.update(modules)
    return modules["resae"]


def _normal(seed: int, *shape) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape)


def _train_step(pkg, spec, rows: int, targets: np.ndarray):
    net = pkg.build_network(spec, rng=1)
    optimizer = pkg.Adam(net.flat)
    loss = pkg.LossSpec("cross_entropy" if spec.k > 1 else "mse")
    x, regularizer = _normal(1, rows, spec.nfea), pkg.Regularizer()

    def step():
        pkg.training.batch_gradients(net, x, targets, loss, regularizer)
        optimizer.step(1e-3)
    return step


def _paper_spec(pkg):
    return pkg.NetworkSpec(nfea=8, nnode=NNODE, k=1)


def _csv_spec(pkg):
    return pkg.NetworkSpec(nfea=10, nnode=NNODE, k=3, acts="relu", dropout_placement="all")


def passes(pkg) -> dict:
    """Whole passes: name -> function to time."""
    infer = pkg.build_network(_csv_spec(pkg), rng=1)
    rows64 = _normal(3, 64, 10)
    return {
        "train_step.paper_b100": _train_step(pkg, _paper_spec(pkg), 100, _normal(2, 100, 1)),
        "train_step.csv_b16": _train_step(pkg, _csv_spec(pkg), 16,
                                          np.arange(16.0).reshape(-1, 1) % 3),
        "infer.csv_64_rows": lambda: infer.forward(rows64, "infer"),
    }


def kernels(pkg) -> dict:
    """One step kind's forward or backward, an optimizer step or a loss, at
    batch ROWS and width WIDTH: name -> function to time."""
    layers = pkg.layers
    x, up = _normal(4, ROWS, WIDTH), _normal(5, ROWS, WIDTH)
    found = {}

    def forward_backward(name, step, scale=None):
        step.forward(x, True, scale)        # a backward pairs with a train-mode forward
        found[f"{name}.forward"] = lambda: step.forward(x, True, scale)
        found[f"{name}.backward"] = lambda: step.backward(up)

    dense = layers.DenseLayer(WIDTH, WIDTH)
    dense.W[...] = _normal(6, WIDTH, WIDTH) / np.sqrt(WIDTH)
    forward_backward("dense", dense)
    for kind in ("elu", "relu", "tanh"):
        forward_backward(kind, layers.Activation(kind))
    norm = layers.BatchNormLayer(WIDTH)
    forward_backward("batchnorm", norm)
    inv = layers.inverse_sd(np.full((1, WIDTH), 0.5))
    found["batchnorm.forward_infer"] = lambda: norm.forward(x, False, inv)
    mask = layers.dropout_masks(pkg.Rng(0), 0.1, ROWS, [(0, WIDTH)])[0]
    forward_backward("dropout", layers.DropoutLayer(0.1), mask)
    save = layers.ShortcutSave(0, WIDTH)
    add = layers.ResidualAddNode(save)
    found["shortcut.forward"] = lambda: add.forward(save.forward(x))
    found["shortcut.backward"] = lambda: save.backward(add.backward(up))

    net = pkg.build_network(_paper_spec(pkg), rng=1)
    net.flat.grad[...] = _normal(7, net.flat.grad.size)
    adam, sgd = pkg.Adam(net.flat), pkg.SgdMomentum(net.flat)
    found["adam.step"] = lambda: adam.step(1e-6)
    found["sgd.step"] = lambda: sgd.step(1e-6)

    y = _normal(8, ROWS, 1)
    mse_preds = pkg.Predictions(y=y, reconstruction=None, head=y)
    mse, targets = pkg.LossSpec("mse"), _normal(9, ROWS, 1)
    found["loss.mse"] = lambda: pkg.loss_and_head_gradient(mse, mse_preds, targets)
    logits = _normal(10, ROWS, 3)
    ce_preds = pkg.Predictions(y=logits, reconstruction=None, head=logits)
    ce, classes = pkg.LossSpec("cross_entropy"), np.arange(float(ROWS)).reshape(-1, 1) % 3
    found["loss.cross_entropy"] = lambda: pkg.loss_and_head_gradient(ce, ce_preds, classes)
    return found


def time_us(fn, calls: int) -> float:
    """µs per call of fn in the fastest of CHUNKS chunks of calls // CHUNKS
    calls, after one untimed call, gc off."""
    fn()
    per_chunk = max(1, calls // CHUNKS)
    gc.collect()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(CHUNKS):
            start = time.perf_counter()
            for _ in range(per_chunk):
                fn()
            best = min(best, time.perf_counter() - start)
        return 1e6 * best / per_chunk
    finally:
        gc.enable()


def measures(modules: dict, calls: int) -> dict:
    """One side's measures: name -> (function to time, calls)."""
    pkg = activate(modules)
    found = {name: (fn, calls // 20) for name, fn in passes(pkg).items()}
    found.update({name: (fn, calls) for name, fn in kernels(pkg).items()})
    return found


def run_round(modules: dict, calls: int, order: tuple) -> dict:
    """side -> measure -> µs per call, the sides of each measure back to back."""
    built = {side: measures(modules[side], calls) for side in order}
    timings = {side: {} for side in SIDES}
    for name in built["parent"]:
        for side in order:
            activate(modules[side])
            fn, n = built[side][name]
            timings[side][name] = time_us(fn, n)
    return timings


def summarize(rounds: list[dict]) -> dict:
    """Per measure: each side's median, each round's ratio (change over
    parent), their median and the rounds the change won.  The ratios are
    paired within a round, so drift from round to round cancels in them
    but not in the ratio of the two sides' medians."""
    summary = {}
    for name in rounds[0]["parent"]:
        side = {s: [r[s][name] for r in rounds] for s in SIDES}
        ratios = [c / p for p, c in zip(side["parent"], side["change"])]
        medians = {s: statistics.median(side[s]) for s in SIDES}
        summary[name] = {"unit": "us", "parent": medians["parent"], "change": medians["change"],
                         "median_ratio": statistics.median(ratios),
                         "round_ratios": ratios,
                         "change_wins": sum(r < 1.0 for r in ratios), "rounds": len(rounds)}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--rounds", type=int, default=12)
    parser.add_argument("--calls", type=int, default=10000,
                        help="calls per kernel measure; a whole pass gets CALLS // 20")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write; the entries already in it are kept")
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.calls < 1:
        parser.error("--rounds and --calls must be at least 1")

    modules = {side: load(path.resolve())
               for side, path in (("parent", args.parent), ("change", args.change))}
    rounds = []
    for i in range(args.rounds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        rounds.append(run_round(modules, args.calls, order))
        print(f"round {i + 1} of {args.rounds} done", file=sys.stderr)
    summary = summarize(rounds)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["kernels"] = {
        "command": f"python tools/kernel_bench.py PARENT CHANGE --rounds {args.rounds} "
                   f"--calls {args.calls}",
        "method": "both checkouts imported in one process; within a round the two sides "
                  "of each measure run back to back, the parent first in even-numbered "
                  "rounds; each value is the µs per call of the fastest of "
                  f"{CHUNKS} equal chunks that together make CALLS calls (a whole pass "
                  "CALLS // 20), after one untimed call, with the garbage collector off; "
                  "medians over rounds",
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "nproc": len(os.sched_getaffinity(0))},
        "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        print(f"{name}: parent {entry['parent']:.2f} us, change {entry['change']:.2f} us "
              f"({entry['median_ratio']:.3f}x), change faster in "
              f"{entry['change_wins']}/{entry['rounds']} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
