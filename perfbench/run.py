"""Benchmark of the resae package, run from the root of a checkout:

    python3 perfbench/run.py --workload paper_compare --seed 1 --seconds 30 --trace 0

It imports resae from the checkout's `src/`, makes the workload's inputs from
`--seed`, times the set-up several times, then repeats the workload's unit of
work until `--seconds` have passed, checking every repetition.

With `--trace 0` it reports the end-to-end metrics, medians over the
repetitions.  With `--trace 1` it alternates untraced repetitions with traced
ones, in which every public function of the package records a span, and
reports per-layer metrics: medians over the traced repetitions, plus the
tracing overhead.  Every reported time is scaled to a nominal machine speed
measured with reference ticks (see `SpeedGauge`).  The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; the exit code is 0 only when every check passed.  Details go to
`perfbench/out/<workload>/`.
"""

from __future__ import annotations

import os

# Fixed before numpy is imported: one BLAS thread keeps timings steady on a
# shared machine, and the workloads are single-process by design.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracer import Tracer, instrument, per_layer_units, per_layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
PACKAGE = "resae"
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def import_package():
    """Import resae afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return package


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "load_avg_1min": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


# On a 2-core VM whose cores are shared with other tenants, the machine was
# measured running up to 1.5x slower for stretches of about a second to
# minutes, and the slowdown differs by kind of code.  So every timed block is
# scaled to a nominal machine speed measured by reference ticks: a tick runs
# and times fixed reference work, the parts of REFERENCE_PARTS that the
# workload names in its `REFERENCE`, and each part takes TICK_PART_S at the
# nominal speed.  Ticks run just before and after every block and, in a
# sampled block, every TICK_S during it; a block's scale is the nominal over
# the measured time of its ticks, and its time excludes the ticks inside it.
TICK_PART_S = 0.005
TICK_S = 0.25
BOUNDARY_TICKS = 8      # before and after a block that is not sampled


class MlpSteps:
    """SGD steps of a plain numpy MLP (normalise, ReLU) on fixed data."""

    BATCHES = 4

    def __init__(self, batch: int, widths: tuple, steps: int):
        rng = np.random.default_rng(0)
        self.batch, self.steps = batch, steps
        self.x = rng.normal(size=(self.BATCHES * batch, widths[0]))
        self.weights = [rng.normal(scale=0.3, size=shape)
                        for shape in zip(widths[:-1], widths[1:])]

    def __call__(self) -> None:
        weights = [w.copy() for w in self.weights]
        for step in range(self.steps):
            first = (step % self.BATCHES) * self.batch
            h = self.x[first:first + self.batch]
            inputs = []
            for w in weights:
                inputs.append(h)
                z = h @ w
                h = np.maximum((z - z.mean(axis=0)) / np.sqrt(z.var(axis=0) + 1e-5), 0.0)
            grad = h
            for w, x in zip(reversed(weights), reversed(inputs)):
                grad = grad * (h > 0.0)
                update = x.T @ grad
                grad = grad @ w.T
                w -= 1e-3 * update
                h = x


# Each part takes about TICK_PART_S on the machine described in README.md:
# small arrays at batch 16 and 100, where per-call overhead dominates, and
# matmuls on 250x256 arrays.
REFERENCE_PARTS = {
    "b16": MlpSteps(16, (10, 32, 16, 8, 4, 8, 16, 32, 10), 22),
    "b100": MlpSteps(100, (8, 32, 16, 8, 4, 8, 16, 32, 8), 13),
    "b250": MlpSteps(250, (8, 256, 128, 64, 32, 64, 128, 256, 8), 1),
}


@dataclass
class Block:
    """A timed block: its bounds, the ticks inside it, and its scale."""

    start: float = 0.0
    end: float = 0.0
    ticks: list = field(default_factory=list)   # (start, seconds) of each tick inside
    scale: float = 1.0
    tick_s: float = 0.0                         # mean seconds of a tick around and inside

    def work_s(self, start: float | None = None, end: float | None = None) -> float:
        """Seconds from start to end (the whole block by default) less the
        ticks that ran in between."""
        start = self.start if start is None else start
        end = self.end if end is None else end
        return end - start - sum(seconds for at, seconds in self.ticks if start <= at < end)


class SpeedGauge:
    """Times blocks of work and their scale factors to nominal speed."""

    def __init__(self, parts: tuple):
        self.parts = [REFERENCE_PARTS[name] for name in parts]
        self.nominal_s = TICK_PART_S * len(parts)
        self.ticks: list = []
        for _ in range(BOUNDARY_TICKS):     # the first ticks also pay for page faults
            self.tick()

    def tick(self, *signal_args) -> None:
        start = time.perf_counter()
        for part in self.parts:
            part()
        self.ticks.append((start, time.perf_counter() - start))

    @contextmanager
    def block(self, sampled: bool):
        """Time the enclosed work.  A sampled block also ticks every TICK_S on
        SIGALRM, so its scale follows the speed during the work; tracing must
        not be on in it, or ticks would land inside spans."""
        boundary = 1 if sampled else BOUNDARY_TICKS
        self.ticks = []
        for _ in range(boundary):
            self.tick()
        around, self.ticks = self.ticks, []
        block = Block(start=time.perf_counter())
        if sampled:
            previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield block
        finally:
            if sampled:
                signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
                signal.signal(signal.SIGALRM, previous)
            block.end = time.perf_counter()
            block.ticks, self.ticks = self.ticks, []
            for _ in range(boundary):
                self.tick()
            measured = [seconds for _, seconds in around + block.ticks + self.ticks]
            block.tick_s = sum(measured) / len(measured)
            block.scale = self.nominal_s / block.tick_s


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Bench:
    """Repetitions of one workload, with their checks and failure counts."""

    def __init__(self, workload, pkg, inputs):
        self.workload = workload
        self.pkg = pkg
        self.inputs = inputs
        self.gauge = SpeedGauge(workload.REFERENCE)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setups: list[dict] = []
        self.reps: list[dict] = []
        self.span_table: dict = {}      # calls and self time of every span, last traced repetition
        self._fingerprint = None

    def record(self, state, outcome, block: Block, wall_s: float, cpu_s: float,
               extra_problems=()) -> dict:
        scale = block.scale
        problems = self.workload.check(self.pkg, state, outcome) + list(extra_problems)
        if self._fingerprint is None:
            self._fingerprint = outcome.fingerprint
        elif outcome.fingerprint != self._fingerprint:
            problems.append("results differ from the first repetition of this seed")
        self.attempted += outcome.jobs
        self.failed += outcome.jobs if problems else outcome.non_convergent
        if outcome.non_convergent:
            problems.append(f"{outcome.non_convergent} job(s) stopped on a non-finite loss")
        self.problems += problems
        rep = {"run_s": wall_s * scale, "wall_s": wall_s, "cpu_s": cpu_s,
               "ticks": len(block.ticks), "tick_s": block.tick_s, "scale": scale,
               "train_s": block.work_s(*outcome.train_span) * scale,
               "train_rows": outcome.train_rows, "quality": outcome.quality}
        if outcome.predict_ms:
            rep["predict_ms_p50"] = percentile(outcome.predict_ms, 50) * scale
            rep["predict_ms_p99"] = percentile(outcome.predict_ms, 99) * scale
            rep["predict_calls"] = len(outcome.predict_ms)
        self.reps.append(rep)
        return rep

    def untraced(self, state) -> dict:
        with self.gauge.block(sampled=True) as block:
            cpu = time.process_time()
            outcome = self.workload.run(self.pkg, state)
            cpu_s = time.process_time() - cpu      # includes the ticks
        return self.record(state, outcome, block, block.work_s(), cpu_s)

    def traced(self, tracer: Tracer) -> tuple[dict, dict]:
        tracer.reset()
        with self.gauge.block(sampled=False) as block:
            cpu = time.process_time()
            with instrument(tracer, PACKAGE):
                with tracer.span("bench.setup") as setup_root:
                    state = self.workload.setup(self.pkg, self.inputs)
                with tracer.span("bench.run") as root:
                    outcome = self.workload.run(self.pkg, state)
            cpu_s = time.process_time() - cpu
        wall_s = tracer.span_end[root] - tracer.span_start[root]
        epochs = tracer.counts.get("training.epochs", 0)
        configured = tracer.counts.get("training.epochs_configured", 0)
        extra = [] if epochs == configured else [
            f"jobs trained {epochs} epochs in total, {configured} configured"]
        rep = self.record(state, outcome, block, wall_s, cpu_s, extra)
        rep["traced"] = True
        scale = rep["scale"]
        self_s = tracer.self_times() * scale
        # the run root is opened last, so every span after it lies inside the run
        rep["run_layer_self_s"] = float(self_s[root + 1:].sum())
        summary = tracer.summary()
        self.span_table = {name: {"calls": calls, "self_s": total * scale}
                           for name, (calls, total) in summary.items()}
        values = per_layer_values({name: (calls, total * scale)
                                   for name, (calls, total) in summary.items()}, tracer.counts)
        values["trace.setup_s"] = (tracer.span_end[setup_root]
                                   - tracer.span_start[setup_root]) * scale
        values["trace.run_s"] = rep["run_s"]
        values["trace.unattributed_s"] = float(self_s[setup_root] + self_s[root])
        return rep, values


def measure(bench: Bench, seconds: float) -> dict:
    for _ in range(SETUP_REPEATS):
        with bench.gauge.block(sampled=False) as block:
            bench.pkg = import_package()
            state = bench.workload.setup(bench.pkg, bench.inputs)
        wall_s = block.work_s()
        bench.setups.append({"setup_s": wall_s * block.scale, "wall_s": wall_s,
                             "scale": block.scale})
    start = time.perf_counter()
    while not bench.reps or time.perf_counter() - start < seconds:
        bench.untraced(state)
    rates = [r["train_rows"] / r["train_s"] for r in bench.reps if r["train_s"] > 0]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in bench.setups),
        "run_s": statistics.median(r["run_s"] for r in bench.reps),
        "train_rows_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> dict:
    state = bench.workload.setup(bench.pkg, bench.inputs)
    tracer = Tracer()
    untraced_s, traced_s, layer_values = [], [], []
    start = time.perf_counter()
    while not (untraced_s and traced_s) or time.perf_counter() - start < seconds:
        if len(untraced_s) <= len(traced_s):
            untraced_s.append(bench.untraced(state)["run_s"])
        else:
            rep, values = bench.traced(tracer)
            traced_s.append(rep["run_s"])
            layer_values.append(values)
    tracer.write(spans_path)
    units = per_layer_units()
    metrics = {}
    for name in layer_values[0]:
        # counts repeat exactly, so take a recorded value rather than a mean of two
        middle = statistics.median if units[name] in ("s", "us") else statistics.median_low
        metrics[name] = middle(v[name] for v in layer_values)
    metrics["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: {SRC / PACKAGE} not found; run from the root of a resae checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pkg = import_package()
    if Path(pkg.__file__).resolve().parent != (SRC / PACKAGE).resolve():
        print(f"error: imported {pkg.__file__}, not the checkout's package", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    out_dir = BENCH_DIR / "out" / workload.name
    out_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(workload, pkg, workload.prepare(args.seed, out_dir))
    if args.trace:
        values = measure_traced(bench, args.seconds, out_dir / "spans.npz")
        units = per_layer_units()
    else:
        values = measure(bench, args.seconds)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    details = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": env, "setups": bench.setups,
               "repetitions": bench.reps,
               "problems": bench.problems, "metrics": metrics, "spans": bench.span_table}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2), encoding="utf-8")

    print("environment: " + json.dumps(env))
    for i, rep in enumerate(bench.reps):
        print(f"repetition {i}: " + json.dumps(rep))
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
