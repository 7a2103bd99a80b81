"""Time two checkouts against each other in alternating pairs of benchmark runs.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload csv_classify_b16 \\
        --seeds 14001 14002 14003 --seconds 30 --out BENCH_14.json

For each seed it runs `python3 perfbench/run.py --workload W --seed S
--seconds N --trace 0` once in each checkout, each run in its own process
from that checkout's root; the side that runs first alternates from pair to
pair (the parent first in even-numbered pairs).  It writes the runs and a
summary of each end-to-end metric that BENCHMARK.json declares: each side's
quartiles, the ratio of the change's median to the parent's, the range of
the per-pair ratios, and the number of pairs the change won.  The output file
keeps the workloads already in it, so several workloads can share one file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
RULE = ("every run on both sides passes its checks, the change wins at least 9 in 10 pairs, "
        "and its median is better than the parent's by more than the parent's interquartile "
        "range")


def end_to_end_metrics() -> dict[str, str]:
    """{metric name: "lower" or "higher"}, as BENCHMARK.json declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout: its end-to-end values and its check counts."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    values = {name: metric["value"] for name, metric in result["metrics"].items()}
    return {**values, **{key: result[key] for key in ("attempted", "failed", "correct")}}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3), "iqr": float(q3 - q1)}


def summarize(pairs: list[dict], metrics: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the ratio of the medians (change over
    parent), the range of the per-pair ratios, and the pairs the change won,
    where a win is a strictly better value in the direction `metrics` gives."""
    summary = {}
    for name, better in metrics.items():
        side = {s: [pair[s][name] for pair in pairs] for s in SIDES}
        ratios = [c / p for p, c in zip(side["parent"], side["change"])]
        wins = sum((c < p) if better == "lower" else (c > p)
                   for p, c in zip(side["parent"], side["change"]))
        stats = {s: quartiles(side[s]) for s in SIDES}
        summary[name] = {"better": better, **stats,
                         "median_ratio": stats["change"]["median"] / stats["parent"]["median"],
                         "ratio_range": [min(ratios), max(ratios)],
                         "change_wins": int(wins), "pairs": len(pairs)}
    return summary


def claim_holds(entry: dict) -> bool:
    """RULE, on one metric's summary."""
    parent = entry["parent"]
    gain = entry["change"]["median"] - parent["median"]
    if entry["better"] == "lower":
        gain = -gain
    return entry["change_wins"] >= 0.9 * entry["pairs"] and gain > parent["iqr"]


def claim(workload: str, metric: str, pairs: list[dict], summary: dict) -> dict:
    """The claim record of RULE for one metric.  A claim holds only on correct
    runs: when any run on either side has `correct` false or `failed` above
    0, it does not hold, and `why` names each such run."""
    bad_runs = [f"seed {pair['seed']} {side}: correct {pair[side]['correct']}, "
                f"failed {pair[side]['failed']}"
                for pair in pairs for side in SIDES
                if not pair[side]["correct"] or pair[side]["failed"] > 0]
    record = {"workload": workload, "metric": metric, "rule": RULE,
              "holds": not bad_runs and claim_holds(summary[metric])}
    if bad_runs:
        record["why"] = [f"a run failed its checks ({run})" for run in bad_runs]
    return record


def run_pairs(checkouts: dict[str, Path], workload: str, seeds: list[int],
              seconds: float) -> list[dict]:
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], workload, seed, seconds)
            print(f"seed {seed} {side}: " + json.dumps(pair[side]), file=sys.stderr)
        pairs.append(pair)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent commit's checkout")
    parser.add_argument("change", type=Path, help="root of the change's checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write; the workloads already in it are kept")
    parser.add_argument("--claim", help="end-to-end metric whose gain the change claims")
    parser.add_argument("--describe", default="", help="one line on what the change does")
    args = parser.parse_args(argv)

    metrics = end_to_end_metrics()
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")
    pairs = run_pairs({"parent": args.parent.resolve(), "change": args.change.resolve()},
                      args.workload, args.seeds, args.seconds)
    summary = summarize(pairs, metrics)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("change", args.describe)
    doc["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
    doc["method"] = ("alternating parent/change pairs, one pair per seed; the side that runs "
                     "first alternates from pair to pair (parent first in even-numbered pairs); "
                     "each run in its own process from its own checkout; times are perfbench's "
                     "speed-scaled values; quartiles are numpy's linear percentiles")
    doc["machine"] = {"python": platform.python_version(), "numpy": np.__version__,
                      "nproc": len(os.sched_getaffinity(0))}
    if args.claim is not None:
        doc["claim"] = claim(args.workload, args.claim, pairs, summary)
        for why in doc["claim"].get("why", []):
            print(f"claim on {args.claim} does not hold: {why}")
    doc.setdefault("workloads", {})[args.workload] = {
        "seeds": args.seeds,
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in SIDES},
        "summary": summary, "pairs": pairs}
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, entry in summary.items():
        print(f"{args.workload} {name}: parent {entry['parent']['median']:.6g}, change "
              f"{entry['change']['median']:.6g} ({entry['median_ratio']:.3f}x), "
              f"change won {entry['change_wins']}/{entry['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
