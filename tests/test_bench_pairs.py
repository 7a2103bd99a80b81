"""The pair summary of tools/bench_pairs.py, on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def _pairs(parent, change):
    return [{"seed": i, "parent": p, "change": c} for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_of_a_lower_and_a_higher_metric():
    parent = [{"run_s": s, "rows": 10.0} for s in (1.0, 2.0, 3.0, 4.0)]
    change = [{"run_s": s, "rows": r} for s, r in ((0.5, 11.0), (2.0, 9.0), (2.4, 12.0),
                                                    (2.0, 13.0))]
    summary = bench_pairs.summarize(_pairs(parent, change), {"run_s": "lower", "rows": "higher"})
    assert summary["run_s"] == {
        "better": "lower",
        "parent": {"q1": 1.75, "median": 2.5, "q3": 3.25, "iqr": 1.5},
        "change": {"q1": 1.625, "median": 2.0, "q3": pytest.approx(2.1), "iqr": pytest.approx(0.475)},
        "median_ratio": 0.8, "ratio_range": [0.5, 1.0],
        "change_wins": 3,   # the tie at 2.0 is no win
        "pairs": 4}
    assert summary["rows"] == {
        "better": "higher",
        "parent": {"q1": 10.0, "median": 10.0, "q3": 10.0, "iqr": 0.0},
        "change": {"q1": 10.5, "median": 11.5, "q3": 12.25, "iqr": 1.75},
        "median_ratio": 1.15, "ratio_range": [0.9, 1.3], "change_wins": 3, "pairs": 4}
    assert not bench_pairs.claim_holds(summary["rows"])   # 3 wins in 4 pairs


@pytest.mark.parametrize("better, wins, median, holds", [
    ("higher", 9, 13.5, True), ("higher", 8, 13.5, False), ("higher", 10, 13.0, False),
    ("lower", 9, 8.5, True), ("lower", 10, 9.0, False), ("lower", 9, 13.5, False),
])
def test_claim_needs_nine_wins_in_ten_and_a_median_gain_beyond_the_parent_iqr(
        better, wins, median, holds):
    entry = {"better": better, "parent": {"q1": 10.0, "median": 11.0, "q3": 12.0, "iqr": 2.0},
             "change": {"median": median}, "change_wins": wins, "pairs": 10}
    assert bench_pairs.claim_holds(entry) is holds


@pytest.mark.parametrize("bad_side, bad_run", [
    ("parent", {"correct": False, "failed": 0}), ("change", {"correct": True, "failed": 1})])
def test_claim_holds_only_when_every_run_passed_its_checks(bad_side, bad_run):
    parent = [{"run_s": 2.0, "correct": True, "failed": 0} for _ in range(10)]
    change = [{"run_s": 1.0, "correct": True, "failed": 0} for _ in range(10)]
    summary = bench_pairs.summarize(_pairs(parent, change), {"run_s": "lower"})
    record = bench_pairs.claim("w", "run_s", _pairs(parent, change), summary)
    assert record["holds"] is True and "why" not in record
    {"parent": parent, "change": change}[bad_side][3].update(bad_run)
    record = bench_pairs.claim("w", "run_s", _pairs(parent, change), summary)
    assert record["holds"] is False
    assert record["why"] == [f"a run failed its checks (seed 3 {bad_side}: correct "
                             f"{bad_run['correct']}, failed {bad_run['failed']})"]
