"""tools/kernel_bench.py, run on the working tree against itself at tiny counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_times_every_measure_on_both_sides_and_keeps_other_entries(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"claim": {"holds": True}}), encoding="utf-8")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "kernel_bench.py"), str(ROOT),
                           str(ROOT), "--rounds", "1", "--calls", "2", "--out", str(out)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": ""})
    assert done.returncode == 0, done.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["claim"] == {"holds": True}
    summary = doc["kernels"]["summary"]
    assert list(summary)[:3] == ["train_step.paper_b100", "train_step.csv_b16",
                                 "infer.csv_64_rows"]
    for kind in ("dense", "elu", "relu", "tanh", "batchnorm", "dropout", "shortcut"):
        assert {f"{kind}.forward", f"{kind}.backward"} <= summary.keys()
    assert {"batchnorm.forward_infer", "adam.step", "sgd.step", "loss.mse",
            "loss.cross_entropy"} <= summary.keys()
    for name, entry in summary.items():
        assert entry["parent"] > 0.0 and entry["change"] > 0.0, name
        assert len(entry["round_ratios"]) == entry["rounds"] == 1, name
        assert entry["median_ratio"] == entry["round_ratios"][0], name
