"""Write the CLI artifact set of five small configs and print one hash over it.

    PYTHONPATH=src python tools/artifact_set.py [--listing] [OUT_DIR]

Two configs train on the simulated benchmark, two on a CSV written by
`resae simulate` and one on the spatial field without coordinates; each runs `compare`, `grid`, `sensitivity` and
`train --residual on|off|2`.  Every path handed to the CLI is relative to the
output directory, so no artifact holds an absolute path.  It prints the
sha256 of the sorted listing of (path, file sha256) lines, so two checkouts
print the same hash exactly when every artifact is byte-identical.  Without OUT_DIR the set is written to a temporary
directory that is removed afterwards; with it, the files stay for a diff.
With --listing it prints the listing itself under a header naming the Python,
numpy and BLAS build; that output is tests/artifact_listing.txt, which a
Tier-1 test compares with the set it writes, so a change that moves
artifacts on purpose regenerates the file with

    PYTHONPATH=src python tools/artifact_set.py --listing > tests/artifact_listing.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from resae.cli import main as resae

TRAINING = {"batch_size": 32, "max_epochs": 6, "early_stop_patience": 6, "seed": 1}
CONFIGS = {
    "sim_elu": {
        "dataset": {"source": "simulate", "n": 160, "seed": 3},
        "network": {"nnode": [8, 4, 2]},
        "training": TRAINING,
        "grid": {"batch_sizes": [16, 32]},
    },
    "sim_option2_sgd": {
        "dataset": {"source": "simulate", "n": 160, "seed": 4, "noise_sd": 10.0},
        "network": {"nnode": [6, 3], "activation": ["tanh", "elu"], "output_option": 2,
                    "dropout_placement": "all", "residual_post_op": "activation"},
        "training": {**TRAINING, "optimizer": "sgd", "learning_rate": 0.01},
        "loss": {"regularizer": "l2", "coefficient": 1e-4, "reconstruction_weight": 0.5},
        "grid": {"nnodes": [[6, 3], [4, 2]], "activations": ["elu", "relu"]},
    },
    "csv_regression": {
        "dataset": {"source": "csv", "path": "data.csv", "targets": ["y"]},
        "network": {"nnode": [6, 3], "batchnorm": False, "dropout_rate": 0.0},
        "training": TRAINING,
        "grid": {"output_options": [1, 2]},
    },
    "csv_classification": {
        "dataset": {"source": "csv", "path": "data.csv", "targets": "y",
                    "task": "classification", "target_bins": [200.0, 400.0]},
        "network": {"nnode": [6, 4], "activation": "relu"},
        "training": TRAINING,
        "grid": {"batch_sizes": [16, 64]},
    },
    "spatial_field": {
        "dataset": {"source": "spatial-field", "n": 120, "seed": 5, "with_coordinates": False},
        "network": {"nnode": [6, 3]},
        "training": TRAINING,
        "grid": {"batch_sizes": [16, 32]},
    },
}
COMMANDS = {"compare": [], "grid": [], "sensitivity": [],
            **{f"train_{r}": ["--residual", r] for r in ("on", "off", "2")}}


def write_set(root: Path) -> None:
    """Every artifact of CONFIGS x COMMANDS under root, with root as the working directory."""
    os.chdir(root)
    run(["simulate", "--n", "150", "--seed", "11", "--out", "data.csv"])
    for name, config in CONFIGS.items():
        Path(f"{name}.json").write_text(json.dumps({**config, "n_seeds": 2}))
        for label, extra in COMMANDS.items():
            run([label.partition("_")[0], "--config", f"{name}.json",
                 "--out", f"{name}/{label}", *extra])


def run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = resae(argv)
    if code != 0:
        sys.exit(f"resae {' '.join(argv)} exited {code}")


def listing(root: Path) -> list[str]:
    return sorted(f"{path.relative_to(root).as_posix()} "
                  f"{hashlib.sha256(path.read_bytes()).hexdigest()}"
                  for path in root.rglob("*") if path.is_file())


def environment() -> str:
    """A listing's header: the Python, numpy and BLAS build that wrote the set."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas['name']} {blas['version']}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="new or empty directory to keep the set in "
                        "(default: a temporary directory, removed afterwards)")
    parser.add_argument("--listing", action="store_true", help="print the environment "
                        "header and one 'path sha256' line per file instead of the hash")
    args = parser.parse_args()
    with contextlib.ExitStack() as stack:
        root = Path(args.out or stack.enter_context(tempfile.TemporaryDirectory())).resolve()
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()):
            sys.exit(f"{root} is not empty")
        stack.callback(os.chdir, os.getcwd())
        write_set(root)
        lines = listing(root)
    if args.listing:
        print("\n".join([environment(), *lines]))
        return
    digest = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print(f"{len(lines)} files, listing sha256 {digest}")

if __name__ == "__main__":
    main()
