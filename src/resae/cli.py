"""Command-line entry points for reproducible experiment runs.

Every command reads one JSON config document, fills in all defaults, checks
each value's JSON type without coercing it, and echoes the fully resolved
config into the output directory, so a run can be re-executed exactly from
its own artifacts.  Exit codes: 0 success, 2 usage or config error, 3
training failed with a non-finite loss.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from .evaluation import (
    GRID_AXES,
    NRMSE_DEFINITION,
    compare,
    grid_search,
    grid_variants,
    residual_sensitivity,
    sensitivity_variants,
    train_and_score,
)
from .matrix import checked_json, checked_json_list, checked_names, field_types
from .network import NetworkSpec
from .training import (
    LossSpec,
    Regularizer,
    TrainConfig,
    TrainingDiverged,
    dataset_dims,
)


class ConfigError(ValueError):
    pass


# NetworkSpec field -> network-section key, for the two whose names differ
NETWORK_KEYS = {"acts": "activation", "use_batchnorm": "batchnorm"}

DEFAULT_CONFIG = {
    "dataset": {
        "source": "simulate",          # simulate | csv | spatial-field
        "n": 1000,
        "seed": 7,
        "noise_sd": 100.0,
        "path": None,
        "targets": ["y"],
        "task": "regression",
        "stratify_column": None,
        "target_bins": None,
        "delimiter": ",",
        "correlation_length": 0.15,
        "n_bumps": 4,
        "spatial_noise_sd": 0.5,
        "with_coordinates": True,
    },
    "network": {   # nnode, then NetworkSpec's own defaults; nfea and k come from the data
        "nnode": [32, 16, 8, 4],
        **{NETWORK_KEYS.get(f.name, f.name): f.default
           for f in fields(NetworkSpec) if f.default is not MISSING},
    },
    "training": asdict(TrainConfig(seed=1)),   # the section is TrainConfig's fields
    "loss": {
        "reconstruction_weight": 1.0,
        "regularizer": "none",
        "coefficient": 0.0,
    },
    "n_seeds": 5,
    "stratify": False,
    "grid": dict.fromkeys(GRID_AXES),   # every axis unset
    "out_dir": "runs/out",
}


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    """defaults with override's values; a default JSON object takes only an object."""
    out = {}
    for key, default in defaults.items():
        if key in override:
            value = override[key]
            if isinstance(default, dict):
                out[key] = _merge(default, _checked(value, dict, path + key), f"{path}{key}.")
            else:
                out[key] = value
        else:
            out[key] = default
    unknown = set(override) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(path + k for k in unknown)}")
    return out


def _finite_number(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text} in config")
    return value


def load_config(path: str | None) -> dict:
    if path is None:
        return _merge(DEFAULT_CONFIG, {})
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError("config document must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def _read(check, *args, prefix: str = ""):
    """check(*args); its ValueError, which names the config key, becomes a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _checked(value, kind: type, name: str):
    """The config value `name` as kind, if its JSON type fits (see checked_json)."""
    return _read(checked_json, value, kind, name)


# The config keys each dataset source reads: {config key: maker argument}.
# with_coordinates picks one dataset of the spatial-field pair.
DATASET_KEYS = {
    "simulate": {"n": "n", "seed": "seed", "noise_sd": "noise_sd"},
    "csv": {"path": "path", "targets": "target_columns", "task": "task",
            "stratify_column": "stratify_column", "target_bins": "target_bins",
            "delimiter": "delimiter"},
    "spatial-field": {"n": "n", "seed": "seed", "correlation_length": "correlation_length",
                      "n_bumps": "n_bumps", "spatial_noise_sd": "noise_sd",
                      "with_coordinates": "with_coordinates"},
}


def build_dataset(cfg: dict):
    """The chosen source's dataset.  Its maker checks the ranges, and a message
    that starts with one of its arguments becomes a ConfigError naming that
    argument's config key; a key of another source must keep its default."""
    d = cfg["dataset"]
    keys = DATASET_KEYS.get(d["source"])
    if keys is None:
        raise ConfigError(f"unknown dataset source {d['source']!r}")
    try:
        dataset = _make_dataset(d)
    except ValueError as exc:
        argument, _, rest = str(exc).partition(" ")
        if argument not in keys.values():
            raise
        key = next(key for key, arg in keys.items() if arg == argument)
        raise ConfigError(f"dataset.{key} {rest}") from None
    for key, value in d.items():
        if key != "source" and key not in keys and value != DEFAULT_CONFIG["dataset"][key]:
            raise ConfigError(f"dataset.{key} is not read by source '{d['source']}'")
    return dataset


def _make_dataset(d: dict):
    if d["source"] == "simulate":
        return data_mod.generate_simulated(n=_checked(d["n"], int, "dataset.n"),
                                           seed=_checked(d["seed"], int, "dataset.seed"),
                                           noise_sd=_checked(d["noise_sd"], float,
                                                             "dataset.noise_sd"))
    if d["source"] == "csv":
        if not d["path"]:
            raise ConfigError("dataset.path is required for source=csv")
        return data_mod.load_csv(_checked(d["path"], str, "dataset.path"),
                                 _read(checked_names, d["targets"], "dataset.targets"),
                                 d["task"],
                                 stratify_column=None if d["stratify_column"] is None else
                                 _checked(d["stratify_column"], str, "dataset.stratify_column"),
                                 target_bins=None if d["target_bins"] is None else
                                 _read(checked_json_list, d["target_bins"], float,
                                       "dataset.target_bins"),
                                 delimiter=d["delimiter"])
    pair = data_mod.generate_spatial_field(
        n=_checked(d["n"], int, "dataset.n"), seed=_checked(d["seed"], int, "dataset.seed"),
        correlation_length=_checked(d["correlation_length"], float,
                                    "dataset.correlation_length"),
        n_bumps=_checked(d["n_bumps"], int, "dataset.n_bumps"),
        noise_sd=_checked(d["spatial_noise_sd"], float, "dataset.spatial_noise_sd"))
    return (pair.with_coordinates
            if _checked(d["with_coordinates"], bool, "dataset.with_coordinates")
            else pair.plain)


def build_spec(cfg: dict, dataset) -> NetworkSpec:
    """The network section, read by NetworkSpec.from_dict, with nfea and k from the data."""
    return _read(NetworkSpec.from_dict, {**cfg["network"], **dataset_dims(dataset)},
                 "network", NETWORK_KEYS)


def build_train_config(cfg: dict) -> TrainConfig:
    """Each of TrainConfig's fields, read from the training section as its annotated
    type, in field order; a TrainConfig checks its ranges when made."""
    return _read(TrainConfig, *(_checked(cfg["training"][key], kind, f"training.{key}")
                                for key, kind in field_types(TrainConfig)),
                 prefix="invalid training config: ")


def build_regularizer(cfg: dict) -> Regularizer:
    """The loss section's penalty; a Regularizer validates itself when made."""
    return _read(Regularizer, cfg["loss"]["regularizer"],
                 _checked(cfg["loss"]["coefficient"], float, "loss.coefficient"),
                 prefix="invalid loss config: ")


def build_reconstruction_weight(cfg: dict) -> float:
    """loss.reconstruction_weight, once a LossSpec made with it is valid.  Each
    job's loss kind follows from its own spec (training.default_loss_for)."""
    weight = _checked(cfg["loss"]["reconstruction_weight"], float, "loss.reconstruction_weight")
    return _read(LossSpec, "mse", weight, prefix="invalid loss config: ").reconstruction_weight


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _apply_overrides(cfg: dict, args) -> None:
    if getattr(args, "seed", None) is not None:
        cfg["training"]["seed"] = args.seed
    if getattr(args, "n_seeds", None) is not None:
        cfg["n_seeds"] = args.n_seeds
    residual = getattr(args, "residual", None)
    if residual in ("on", "off"):
        cfg["network"]["residual"] = "full" if residual == "on" else "off"
    elif residual is not None:
        try:
            cfg["network"]["residual"] = int(residual)
        except ValueError:
            raise ConfigError(f"--residual must be on, off, or an integer, "
                              f"got {residual!r}") from None


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    ds = data_mod.generate_simulated(n=args.n, seed=args.seed, noise_sd=args.noise_sd)
    rows = np.column_stack([ds.features, ds.targets])
    header = ",".join(ds.feature_names + ds.target_names)
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {ds.n_rows} rows to {args.out}")
    return 0


@dataclass
class _Run:
    """A validated command set-up: what every training command needs."""

    cfg: dict
    out: Path
    dataset: data_mod.Dataset
    spec: NetworkSpec
    train_cfg: TrainConfig
    regularizer: Regularizer
    reconstruction_weight: float
    n_seeds: int
    stratify: bool
    grid_axes: dict | None = None    # the grid axes that the grid command's config sets


def _set_up(args) -> _Run:
    """Load, override and validate the config, then echo it as config.json.

    Every part, and every variant of a sweep, is built before anything is
    written, so a config error leaves no artifacts behind.
    """
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    out = Path(args.out) if args.out else Path(_checked(cfg["out_dir"], str, "out_dir"))
    cfg["out_dir"] = str(out)
    dataset = build_dataset(cfg)
    spec = build_spec(cfg, dataset)
    run = _Run(cfg, out, dataset, spec, build_train_config(cfg),
               build_regularizer(cfg), build_reconstruction_weight(cfg),
               _checked(cfg["n_seeds"], int, "n_seeds"),
               _checked(cfg["stratify"], bool, "stratify"))
    if run.stratify and dataset.stratify is None:
        raise ConfigError("stratify is true, but the dataset has no stratify column")
    if args.command != "train" and run.n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {run.n_seeds}")
    if args.command == "grid":
        run.grid_axes = {key: values for key, values in cfg["grid"].items()
                         if values is not None and values != []}
        if not run.grid_axes:
            raise ConfigError(f"grid config is empty: set at least one of {', '.join(GRID_AXES)}")
        _read(grid_variants, spec, run.train_cfg, run.grid_axes)
    elif args.command == "sensitivity":
        _read(sensitivity_variants, spec, run.train_cfg, prefix="network.")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg)
    return run


def cmd_train(args) -> int:
    run = _set_up(args)
    cfg, out, dataset, train_cfg = run.cfg, run.out, run.dataset, run.train_cfg
    _write_json(out / "dataset.json", dataset.manifest())

    split_idx = data_mod.split(dataset, seed=train_cfg.seed, stratify=run.stratify)
    result, model = train_and_score(dataset, split_idx, run.spec, train_cfg,
                                    run.regularizer, run.reconstruction_weight)
    metrics = {"config": cfg, "converged": result.converged, "seed": result.seed,
               "parameter_count": result.parameter_count}
    if model is None:
        _write_json(out / "metrics.json", {**metrics, "diagnostic": result.diagnostic})
        print(f"error: {result.diagnostic}", file=sys.stderr)
        return 3

    model.history.to_csv(out / "history.csv")
    _write_json(out / "model.json", {**model.to_dict(), "config": cfg})
    _write_json(out / "metrics.json", {
        **metrics,
        "best_epoch": model.history.best_epoch,
        "epochs_run": len(model.history),
        "definitions": {"nrmse": NRMSE_DEFINITION},
        "validation": result.validation.to_dict(),
        "test": result.test.to_dict(),
    })
    print(f"run artifacts in {out}")
    return 0


def cmd_sweep(args) -> int:
    """compare, grid and sensitivity: one sweep of (variant, seed) jobs on shared splits."""
    run = _set_up(args)
    cfg, out = run.cfg, run.out
    sweep_args = (run.dataset, run.spec, run.train_cfg)
    options = dict(n_seeds=run.n_seeds, regularizer=run.regularizer,
                   reconstruction_weight=run.reconstruction_weight, stratify=run.stratify)
    if args.command == "compare":
        result = compare(*sweep_args, **options)
        tables = {"runs.csv": result.write_runs_csv}
        done = f"comparison artifacts in {out}"
    elif args.command == "grid":
        result = grid_search(*sweep_args, run.grid_axes, **options)
        tables = {"grid.csv": result.write_cells_csv}
        if set(run.grid_axes) == {"batch_sizes"}:
            tables["curve.csv"] = result.write_curve_csv
        done = f"grid artifacts in {out}; best cell: {result.best().label}"
    else:
        result = residual_sensitivity(*sweep_args, **options)
        tables = {"sensitivity.csv": result.write_csv}
        done = f"sensitivity artifacts in {out}"
    _write_json(out / "report.json", {**result.to_dict(), "config": cfg})
    for name, write in tables.items():
        write(out / name)
    print(done)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resae",
        description="Nested-residual autoencoder experiments on tabular data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate the simulated benchmark as CSV")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--noise-sd", type=float, default=100.0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    for name, fn, help_text in (
            ("train", cmd_train, "train one network and write model/history/metrics"),
            ("compare", cmd_sweep, "residual vs regular arms over shared seeds"),
            ("grid", cmd_sweep, "factorial grid search ranked by validation metric"),
            ("sensitivity", cmd_sweep, "sweep the number of outermost shortcuts")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (defaults used if omitted)")
        p.add_argument("--out", help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, help="override training seed")
        p.add_argument("--n-seeds", type=_positive_int, help="override number of seeds")
        p.add_argument("--residual", help="on, off, or number of outermost shortcuts")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except TrainingDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
