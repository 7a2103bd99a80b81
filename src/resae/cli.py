"""Command-line entry points for reproducible experiment runs.

Every command reads one JSON config document, fills in all defaults, checks
each value's JSON type without coercing it, and echoes the fully resolved
config into the output directory, so a run can be re-executed exactly from
its own artifacts.  Exit codes: 0 success, 2 usage or config error (a size
too large for memory included), 3 training failed with a non-finite loss.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .evaluation import (
    GRID_AXES,
    NRMSE_DEFINITION,
    Job,
    compare,
    grid_search,
    grid_variants,
    residual_sensitivity,
    run_job,
    sensitivity_variants,
)
from .matrix import checked_json, checked_json_list, checked_names, read_record
from .network import NetworkSpec
from .training import SharedSettings, TrainConfig, dataset_dims, loss_kind


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
        "target_bins": None,
        "delimiter": ",",
        "with_coordinates": True,
    },
    "network": {   # nnode, then NetworkSpec's own defaults; nfea and k come from the data
        "nnode": [32, 16, 8, 4],
        **{NETWORK_KEYS.get(f.name, f.name): f.default
           for f in fields(NetworkSpec) if f.default is not MISSING},
    },
    "training": asdict(TrainConfig(seed=1)),   # the section is TrainConfig's fields
    "loss": asdict(SharedSettings()),          # and this one SharedSettings'
    "n_seeds": 5,
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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ConfigError, not the last one."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"repeated key {key!r} in config")
        out[key] = value
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
            user = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number,
                             object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ConfigError:
        raise
    except ValueError as exc:   # a JSONDecodeError, or an integer over Python's digit limit
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


def _checked(value, kind, name: str):
    """The config value `name` as kind, if it fits (see checked_json)."""
    return _read(checked_json, value, kind, name)


# {source: (maker, {config key, also the maker's argument: JSON kind or reader})}; null fits
# a key whose default is null.  Makers look data_mod's functions up when called, as a tracer
# may wrap them.
DATASET_KEYS = {
    "simulate": (lambda **arguments: data_mod.generate_simulated(**arguments),
                 {"n": int, "seed": int, "noise_sd": float}),
    "csv": (lambda **arguments: data_mod.load_csv(**arguments),
            {"path": str, "targets": checked_names, "task": str, "delimiter": str,
             "target_bins": lambda value, name: checked_json_list(value, float, name)}),
    "spatial-field": (lambda **arguments: data_mod.generate_spatial_field(**arguments),
                      {"n": int, "seed": int, "with_coordinates": bool}),
}
_DATASET_KINDS = {key: kind for _, keys in DATASET_KEYS.values() for key, kind in keys.items()}


def _dataset_value(d: dict, key: str):
    """dataset.key as its JSON kind, if it fits; a ConfigError names it otherwise."""
    if d[key] is None and DEFAULT_CONFIG["dataset"][key] is None:
        return None
    return _checked(d[key], _DATASET_KINDS[key], f"dataset.{key}")


def build_dataset(cfg: dict):
    """The chosen source's dataset, its keys read as their kinds and passed as the
    maker's arguments; a maker's message that starts with one of them becomes a
    ConfigError naming it.  A key of another source must keep its default and kind."""
    d = cfg["dataset"]
    if not isinstance(d["source"], str) or d["source"] not in DATASET_KEYS:
        raise ConfigError(f"unknown dataset source {d['source']!r}")
    maker, keys = DATASET_KEYS[d["source"]]
    if d["source"] == "csv" and not d["path"]:
        raise ConfigError("dataset.path is required for source=csv")
    arguments = {key: _dataset_value(d, key) for key in keys}
    try:
        dataset = maker(**arguments)
    except ValueError as exc:
        key, _, rest = str(exc).partition(" ")
        if key not in keys:
            raise
        raise ConfigError(f"dataset.{key} {rest}") from None
    for key, value in d.items():
        if key != "source" and key not in keys:
            if value != DEFAULT_CONFIG["dataset"][key]:
                raise ConfigError(f"dataset.{key} is not read by source '{d['source']}'")
            _dataset_value(d, key)
    return dataset


def build_spec(cfg: dict, dataset) -> NetworkSpec:
    """The network section, read by read_record as a NetworkSpec; nfea and k from the data."""
    return _read(read_record, NetworkSpec, {**cfg["network"], **dataset_dims(dataset)},
                 "network", NETWORK_KEYS)


def build_train_config(cfg: dict) -> TrainConfig:
    """The training section, read by read_record as a TrainConfig."""
    return _read(read_record, TrainConfig, cfg["training"], "training")


def build_shared(cfg: dict) -> SharedSettings:
    """The loss section, read by read_record as the SharedSettings every job shares."""
    return _read(read_record, SharedSettings, cfg["loss"], "loss")


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
    shared: SharedSettings
    n_seeds: int
    grid_axes: dict | None = None    # the grid axes that the config sets


def _set_up(args) -> _Run:
    """Load, override and validate the config, then echo it as config.json.

    Every part, and every job of a sweep, is built before anything is
    written, so a config error leaves no artifacts behind.
    """
    cfg = load_config(args.config)
    _apply_overrides(cfg, args)
    out = Path(args.out) if args.out else Path(_checked(cfg["out_dir"], str, "out_dir"))
    cfg["out_dir"] = str(out)
    dataset = build_dataset(cfg)
    spec = build_spec(cfg, dataset)
    run = _Run(cfg, out, dataset, spec, build_train_config(cfg), build_shared(cfg),
               _checked(cfg["n_seeds"], int, "n_seeds"))
    if args.command != "train" and run.n_seeds < 1:
        raise ConfigError(f"n_seeds must be >= 1, got {run.n_seeds}")
    run.grid_axes = {key: values for key, values in cfg["grid"].items() if values is not None}
    if args.command == "grid" and not run.grid_axes:
        raise ConfigError(f"grid config is empty: set at least one of {', '.join(GRID_AXES)}")
    if run.grid_axes:   # every command checks the grid it echoes, though only grid runs it
        _read(grid_variants, spec, run.train_cfg, run.grid_axes)
    if args.command == "sensitivity":
        _read(sensitivity_variants, spec, run.train_cfg, prefix="network.")
    options = run.grid_axes.get("output_options") if args.command == "grid" else None
    for i, option in enumerate(options or [spec.output_option]):   # each head the jobs train
        _read(loss_kind, dataset.task, replace(spec, output_option=option),
              prefix=f"grid.output_options[{i}]: " if options else "network.")
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "config.json", cfg)
    return run


def cmd_train(args) -> int:
    run = _set_up(args)
    cfg, out = run.cfg, run.out
    _write_json(out / "dataset.json", run.dataset.manifest())
    result, model = run_job(run.dataset, Job("train", run.spec, run.train_cfg), run.shared)
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
    """compare, grid and sensitivity: one run table of seeded jobs, grouped by label."""
    run = _set_up(args)
    cfg, out = run.cfg, run.out
    sweep_args = (run.dataset, run.spec, run.train_cfg)
    if args.command == "compare":
        result = compare(*sweep_args, run.n_seeds, run.shared)
        tables = {"runs.csv": result.write_runs_csv}
        done = f"comparison artifacts in {out}"
    elif args.command == "grid":
        result = grid_search(*sweep_args, run.grid_axes, run.n_seeds, run.shared)
        tables = {"grid.csv": result.write_cells_csv}
        if set(run.grid_axes) == {"batch_sizes"}:
            tables["curve.csv"] = result.write_curve_csv
        done = f"grid artifacts in {out}; best cell: {result.best().label}"
    else:
        result = residual_sensitivity(*sweep_args, run.n_seeds, run.shared)
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
        if fn is cmd_sweep:   # train runs one seed
            p.add_argument("--n-seeds", type=_positive_int, help="override number of seeds")
        if name in ("train", "grid"):   # compare and sensitivity set the shortcuts themselves
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
    except (ValueError, OSError, MemoryError) as exc:   # MemoryError: a size beyond memory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
