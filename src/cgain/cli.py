"""Command-line driver: corrupt, train, impute, and benchmark subcommands.

Configuration precedence is defaults < config file (KEY=VALUE lines via
--config) < explicit command-line flags, with the CGAIN_SEED environment
variable as a seed fallback. Every run prints its fully resolved
configuration first, so a run is reconstructible from its own output.

Exit status: 0 success, 1 validation/input error, 2 runtime failure.
Errors go to stderr as one machine-parseable line:
cgain-error: {validation|runtime}: <message>.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .nn import OPTIMIZERS, make_rng
from .data import (BINARY, corrupt_mcar, denormalize, load_csv, load_incomplete_csv,
                   read_csv_table, write_csv, write_mask_csv)
from .imputer import ADV_SIGNS, TrainConfig, impute, load_model, save_model, train
from .evaluate import (EVAL_MODES, METHODS, mean_std, run_benchmark, run_imbalance_benchmark,
                       time_methods, write_report_csv, write_report_json, write_timing_csv)

DEFAULT_RATES = "0.05,0.1,0.15,0.2"
DEFAULT_METHODS = "cgain,gain,mean,mice_lite"
DEFAULT_IMBALANCE_RATE = 0.2
SEED_ENV = "CGAIN_SEED"


def _flag(default, help: str, choices=None):
    """A RunConfig field with the help text and choices of its --flag."""
    return field(default=default, metadata={"help": help, "choices": choices})


@dataclass
class RunConfig:
    """Every knob the toolkit exposes, each declared once: the field name is
    the config-file key and, with '-' for '_', the command-line flag.
    Training knobs default to TrainConfig's values."""

    data: str = _flag("", "input CSV (header row, one label column)")
    label_col: str = _flag("", "label column name or index")
    method: str = _flag("", "cgain | gain | mean | mice_lite (comma list for benchmark)")
    rate: str = _flag("", "missing rate, or comma list for benchmark")
    reps: int = _flag(10, "repetitions (strict mode: fold count)")
    seed: int | None = _flag(None, f"root seed (fallback: ${SEED_ENV}, then 0)")
    alpha: float = _flag(TrainConfig.alpha, "reconstruction loss weight")
    batch: int = _flag(TrainConfig.batch_size, "mini-batch size")
    iters: int = _flag(TrainConfig.iterations, "training iteration budget")
    optimizer: str = _flag(TrainConfig.optimizer, "optimizer kind", OPTIMIZERS)
    lr: float = _flag(TrainConfig.learning_rate, "learning rate")
    hidden_mult: int = _flag(TrainConfig.hidden_multiplier,
                             "hidden width as a multiple of feature count")
    imbalance: str = _flag("", "comma list of minority fractions (benchmark)")
    out: str = _flag("", "output path stem")
    adv_sign: str = _flag(TrainConfig.adversarial_sign,
                          "generator adversarial-term sign convention", ADV_SIGNS)
    eval_mode: str = _flag("repetition", "benchmark evaluation mode", EVAL_MODES)
    jobs: int = _flag(0, "parallel benchmark workers (0 = all cores)")
    model: str = _flag("", "model file (impute input)")
    mask: str = _flag("", "mask CSV accompanying --data")


# RunConfig field -> the TrainConfig field it sets
_TRAIN_FIELDS = {"alpha": "alpha", "batch": "batch_size", "iters": "iterations",
                 "optimizer": "optimizer", "lr": "learning_rate",
                 "hidden_mult": "hidden_multiplier", "adv_sign": "adversarial_sign",
                 "seed": "seed"}
# parses a flag or config-file value by the field's annotation
_PARSERS = {"str": str, "int": int, "float": float, "int | None": int}


def parse_config_file(path) -> dict:
    """Flat KEY=VALUE pairs; '#' starts a comment; unknown keys are errors."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(RunConfig)}
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in parsers:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = parsers[key](value)
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.seed is None:
        env = os.environ.get(SEED_ENV)
        cfg.seed = int(env) if env else 0
    if cfg.jobs == 0:
        cfg.jobs = os.cpu_count() or 1
    return cfg


def print_config(cfg: RunConfig, command: str) -> None:
    print(f"config command={command}")
    for f in fields(RunConfig):
        print(f"config {f.name}={getattr(cfg, f.name)}")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None


def _label_col(cfg: RunConfig):
    if cfg.label_col == "":
        raise ValueError("--label-col is required")
    s = cfg.label_col
    return int(s) if s.lstrip("-").isdigit() else s


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) == "":
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _train_config(cfg: RunConfig, conditional: bool) -> TrainConfig:
    return TrainConfig(conditional=conditional,
                       **{train: getattr(cfg, run) for run, train in _TRAIN_FIELDS.items()})


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_corrupt(cfg: RunConfig) -> int:
    _require(cfg, "data", "out")
    rates = _parse_floats(cfg.rate, "rate")
    if len(rates) != 1:
        raise ValueError(f"corrupt needs exactly one --rate, got {cfg.rate!r}")
    header, rows = read_csv_table(cfg.data)
    dataset = load_csv(cfg.data, _label_col(cfg), table=(header, rows))
    inc = corrupt_mcar(dataset, rates[0], make_rng(cfg.seed))

    feature_cols = np.delete(np.arange(len(header)), header.index(dataset.label_column))
    hidden_rows, hidden_cols = np.nonzero(inc.mask == 0)
    for i, j in zip(hidden_rows.tolist(), feature_cols[hidden_cols].tolist()):
        rows[i][j] = ""
    data_path, mask_path = f"{cfg.out}.data.csv", f"{cfg.out}.mask.csv"
    write_csv(data_path, header, rows)
    write_mask_csv(mask_path, inc.mask, [c.name for c in dataset.schema])

    achieved = 1.0 - float(inc.mask.mean())
    print(f"wrote {data_path}")
    print(f"wrote {mask_path}")
    print(f"missing_fraction={achieved!r}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "data", "out")
    method = cfg.method or "cgain"
    if method not in ("cgain", "gain"):
        raise ValueError(f"train needs --method cgain or gain, got {method!r}")
    tc = _train_config(cfg, conditional=(method == "cgain"))
    tc.validate()   # fail before any file or training work

    if cfg.rate:
        rates = _parse_floats(cfg.rate, "rate")
        if len(rates) != 1:
            raise ValueError(f"train needs a single --rate, got {cfg.rate!r}")
        dataset = load_csv(cfg.data, _label_col(cfg))
        inc = corrupt_mcar(dataset, rates[0], make_rng(cfg.seed))
    else:
        inc = load_incomplete_csv(cfg.data, _label_col(cfg), mask_path=cfg.mask or None)

    model, trace = train(inc, tc)
    model_path, trace_path = f"{cfg.out}.model", f"{cfg.out}.trace.csv"
    save_model(model_path, model)
    write_csv(trace_path, ["iteration", "d_loss", "g_adversarial", "g_reconstruction", "seconds"],
              zip(map(str, trace.iterations), map(repr, trace.d_loss), map(repr, trace.g_adversarial),
                  map(repr, trace.g_reconstruction), map(repr, trace.seconds)))
    print(f"wrote {model_path}")
    print(f"wrote {trace_path}")
    if trace.g_reconstruction:
        print(f"final_reconstruction_loss={trace.g_reconstruction[-1]!r}")
    return 0


def cmd_impute(cfg: RunConfig) -> int:
    _require(cfg, "data", "out", "model")
    model = load_model(cfg.model)
    header, rows = read_csv_table(cfg.data)
    inc = load_incomplete_csv(cfg.data, _label_col(cfg), mask_path=cfg.mask or None,
                              table=(header, rows))
    if inc.dataset.n_features != model.n_features:
        raise ValueError(f"data has {inc.dataset.n_features} features, model expects {model.n_features}")
    if inc.dataset.column_kinds != model.column_kinds:
        raise ValueError("column kinds of the data do not match the model's schema")

    completed = impute(model, inc, make_rng(cfg.seed))
    raw = denormalize(inc.dataset.schema, completed.features, round_binary=True)

    feature_cols = np.delete(np.arange(len(header)), header.index(inc.dataset.label_column))
    binary = np.array([spec.kind == BINARY for spec in inc.dataset.schema])
    hidden_rows, hidden_cols = np.nonzero(inc.mask == 0)
    values = raw[hidden_rows, hidden_cols].tolist()
    for i, j, v, is_binary in zip(hidden_rows.tolist(), feature_cols[hidden_cols].tolist(),
                                  values, binary[hidden_cols].tolist()):
        rows[i][j] = str(int(v)) if is_binary else repr(v)
    out_path = f"{cfg.out}.imputed.csv"
    write_csv(out_path, header, rows)
    print(f"wrote {out_path}")
    print(f"filled_cells={hidden_rows.size}")
    return 0


def cmd_benchmark(cfg: RunConfig) -> int:
    _require(cfg, "data", "out")
    methods = [m for m in (cfg.method or DEFAULT_METHODS).split(",") if m.strip()]
    if not methods:
        raise ValueError("benchmark needs at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    dataset = load_csv(cfg.data, _label_col(cfg))
    tc = _train_config(cfg, conditional=True)   # per-method flag set by the harness
    fractions = _parse_floats(cfg.imbalance, "imbalance") if cfg.imbalance else []

    if fractions:
        rates = _parse_floats(cfg.rate, "rate") if cfg.rate else [DEFAULT_IMBALANCE_RATE]
        if len(rates) != 1:
            raise ValueError(f"the imbalance grid uses a single missing rate, got {cfg.rate!r}")
        report = run_imbalance_benchmark(dataset, fractions, methods, rates[0], cfg.reps,
                                         root_seed=cfg.seed, train_config=tc,
                                         eval_mode=cfg.eval_mode, jobs=cfg.jobs)
    else:
        rates = _parse_floats(cfg.rate or DEFAULT_RATES, "rate")
        report = run_benchmark(dataset, methods, rates, cfg.reps, root_seed=cfg.seed,
                               train_config=tc, eval_mode=cfg.eval_mode, jobs=cfg.jobs)

    csv_path, json_path = f"{cfg.out}.report.csv", f"{cfg.out}.report.json"
    timing_path = f"{cfg.out}.timing.csv"
    write_report_csv(csv_path, report)
    write_report_json(json_path, report)
    write_timing_csv(timing_path, report)
    for path in (csv_path, json_path, timing_path):
        print(f"wrote {path}")
    for cell in report.cells:
        frac = "" if cell.minority_fraction is None else f" fraction={cell.minority_fraction!r}"
        if cell.reps:
            mean, std = mean_std([r.overall for r in cell.reps])
            line = f"rmse_mean={mean!r} rmse_std={'' if std is None else repr(std)}"
        else:
            line = "rmse_mean= rmse_std="
        print(f"result method={cell.method} rate={cell.missing_rate!r}{frac} {line} reps={len(cell.reps)}")
    for method, entry in time_methods(report).items():
        print(f"timing method={method} total_seconds={entry['total_seconds']!r} "
              f"mean_seconds={entry['mean_seconds']!r}")

    failed = [c for c in report.cells if c.error]
    if failed:
        for c in failed:
            print(f"cgain-error: runtime: cell method={c.method} rate={c.missing_rate}: {c.error}",
                  file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for f in fields(RunConfig):
        common.add_argument(f"--{f.name.replace('_', '-')}", type=_PARSERS[f.type], **f.metadata)
    common.add_argument("--config", help="KEY=VALUE config file; flags override it")

    parser = argparse.ArgumentParser(prog="cgain",
                                     description="Missing-data imputation with class-conditional "
                                                 "adversarial training, plus baselines and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("corrupt", parents=[common], help="hide cells at random, write data+mask CSVs")
    sub.add_parser("train", parents=[common], help="train an imputation model")
    sub.add_parser("impute", parents=[common], help="fill an incomplete CSV with a trained model")
    sub.add_parser("benchmark", parents=[common], help="run the method/rate benchmark grid")
    return parser


_COMMANDS = {
    "corrupt": cmd_corrupt,
    "train": cmd_train,
    "impute": cmd_impute,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        print_config(cfg, args.command)
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"cgain-error: validation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # anything unexpected is a runtime failure
        print(f"cgain-error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
