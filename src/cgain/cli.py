"""Command-line driver: corrupt, train, impute, and benchmark subcommands.

A subcommand takes the flags and config keys of the fields it reads, no more.
Any other flag or key, and a shortened flag (--it for --iters), is refused
before --data is read or any file is written; `cgain <command> --help` lists a
command's own. Precedence is defaults < config file (KEY=VALUE lines via
--config) < command-line flags; nothing comes from the environment. An int
value (--reps, --seed, --batch, --iters, --hidden-mult, --jobs) is ASCII
digits alone. In a comma list (--method, --rate, --imbalance) spaces around
items are ignored, and a list with no item is refused. Every run first
prints its command's resolved fields, so it can be rebuilt from its output.

A missing cell is an empty feature cell of --data. Only corrupt hides
cells: it blanks them in a complete file, at exactly one --rate, and writes
a mask file that records which it hid and that no command reads back. train
and impute read missingness from --data alone.

Exit status: 0 success, 1 validation/input error (a bad flag too), 2 runtime failure.
Errors go to stderr as one machine-parseable line:
cgain-error: {validation|runtime}: <message>.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .nn import make_rng
from .data import (BINARY, check_missing_rate, corrupt_mcar, denormalize, load_csv, load_incomplete_csv,
                   read_csv_table, write_csv, write_mask_csv)
from .imputer import TrainConfig, impute, load_model, save_model, train
from .evaluate import (EVAL_MODES, GANS, METHODS, check_grid, report_csv_rows, run_benchmark, write_report_csv,
                       write_report_json)

DEFAULT_RATES = "0.05,0.1,0.15,0.2"
DEFAULT_METHODS = ",".join(METHODS)
DEFAULT_IMBALANCE_RATE = "0.2"
_ALL = "corrupt train impute benchmark"


def _flag(default, help: str, commands: str, choices=None, train: str | None = None):
    """A RunConfig field: its --flag's help and choices, its subcommands, the TrainConfig field it sets."""
    return field(default=default, metadata=dict(help=help, commands=commands.split(), choices=choices,
                                                train=train))


def _train_flag(name: str, help: str):
    """A RunConfig field that sets TrainConfig's field name, with its default."""
    return _flag(getattr(TrainConfig, name), help, "train benchmark", train=name)


@dataclass
class RunConfig:
    """Every knob the toolkit exposes, each declared once with the subcommands that read it: the field
    name is their config-file key and, with '-' for '_', their command-line flag.
    Training knobs name the TrainConfig field they set and default to its value."""

    data: str = _flag("", "input CSV (header row, one label column; empty feature cells are missing)", _ALL)
    label_col: str = _flag("", "label column: a header name, or else a 0-based index", _ALL)
    method: str = _flag("", "cgain | gain | mean | mice_lite; a comma list for benchmark", "train benchmark")
    rate: str = _flag("", "missing rate to hide; a comma list for benchmark", "corrupt benchmark")
    reps: int = _flag(10, "repetitions (strict mode: fold count)", "benchmark")
    seed: int = _flag(TrainConfig.seed, "root seed", _ALL, train="seed")
    alpha: float = _train_flag("alpha", "reconstruction loss weight")
    batch: int = _train_flag("batch_size", "mini-batch size")
    iters: int = _train_flag("iterations", "training iteration budget")
    lr: float = _train_flag("learning_rate", "learning rate")
    hidden_mult: int = _train_flag("hidden_multiplier", "hidden width as a multiple of feature count")
    imbalance: str = _flag("", "comma list of minority fractions", "benchmark")
    out: str = _flag("", "output path stem", _ALL)
    eval_mode: str = _flag("repetition", "evaluation mode", "benchmark", EVAL_MODES)
    jobs: int = _flag(0, "parallel workers (0 = the CPUs this process may use)", "benchmark")
    model: str = _flag("", "model file", "impute")


def command_fields(command: str) -> list:
    """The RunConfig fields that command reads, in declaration order."""
    return [f for f in fields(RunConfig) if command in f.metadata["commands"]]


def _natural(text: str) -> int:
    """An int field's value given as text: a non-negative integer in ASCII decimal digits alone."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# parses a --flag value, given on the command line or in a config file, by its field's annotation
_PARSERS = {"str": str, "int": _natural, "float": float}


def parse_config_file(path, command: str) -> dict:
    """Flat KEY=VALUE pairs; '#' starts a comment; a key that command does not read is an error.
    A value is parsed as its --flag's value is, type and choices included,
    and an error names the file, the line and the key. A leading UTF-8
    byte-order mark is dropped."""
    known, flags = {f.name for f in command_fields(command)}, _flags(command)
    values: dict = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected KEY=VALUE, got {text!r}")
            key, value = (part.strip() for part in text.split("=", 1))
            if key not in known:
                raise ValueError(f"{path}:{lineno}: {command} takes no config key {key!r}")
            try:
                values[key] = getattr(flags.parse_args([f"--{key.replace('_', '-')}={value}"]), key)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: key {key!r}: {exc}") from None
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(**(parse_config_file(args.config, args.command) if args.config else {}))
    for f in command_fields(args.command):
        value = getattr(args, f.name)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.jobs == 0:   # the CPUs this process may run on
        cfg.jobs = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cfg


def print_config(cfg: RunConfig, command: str) -> None:
    print(f"config command={command}")
    for f in command_fields(command):
        print(f"config {f.name}={getattr(cfg, f.name)}")


def _parse_floats(text: str, what: str) -> list[float]:
    """The values of the comma list given to --{what}; it must hold at least one."""
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse {what} list {text!r}") from None
    if not values:
        raise ValueError(f"--{what} needs at least one value, got {text!r}")
    return values


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) == "":
            raise ValueError(f"--{name.replace('_', '-')} is required")


def _train_config(cfg: RunConfig, conditional: bool) -> TrainConfig:
    return TrainConfig(conditional=conditional, **{f.metadata["train"]: getattr(cfg, f.name)
                                                   for f in fields(RunConfig) if f.metadata["train"]})


def _write_hidden(header: list[str], rows: list[list[str]], inc, texts) -> None:
    """Put texts, in row-major order, into the CSV cells hidden by inc.mask."""
    feature_cols = np.delete(np.arange(len(header)), header.index(inc.dataset.label_column))
    hidden_rows, hidden_cols = np.nonzero(inc.mask == 0)
    for i, j, text in zip(hidden_rows.tolist(), feature_cols[hidden_cols].tolist(), texts):
        rows[i][j] = text


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_corrupt(cfg: RunConfig) -> int:
    _require(cfg, "data", "label_col", "out")
    rates = _parse_floats(cfg.rate, "rate")
    if len(rates) != 1:
        raise ValueError(f"corrupt needs exactly one --rate, got {cfg.rate!r}")
    check_missing_rate(rates[0])   # fail before any file work
    header, rows = read_csv_table(cfg.data)
    inc = corrupt_mcar(load_csv(cfg.data, cfg.label_col, table=(header, rows)), rates[0], make_rng(cfg.seed))

    _write_hidden(header, rows, inc, itertools.repeat(""))
    data_path, mask_path = f"{cfg.out}.data.csv", f"{cfg.out}.mask.csv"
    write_csv(data_path, header, rows)
    write_mask_csv(mask_path, inc.mask, [c.name for c in inc.dataset.schema])

    achieved = 1.0 - float(inc.mask.mean())
    print(f"wrote {data_path}")
    print(f"wrote {mask_path}")
    print(f"missing_fraction={achieved!r}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    _require(cfg, "data", "label_col", "out")
    method = cfg.method or "cgain"
    if method not in GANS:
        raise ValueError(f"train needs --method {' or '.join(GANS)}, got {method!r}")
    tc = _train_config(cfg, conditional=GANS[method])
    tc.validate()   # fail before any file or training work

    inc = load_incomplete_csv(cfg.data, cfg.label_col, table=read_csv_table(cfg.data))

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
    _require(cfg, "data", "label_col", "out", "model")
    model = load_model(cfg.model)
    header, rows = read_csv_table(cfg.data)
    inc = load_incomplete_csv(cfg.data, cfg.label_col, table=(header, rows))
    completed = impute(model, inc, make_rng(cfg.seed))
    raw = denormalize(inc.dataset.schema, completed.features, round_binary=True)

    hidden = inc.mask == 0
    binary = np.broadcast_to([spec.kind == BINARY for spec in inc.dataset.schema], raw.shape)
    texts = [str(int(v)) if is_binary else repr(v)
             for v, is_binary in zip(raw[hidden].tolist(), binary[hidden].tolist())]
    _write_hidden(header, rows, inc, texts)
    out_path = f"{cfg.out}.imputed.csv"
    write_csv(out_path, header, rows)
    print(f"wrote {out_path}")
    print(f"filled_cells={len(texts)}")
    return 0


def cmd_benchmark(cfg: RunConfig) -> int:
    _require(cfg, "data", "label_col", "out")
    methods = [m.strip() for m in (cfg.method or DEFAULT_METHODS).split(",") if m.strip()]
    fractions = _parse_floats(cfg.imbalance, "imbalance") if cfg.imbalance else None
    default_rates = DEFAULT_RATES if fractions is None else DEFAULT_IMBALANCE_RATE
    rates = _parse_floats(cfg.rate or default_rates, "rate")
    grid = dict(methods=methods, missing_rates=rates, repetitions=cfg.reps, root_seed=cfg.seed,
                train_config=_train_config(cfg, conditional=True),   # per-method flag set by the harness
                eval_mode=cfg.eval_mode, jobs=cfg.jobs, minority_fractions=fractions)
    check_grid(**grid)   # fail before any file or training work
    report = run_benchmark(load_csv(cfg.data, cfg.label_col), **grid)

    csv_path, json_path = f"{cfg.out}.report.csv", f"{cfg.out}.report.json"
    write_report_csv(csv_path, report)
    write_report_json(json_path, report)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    failures = []
    # each cell's rows are its 'all' row, then one per class
    all_rows = report_csv_rows(report)[1::1 + len(report.class_names)]
    for cell, (_, method, rate, fraction, _, mean, std, reps) in zip(report.cells, all_rows):
        where = f"method={method} rate={rate}" + (f" fraction={fraction}" if fraction else "")
        print(f"result {where} rmse_mean={mean} rmse_std={std} reps={reps}")
        if cell.error:
            failures.append(f"cgain-error: runtime: cell {where}: {cell.error}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 2 if failures else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a usage error, such as a bad flag value: exit 1."""

    def error(self, message):
        raise ValueError(message)


def _flags(command: str) -> argparse.ArgumentParser:
    """The --flag of every RunConfig field that command reads, and --config."""
    flags = _Parser(add_help=False, allow_abbrev=False)
    for f in command_fields(command):
        flags.add_argument(f"--{f.name.replace('_', '-')}", type=_PARSERS[f.type],
                           help=f.metadata["help"], choices=f.metadata["choices"])
    flags.add_argument("--config", help="KEY=VALUE config file; flags override it")
    return flags


_COMMANDS = {
    "corrupt": (cmd_corrupt, "hide cells at random, write data+mask CSVs"),
    "train": (cmd_train, "train an imputation model"),
    "impute": (cmd_impute, "fill an incomplete CSV with a trained model"),
    "benchmark": (cmd_benchmark, "run the method/rate benchmark grid"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cgain", allow_abbrev=False,
                     description="Missing-data imputation with class-conditional "
                                 "adversarial training, plus baselines and benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help) in _COMMANDS.items():
        sub.add_parser(command, parents=[_flags(command)], help=help, allow_abbrev=False)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        print_config(cfg, args.command)
        return _COMMANDS[args.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"cgain-error: validation: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # anything unexpected is a runtime failure
        print(f"cgain-error: runtime: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
