"""Imputation quality measurement: missing-cell RMSE (overall and per
class), multi-repetition benchmark grids with paired corruption masks, an
engineered class-imbalance grid, and wall-clock summaries.

Seed discipline: every random draw in a benchmark comes from a stream
derived from the root seed via nn.spawn_rng with a fixed integer path, so
the full report is a pure function of (root seed, config) and cells can be
computed in any order or in parallel:

    corruption  (rate_idx, rep)          -> spawn(root, 1, rate_idx, rep)
    subsampling (fraction_idx)           -> spawn(root, 2, fraction_idx)
    training    (rate_idx, rep, method)  -> spawn(root, 3, rate_idx, rep, method_idx)
    fold split  (rate_idx)               -> spawn(root, 4, rate_idx)
    impute noise(rate_idx, rep, method)  -> spawn(root, 5, rate_idx, rep, method_idx)
    imbalance sub-benchmark root         -> spawn(root, 6, fraction_idx)

In strict fold mode the corruption path uses rep = 0 (one mask per rate,
shared by all folds) and `rep` indexes the held-out fold.

Wall-clock seconds are recorded per repetition but are kept out of the
results CSV (they cannot be reproducible); they live in the JSON mirror and
the separate timing summary.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .nn import Array, spawn_rng, spawn_seed
from .data import (Dataset, IncompleteDataset, corrupt_mcar, split_folds, subsample_imbalance,
                   write_csv)
from .baselines import MICE_LITE_SWEEPS, MeanImputer, MiceLiteImputer
from .imputer import TrainConfig, impute, train

METHODS = ("cgain", "gain", "mean", "mice_lite")
EVAL_MODES = ("repetition", "strict")


# ---------------------------------------------------------------------------
# RMSE over originally missing cells
# ---------------------------------------------------------------------------

@dataclass
class RmseResult:
    """RMSE over missing cells, overall and split by class.

    overall is computed over the union of all classes' missing cells, so
    overall^2 * n_missing == sum_c per_class[c]^2 * per_class_missing[c].
    """

    overall: float
    per_class: dict[str, float]
    n_missing: int
    per_class_missing: dict[str, int]


def rmse_missing(truth: Dataset, imputed, mask: Array, labels: Array | None = None) -> RmseResult:
    """RMSE between truth and imputation over cells with mask == 0.

    imputed may be a Dataset or a feature matrix; labels defaults to the
    truth dataset's class assignment.
    """
    imp = imputed.features if isinstance(imputed, Dataset) else np.asarray(imputed, dtype=np.float64)
    if imp.shape != truth.features.shape or mask.shape != truth.features.shape:
        raise ValueError(
            f"shape mismatch: truth {truth.features.shape}, imputed {imp.shape}, mask {mask.shape}")
    missing = mask == 0
    n_missing = int(missing.sum())
    if n_missing == 0:
        raise ValueError("no missing cells to evaluate")
    sq = (truth.features - imp) ** 2
    overall = float(np.sqrt(sq[missing].sum() / n_missing))

    cls = truth.class_index() if labels is None else np.asarray(labels)
    per_class: dict[str, float] = {}
    per_count: dict[str, int] = {}
    for c, name in enumerate(truth.class_names):
        rows = cls == c
        cnt = int(missing[rows].sum())
        per_count[name] = cnt
        per_class[name] = float(np.sqrt(sq[rows][missing[rows]].sum() / cnt)) if cnt else float("nan")
    return RmseResult(overall, per_class, n_missing, per_count)


# ---------------------------------------------------------------------------
# method dispatch
# ---------------------------------------------------------------------------

def run_method(method: str, train_inc: IncompleteDataset, eval_inc: IncompleteDataset,
               train_config: TrainConfig, method_seed: int,
               impute_rng: np.random.Generator, mice_sweeps: int = MICE_LITE_SWEEPS) -> Array:
    """Fit a method on train_inc and return imputed features for eval_inc.

    When eval_inc is train_inc (repetition mode) the baselines return their
    own fitted completion; otherwise they transform the held-out rows.
    """
    same = eval_inc is train_inc
    if method == "mean":
        imp = MeanImputer().fit(train_inc)
        return imp.completed_ if same else imp.transform(eval_inc)
    if method == "mice_lite":
        imp = MiceLiteImputer(sweeps=mice_sweeps).fit(train_inc)
        return imp.completed_ if same else imp.transform(eval_inc)
    if method in ("cgain", "gain"):
        cfg = replace(train_config, conditional=(method == "cgain"), seed=method_seed)
        model, _ = train(train_inc, cfg)
        return impute(model, eval_inc, impute_rng).features
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


# ---------------------------------------------------------------------------
# benchmark grids
# ---------------------------------------------------------------------------

@dataclass
class RepResult(RmseResult):
    """One scored repetition: its RMSE, wall-clock seconds and seeds."""

    seconds: float
    corrupt_seed: int
    method_seed: int


@dataclass
class BenchmarkCell:
    dataset: str
    method: str
    missing_rate: float
    minority_fraction: float | None = None
    reps: list[RepResult] = field(default_factory=list)
    error: str | None = None        # "rep k: <message>" per failed repetition, joined by "; "


@dataclass
class BenchmarkReport:
    dataset: str
    root_seed: int
    eval_mode: str
    config: dict
    class_names: list[str]
    cells: list[BenchmarkCell] = field(default_factory=list)


def _rep_task(args) -> tuple[int, int, dict]:
    """One (cell, repetition) unit; top level so process pools can pickle it."""
    (cell_idx, rep, dataset, method, method_idx, rate, rate_idx,
     root_seed, train_config, eval_mode, repetitions, mice_sweeps) = args
    corrupt_rep = 0 if eval_mode == "strict" else rep
    corrupt_seed = spawn_seed(root_seed, 1, rate_idx, corrupt_rep)
    method_seed = spawn_seed(root_seed, 3, rate_idx, rep, method_idx)
    try:
        inc = corrupt_mcar(dataset, rate, spawn_rng(root_seed, 1, rate_idx, corrupt_rep))
        impute_rng = spawn_rng(root_seed, 5, rate_idx, rep, method_idx)
        train_inc = eval_inc = inc
        truth = dataset
        if eval_mode == "strict":
            held_out = split_folds(dataset, repetitions, spawn_rng(root_seed, 4, rate_idx))[rep]
            train_inc = inc.take_rows(np.setdiff1d(np.arange(dataset.n_rows), held_out))
            eval_inc = inc.take_rows(held_out)
            truth = dataset.take_rows(held_out)
        t0 = time.perf_counter()
        imputed = run_method(method, train_inc, eval_inc, train_config,
                             method_seed, impute_rng, mice_sweeps)
        seconds = time.perf_counter() - t0
        result = rmse_missing(truth, imputed, eval_inc.mask)
    except Exception as exc:   # recorded per cell, never fatal to the grid
        return cell_idx, rep, {"error": f"{type(exc).__name__}: {exc}"}
    return cell_idx, rep, {**asdict(result), "seconds": seconds,
                           "corrupt_seed": corrupt_seed, "method_seed": method_seed}


def run_benchmark(dataset: Dataset, methods: list[str], missing_rates: list[float],
                  repetitions: int, root_seed: int, train_config: TrainConfig | None = None,
                  eval_mode: str = "repetition", jobs: int = 1,
                  mice_sweeps: int = MICE_LITE_SWEEPS) -> BenchmarkReport:
    """Corrupt / impute / score over a (missing rate x method) grid.

    Within one repetition every method sees the identical corruption mask,
    so method comparisons are paired. In strict mode `repetitions` is the
    fold count: each repetition trains on the other folds and scores the
    held-out fold of a single shared corruption per rate.
    """
    if repetitions < 1:
        raise ValueError(f"need at least 1 repetition, got {repetitions}")
    if not methods:
        raise ValueError("no methods given")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    for r in missing_rates:
        if not 0.0 < r < 1.0:
            raise ValueError(f"missing rate must be in (0, 1), got {r}")
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"eval mode must be one of {EVAL_MODES}, got {eval_mode!r}")
    if eval_mode == "strict" and repetitions < 2:
        raise ValueError("strict fold mode needs at least 2 repetitions (folds)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    train_config = train_config or TrainConfig()

    cells = [BenchmarkCell(dataset.name, method, rate)
             for rate in missing_rates for method in methods]
    tasks = []
    cell_idx = 0
    for rate_idx, rate in enumerate(missing_rates):
        for method_idx, method in enumerate(methods):
            for rep in range(repetitions):
                tasks.append((cell_idx, rep, dataset, method, method_idx, rate, rate_idx,
                              root_seed, train_config, eval_mode, repetitions, mice_sweeps))
            cell_idx += 1

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_rep_task, tasks))
    else:
        outcomes = [_rep_task(t) for t in tasks]

    by_cell: dict[int, dict[int, dict]] = {}
    for cidx, rep, record in outcomes:
        by_cell.setdefault(cidx, {})[rep] = record
    for cidx, cell in enumerate(cells):
        records = by_cell.get(cidx, {})
        errors = []
        for rep in sorted(records):
            rec = records[rep]
            if "error" in rec:
                errors.append(f"rep {rep}: {rec['error']}")
                continue
            cell.reps.append(RepResult(**rec))
        cell.error = "; ".join(errors) or None

    config = {
        "dataset": dataset.name, "methods": list(methods),
        "missing_rates": list(missing_rates), "repetitions": repetitions,
        "eval_mode": eval_mode, "root_seed": root_seed,
        "mice_sweeps": mice_sweeps, "train": asdict(train_config),
    }
    return BenchmarkReport(dataset.name, root_seed, eval_mode, config,
                           list(dataset.class_names), cells)


def run_imbalance_benchmark(dataset: Dataset, minority_fractions: list[float],
                            methods: list[str], missing_rate: float, repetitions: int,
                            root_seed: int, minority_class=None,
                            train_config: TrainConfig | None = None,
                            eval_mode: str = "repetition", jobs: int = 1,
                            mice_sweeps: int = MICE_LITE_SWEEPS) -> BenchmarkReport:
    """Benchmark over engineered class-imbalance levels of a binary dataset.

    For each minority fraction the dataset is subsampled once, then the
    regular benchmark runs on the subsample at the fixed missing rate; the
    fraction-f grid is exactly run_benchmark on that subsample with root
    seed spawn_seed(root, 6, fraction_idx).
    """
    if dataset.n_classes != 2:
        raise ValueError(f"imbalance benchmark needs a binary dataset, got {dataset.n_classes} classes")
    if not minority_fractions:
        raise ValueError("no minority fractions given")
    if minority_class is None:
        counts = dataset.labels.sum(axis=0)
        minority_class = int(np.argmin(counts))

    all_cells: list[BenchmarkCell] = []
    for fidx, fraction in enumerate(minority_fractions):
        sub = subsample_imbalance(dataset, minority_class, fraction, spawn_rng(root_seed, 2, fidx))
        part = run_benchmark(sub, methods, [missing_rate], repetitions,
                             root_seed=spawn_seed(root_seed, 6, fidx),
                             train_config=train_config, eval_mode=eval_mode,
                             jobs=jobs, mice_sweeps=mice_sweeps)
        for cell in part.cells:
            cell.dataset = dataset.name
            cell.minority_fraction = fraction
            all_cells.append(cell)

    config = {
        "dataset": dataset.name, "methods": list(methods),
        "missing_rates": [missing_rate], "repetitions": repetitions,
        "minority_fractions": list(minority_fractions),
        "minority_class": dataset.class_names[minority_class]
        if isinstance(minority_class, int) else minority_class,
        "eval_mode": eval_mode, "root_seed": root_seed,
        "mice_sweeps": mice_sweeps, "train": asdict(train_config or TrainConfig()),
    }
    return BenchmarkReport(dataset.name, root_seed, eval_mode, config,
                           list(dataset.class_names), all_cells)


# ---------------------------------------------------------------------------
# aggregation and serialization
# ---------------------------------------------------------------------------

def mean_std(values: list[float]) -> tuple[float, float | None]:
    """Mean and sample (n-1) standard deviation; std is None below 2 values."""
    arr = np.asarray(values, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size >= 2 else None
    return mean, std


def time_methods(report: BenchmarkReport) -> dict[str, dict[str, float]]:
    """Per-method wall-clock totals; totals are exact sums of the parts."""
    summary: dict[str, dict[str, float]] = {}
    for cell in report.cells:
        entry = summary.setdefault(cell.method, {"total_seconds": 0.0, "reps": 0})
        for rep in cell.reps:
            entry["total_seconds"] += rep.seconds
            entry["reps"] += 1
    for entry in summary.values():
        entry["mean_seconds"] = entry["total_seconds"] / entry["reps"] if entry["reps"] else 0.0
    return summary


def _fmt(x: float) -> str:
    return repr(float(x))


def report_csv_rows(report: BenchmarkReport) -> list[list[str]]:
    """Deterministic result rows: one per cell and class ('all' = overall)."""
    rows = [["dataset", "method", "rate", "fraction", "class", "rmse_mean", "rmse_std", "reps"]]
    for cell in report.cells:
        frac = "" if cell.minority_fraction is None else _fmt(cell.minority_fraction)
        groups = [("all", [r.overall for r in cell.reps])]
        groups += [(name, [r.per_class[name] for r in cell.reps]) for name in report.class_names]
        for class_name, values in groups:
            if values:
                mean, std = mean_std(values)
                mean_s, std_s = _fmt(mean), "" if std is None else _fmt(std)
            else:
                mean_s, std_s = "", ""
            rows.append([cell.dataset, cell.method, _fmt(cell.missing_rate), frac,
                         class_name, mean_s, std_s, str(len(cell.reps))])
    return rows


def write_report_csv(path, report: BenchmarkReport) -> None:
    header, *rows = report_csv_rows(report)
    write_csv(path, header, rows)


def write_timing_csv(path, report: BenchmarkReport) -> None:
    write_csv(path, ["method", "reps", "total_seconds", "mean_seconds"],
              ([method, str(entry["reps"]), _fmt(entry["total_seconds"]), _fmt(entry["mean_seconds"])]
               for method, entry in time_methods(report).items()))


def report_to_json_dict(report: BenchmarkReport) -> dict:
    return {
        "format": "cgain-benchmark-report",
        "version": 1,
        "dataset": report.dataset,
        "root_seed": report.root_seed,
        "eval_mode": report.eval_mode,
        "config": report.config,
        "class_names": report.class_names,
        "cells": [
            {
                "dataset": c.dataset, "method": c.method, "missing_rate": c.missing_rate,
                "minority_fraction": c.minority_fraction, "error": c.error,
                "reps": [asdict(r) for r in c.reps],
            }
            for c in report.cells
        ],
    }


def report_from_json_dict(payload: dict) -> BenchmarkReport:
    if payload.get("format") != "cgain-benchmark-report":
        raise ValueError("not a benchmark report JSON")
    cells = []
    for c in payload["cells"]:
        cells.append(BenchmarkCell(
            dataset=c["dataset"], method=c["method"], missing_rate=c["missing_rate"],
            minority_fraction=c["minority_fraction"], error=c["error"],
            reps=[RepResult(**r) for r in c["reps"]],
        ))
    return BenchmarkReport(payload["dataset"], payload["root_seed"], payload["eval_mode"],
                           payload["config"], list(payload["class_names"]), cells)


def write_report_json(path, report: BenchmarkReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_json_dict(report), fh, indent=2)


def load_report_json(path) -> BenchmarkReport:
    with open(path, encoding="utf-8") as fh:
        return report_from_json_dict(json.load(fh))
