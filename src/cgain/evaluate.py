"""Imputation quality measurement: missing-cell RMSE (overall and per
class), one multi-repetition benchmark grid with paired corruption masks
over missing rates or engineered class-imbalance levels, and wall-clock
summaries.

Seed discipline: every random draw in a benchmark comes from a stream
derived from the root seed via nn.spawn_rng with a fixed integer path, so
the full report is a pure function of (root seed, config) and cells can be
computed in any order or in parallel:

    corruption  (rate_idx, rep)          -> spawn(root, 1, rate_idx, rep)
    subsampling (fraction_idx)           -> spawn(root, 2, fraction_idx)
    training    (rate_idx, rep, method)  -> spawn(root, 3, rate_idx, rep, method_idx)
    fold split  (rate_idx)               -> spawn(root, 4, rate_idx)
    impute noise(rate_idx, rep, method)  -> spawn(root, 5, rate_idx, rep, method_idx)
    imbalance fraction block root        -> spawn(root, 6, fraction_idx)

In strict fold mode the corruption path uses rep = 0 (one mask per rate,
shared by all folds) and `rep` indexes the held-out fold. In the imbalance
grid, paths 1 and 3-5 start from the fraction's block root (path 6) instead
of the root seed.

Report JSON v2 is format and version 2 followed by the BenchmarkReport's
fields. config is the one home of dataset, root_seed and eval_mode; its
"train" entry leaves out conditional and seed, which run_method sets per
cell. Each repetition records method_seed, its training seed (path 3).
Masks are not stored: path 1 redraws each one.

Wall-clock seconds are recorded per repetition but are kept out of the
results CSV (they cannot be reproducible); they live in the JSON and the
separate timing summary.
"""

from __future__ import annotations

import json
import operator
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


def rmse_missing(truth: Dataset, imputed, mask: Array) -> RmseResult:
    """RMSE between truth and imputation over cells with mask == 0, overall
    and per class of the truth dataset; imputed is a Dataset or a matrix."""
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

    cls = truth.class_index()
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
               impute_rng: np.random.Generator) -> Array:
    """Fit a method on train_inc and return imputed features for eval_inc,
    which is train_inc itself in repetition mode and the held-out rows in
    strict mode."""
    if method == "mean":
        return MeanImputer().fit(train_inc).transform(eval_inc)
    if method == "mice_lite":
        return MiceLiteImputer().fit(train_inc).transform(eval_inc)
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
    """One scored repetition: its RMSE, wall-clock seconds and training seed."""

    seconds: float
    method_seed: int


@dataclass
class BenchmarkCell:
    method: str
    missing_rate: float
    minority_fraction: float | None = None
    reps: list[RepResult] = field(default_factory=list)
    error: str | None = None        # "rep k: <message>" per failed repetition, joined by "; "


@dataclass
class BenchmarkReport:
    config: dict                    # dataset, root_seed, eval_mode, grid and training settings
    class_names: list[str]
    cells: list[BenchmarkCell] = field(default_factory=list)


def _rep_task(args) -> tuple[int, int, dict]:
    """One (cell, repetition) unit; top level so process pools can pickle it."""
    (cell_idx, rep, dataset, method, method_idx, rate, rate_idx,
     root_seed, train_config, eval_mode, repetitions) = args
    corrupt_rep = 0 if eval_mode == "strict" else rep
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
        imputed = run_method(method, train_inc, eval_inc, train_config, method_seed, impute_rng)
        seconds = time.perf_counter() - t0
        result = rmse_missing(truth, imputed, eval_inc.mask)
    except Exception as exc:   # recorded per cell, never fatal to the grid
        return cell_idx, rep, {"error": f"{type(exc).__name__}: {exc}"}
    return cell_idx, rep, {**asdict(result), "seconds": seconds, "method_seed": method_seed}


def run_benchmark(dataset: Dataset, methods: list[str], missing_rates: list[float],
                  repetitions: int, root_seed: int, train_config: TrainConfig | None = None,
                  eval_mode: str = "repetition", jobs: int = 1,
                  minority_fractions: list[float] | None = None,
                  minority_class=None) -> BenchmarkReport:
    """Corrupt / impute / score over a (missing rate x method) grid.

    Within one repetition every method sees the identical corruption mask,
    so method comparisons are paired. In strict mode `repetitions` is the
    fold count: each repetition trains on the other folds and scores the
    held-out fold of a single shared corruption per rate.

    Given minority_fractions, the grid runs over engineered class-imbalance
    levels of a binary dataset at a single missing rate instead: the
    dataset is subsampled once per fraction so that minority_class (default:
    the rarer class) holds that share of the rows, and the fraction-f block
    is exactly the rate grid on that subsample with root seed
    spawn_seed(root, 6, fraction_idx). Every (cell, repetition) task of the
    grid runs on one pool of `jobs` workers.
    """
    if repetitions < 1:
        raise ValueError(f"need at least 1 repetition, got {repetitions}")
    if not methods:
        raise ValueError("benchmark needs at least one method")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
    if not missing_rates:
        raise ValueError("no missing rates given")
    for r in missing_rates:
        if not 0.0 < r < 1.0:
            raise ValueError(f"missing rate must be in (0, 1), got {r}")
    for name, values in (("method", methods), ("missing rate", missing_rates),
                         ("minority fraction", minority_fractions or [])):
        repeats = [v for i, v in enumerate(values) if v in values[:i]]
        if repeats:
            raise ValueError(f"{name} {repeats[0]!r} is given more than once")
    if eval_mode not in EVAL_MODES:
        raise ValueError(f"eval mode must be one of {EVAL_MODES}, got {eval_mode!r}")
    if eval_mode == "strict" and repetitions < 2:
        raise ValueError("strict fold mode needs at least 2 repetitions (folds)")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    train_config = train_config or TrainConfig()
    train_config.validate()
    config = {"dataset": dataset.name, "methods": list(methods),
              "missing_rates": list(missing_rates), "repetitions": repetitions}

    # (minority fraction, data, root seed) per block of the grid
    blocks = [(None, dataset, root_seed)]
    if minority_fractions is not None:
        if not minority_fractions:
            raise ValueError("no minority fractions given")
        if len(missing_rates) != 1:
            raise ValueError(f"the imbalance grid uses a single missing rate, got {list(missing_rates)}")
        if minority_class is None:
            minority_class = int(np.argmin(dataset.labels.sum(axis=0)))
        elif not isinstance(minority_class, str):
            minority_class = operator.index(minority_class)   # a class index, NumPy integers included
        blocks = [(fraction,
                   subsample_imbalance(dataset, minority_class, fraction, spawn_rng(root_seed, 2, fidx)),
                   spawn_seed(root_seed, 6, fidx))
                  for fidx, fraction in enumerate(minority_fractions)]
        config["minority_fractions"] = list(minority_fractions)
        config["minority_class"] = (minority_class if isinstance(minority_class, str)
                                    else dataset.class_names[minority_class])
    config.update(eval_mode=eval_mode, root_seed=root_seed, mice_sweeps=MICE_LITE_SWEEPS,
                  train={k: v for k, v in asdict(train_config).items()
                         if k not in ("conditional", "seed")})   # run_method sets both per cell

    cells: list[BenchmarkCell] = []
    tasks = []
    for fraction, data, root in blocks:
        for rate_idx, rate in enumerate(missing_rates):
            for method_idx, method in enumerate(methods):
                tasks += [(len(cells), rep, data, method, method_idx, rate, rate_idx,
                           root, train_config, eval_mode, repetitions)
                          for rep in range(repetitions)]
                cells.append(BenchmarkCell(method, rate, fraction))

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_rep_task, tasks))
    else:
        outcomes = [_rep_task(t) for t in tasks]

    # outcomes arrive in task order: cell by cell, repetitions in order
    for cell_idx, rep, record in outcomes:
        cell = cells[cell_idx]
        if "error" in record:
            error = f"rep {rep}: {record['error']}"
            cell.error = error if cell.error is None else f"{cell.error}; {error}"
        else:
            cell.reps.append(RepResult(**record))

    return BenchmarkReport(config, list(dataset.class_names), cells)


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
            rows.append([report.config["dataset"], cell.method, _fmt(cell.missing_rate), frac,
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
    """The report as strict JSON data: a class with no missing cell in a
    repetition (per_class_missing 0) has RMSE None there, not NaN."""
    payload = {"format": "cgain-benchmark-report", "version": 2, **asdict(report)}
    for cell in payload["cells"]:
        for rep in cell["reps"]:
            rep["per_class"] = {k: None if np.isnan(v) else v for k, v in rep["per_class"].items()}
    return payload


def write_report_json(path, report: BenchmarkReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # a training config may hold NumPy integers, which are written as JSON integers
        json.dump(report_to_json_dict(report), fh, indent=2, allow_nan=False, default=operator.index)
