"""Imputation quality measurement: missing-cell RMSE (overall and per
class), one multi-repetition benchmark grid with paired corruption masks
over missing rates or engineered class-imbalance levels.

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
results CSV (they cannot be reproducible); the JSON is their one home.
"""

from __future__ import annotations

import json
import operator
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from .nn import Array, openblas_function, spawn_rng, spawn_seed
from .data import (Dataset, IncompleteDataset, check_minority_fraction, check_missing_rate, corrupt_mcar,
                   split_folds, subsample_imbalance, write_csv)
from .baselines import MICE_LITE_SWEEPS, MeanImputer, MiceLiteImputer
from .imputer import TrainConfig, impute, json_number, train

GANS = {"cgain": True, "gain": False}     # each adversarial method: do its nets take the labels?
BASELINES = {"mean": MeanImputer, "mice_lite": MiceLiteImputer}
METHODS = (*GANS, *BASELINES)
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
    if method in BASELINES:
        return BASELINES[method]().fit(train_inc).transform(eval_inc)
    if method in GANS:
        cfg = replace(train_config, conditional=GANS[method], seed=method_seed)
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


# The running grid's block tables. A task names its block by index, so each pool
# worker receives every table once, through _start_worker, and no task carries one.
_TABLES: list[Dataset] = []


def _start_worker(tables: list[Dataset]) -> None:
    """A pool worker's initializer: the grid's tables, and NumPy's OpenBLAS, where present, on one
    thread. A worker runs one task at a time on a share of the cores, so BLAS threads of its own
    only contend with the other workers'."""
    set_threads = openblas_function("set_num_threads", ("int",))
    if set_threads is not None:
        set_threads(1)
    _TABLES[:] = tables


def _rep_task(args) -> tuple[int, int, dict]:
    """One (cell, repetition) unit; top level so process pools can pickle it."""
    (cell_idx, rep, block, method, method_idx, rate, rate_idx,
     root_seed, train_config, eval_mode, repetitions) = args
    dataset = _TABLES[block]
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


def check_grid(methods: list[str], missing_rates: list[float], repetitions: int, root_seed: int,
               train_config: TrainConfig | None = None, eval_mode: str = "repetition", jobs: int = 1,
               minority_fractions: list[float] | None = None, minority_class=None) -> TrainConfig:
    """run_benchmark's checks of its arguments that need no dataset: a
    ValueError for the first bad one. repetitions and jobs must be Python or
    NumPy integers (not a bool), and root_seed follows TrainConfig's seed
    rule. A method, rate or fraction given twice, and minority_class without
    minority_fractions, are refused. Returns the training config, a default
    TrainConfig when none is given."""
    for name, value in (("repetitions", repetitions), ("jobs", jobs)):   # TrainConfig's integer rule
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
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
        check_missing_rate(r)
    for f in minority_fractions or []:
        check_minority_fraction(f)
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
    if minority_class is not None and minority_fractions is None:
        raise ValueError("minority_class is used only by the imbalance grid; give minority_fractions too")
    if minority_fractions is not None and not minority_fractions:
        raise ValueError("no minority fractions given")
    if minority_fractions is not None and len(missing_rates) != 1:
        raise ValueError(f"the imbalance grid uses a single missing rate, got {list(missing_rates)}")
    train_config = train_config or TrainConfig()
    train_config.validate()
    replace(train_config, seed=root_seed).validate()   # the root seed follows the training seed's rule
    return train_config


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
    dataset is subsampled once per fraction so that minority_class (a class
    name, or else a 0-based index; default: the rarer class, named in the
    report's config) holds that share of the rows, and the fraction-f block
    is exactly the rate grid on that subsample with root seed
    spawn_seed(root, 6, fraction_idx). Every (cell, repetition) task of the
    grid runs on one pool of min(jobs, tasks) workers, which each receive
    every block's table once and runs BLAS on one thread, or in this
    process when that is 1.
    """
    train_config = check_grid(methods, missing_rates, repetitions, root_seed, train_config, eval_mode, jobs,
                              minority_fractions, minority_class)
    config = {"dataset": dataset.name, "methods": list(methods),
              "missing_rates": list(missing_rates), "repetitions": repetitions}

    # (minority fraction, data, root seed) per block of the grid
    blocks = [(None, dataset, root_seed)]
    if minority_fractions is not None:
        minority_class = (int(np.argmin(dataset.labels.sum(axis=0))) if minority_class is None
                          else dataset.class_position(minority_class))
        blocks = [(fraction,
                   subsample_imbalance(dataset, minority_class, fraction, spawn_rng(root_seed, 2, fidx)),
                   spawn_seed(root_seed, 6, fidx))
                  for fidx, fraction in enumerate(minority_fractions)]
        config["minority_fractions"] = list(minority_fractions)
        config["minority_class"] = dataset.class_names[minority_class]
    config.update(eval_mode=eval_mode, root_seed=operator.index(root_seed), mice_sweeps=MICE_LITE_SWEEPS,
                  train={k: v for k, v in asdict(train_config).items()
                         if k not in ("conditional", "seed")})   # run_method sets both per cell

    cells: list[BenchmarkCell] = []
    tasks = []
    for block, (fraction, _, root) in enumerate(blocks):
        for rate_idx, rate in enumerate(missing_rates):
            for method_idx, method in enumerate(methods):
                tasks += [(len(cells), rep, block, method, method_idx, rate, rate_idx,
                           root, train_config, eval_mode, repetitions)
                          for rep in range(repetitions)]
                cells.append(BenchmarkCell(method, rate, fraction))

    # a pool starts all its workers at once, so it gets no more than there are tasks
    workers = min(jobs, len(tasks))
    tables = [data for _, data, _ in blocks]
    try:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor   # only a pool grid pays for its import
            with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                     initargs=(tables,)) as pool:
                outcomes = list(pool.map(_rep_task, tasks))
        else:
            _TABLES[:] = tables
            outcomes = [_rep_task(t) for t in tasks]
    finally:
        _TABLES.clear()

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


def report_to_json_dict(report: BenchmarkReport) -> dict:
    """The report as strict JSON data: a class with no missing cell in a
    repetition (per_class_missing 0) has RMSE None there, not NaN."""
    payload = {"format": "cgain-benchmark-report", "version": 2, **asdict(report)}
    for cell in payload["cells"]:
        for rep in cell["reps"]:
            rep["per_class"] = {k: None if np.isnan(v) else v for k, v in rep["per_class"].items()}
    return payload


def write_report_json(path, report: BenchmarkReport) -> None:
    # the text is built before the file is opened, so a value that fails leaves no partial file
    text = json.dumps(report_to_json_dict(report), indent=2, allow_nan=False, default=json_number)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
