"""The three workloads: set-up from the seed, one timed pass, output checks.

bc-train     one `train` on a 569x30 two-class table at the breast-cancer
             balance (357/212) and rate 0.2, then repeated `impute` calls.
             Small matmuls: per-call and elementwise costs in nn/imputer
             are a large share. No file I/O, no process pool.
spam-cli     `cgain corrupt` -> `cgain train --method cgain` -> `cgain
             impute`, in-process through cgain.cli.main, on the 4601x57
             spambase_like CSV. Larger matmuls, plus CSV parsing and
             writing and model save/load.
letter-grid  run_benchmark on letter_like (2000x16, 26 classes) with all
             four methods at two missing rates, on a process pool of
             nproc workers. Many short trainings, baselines and scoring.

A pass reports the wall time of the program's calls only; the checks run
after the clock stops. Every input is derived from the workload seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from cgain import cli, data, datasets, evaluate, imputer, nn

RATE = 0.2

BC_CLASS_COUNTS = (357, 212)     # malignant/benign rows of the UCI table
BC_FEATURES = 30
BC_ITERS = 400
BC_LOG_EVERY = 50
BC_IMPUTES = 40

SPAM_ITERS = 200
SPAM_IMPUTES = 1

GRID_METHODS = list(evaluate.METHODS)
GRID_RATES = [0.1, 0.2]
GRID_REPS = 2
GRID_ITERS = 250
GRID_MAX_JOBS = 4       # nproc workers, but never a pool larger than this
GAN_METHODS = ("cgain", "gain")


@dataclass
class Pass:
    """What one timed pass measured and what its checks found."""

    run_s: float = 0.0
    rep_s: list[float] = field(default_factory=list)        # one GAN fit plus one imputation
    iter_ms: list[float] = field(default_factory=list)      # ms per training iteration
    rows_per_s: list[float] = field(default_factory=list)   # per impute call
    rmse: float = float("nan")
    digest: str = ""        # trained weights and outputs, to compare passes
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0      # scale to the probe's reference speed, set after the pass

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _intervals_ms(iterations, seconds) -> list[float]:
    """ms per iteration over each logging interval of a training trace."""
    its = np.diff(np.concatenate([[0], np.asarray(iterations, dtype=float)]))
    secs = np.diff(np.concatenate([[0.0], np.asarray(seconds, dtype=float)]))
    return (secs / its * 1e3).tolist()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def check_imputation(incomplete: data.IncompleteDataset, completed: np.ndarray) -> list[str]:
    """Observed cells pass through bit-exact; every hidden cell is filled and finite."""
    problems = []
    observed = incomplete.mask == 1
    given = incomplete.dataset.features[observed]
    if not np.array_equal(completed[observed].view(np.uint64), given.view(np.uint64)):
        problems.append("an observed cell changed")
    hidden = completed[~observed]
    if not (np.all(np.isfinite(hidden)) and np.all((hidden >= 0.0) & (hidden <= 1.0))):
        problems.append("a hidden cell is not a finite value in [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# bc-train
# ---------------------------------------------------------------------------

@dataclass
class BcInputs:
    truth: data.Dataset
    incomplete: data.IncompleteDataset
    train_seed: int
    impute_seed: int


def breast_cancer_stand_in(seed: int) -> data.Dataset:
    """569x30, exactly 357/212 rows per class, from make_class_conditional.

    The real table needs scikit-learn. Rows are drawn at the class balance
    from a table twice the size, then re-normalized on their own range.
    """
    n = sum(BC_CLASS_COUNTS)
    shares = tuple(c / n for c in BC_CLASS_COUNTS)
    pool = datasets.make_class_conditional(2 * n, BC_FEATURES, 2, shares, seed,
                                           name="breast_cancer_stand_in")
    cls = pool.class_index()
    picks = [np.flatnonzero(cls == c)[:k] for c, k in enumerate(BC_CLASS_COUNTS)]
    if any(p.size != k for p, k in zip(picks, BC_CLASS_COUNTS)):
        raise RuntimeError(f"seed {seed}: too few rows of a class for the stand-in")
    rows = np.sort(np.concatenate(picks))
    raw = data.denormalize(pool.schema, pool.features[rows])
    labels = [pool.class_names[c] for c in cls[rows]]
    return data.build_dataset(raw, labels, [c.name for c in pool.schema],
                              label_column="diagnosis", name="breast_cancer_stand_in")


def bc_setup(seed: int, workdir: Path) -> BcInputs:
    truth = breast_cancer_stand_in(seed)
    incomplete = data.corrupt_mcar(truth, RATE, nn.spawn_rng(seed, 1))
    return BcInputs(truth, incomplete, nn.spawn_seed(seed, 2), nn.spawn_seed(seed, 3))


def bc_pass(inp: BcInputs) -> Pass:
    p = Pass(attempted=1 + BC_IMPUTES)
    cfg = imputer.TrainConfig(iterations=BC_ITERS, seed=inp.train_seed, log_every=BC_LOG_EVERY)
    (model, trace), train_s = _timed(imputer.train, inp.incomplete, cfg)
    outputs, impute_s = [], []
    for _ in range(BC_IMPUTES):
        out, dt = _timed(imputer.impute, model, inp.incomplete, nn.make_rng(inp.impute_seed))
        outputs.append(out.features)
        impute_s.append(dt)
    p.run_s = train_s + sum(impute_s)
    p.rep_s = [train_s + impute_s[0]]
    p.iter_ms = _intervals_ms(trace.iterations, trace.seconds)
    p.rows_per_s = [inp.truth.n_rows / dt for dt in impute_s]

    first = outputs[0]
    for problem in check_imputation(inp.incomplete, first):
        p.fail(f"impute: {problem}")
    for i, out in enumerate(outputs[1:], 2):
        if not np.array_equal(out, first):
            p.fail(f"impute call {i} differs from the first with the same noise seed")
    p.rmse = evaluate.rmse_missing(inp.truth, first, inp.incomplete.mask).overall
    weights = [a.tobytes() for net in (model.generator, model.discriminator) for a in net.params()]
    p.digest = _digest(*weights, first.tobytes())
    return p


# ---------------------------------------------------------------------------
# spam-cli
# ---------------------------------------------------------------------------

@dataclass
class SpamInputs:
    csv: Path
    truth: data.Dataset
    workdir: Path
    seeds: tuple[int, int, int]


def spam_setup(seed: int, workdir: Path) -> SpamInputs:
    table = datasets.spambase_like(seed)
    path = workdir / "spambase_like.csv"
    datasets.write_dataset_csv(path, table)
    # the numbers the CSV holds (repr round-trips exactly), typed as load_csv types them
    raw = data.denormalize(table.schema, table.features, round_binary=True)
    labels = [table.class_names[c] for c in table.class_index()]
    truth = data.build_dataset(raw, labels, [c.name for c in table.schema], label_column="label")
    seeds = tuple(nn.spawn_seed(seed, k) for k in (1, 2, 3))
    return SpamInputs(path, truth, workdir, seeds)


def _cli(args: list[str]) -> float:
    """Run one subcommand in-process; its stdout is not part of ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        code, seconds = _timed(cli.main, [str(a) for a in args])
    if code != 0:
        raise RuntimeError(f"cgain {args[0]} exited with code {code}")
    return seconds


def _cells(path) -> tuple[list[str], np.ndarray]:
    header, rows = data.read_csv_table(path)
    return header, np.array(rows, dtype=str)


def spam_pass(inp: SpamInputs) -> Pass:
    w, (corrupt_seed, train_seed, impute_seed) = inp.workdir, inp.seeds
    corrupted, mask_csv = w / "corrupted.data.csv", w / "corrupted.mask.csv"
    model, trace_csv, filled = w / "run.model", w / "run.trace.csv", w / "filled.imputed.csv"
    p = Pass(attempted=2 + SPAM_IMPUTES)
    label = ["--label-col", "label"]
    corrupt_s = _cli(["corrupt", "--data", inp.csv, *label, "--rate", RATE,
                      "--seed", corrupt_seed, "--out", w / "corrupted"])
    header, given = _cells(corrupted)
    empty = given == ""
    if not np.array_equal(data.load_mask_csv(mask_csv) == 0, np.delete(empty, header.index("label"), 1)):
        p.fail("corrupt: the mask file disagrees with the empty cells")

    train_s = _cli(["train", "--data", corrupted, *label, "--method", "cgain",
                    "--iters", SPAM_ITERS, "--seed", train_seed, "--out", w / "run"])
    _, trace = _cells(trace_csv)
    p.iter_ms = _intervals_ms(trace[:, 0].astype(float), trace[:, 4].astype(float))

    impute_s = []
    for _ in range(SPAM_IMPUTES):
        impute_s.append(_cli(["impute", "--model", model, "--data", corrupted, *label,
                              "--seed", impute_seed, "--out", w / "filled"]))
        out_header, out = _cells(filled)
        if out_header != header or out.shape != given.shape:
            p.fail("impute: the output table has another shape or header")
            continue
        if not np.array_equal(out[~empty], given[~empty]):
            p.fail("impute: a non-empty cell changed")
        filled_values = np.char.strip(out[empty])
        if np.any(filled_values == "") or not np.all(np.isfinite(filled_values.astype(float))):
            p.fail("impute: a missing cell is empty or not finite")
    p.run_s = corrupt_s + train_s + sum(impute_s)
    p.rep_s = [train_s + impute_s[0]]
    p.rows_per_s = [inp.truth.n_rows / dt for dt in impute_s]

    if out.shape == given.shape:
        features = np.delete(out, header.index("label"), 1).astype(float)
        mask = (~np.delete(empty, header.index("label"), 1)).astype(float)
        p.rmse = evaluate.rmse_missing(inp.truth, data.normalize(inp.truth.schema, features), mask).overall
    p.digest = _digest(model.read_bytes(), filled.read_bytes())
    return p


# ---------------------------------------------------------------------------
# letter-grid
# ---------------------------------------------------------------------------

@dataclass
class GridInputs:
    table: data.Dataset
    root_seed: int
    jobs: int


def grid_setup(seed: int, workdir: Path) -> GridInputs:
    jobs = min(len(os.sched_getaffinity(0)), GRID_MAX_JOBS)
    return GridInputs(datasets.letter_like(seed=seed), nn.spawn_seed(seed, 1), jobs)


def grid_pass(inp: GridInputs) -> Pass:
    p = Pass(attempted=len(GRID_METHODS) * len(GRID_RATES) * GRID_REPS)
    cfg = imputer.TrainConfig(iterations=GRID_ITERS)
    report, p.run_s = _timed(evaluate.run_benchmark, inp.table, GRID_METHODS, GRID_RATES,
                             GRID_REPS, root_seed=inp.root_seed, train_config=cfg, jobs=inp.jobs)
    for cell in report.cells:
        where = f"cell {cell.method}@{cell.missing_rate}"
        for _ in range(GRID_REPS - len(cell.reps)):
            p.fail(f"{where}: {cell.error or 'a repetition is missing'}")
        for rep in cell.reps:
            if not np.isfinite(rep.overall):
                p.fail(f"{where}: non-finite rmse")
    gan = [r for c in report.cells if c.method in GAN_METHODS for r in c.reps]
    p.rep_s = [r.seconds for r in gan]
    p.iter_ms = [r.seconds / GRID_ITERS * 1e3 for r in gan]
    cgain_rmse = [r.overall for c in report.cells if c.method == "cgain" for r in c.reps]
    p.rmse = statistics.fmean(cgain_rmse) if cgain_rmse else float("nan")
    p.digest = _digest(repr(evaluate.report_csv_rows(report)).encode())
    return p


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], object]
    run_pass: Callable[[object], Pass]
    operations: int     # attempted per pass, counted as failed when the pass raises
    inputs: str         # what the program receives, for the output


WORKLOADS = {
    "bc-train": Workload(
        bc_setup, bc_pass, 1 + BC_IMPUTES,
        f"STAND-IN for the UCI breast-cancer table (it needs scikit-learn): make_class_conditional "
        f"{sum(BC_CLASS_COUNTS)}x{BC_FEATURES}, classes {BC_CLASS_COUNTS[0]}/{BC_CLASS_COUNTS[1]}, "
        f"rate {RATE}; train {BC_ITERS} iterations, then {BC_IMPUTES} impute calls"),
    "spam-cli": Workload(
        spam_setup, spam_pass, 2 + SPAM_IMPUTES,
        f"spambase_like 4601x57 CSV, rate {RATE}; cgain corrupt, train --iters {SPAM_ITERS}, "
        f"{SPAM_IMPUTES} impute, in-process"),
    "letter-grid": Workload(
        grid_setup, grid_pass, len(GRID_METHODS) * len(GRID_RATES) * GRID_REPS,
        f"letter_like 2000x16 (26 classes); run_benchmark methods {','.join(GRID_METHODS)}, "
        f"rates {','.join(map(str, GRID_RATES))}, {GRID_REPS} repetitions of {GRID_ITERS} iterations, "
        f"jobs=min(nproc, {GRID_MAX_JOBS})"),
}
