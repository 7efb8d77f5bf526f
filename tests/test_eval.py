import json
import os
import pickle
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import cgain.evaluate as ev
from cgain.baselines import MeanImputer
from cgain.data import corrupt_mcar, subsample_imbalance
from cgain.evaluate import mean_std, report_csv_rows, report_to_json_dict, rmse_missing, run_benchmark
from cgain.imputer import TrainConfig
from cgain.nn import make_rng, openblas_function, spawn_rng, spawn_seed
from conftest import toy_dataset, random_incomplete
from oracles import scalar_rmse

FAST = TrainConfig(iterations=30, batch_size=16)


def balanced_binary(n=60, d=3, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 2.0, size=(n, d))
    labels = [str(i % 2) for i in range(n)]
    from cgain.data import build_dataset
    return build_dataset(raw, labels, [f"c{j}" for j in range(d)], name="bb")


# ---------------------------------------------------------------------------
# RMSE
# ---------------------------------------------------------------------------

def test_rmse_zero_for_exact_imputation(dataset):
    inc = random_incomplete(dataset, rate=0.3, seed=1)
    result = rmse_missing(dataset, dataset.features, inc.mask)
    assert result.overall == 0.0


def test_rmse_two_cell_hand_case():
    ds = balanced_binary(n=2, d=2, seed=2)
    mask = np.array([[0.0, 1.0], [1.0, 0.0]])
    imputed = ds.features.copy()
    imputed[0, 0] += 0.3
    imputed[1, 1] -= 0.4
    result = rmse_missing(ds, imputed, mask)
    assert result.overall == pytest.approx(0.3535533905932738, abs=1e-12)
    assert result.n_missing == 2


def test_rmse_matches_scalar_oracle_with_class_identity():
    ds = toy_dataset(n=20, d=4, seed=3)
    inc = random_incomplete(ds, rate=0.35, seed=4)
    imputed = np.clip(ds.features + 0.05 * np.random.default_rng(5).normal(size=ds.features.shape), 0, 1)
    result = rmse_missing(ds, imputed, inc.mask)
    cls = [ds.class_names[c] for c in ds.class_index()]
    overall, count, per_class = scalar_rmse(ds.features.tolist(), imputed.tolist(),
                                            inc.mask.tolist(), cls)
    assert result.overall == pytest.approx(overall, abs=1e-12)
    assert result.n_missing == count
    for name, (val, cnt) in per_class.items():
        assert result.per_class[name] == pytest.approx(val, abs=1e-12)
        assert result.per_class_missing[name] == cnt
    # consistency identity: overall^2 * n == sum_c per_class^2 * n_c
    lhs = result.overall ** 2 * result.n_missing
    rhs = sum(result.per_class[c] ** 2 * result.per_class_missing[c]
              for c in ds.class_names if result.per_class_missing[c])
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_rmse_requires_missing_cells(dataset):
    with pytest.raises(ValueError, match="no missing cells"):
        rmse_missing(dataset, dataset.features, np.ones_like(dataset.features))


# ---------------------------------------------------------------------------
# benchmark grid
# ---------------------------------------------------------------------------

def test_benchmark_grid_shape_and_pairing():
    ds = balanced_binary(n=50, d=4, seed=6)
    report = run_benchmark(ds, ["mean", "mice_lite"], [0.1, 0.2], repetitions=3,
                           root_seed=7, train_config=FAST)
    assert len(report.cells) == 4   # 2 rates x 2 methods
    for cell in report.cells:
        assert cell.error is None
        assert len(cell.reps) == 3
    # methods at the same (rate, rep) share the corruption mask: paired masks
    by_rate = {}
    for cell in report.cells:
        by_rate.setdefault(cell.missing_rate, []).append(cell)
    for rate, cells in by_rate.items():
        for rep in range(3):
            counts = {c.reps[rep].n_missing for c in cells}
            assert len(counts) == 1


def test_single_cell_std_is_flagged_undefined():
    ds = balanced_binary(n=40, d=3, seed=8)
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=1, root_seed=9)
    rows = report_csv_rows(report)
    header, data_rows = rows[0], rows[1:]
    std_col = header.index("rmse_std")
    assert all(row[std_col] == "" for row in data_rows)
    mean, std = mean_std([report.cells[0].reps[0].overall])
    assert std is None


def test_paired_mask_external_recomputation():
    ds = balanced_binary(n=45, d=4, seed=10)
    root = 314
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=3, root_seed=root)
    for rep in range(3):
        inc = corrupt_mcar(ds, 0.2, spawn_rng(root, 1, 0, rep))
        outside = rmse_missing(ds, MeanImputer().fit(inc).transform(inc), inc.mask)
        assert report.cells[0].reps[rep].overall == pytest.approx(outside.overall, abs=1e-12)


def assert_pool_matches_serial():
    ds = balanced_binary(n=40, d=3, seed=11)
    # the rate grid, an imbalance grid whose two fractions share one pool, and a strict fold grid
    for grid in ({}, {"minority_fractions": [0.25, 0.5], "minority_class": 1}, {"eval_mode": "strict"}):
        serial = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2,
                               root_seed=12, jobs=1, **grid)
        parallel = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2,
                                 root_seed=12, jobs=2, **grid)
        assert report_csv_rows(serial) == report_csv_rows(parallel), grid


def test_parallel_execution_matches_serial():
    assert_pool_matches_serial()


def test_spawned_workers_match_serial():
    # a spawned worker inherits nothing, so the pool's initializer is its only source of the tables
    code = ("import multiprocessing, test_eval\n"
            "multiprocessing.set_start_method('spawn')\n"
            "test_eval.assert_pool_matches_serial()\n")
    here = Path(__file__).resolve().parent
    path = [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_pool_has_no_more_workers_than_tasks(monkeypatch):
    started = []

    class SerialPool:
        """Records its worker count and maps in this process, so no process starts."""

        def __init__(self, max_workers, initializer=None, initargs=()):
            started.append(max_workers)
            self.initializer, self.initargs = initializer, initargs

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            # a task names its table, which each worker receives once from the initializer
            for task in tasks:
                assert len(pickle.dumps(task)) < 2048
                assert task[3] in ("mean", "mice_lite")
            if self.initializer is not None:
                self.initializer(*self.initargs)
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
    ds = balanced_binary(n=40, d=3, seed=11)
    four_tasks = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2, root_seed=12, jobs=64)
    assert started == [4]
    serial = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2, root_seed=12, jobs=1)
    assert report_csv_rows(four_tasks) == report_csv_rows(serial)
    run_benchmark(ds, ["mean"], [0.15], repetitions=1, root_seed=12, jobs=64)   # one task: no pool
    assert started == [4]


def test_importing_the_package_loads_no_process_pool():
    # only a grid with more than one worker imports the pool, so every other process skips its cost
    code = ("import sys, cgain, cgain.cli, cgain.datasets\n"
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n")
    src = str(Path(ev.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_models_run_in_benchmark_and_record_seconds():
    ds = balanced_binary(n=40, d=3, seed=13)
    report = run_benchmark(ds, ["cgain", "gain"], [0.2], repetitions=1,
                           root_seed=14, train_config=FAST)
    for cell in report.cells:
        assert cell.error is None
        assert cell.reps[0].seconds > 0.0
        assert np.isfinite(cell.reps[0].overall)


def test_method_failure_is_recorded_not_fatal(monkeypatch):
    ds = balanced_binary(n=40, d=3, seed=15)

    real = ev.run_method
    failures = []

    def flaky(method, *args, **kwargs):
        if method == "mice_lite":
            failures.append(method)
            raise RuntimeError(f"boom {len(failures)}")
        return real(method, *args, **kwargs)

    monkeypatch.setattr(ev, "run_method", flaky)
    report = run_benchmark(ds, ["mean", "mice_lite"], [0.2], repetitions=2, root_seed=16)
    by_method = {c.method: c for c in report.cells}
    assert by_method["mean"].error is None and len(by_method["mean"].reps) == 2
    assert "boom" in by_method["mice_lite"].error
    assert len(by_method["mice_lite"].reps) == 0
    # every failed repetition is kept, in repetition order
    assert by_method["mice_lite"].error == "rep 0: RuntimeError: boom 1; rep 1: RuntimeError: boom 2"


def test_benchmark_validation():
    ds = balanced_binary()
    with pytest.raises(ValueError, match="method"):
        run_benchmark(ds, [], [0.2], 1, 0)
    with pytest.raises(ValueError, match="unknown method"):
        run_benchmark(ds, ["knn"], [0.2], 1, 0)
    with pytest.raises(ValueError, match="missing rate"):
        run_benchmark(ds, ["mean"], [1.2], 1, 0)
    with pytest.raises(ValueError, match="missing rates"):
        run_benchmark(ds, ["mean"], [], 2, 0)
    with pytest.raises(ValueError, match="repetition"):
        run_benchmark(ds, ["mean"], [0.2], 0, 0)
    with pytest.raises(ValueError, match="strict"):
        run_benchmark(ds, ["mean"], [0.2], 1, 0, eval_mode="strict")


@pytest.mark.parametrize("grid, message", [
    ({"methods": ["mean", "mean"]}, "method 'mean' is given more than once"),
    ({"missing_rates": [0.2, 0.1, 0.2]}, "missing rate 0.2 is given more than once"),
    ({"minority_fractions": [0.3, 0.3]}, "minority fraction 0.3 is given more than once"),
], ids=["method", "rate", "fraction"])
def test_benchmark_refuses_a_repeated_grid_value_before_any_work(monkeypatch, grid, message):
    # a repeat would give two report rows with one key and different RMSEs
    def fail(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(ev, "_rep_task", fail)
    args = {"methods": ["mean"], "missing_rates": [0.2], **grid}
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(balanced_binary(), repetitions=1, root_seed=0, **args)


@pytest.mark.parametrize("ref, message", [
    (True, "class must be a class name or a 0-based index, got True"),
    (1.0, "class must be a class name or a 0-based index, got 1.0"),
    (0.9, "class must be a class name or a 0-based index, got 0.9"),
    ("x", "class 'x' not found in class names \\['0', '1'\\]"),
    (2, "class index 2 out of range for 2 classes"),
], ids=["bool", "float", "fraction", "unknown-name", "index-out-of-range"])
def test_benchmark_refuses_a_bad_minority_class_before_any_work(monkeypatch, ref, message):
    def fail(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(ev, "_rep_task", fail)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(balanced_binary(), ["mean"], [0.2], repetitions=1, root_seed=0,
                      minority_fractions=[0.3], minority_class=ref)


def test_minority_class_without_minority_fractions_is_refused_before_any_work(monkeypatch):
    # only the imbalance grid reads minority_class; the rate grid would drop it unread
    def fail(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(ev, "_rep_task", fail)
    with pytest.raises(ValueError, match="^minority_class is used only by the imbalance grid; "
                                         "give minority_fractions too$"):
        run_benchmark(balanced_binary(), ["mean"], [0.2], repetitions=1, root_seed=0, minority_class=1)


def test_minority_class_name_wins_over_an_index():
    rng = np.random.default_rng(3)
    from cgain.data import build_dataset
    ds = build_dataset(rng.uniform(0.0, 2.0, size=(40, 2)), ["1"] * 24 + ["2"] * 16, ["a", "b"])
    for ref, name in ((None, "2"), ("1", "1"), ("2", "2"), (1, "2"), ("0", "1")):
        report = run_benchmark(ds, ["mean"], [0.2], repetitions=1, root_seed=5,
                               minority_fractions=[0.3], minority_class=ref)
        assert report.config["minority_class"] == name, ref


@pytest.mark.parametrize("seed, message", [
    (1.5, "seed must be an integer, got 1.5"),
    (True, "seed must be an integer, got True"),
    ("3", "seed must be an integer, got '3'"),
    (-1, "seed must be non-negative, got -1"),
], ids=["float", "bool", "text", "negative"])
def test_benchmark_refuses_a_root_seed_that_is_not_a_non_negative_integer(monkeypatch, seed, message):
    def fail(*args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(ev, "_rep_task", fail)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(balanced_binary(), ["mean"], [0.2], repetitions=1, root_seed=seed)


@pytest.mark.parametrize("grid, message", [
    ({"repetitions": True}, "repetitions must be an integer, got True"),
    ({"repetitions": 2.0}, "repetitions must be an integer, got 2.0"),
    ({"repetitions": "2"}, "repetitions must be an integer, got '2'"),
    ({"jobs": 1.5}, "jobs must be an integer, got 1.5"),
    ({"jobs": 2.0}, "jobs must be an integer, got 2.0"),
    ({"jobs": False}, "jobs must be an integer, got False"),
], ids=["bool-reps", "float-reps", "text-reps", "fraction-jobs", "float-jobs", "bool-jobs"])
def test_benchmark_refuses_repetitions_or_jobs_that_are_not_integers_before_any_work(monkeypatch, grid,
                                                                                      message):
    # a bool ran as one repetition and a whole float reached range() after the subsampling
    def fail(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(ev, "_rep_task", fail)
    monkeypatch.setattr(ev, "subsample_imbalance", fail)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(balanced_binary(), ["mean"], [0.2], root_seed=0, minority_fractions=[0.3],
                      **{"repetitions": 1, **grid})
    monkeypatch.undo()   # NumPy integers are integers
    report = run_benchmark(balanced_binary(), ["mean"], [0.2], repetitions=np.int64(1), root_seed=0,
                           jobs=np.int32(1))
    assert len(report.cells[0].reps) == 1


def test_root_seed_is_stored_as_the_integer_it_ran_with():
    ds = balanced_binary(n=40, d=3, seed=11)
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=1, root_seed=np.int64(7))
    assert type(report.config["root_seed"]) is int and report.config["root_seed"] == 7
    assert report_csv_rows(report) == report_csv_rows(run_benchmark(ds, ["mean"], [0.2], 1, root_seed=7))


def test_numpy_class_index_is_stored_as_the_class_name(tmp_path):
    ds = balanced_binary(n=60, d=3, seed=32)
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=1, root_seed=33,
                           train_config=TrainConfig(batch_size=np.int64(16)),
                           minority_fractions=[0.3], minority_class=np.int64(1))
    ev.write_report_json(tmp_path / "r.json", report)
    config = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["config"]
    assert config["minority_class"] == "1" and config["train"]["batch_size"] == 16
    by_index = run_benchmark(ds, ["mean"], [0.2], repetitions=1, root_seed=33,
                             minority_fractions=[0.3], minority_class=1)
    assert report_csv_rows(report) == report_csv_rows(by_index)


def test_numpy_real_config_values_are_written_as_json_numbers(tmp_path):
    # a config that validate accepts may hold NumPy reals that json cannot
    # write itself; each is written as the float64 that holds it exactly
    cfg = TrainConfig(iterations=5, batch_size=16, alpha=np.float16(10), learning_rate=np.float32(1e-3))
    report = run_benchmark(balanced_binary(n=40, d=3, seed=34), ["mean"], [0.2], repetitions=1, root_seed=35,
                           train_config=cfg)
    ev.write_report_json(tmp_path / "r.json", report)
    train = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["config"]["train"]
    assert type(train["alpha"]) is type(train["learning_rate"]) is float
    assert (train["alpha"], train["learning_rate"]) == (10.0, float(np.float32(1e-3)))


def blas_threads_task(args):
    """A stand-in for _rep_task that reports its process's OpenBLAS thread count as its error."""
    return args[0], args[1], {"error": f"threads {openblas_function('get_num_threads', restype='int')()}"}


def test_pool_workers_run_blas_on_one_thread(monkeypatch):
    # the parent runs BLAS on two threads, which forked workers would inherit
    get_threads = openblas_function("get_num_threads", restype="int")
    set_threads = openblas_function("set_num_threads", ("int",))
    if get_threads is None or set_threads is None:
        pytest.skip("NumPy's OpenBLAS with thread-count entry points is not present")
    before = get_threads()
    monkeypatch.setattr(ev, "_rep_task", blas_threads_task)
    set_threads(2)
    try:
        report = run_benchmark(balanced_binary(), ["mean", "mice_lite"], [0.2], repetitions=1, root_seed=0, jobs=2)
        assert get_threads() == 2   # the parent keeps its own
    finally:
        set_threads(before)
    assert [cell.error for cell in report.cells] == ["rep 0: threads 1"] * 2


def four_row_class():
    """A binary table whose class '1' has 4 of its 30 rows."""
    from cgain.data import build_dataset
    raw = np.random.default_rng(5).uniform(0.0, 2.0, size=(30, 3))
    return build_dataset(raw, [str(int(i < 4)) for i in range(30)], ["c0", "c1", "c2"], name="four")


@pytest.mark.parametrize("dataset, repetitions, grid, message", [
    (four_row_class(), 10, {}, "class '1' has 4 rows, fewer than k=10"),
    # 30 rows in each class of the table, but the 0.1 block keeps 3 of class '0'
    (balanced_binary(), 5, {"minority_fractions": [0.5, 0.1]}, "class '0' has 3 rows, fewer than k=5"),
], ids=["rate_grid", "imbalance_block"])
def test_a_strict_grid_that_cannot_be_split_into_folds_is_refused_before_any_task(monkeypatch, dataset,
                                                                                 repetitions, grid, message):
    def refuse(args):
        raise AssertionError("a task ran")

    monkeypatch.setattr(ev, "_rep_task", refuse)
    with pytest.raises(ValueError) as info:
        run_benchmark(dataset, ["mean"], [0.2], repetitions, 0, eval_mode="strict", **grid)
    assert str(info.value) == message


def test_strict_mode_trains_on_other_folds():
    ds = balanced_binary(n=60, d=3, seed=17)
    report = run_benchmark(ds, ["mean"], [0.25], repetitions=3, root_seed=18,
                           eval_mode="strict")
    cell = report.cells[0]
    assert len(cell.reps) == 3
    # folds share one corruption: disjoint evaluated cells that cover its mask
    total_missing = sum(r.n_missing for r in cell.reps)
    inc = corrupt_mcar(ds, 0.25, spawn_rng(18, 1, 0, 0))
    assert total_missing == int((inc.mask == 0).sum())


# ---------------------------------------------------------------------------
# imbalance grid
# ---------------------------------------------------------------------------

def test_imbalance_grid_rows_and_delegation():
    ds = balanced_binary(n=80, d=3, seed=19)
    root = 77
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=2, root_seed=root,
                           minority_fractions=[0.25, 0.5], minority_class=1)
    assert [c.minority_fraction for c in report.cells] == [0.25, 0.5]
    # the fraction-f block is exactly run_benchmark on the subsample
    fidx = 1
    sub = subsample_imbalance(ds, 1, 0.5, spawn_rng(root, 2, fidx))
    direct = run_benchmark(sub, ["mean"], [0.2], 2, root_seed=spawn_seed(root, 6, fidx))
    assert [r.overall for r in report.cells[fidx].reps] == \
           [r.overall for r in direct.cells[0].reps]
    assert [r.per_class for r in report.cells[fidx].reps] == \
           [r.per_class for r in direct.cells[0].reps]


def test_imbalance_identity_per_repetition():
    ds = balanced_binary(n=80, d=4, seed=20)
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=3, root_seed=21,
                           minority_fractions=[0.3])
    for rep in report.cells[0].reps:
        lhs = rep.overall ** 2 * rep.n_missing
        rhs = sum(rep.per_class[c] ** 2 * rep.per_class_missing[c]
                  for c in report.class_names if rep.per_class_missing[c])
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_imbalance_requires_binary(dataset):
    multi = toy_dataset(n=30, n_classes=3)
    with pytest.raises(ValueError, match="binary"):
        run_benchmark(multi, ["mean"], [0.2], 1, 0, minority_fractions=[0.3])


def test_imbalance_reference_fraction_grid():
    # the full imbalance grid: minority shares 10/25/40/50% at 20% missing
    ds = balanced_binary(n=400, d=3, seed=26)
    report = run_benchmark(ds, ["mean"], [0.2], repetitions=2, root_seed=27,
                           minority_fractions=[0.10, 0.25, 0.40, 0.50], minority_class=1)
    assert [c.minority_fraction for c in report.cells] == [0.10, 0.25, 0.40, 0.50]
    rows = report_csv_rows(report)
    # one overall + one row per class, per fraction
    assert len(rows) == 1 + 4 * (1 + 2)
    for cell in report.cells:
        for rep in cell.reps:
            assert rep.per_class_missing["0"] > 0 and rep.per_class_missing["1"] > 0


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_json_is_strict_with_null_for_a_class_without_missing_cells(tmp_path):
    # two rows of class "b" at rate 0.05 leave it without a missing cell in some repetitions
    from cgain.data import build_dataset
    raw = np.random.default_rng(30).uniform(0.0, 2.0, size=(40, 3))
    ds = build_dataset(raw, ["a"] * 38 + ["b"] * 2, ["c0", "c1", "c2"], name="tiny_class")
    report = run_benchmark(ds, ["mean"], [0.05], repetitions=3, root_seed=31)
    ev.write_report_json(tmp_path / "r.json", report)

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads((tmp_path / "r.json").read_text(encoding="utf-8"), parse_constant=refuse)
    reps = payload["cells"][0]["reps"]
    empty = [rep for rep in reps if rep["per_class_missing"]["b"] == 0]
    assert empty and all(rep["per_class"]["b"] is None for rep in empty)
    assert all(isinstance(rep["per_class"]["a"], float) for rep in reps)


def test_report_json_that_fails_to_serialize_leaves_no_file(tmp_path):
    report = run_benchmark(balanced_binary(n=40, d=2, seed=34), ["mean"], [0.2], repetitions=1,
                           root_seed=35)
    report.config["train"]["batch_size"] = object()
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_bytes(b"earlier report")
    for path in (fresh, kept):
        with pytest.raises(TypeError):
            ev.write_report_json(path, report)
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier report"


def test_report_json_v2_states_each_fact_once():
    ds = balanced_binary(n=50, d=3, seed=24)
    report = run_benchmark(ds, ["mean", "mice_lite"], [0.1, 0.2], repetitions=2,
                           root_seed=25)
    payload = json.loads(json.dumps(report_to_json_dict(report)))
    assert list(payload) == ["format", "version", "config", "class_names", "cells"]
    assert payload["version"] == 2
    assert {k: payload["config"][k] for k in ("dataset", "root_seed", "eval_mode")} == \
           {"dataset": ds.name, "root_seed": 25, "eval_mode": "repetition"}
    assert "conditional" not in payload["config"]["train"]
    assert "seed" not in payload["config"]["train"]
    assert len(payload["cells"]) == len(report.cells) == 4
    for cell, loaded in zip(report.cells, payload["cells"]):
        assert loaded.keys() == {"method", "missing_rate", "minority_fraction", "error", "reps"}
        assert loaded["reps"] == [asdict(r) for r in cell.reps]
