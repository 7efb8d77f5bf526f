import json
from dataclasses import asdict

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import cgain.evaluate as ev
from cgain.baselines import MeanImputer
from cgain.data import corrupt_mcar, subsample_imbalance
from cgain.evaluate import (BenchmarkCell, BenchmarkReport, mean_std, report_csv_rows,
                            report_to_json_dict, rmse_missing, run_benchmark, time_methods)
from cgain.imputer import TrainConfig
from cgain.nn import make_rng, spawn_rng, spawn_seed
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


def test_parallel_execution_matches_serial():
    ds = balanced_binary(n=40, d=3, seed=11)
    # the rate grid, and an imbalance grid whose two fractions share one pool
    for grid in ({}, {"minority_fractions": [0.25, 0.5], "minority_class": 1}):
        serial = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2,
                               root_seed=12, jobs=1, **grid)
        parallel = run_benchmark(ds, ["mean", "mice_lite"], [0.15], repetitions=2,
                                 root_seed=12, jobs=2, **grid)
        assert report_csv_rows(serial) == report_csv_rows(parallel)


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
# timing and serialization
# ---------------------------------------------------------------------------

def test_time_methods_totals_are_exact_sums():
    ds = balanced_binary(n=40, d=3, seed=22)
    report = run_benchmark(ds, ["mean", "mice_lite"], [0.2], repetitions=3, root_seed=23)
    summary = time_methods(report)
    for cell in report.cells:
        entry = summary[cell.method]
        assert entry["total_seconds"] == sum(r.seconds for r in cell.reps)
        assert entry["reps"] == len(cell.reps)
        assert entry["mean_seconds"] == entry["total_seconds"] / entry["reps"]


def test_time_methods_empty_reps_give_zero():
    report = BenchmarkReport({}, ["0", "1"], [BenchmarkCell("mean", 0.2)])
    summary = time_methods(report)
    assert summary["mean"] == {"total_seconds": 0.0, "reps": 0, "mean_seconds": 0.0}


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
