import ast
import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

import cgain
from cgain import cli, data as data_module, evaluate
from cgain.cli import DEFAULT_METHODS, DEFAULT_RATES, RunConfig, main
from cgain.data import load_csv, read_csv_table
from cgain.evaluate import mean_std
from cgain.imputer import load_model
from conftest import as_format_v1


def write_toy_csv(path, n=40, d=3, seed=0, rate=0.0):
    """A labeled table of n rows and d features; with rate, each feature cell is empty with that probability."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 10.0, size=(n, d))
    empty = rng.random((n, d)) < rate
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(d)] + ["y"])
        for i in range(n):
            writer.writerow(["" if e else f"{v:.6f}" for v, e in zip(raw[i], empty[i])] + [str(i % 2)])
    return path


def run(*argv):
    return main([str(a) for a in argv])


# what each command needs besides --data, --label-col and --out
COMMAND_NEEDS = {"corrupt": ["--rate", "0.3"], "train": [], "impute": ["--model", "absent.model"],
                 "benchmark": ["--method", "mean", "--reps", "1", "--jobs", "1"]}


# ---------------------------------------------------------------------------
# corrupt
# ---------------------------------------------------------------------------

def test_corrupt_writes_data_and_mask(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
             "--seed", "5", "--out", tmp_path / "c")
    assert rc == 0
    out = capsys.readouterr().out
    assert "config command=corrupt" in out
    assert "missing_fraction=" in out
    header, rows = read_csv_table(tmp_path / "c.data.csv")
    empties = sum(1 for row in rows for j in range(3) if row[j] == "")
    mask_header, mask_rows = read_csv_table(tmp_path / "c.mask.csv")
    zeros = sum(1 for row in mask_rows for cell in row if cell == "0")
    assert empties == zeros > 0
    # label column never blanked
    assert all(row[3] != "" for row in rows)


def test_inputs_with_a_byte_order_mark_keep_their_first_column_name(tmp_path):
    bom = b"\xef\xbb\xbf"
    text = "y,a,b\n" + "".join(f"{i % 2},{i}.5,{(7 * i) % 11}.25\n" for i in range(30))
    (tmp_path / "d.csv").write_bytes(bom + text.encode("utf-8"))
    assert run("corrupt", "--data", tmp_path / "d.csv", "--label-col", "y", "--rate", "0.3",
               "--seed", "5", "--out", tmp_path / "c") == 0
    for stem in ("c.data.csv", "c.mask.csv"):
        blob = (tmp_path / stem).read_bytes()
        assert not blob.startswith(bom)     # files the CLI writes have none
        (tmp_path / f"bom.{stem}").write_bytes(bom + blob)
    assert read_csv_table(tmp_path / "bom.c.mask.csv")[0] == ["a", "b"]
    plain = data_module.load_incomplete_csv(tmp_path / "c.data.csv", "y")
    marked = data_module.load_incomplete_csv(tmp_path / "bom.c.data.csv", "y")
    assert marked.dataset.label_column == "y"
    assert np.array_equal(marked.mask, plain.mask)
    assert np.array_equal(data_module.load_mask_csv(tmp_path / "bom.c.mask.csv"), plain.mask)
    assert np.array_equal(marked.dataset.features, plain.dataset.features)
    assert run("train", "--data", tmp_path / "bom.c.data.csv", "--label-col", "y",
               "--iters", "2", "--batch", "8", "--out", tmp_path / "r") == 0


def test_corrupt_fraction_on_breast_cancer(tmp_path):
    pytest.importorskip("sklearn")
    from cgain.datasets import load_breast_cancer_dataset, write_dataset_csv
    ds = load_breast_cancer_dataset()
    data = tmp_path / "bc.csv"
    write_dataset_csv(data, ds)
    rc = run("corrupt", "--data", data, "--label-col", "diagnosis", "--rate", "0.2",
             "--seed", "1", "--out", tmp_path / "bc20")
    assert rc == 0
    header, rows = read_csv_table(tmp_path / "bc20.data.csv")
    label_idx = header.index("diagnosis")
    empties = sum(1 for row in rows for j, cell in enumerate(row)
                  if j != label_idx and cell == "")
    expected = 569 * 30 * 0.2   # = 3414
    assert abs(empties - expected) <= 0.02 * 569 * 30


def test_corrupt_is_byte_deterministic(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv")
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.25",
               "--seed", "9", "--out", tmp_path / "a") == 0
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.25",
               "--seed", "9", "--out", tmp_path / "b") == 0
    assert (tmp_path / "a.data.csv").read_bytes() == (tmp_path / "b.data.csv").read_bytes()
    assert (tmp_path / "a.mask.csv").read_bytes() == (tmp_path / "b.mask.csv").read_bytes()


def test_corrupt_rejects_rate_one(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "1.0",
             "--out", tmp_path / "c")
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("cgain-error: validation:")


def test_corrupt_rejects_a_missing_label(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("a,b,y\n1,2,0\n3,4,\n5,6,1\n")
    rc = run("corrupt", "--data", path, "--label-col", "y", "--rate", "0.3", "--out", tmp_path / "c")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {path}: row 3: missing label; "
                                       "labels must be fully observed\n")
    assert not (tmp_path / "c.data.csv").exists()


def test_corrupt_rejects_duplicate_header_names(tmp_path, capsys):
    # with `--label-col 2` the label resolved by name would be the first `x`
    path = tmp_path / "dup.csv"
    rng = np.random.default_rng(3)
    path.write_text("x,y,x\n" + "".join(f"{a:.3f},{b:.3f},{i % 2}\n"
                                        for i, (a, b) in enumerate(rng.uniform(size=(30, 2)))))
    rc = run("corrupt", "--data", path, "--label-col", "2", "--rate", "0.3",
             "--seed", "1", "--out", tmp_path / "c")
    assert rc == 1
    assert "duplicate column name 'x'" in capsys.readouterr().err
    assert not (tmp_path / "c.data.csv").exists()


def count_reads(monkeypatch) -> list:
    """Record the path of every read_csv_table call, whichever module makes it."""
    paths = []
    real = data_module.read_csv_table

    def counting(path):
        paths.append(str(path))
        return real(path)

    monkeypatch.setattr(cli, "read_csv_table", counting)
    monkeypatch.setattr(data_module, "read_csv_table", counting)
    return paths


def test_corrupt_and_impute_read_data_once(tmp_path, monkeypatch):
    data = write_toy_csv(tmp_path / "d.csv", n=50, seed=7)
    paths = count_reads(monkeypatch)
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
               "--seed", "8", "--out", tmp_path / "c") == 0
    assert paths == [str(data)]
    corrupted = tmp_path / "c.data.csv"
    paths.clear()
    assert run("train", "--data", corrupted, "--label-col", "y", "--iters", "10",
               "--batch", "16", "--seed", "9", "--out", tmp_path / "m") == 0
    assert paths == [str(corrupted)]
    paths.clear()
    assert run("impute", "--model", tmp_path / "m.model", "--data", corrupted, "--label-col", "y",
               "--seed", "10", "--out", tmp_path / "i") == 0
    assert paths == [str(corrupted)]


def test_corrupt_train_and_impute_read_their_data_in_cli(tmp_path, monkeypatch):
    # each hands the table to the data loader, so no loader reads a file of its own
    data = write_toy_csv(tmp_path / "d.csv", n=50, seed=7)

    def refuse(path):
        raise AssertionError(f"a data loader read {path}")

    monkeypatch.setattr(data_module, "read_csv_table", refuse)
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
               "--seed", "8", "--out", tmp_path / "c") == 0
    corrupted = tmp_path / "c.data.csv"
    assert run("train", "--data", corrupted, "--label-col", "y", "--iters", "10",
               "--batch", "16", "--seed", "9", "--out", tmp_path / "m") == 0
    assert run("impute", "--model", tmp_path / "m.model", "--data", corrupted, "--label-col", "y",
               "--seed", "10", "--out", tmp_path / "i") == 0


@pytest.mark.parametrize("command", COMMAND_NEEDS)
def test_label_col_is_required_before_any_file_work(tmp_path, capsys, monkeypatch, command):
    data = write_toy_csv(tmp_path / "d.csv")
    paths = count_reads(monkeypatch)
    assert run(command, "--data", data, *COMMAND_NEEDS[command], "--out", tmp_path / "o") == 1
    assert capsys.readouterr().err == "cgain-error: validation: --label-col is required\n"
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_binary_columns_are_filled_with_0_or_1_and_given_cells_copied(tmp_path):
    rng = np.random.default_rng(21)
    rows = [[f"{a:.4f}", str(b), f"{c:.2f}", str(e), str(i % 2)]
            for i, (a, b, c, e) in enumerate(zip(rng.uniform(0, 9, 60), rng.integers(0, 2, 60),
                                                 rng.uniform(-5, 5, 60), rng.integers(0, 2, 60)))]
    data = tmp_path / "d.csv"
    data.write_text("u,b1,v,b2,y\n" + "".join(",".join(row) + "\n" for row in rows))
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
               "--seed", "3", "--out", tmp_path / "c") == 0
    assert run("train", "--data", tmp_path / "c.data.csv", "--label-col", "y", "--iters", "30",
               "--batch", "16", "--seed", "4", "--out", tmp_path / "m") == 0
    assert run("impute", "--model", tmp_path / "m.model", "--data", tmp_path / "c.data.csv",
               "--label-col", "y", "--seed", "5", "--out", tmp_path / "i") == 0
    assert load_model(tmp_path / "m.model").column_kinds == ("continuous", "binary", "continuous", "binary")
    _, given = read_csv_table(tmp_path / "c.data.csv")
    _, filled = read_csv_table(tmp_path / "i.imputed.csv")
    binary_fills = [out[j] for row, out in zip(given, filled) for j in (1, 3) if row[j] == ""]
    assert binary_fills and set(binary_fills) <= {"0", "1"}
    for row, out in zip(given, filled):
        assert all(a == b for a, b in zip(row, out) if a != "")
        assert all(b != "" for b in out)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_records_conditioning_flag_and_batch_default(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    rc = run("train", "--data", data, "--label-col", "y", "--method", "gain",
             "--iters", "20", "--batch", "16", "--seed", "2",
             "--out", tmp_path / "g")
    assert rc == 0
    model = load_model(tmp_path / "g.model")
    assert model.conditional is False
    out = capsys.readouterr().out
    assert "config method=gain" in out

    with pytest.warns(UserWarning, match="clamping"):    # the default batch exceeds the 40 rows
        rc = run("train", "--data", data, "--label-col", "y",
                 "--iters", "20", "--seed", "2", "--out", tmp_path / "c2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "config batch=128" in out   # default mini-batch size
    model = load_model(tmp_path / "c2.model")
    assert model.conditional is True and model.config.batch_size == 128


def test_label_col_names_a_header_column_before_an_index(tmp_path):
    # the column named 1 has 2 classes; index 1, the column named 2020, has 3
    data = tmp_path / "years.csv"
    data.write_text("2019,2020,1\n" + "".join(f"{'' if i % 4 else f'{i}.5'},{i % 3},{i % 2}\n"
                                              for i in range(30)))
    assert run("train", "--data", data, "--label-col", "1", "--iters", "2",
               "--batch", "8", "--out", tmp_path / "m") == 0
    assert load_model(tmp_path / "m.model").n_classes == 2


def test_trace_rows_equal_budget_over_interval(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    rc = run("train", "--data", data, "--label-col", "y",
             "--iters", "200", "--batch", "16", "--seed", "3", "--out", tmp_path / "t")
    assert rc == 0
    header, rows = read_csv_table(tmp_path / "t.trace.csv")
    assert header[0] == "iteration"
    assert len(rows) == 200 // 100   # default logging interval is 100


def test_train_on_corrupted_csv_with_mask(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv")
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
               "--seed", "4", "--out", tmp_path / "c") == 0
    rc = run("train", "--data", tmp_path / "c.data.csv", "--label-col", "y",
             "--iters", "20", "--batch", "16", "--seed", "5", "--out", tmp_path / "m")
    assert rc == 0
    assert (tmp_path / "m.model").exists()
    # the mask file corrupt wrote records the cells train read as missing: the empty ones
    assert np.array_equal(data_module.load_mask_csv(tmp_path / "c.mask.csv"),
                          data_module.load_incomplete_csv(tmp_path / "c.data.csv", "y").mask)


@pytest.mark.parametrize("rate", ["0.3", "0.1,0.2"])
def test_train_refuses_rate_and_points_to_corrupt(tmp_path, capsys, rate):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--rate", rate, "--out", tmp_path / "x")
    assert rc == 1
    assert capsys.readouterr().err == f"cgain-error: validation: unrecognized arguments: --rate {rate}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]
    # corrupt is the command that takes --rate: it hides the cells train reads as missing
    assert cli.build_parser().parse_args(["corrupt", "--rate", rate]).rate == rate


@pytest.mark.parametrize("command", ["train", "impute"])
def test_a_mask_flag_or_config_key_is_refused(tmp_path, capsys, command):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    args = [command, "--data", data, "--label-col", "y", *COMMAND_NEEDS[command], "--out", tmp_path / "x"]
    assert run(*args, "--mask", "m.csv") == 1
    assert capsys.readouterr().err == "cgain-error: validation: unrecognized arguments: --mask m.csv\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mask=m.csv\n")
    assert run(*args, "--config", cfg) == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {cfg}:1: {command} takes no config key "
                                       "'mask'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "run.cfg"]


def test_corrupt_needs_exactly_one_rate(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.1,0.2", "--out", tmp_path / "x")
    assert rc == 1
    assert capsys.readouterr().err == "cgain-error: validation: corrupt needs exactly one --rate, got '0.1,0.2'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("method", ["mean", "mice_lite"])
def test_train_rejects_untrainable_method(tmp_path, capsys, method):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--method", method,
             "--out", tmp_path / "x")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: train needs --method cgain or gain, "
                                       f"got {method!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


# ---------------------------------------------------------------------------
# impute
# ---------------------------------------------------------------------------

@pytest.fixture
def trained(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv", n=50, d=3, seed=7)
    assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3",
               "--seed", "8", "--out", tmp_path / "c") == 0
    assert run("train", "--data", tmp_path / "c.data.csv", "--label-col", "y",
               "--iters", "40", "--batch", "16", "--seed", "9",
               "--out", tmp_path / "m") == 0
    return data, tmp_path / "c.data.csv", tmp_path / "m.model"


def test_impute_fills_every_empty_field(trained, tmp_path, capsys):
    _, corrupted, model = trained
    rc = run("impute", "--model", model, "--data", corrupted, "--label-col", "y",
             "--seed", "10", "--out", tmp_path / "i")
    assert rc == 0
    header, rows = read_csv_table(tmp_path / "i.imputed.csv")
    assert all(cell != "" for row in rows for cell in row)
    # observed cells are byte-identical to the incomplete input
    _, in_rows = read_csv_table(corrupted)
    for row_in, row_out in zip(in_rows, rows):
        for a, b in zip(row_in, row_out):
            if a != "":
                assert a == b


def test_impute_without_missing_is_identity(trained, tmp_path):
    data, _, model = trained
    rc = run("impute", "--model", model, "--data", data, "--label-col", "y",
             "--out", tmp_path / "full")
    assert rc == 0
    assert (tmp_path / "full.imputed.csv").read_bytes() == Path(data).read_bytes()


def test_imputed_values_on_raw_scale(trained, tmp_path):
    data, corrupted, model = trained
    assert run("impute", "--model", model, "--data", corrupted, "--label-col", "y",
               "--seed", "10", "--out", tmp_path / "i") == 0
    truth = load_csv(data, "y")
    imputed = load_csv(tmp_path / "i.imputed.csv", "y")
    # the imputed file parses cleanly and observed raw values round-trip
    from cgain.data import load_incomplete_csv, denormalize
    inc = load_incomplete_csv(corrupted, "y")
    raw_truth = denormalize(truth.schema, truth.features)
    raw_imp = denormalize(imputed.schema, imputed.features)
    obs = inc.mask == 1
    assert np.max(np.abs(raw_truth[obs] - raw_imp[obs])) < 1e-9


def test_impute_rejects_dimension_mismatch(trained, tmp_path, capsys):
    _, _, model = trained
    other = write_toy_csv(tmp_path / "wide.csv", n=20, d=5, seed=11)
    rc = run("impute", "--model", model, "--data", other, "--label-col", "y",
             "--out", tmp_path / "no")
    assert rc == 1
    assert "features" in capsys.readouterr().err


def test_impute_refuses_a_format_v1_model(trained, tmp_path, capsys):
    _, corrupted, model = trained
    old = tmp_path / "old.model"
    old.write_bytes(as_format_v1(model.read_bytes()))
    rc = run("impute", "--model", old, "--data", corrupted, "--label-col", "y", "--out", tmp_path / "no")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {old}: model format version 1, but this "
                                       "cgain reads version 4; retrain the model\n")
    assert not (tmp_path / "no.imputed.csv").exists()


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_default_grid_matches_benchmark_protocol(capsys):
    assert DEFAULT_RATES == "0.05,0.1,0.15,0.2"
    assert DEFAULT_METHODS == "cgain,gain,mean,mice_lite"
    assert RunConfig().reps == 10
    rc = run("benchmark")   # missing --data: config still printed, then error
    assert rc == 1
    out = capsys.readouterr().out
    assert "config reps=10" in out
    assert "config eval_mode=repetition" in out


def test_benchmark_writes_report_files(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv", n=60, d=3, seed=12)
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean,mice_lite",
             "--rate", "0.15,0.25", "--reps", "2", "--seed", "13", "--jobs", "1",
             "--out", tmp_path / "r")
    assert rc == 0
    out = capsys.readouterr().out
    assert "result method=mean" in out
    assert not [line for line in out.splitlines() if line.startswith("timing")]
    assert sorted(p.name for p in tmp_path.glob("r.*")) == ["r.report.csv", "r.report.json"]
    payload = json.loads((tmp_path / "r.report.json").read_text())
    with open(tmp_path / "r.report.csv", newline="") as fh:
        all_rows = [row for row in csv.reader(fh) if row[4] == "all"]
    # the JSON holds what the CSV aggregates: each 'all' row is its cell's overall RMSEs
    assert len(all_rows) == len(payload["cells"]) == 4
    for row, cell in zip(all_rows, payload["cells"]):
        mean, std = mean_std([rep["overall"] for rep in cell["reps"]])
        assert row[1:8] == [cell["method"], repr(cell["missing_rate"]), "", "all",
                            repr(mean), repr(std), "2"]
    assert payload["config"]["train"]["batch_size"] == 128
    # spaces around method names are ignored, as they are around rates
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean, mice_lite",
             "--rate", "0.15, 0.25", "--reps", "2", "--seed", "13", "--jobs", "1",
             "--out", tmp_path / "s")
    assert rc == 0
    assert (tmp_path / "s.report.csv").read_bytes() == (tmp_path / "r.report.csv").read_bytes()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_grid_keeps_its_timings_in_the_report_json_alone(tmp_path, capsys, jobs):
    data = write_toy_csv(tmp_path / "d.csv", n=60, d=3, seed=12)
    assert run("benchmark", "--data", data, "--label-col", "y", "--method", "mean,mice_lite",
               "--rate", "0.2", "--reps", "2", "--seed", "13", "--jobs", jobs, "--out", tmp_path / "g") == 0
    out = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "g.report.csv", "g.report.json"]
    assert [line for line in out.splitlines() if line.startswith(("wrote", "timing"))] == [
        f"wrote {tmp_path / 'g.report.csv'}", f"wrote {tmp_path / 'g.report.json'}"]
    payload = json.loads((tmp_path / "g.report.json").read_text())
    assert all(rep["seconds"] >= 0.0 for cell in payload["cells"] for rep in cell["reps"])
    assert not hasattr(cgain, "time_methods") and not hasattr(evaluate, "time_methods")
    assert not hasattr(evaluate, "write_timing_csv")


@pytest.mark.parametrize("flag, message", [
    ("--method", "at least one method"),
    ("--rate", "--rate needs at least one value"),
    ("--imbalance", "--imbalance needs at least one value"),
], ids=["method", "rate", "imbalance"])
def test_benchmark_empty_method_list_is_usage_error(tmp_path, capsys, flag, message):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("benchmark", "--data", data, "--label-col", "y", flag, ",",
             "--out", tmp_path / "r")
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "r.report.csv").exists()


def test_benchmark_refuses_a_repeated_method(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean,mean",
             "--out", tmp_path / "r")
    assert rc == 1
    assert capsys.readouterr().err == "cgain-error: validation: method 'mean' is given more than once\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


@pytest.mark.parametrize("args, message", [
    (["--reps", "0"], "need at least 1 repetition, got 0"),
    (["--jobs", "-3"], "argument --jobs: must be a non-negative integer, got '-3'"),
    (["--method", "cgain,foo"],
     "unknown method 'foo'; expected one of ('cgain', 'gain', 'mean', 'mice_lite')"),
    (["--eval-mode", "strict", "--reps", "1"], "strict fold mode needs at least 2 repetitions (folds)"),
    (["--rate", "1.5"], "missing rate must be in (0, 1), got 1.5"),
    (["--imbalance", "0.7"], "minority fraction must be in (0, 0.5], got 0.7"),
    (["--imbalance", "0"], "minority fraction must be in (0, 0.5], got 0.0"),
], ids=["zero_reps", "negative_jobs", "unknown_method", "strict_one_fold", "rate_above_one",
        "fraction_above_half", "zero_fraction"])
def test_benchmark_refuses_a_bad_grid_before_reading_the_data(tmp_path, capsys, args, message):
    # --data names no file, so an error about the grid shows that it came first
    rc = run("benchmark", "--data", tmp_path / "absent.csv", "--label-col", "y", *args,
             "--out", tmp_path / "r")
    assert rc == 1
    assert capsys.readouterr().err == f"cgain-error: validation: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_benchmark_imbalance_grid(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv", n=80, d=3, seed=14)
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean",
             "--imbalance", "0.25,0.5", "--reps", "2", "--seed", "15",
             "--jobs", "1", "--out", tmp_path / "imb")
    assert rc == 0
    payload = json.loads((tmp_path / "imb.report.json").read_text())
    assert [c["minority_fraction"] for c in payload["cells"]] == [0.25, 0.5]
    assert payload["config"]["missing_rates"] == [0.2]   # imbalance default rate


def test_benchmark_failure_lines_name_the_fraction(tmp_path, capsys, monkeypatch):
    def fail(method, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(evaluate, "run_method", fail)
    data = write_toy_csv(tmp_path / "d.csv", n=80, d=3, seed=14)
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean",
             "--imbalance", "0.25,0.5", "--reps", "1", "--seed", "15",
             "--jobs", "1", "--out", tmp_path / "imb")
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [
        "cgain-error: runtime: cell method=mean rate=0.2 fraction=0.25: rep 0: RuntimeError: boom",
        "cgain-error: runtime: cell method=mean rate=0.2 fraction=0.5: rep 0: RuntimeError: boom",
    ]


COMMAND_ARGS = {"train": [],
                "benchmark": ["--method", "cgain,mean", "--rate", "0.2", "--reps", "1", "--jobs", "1"]}


@pytest.mark.parametrize("command", COMMAND_ARGS)
@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "-1", "alpha must be positive and finite, got -1.0"),
    ("--alpha", "nan", "alpha must be positive and finite, got nan"),
    ("--lr", "inf", "learning rate must be positive and finite, got inf"),
], ids=["negative_alpha", "nan_alpha", "inf_lr"])
def test_bad_train_config_is_refused_before_any_work(tmp_path, capsys, monkeypatch, command, flag, value,
                                                     message):
    data = write_toy_csv(tmp_path / "d.csv")
    paths = count_reads(monkeypatch)
    rc = run(command, "--data", data, "--label-col", "y", "--iters", "5", *COMMAND_ARGS[command],
             flag, value, "--out", tmp_path / "r")
    assert rc == 1
    assert capsys.readouterr().err == f"cgain-error: validation: {message}\n"
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_corrupt_refuses_a_bad_rate_before_reading_the_data(tmp_path, capsys, monkeypatch):
    # corrupt_mcar's rule, checked at the door as train and benchmark check theirs
    data = write_toy_csv(tmp_path / "d.csv")
    paths = count_reads(monkeypatch)
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "1.5", "--out", tmp_path / "r")
    assert rc == 1
    assert capsys.readouterr().err == "cgain-error: validation: missing rate must be in (0, 1), got 1.5\n"
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------

def test_config_file_with_flag_override(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data={data}\nlabel_col=y\nrate=0.3\nseed=21\n# comment\n")
    rc = run("corrupt", "--config", cfg, "--seed", "22", "--out", tmp_path / "c")
    assert rc == 0
    out = capsys.readouterr().out
    assert "config seed=22" in out   # flag wins over file


def test_config_file_may_start_with_a_byte_order_mark(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfseed=5\nreps=3\n")
    assert cli.parse_config_file(cfg, "benchmark") == {"seed": 5, "reps": 3}


def test_unknown_config_key_fails_loudly(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for key in ("batchsize", "config"):   # --config is a flag, but no config key
        cfg.write_text(f"{key}=64\n")
        assert run("corrupt", "--config", cfg, "--out", tmp_path / "c") == 1
        assert capsys.readouterr().err == (f"cgain-error: validation: {cfg}:1: corrupt takes no config key "
                                           f"{key!r}\n")


def test_bad_flag_value_is_a_validation_error(tmp_path, capsys):
    rc = run("train", "--batch", "x", "--out", tmp_path / "m")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cgain-error: validation: argument --batch: must be a non-negative integer, got 'x'\n"


def test_bad_config_value_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# training\niters=5\nbatch=x\n")
    rc = run("train", "--config", cfg, "--out", tmp_path / "m")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {cfg}:3: key 'batch': "
                                       "argument --batch: must be a non-negative integer, got 'x'\n")


def test_config_value_outside_choices_is_refused_by_every_command(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data={data}\nlabel_col=y\nseed=3\neval_mode=flipped\n")
    assert run("benchmark", "--config", cfg, "--out", tmp_path / "c") == 1
    # argparse words the list of choices differently across Python versions
    err = capsys.readouterr().err
    assert err.startswith(f"cgain-error: validation: {cfg}:4: key 'eval_mode': "
                          "argument --eval-mode: invalid choice: 'flipped' (choose from ")
    assert err.count("\n") == 1
    # the other commands read no evaluation mode, so they refuse the key before looking at its value
    for command in ("corrupt", "train"):
        assert run(command, "--config", cfg, "--out", tmp_path / "c") == 1
        assert capsys.readouterr().err == (f"cgain-error: validation: {cfg}:4: {command} takes no config key "
                                           "'eval_mode'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "run.cfg"]


@pytest.mark.parametrize("command", ["corrupt", "train", "benchmark"])
@pytest.mark.parametrize("flag, in_file, source, shown", [
    ("-1", None, "argument --seed:", "'-1'"),
    ("\uff13", None, "argument --seed:", "'\uff13'"),
    (None, "-1", "{cfg}:1: key 'seed': argument --seed:", "'-1'"),
], ids=["flag_negative", "flag_fullwidth", "file_negative"])
def test_bad_seed_names_its_source(tmp_path, capsys, command, flag, in_file, source, shown):
    data = write_toy_csv(tmp_path / "d.csv")
    cfg = tmp_path / "s.cfg"
    seed = ["--seed", flag] if flag is not None else []
    if in_file is not None:
        cfg.write_text(f"seed={in_file}\n")
        seed += ["--config", cfg]
    rc = run(command, "--data", data, "--label-col", "y", *COMMAND_NEEDS[command], *seed,
             "--out", tmp_path / "o")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {source.format(cfg=cfg)} must be a "
                                       f"non-negative integer, got {shown}\n")
    written = {data, cfg} if in_file is not None else {data}
    assert set(tmp_path.iterdir()) == written   # refused before any file is written


# every (command, int field) pair, and texts that int() would read but the one integer rule refuses
INT_PAIRS = [pytest.param(command, f.name, id=f"{command}-{f.name}")
             for f in fields(RunConfig) if f.type == "int" for command in f.metadata["commands"]]
NOT_ASCII_DIGITS = {"arabic_indic": "\u0663", "fullwidth": "\uff13", "plus": "+5", "underscore": "1_0",
                    "space": " 7", "negative": "-1", "word": "x"}


@pytest.mark.parametrize("text", NOT_ASCII_DIGITS.values(), ids=NOT_ASCII_DIGITS.keys())
@pytest.mark.parametrize("command, name", INT_PAIRS)
def test_an_int_field_is_refused_unless_ascii_digits_by_flag_and_by_key(tmp_path, capsys, monkeypatch,
                                                                        command, name, text):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    paths = count_reads(monkeypatch)
    flag = f"--{name.replace('_', '-')}"
    args = [command, "--data", data, "--label-col", "y", *COMMAND_NEEDS[command], "--out", tmp_path / "o"]
    refusal = f"argument {flag}: must be a non-negative integer, got {text!r}\n"
    assert run(*args, flag, text) == 1
    assert capsys.readouterr() == ("", f"cgain-error: validation: {refusal}")
    # spaces around '=' are the config file's syntax, so a key's value cannot carry them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}={text}\n")
    if text.strip() == text:
        assert run(*args, "--config", cfg) == 1
        assert capsys.readouterr() == ("", f"cgain-error: validation: {cfg}:1: key {name!r}: {refusal}")
    else:
        assert cli.parse_config_file(cfg, command) == {name: int(text)}
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "run.cfg"]


@pytest.mark.parametrize("command, name", INT_PAIRS)
def test_an_int_field_takes_ascii_digits_by_flag_and_by_key(tmp_path, command, name):
    parser, cfg = cli.build_parser(), tmp_path / "run.cfg"
    for text in ("0", "7"):
        assert getattr(parser.parse_args([command, f"--{name.replace('_', '-')}", text]), name) == int(text)
        cfg.write_text(f"{name}={text}\n")
        assert cli.parse_config_file(cfg, command) == {name: int(text)}


def test_a_set_cgain_seed_changes_nothing(tmp_path, capsys, monkeypatch):
    # a run is named by its flags and config file alone
    data = write_toy_csv(tmp_path / "d.csv")
    outputs = {}
    for env in (None, "41"):
        if env is None:
            monkeypatch.delenv("CGAIN_SEED", raising=False)
        else:
            monkeypatch.setenv("CGAIN_SEED", env)
        out = tmp_path / f"env{env}"
        assert run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.3", "--out", out) == 0
        assert run("train", "--data", f"{out}.data.csv", "--label-col", "y", "--iters", "5", "--batch", "8",
                   "--out", out) == 0
        printed = capsys.readouterr().out.replace(str(out), "OUT")
        assert printed.count("config seed=0\n") == 2
        outputs[env] = printed, *(Path(f"{out}.{suffix}").read_bytes() for suffix in ("data.csv", "mask.csv", "model"))
    assert outputs[None] == outputs["41"]


def test_the_package_reads_no_environment_variable():
    reads = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
                    and node.attr in ("environ", "getenv")):
                reads.append(f"{path.name}:{node.lineno}: os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                reads += [f"{path.name}:{node.lineno}: from os import {alias.name}" for alias in node.names
                          if alias.name in ("environ", "getenv")]
    assert reads == []


def _references(node: ast.AST) -> set[str]:
    """The names node refers to: names, attributes, import aliases and string constants."""
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):   # perfbench wraps by name
            names.add(sub.value)
    return names


def test_every_top_level_definition_is_used_outside_tests():
    # code that only tests reach is code the program does not need
    root = Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "cgain").glob("*.py"))
    corpus = package + sorted((root / "scripts").glob("*.py")) + sorted(
        p for p in (root / "perfbench").glob("*.py") if not p.name.startswith("test_"))
    defined, used_by = [], {}   # used_by: name -> the (file, top-level definition) holding a reference
    for path in corpus:
        file = str(path.relative_to(root))
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if owner and path in package:
                defined.append((file, owner))
            for name in _references(top):
                used_by.setdefault(name, set()).add((file, owner))
    unused = [f"{file}: {name}" for file, name in defined if not used_by.get(name, set()) - {(file, name)}]
    assert len(defined) > 100   # the scan found the package
    assert unused == []


# one sample command-line/config-file value per field annotation
SAMPLES = {"str": ("abc", "abc"), "int": ("3", 3), "float": ("0.5", 0.5)}


def sample(f) -> tuple:
    """A command-line/config-file text for field f and the value it parses to."""
    choices = f.metadata["choices"]
    return (choices[-1], choices[-1]) if choices else SAMPLES[f.type]


def test_every_run_config_field_is_a_flag_a_config_key_and_a_printed_line(tmp_path, capsys):
    declared = list(fields(RunConfig))
    assert len(declared) == 16
    # 35 (command, field) pairs are declared; the 29 others are refused
    assert {c: len(cli.command_fields(c)) for c in cli._COMMANDS} == {"corrupt": 5, "train": 10,
                                                                      "impute": 5, "benchmark": 15}
    parser = cli.build_parser()
    for f in declared:
        (text, value), flag = sample(f), f"--{f.name.replace('_', '-')}"
        for command in f.metadata["commands"]:
            assert getattr(parser.parse_args([command, flag, text]), f.name) == value

    cfg_file = tmp_path / "all.cfg"
    for command in cli._COMMANDS:
        own = cli.command_fields(command)
        cfg_file.write_text("".join(f"{f.name}={sample(f)[0]}\n" for f in own))
        cfg = cli.resolve_config(parser.parse_args([command, "--config", str(cfg_file)]))
        for f in own:
            assert getattr(cfg, f.name) == sample(f)[1]
        cli.print_config(cfg, command)
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"config command={command}"] + [f"config {f.name}={sample(f)[1]}" for f in own]
    assert type(cfg.batch) is int and type(cfg.lr) is float and type(cfg.eval_mode) is str


UNDECLARED = [pytest.param(command, f.name, sample(f)[0], id=f"{command}-{f.name}")
              for command in cli._COMMANDS for f in fields(RunConfig) if command not in f.metadata["commands"]]
# the optimizer and the adversarial sign are no fields any more: Adam and GAIN's generator loss
# are the only ones, so no command reads either
UNDECLARED += [pytest.param(command, name, text, id=f"{command}-{name}") for command in cli._COMMANDS
               for name, text in (("optimizer", "sgd"), ("adv_sign", "gain"))]


@pytest.mark.parametrize("command, name, text", UNDECLARED)
def test_a_field_the_command_does_not_read_is_refused(tmp_path, capsys, monkeypatch, command, name, text):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    paths = count_reads(monkeypatch)
    flag = f"--{name.replace('_', '-')}"
    args = [command, "--data", data, "--label-col", "y", *COMMAND_NEEDS[command], "--out", tmp_path / "o"]
    assert run(*args, flag, text) == 1
    assert capsys.readouterr() == ("", f"cgain-error: validation: unrecognized arguments: {flag} {text}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}={text}\n")
    assert run(*args, "--config", cfg) == 1
    assert capsys.readouterr() == ("", f"cgain-error: validation: {cfg}:1: {command} takes no config key "
                                       f"{name!r}\n")
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "run.cfg"]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_an_abbreviated_flag_is_refused(tmp_path, capsys, monkeypatch, command):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    paths = count_reads(monkeypatch)
    args = [command, "--data", data, "--label-col", "y", *COMMAND_NEEDS[command], "--out", tmp_path / "o"]
    parser = cli.build_parser()
    for name, text in [(f.name, sample(f)[0]) for f in cli.command_fields(command)] + [("config", "x.cfg")]:
        flag = f"--{name.replace('_', '-')}"
        for short in {flag[:-1], flag[:4]} - {flag}:   # as --it for --iters, --mod for --model
            assert run(*args, short, text) == 1
            assert capsys.readouterr() == ("", f"cgain-error: validation: unrecognized arguments: "
                                               f"{short} {text}\n")
        assert getattr(parser.parse_args([command, f"{flag}={text}"]), name) == getattr(
            parser.parse_args([command, flag, text]), name)
    assert paths == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]


def test_each_command_reads_exactly_the_fields_it_declares(tmp_path):
    reads = set()

    class Recording(RunConfig):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    data = write_toy_csv(tmp_path / "d.csv")
    label = ["--label-col", "y"]
    for argv in (["corrupt", "--data", data, *label, "--rate", "0.3", "--out", tmp_path / "c"],
                 ["train", "--data", tmp_path / "c.data.csv", *label, "--iters", "2", "--batch", "8",
                  "--out", tmp_path / "m"],
                 ["impute", "--model", tmp_path / "m.model", "--data", tmp_path / "c.data.csv", *label,
                  "--out", tmp_path / "i"],
                 ["benchmark", "--data", data, *label, "--method", "mean", "--rate", "0.2", "--reps", "1",
                  "--jobs", "1", "--out", tmp_path / "r"]):
        command = argv[0]
        cfg = Recording(**asdict(cli.resolve_config(cli.build_parser().parse_args([str(a) for a in argv]))))
        reads.clear()
        assert cli._COMMANDS[command][0](cfg) == 0
        assert reads & {f.name for f in fields(RunConfig)} == {f.name for f in cli.command_fields(command)}


TRAIN_KNOBS = {"alpha": ("7.5", "alpha", 7.5), "batch": ("12", "batch_size", 12),
               "iters": ("15", "iterations", 15), "lr": ("0.02", "learning_rate", 0.02),
               "hidden_mult": ("2", "hidden_multiplier", 2), "seed": ("31", "seed", 31)}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_every_training_knob_reaches_the_saved_model(tmp_path, source):
    data = write_toy_csv(tmp_path / "d.csv", rate=0.3)
    argv = ["train", "--data", data, "--label-col", "y", "--out", tmp_path / "m"]
    if source == "flags":
        for name, (text, _, _) in TRAIN_KNOBS.items():
            argv += [f"--{name.replace('_', '-')}", text]
    else:
        cfg_file = tmp_path / "train.cfg"
        cfg_file.write_text("".join(f"{name}={text}\n" for name, (text, _, _) in TRAIN_KNOBS.items()))
        argv += ["--config", cfg_file]
    assert run(*argv) == 0
    config = load_model(tmp_path / "m.model").config
    for _, train_name, value in TRAIN_KNOBS.values():
        assert getattr(config, train_name) == value


# ---------------------------------------------------------------------------
# scripts/make_datasets.py
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_jobs_0_means_the_cpus_this_process_may_run_on():
    # the child pins itself to one CPU, so the test changes no affinity of its own
    code = ("import os\n"
            "from cgain import cli\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "args = cli.build_parser().parse_args(['benchmark', '--jobs', '0'])\n"
            "print(cli.resolve_config(args).jobs)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "1\n"


def test_make_datasets_writes_the_stand_ins_without_scikit_learn(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, str(root / "scripts" / "make_datasets.py"), "--out-dir", tmp_path],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    for name in ("spambase_like.csv", "credit_like.csv", "letter_like.csv"):
        assert (tmp_path / name).stat().st_size > 0
    if importlib.util.find_spec("sklearn") is None:
        assert done.stderr.startswith("skipped breast_cancer.csv: scikit-learn is required")
        assert done.stderr.count("\n") == 1
        assert not (tmp_path / "breast_cancer.csv").exists()
    else:
        assert (tmp_path / "breast_cancer.csv").stat().st_size > 0
