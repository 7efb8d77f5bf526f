import csv
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cgain import cli, data as data_module, evaluate
from cgain.cli import DEFAULT_METHODS, DEFAULT_RATES, RunConfig, main
from cgain.data import load_csv, read_csv_table
from cgain.evaluate import mean_std
from cgain.imputer import load_model
from conftest import as_format_v1


def write_toy_csv(path, n=40, d=3, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 10.0, size=(n, d))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{j}" for j in range(d)] + ["y"])
        for i in range(n):
            writer.writerow([f"{v:.6f}" for v in raw[i]] + [str(i % 2)])
    return path


def run(*argv):
    return main([str(a) for a in argv])


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
    assert run("train", "--data", corrupted, "--label-col", "y", "--iters", "10",
               "--batch", "16", "--seed", "9", "--out", tmp_path / "m") == 0
    paths.clear()
    assert run("impute", "--model", tmp_path / "m.model", "--data", corrupted, "--label-col", "y",
               "--mask", tmp_path / "c.mask.csv", "--seed", "10", "--out", tmp_path / "i") == 0
    assert paths.count(str(corrupted)) == 1
    assert paths.count(str(tmp_path / "c.mask.csv")) == 1


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_records_conditioning_flag_and_batch_default(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--method", "gain",
             "--rate", "0.3", "--iters", "20", "--batch", "16", "--seed", "2",
             "--out", tmp_path / "g")
    assert rc == 0
    model = load_model(tmp_path / "g.model")
    assert model.conditional is False
    out = capsys.readouterr().out
    assert "config method=gain" in out

    rc = run("train", "--data", data, "--label-col", "y", "--rate", "0.3",
             "--iters", "20", "--seed", "2", "--out", tmp_path / "c2")
    assert rc == 0
    out = capsys.readouterr().out
    assert "config batch=128" in out   # default mini-batch size
    model = load_model(tmp_path / "c2.model")
    assert model.conditional is True and model.config.batch_size == 128


def test_trace_rows_equal_budget_over_interval(tmp_path):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--rate", "0.3",
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
             "--mask", tmp_path / "c.mask.csv", "--iters", "20", "--batch", "16",
             "--seed", "5", "--out", tmp_path / "m")
    assert rc == 0
    assert (tmp_path / "m.model").exists()


def test_train_rejects_rate_with_mask(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--rate", "0.3",
             "--mask", tmp_path / "absent.mask.csv", "--out", tmp_path / "x")
    assert rc == 1
    err = capsys.readouterr().err
    assert "cgain-error: validation" in err and "--rate" in err and "--mask" in err
    assert not (tmp_path / "x.model").exists()


def test_train_rejects_untrainable_method(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run("train", "--data", data, "--label-col", "y", "--method", "mean",
             "--rate", "0.3", "--out", tmp_path / "x")
    assert rc == 1
    assert "cgain-error: validation" in capsys.readouterr().err


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
    assert (tmp_path / "full.imputed.csv").read_bytes() == open(data, "rb").read()


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
                                       "cgain reads version 2; retrain the model\n")
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
    assert "result method=mean" in out and "timing method=mean" in out
    payload = json.loads((tmp_path / "r.report.json").read_text())
    with open(tmp_path / "r.report.csv", newline="") as fh:
        all_rows = [row for row in csv.reader(fh) if row[4] == "all"]
    # the JSON holds what the CSV aggregates: each 'all' row is its cell's overall RMSEs
    assert len(all_rows) == len(payload["cells"]) == 4
    for row, cell in zip(all_rows, payload["cells"]):
        mean, std = mean_std([rep["overall"] for rep in cell["reps"]])
        assert row[1:8] == [cell["method"], repr(cell["missing_rate"]), "", "all",
                            repr(mean), repr(std), "2"]
    assert (tmp_path / "r.timing.csv").exists()
    assert payload["config"]["train"]["batch_size"] == 128
    # spaces around method names are ignored, as they are around rates
    rc = run("benchmark", "--data", data, "--label-col", "y", "--method", "mean, mice_lite",
             "--rate", "0.15, 0.25", "--reps", "2", "--seed", "13", "--jobs", "1",
             "--out", tmp_path / "s")
    assert rc == 0
    assert (tmp_path / "s.report.csv").read_bytes() == (tmp_path / "r.report.csv").read_bytes()


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


COMMAND_ARGS = {"train": ["--rate", "0.2"],
                "benchmark": ["--method", "cgain,mean", "--rate", "0.2", "--reps", "1", "--jobs", "1"]}


@pytest.mark.parametrize("command", COMMAND_ARGS)
@pytest.mark.parametrize("flag, value, message", [
    ("--alpha", "-1", "alpha must be positive and finite, got -1.0"),
    ("--alpha", "nan", "alpha must be positive and finite, got nan"),
    ("--lr", "inf", "learning rate must be positive and finite, got inf"),
], ids=["negative_alpha", "nan_alpha", "inf_lr"])
def test_bad_train_config_is_refused_before_any_work(tmp_path, capsys, command, flag, value, message):
    data = write_toy_csv(tmp_path / "d.csv")
    rc = run(command, "--data", data, "--label-col", "y", "--iters", "5", *COMMAND_ARGS[command],
             flag, value, "--out", tmp_path / "r")
    assert rc == 1
    assert capsys.readouterr().err == f"cgain-error: validation: {message}\n"
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


def test_unknown_config_key_fails_loudly(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("batchsize=64\n")
    rc = run("corrupt", "--config", cfg, "--out", tmp_path / "c")
    assert rc == 1
    assert "unknown config key" in capsys.readouterr().err


def test_bad_flag_value_is_a_validation_error(tmp_path, capsys):
    rc = run("train", "--batch", "x", "--out", tmp_path / "m")
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cgain-error: validation: argument --batch: invalid int value: 'x'\n"


def test_bad_config_value_names_file_line_and_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# training\niters=5\nbatch=x\n")
    rc = run("train", "--config", cfg, "--out", tmp_path / "m")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {cfg}:3: key 'batch': "
                                       "argument --batch: invalid int value: 'x'\n")


def test_config_value_outside_choices_is_refused_by_every_command(tmp_path, capsys):
    data = write_toy_csv(tmp_path / "d.csv")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"data={data}\nlabel_col=y\nrate=0.3\noptimizer=rmsprop\n")
    rc = run("corrupt", "--config", cfg, "--out", tmp_path / "c")
    assert rc == 1
    # argparse words the list of choices differently across Python versions
    err = capsys.readouterr().err
    assert err.startswith(f"cgain-error: validation: {cfg}:4: key 'optimizer': "
                          "argument --optimizer: invalid choice: 'rmsprop' (choose from ")
    assert err.count("\n") == 1
    assert not (tmp_path / "c.data.csv").exists()


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    data = write_toy_csv(tmp_path / "d.csv")
    monkeypatch.setenv("CGAIN_SEED", "777")
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.2",
             "--out", tmp_path / "env")
    assert rc == 0
    assert "config seed=777" in capsys.readouterr().out
    monkeypatch.delenv("CGAIN_SEED")
    rc = run("corrupt", "--data", data, "--label-col", "y", "--rate", "0.2",
             "--seed", "777", "--out", tmp_path / "flag")
    assert rc == 0
    assert (tmp_path / "env.data.csv").read_bytes() == (tmp_path / "flag.data.csv").read_bytes()


@pytest.mark.parametrize("command", ["corrupt", "train", "benchmark"])
@pytest.mark.parametrize("flag, env, in_file, source, shown", [
    ("-1", None, None, "argument --seed:", "'-1'"),
    (None, "-1", None, "$CGAIN_SEED", "'-1'"),
    (None, "abc", None, "$CGAIN_SEED", "'abc'"),
    (None, "2.5", None, "$CGAIN_SEED", "'2.5'"),
    (None, None, "-1", "{cfg}:1: key 'seed': argument --seed:", "'-1'"),
], ids=["flag_negative", "env_negative", "env_word", "env_fraction", "file_negative"])
def test_bad_seed_names_its_source(tmp_path, capsys, monkeypatch, command, flag, env, in_file, source,
                                   shown):
    data = write_toy_csv(tmp_path / "d.csv")
    cfg = tmp_path / "s.cfg"
    monkeypatch.delenv("CGAIN_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("CGAIN_SEED", env)
    seed = ["--seed", flag] if flag is not None else []
    if in_file is not None:
        cfg.write_text(f"seed={in_file}\n")
        seed += ["--config", cfg]
    rc = run(command, "--data", data, "--label-col", "y", "--rate", "0.2", "--iters", "2",
             *seed, "--out", tmp_path / "o")
    assert rc == 1
    assert capsys.readouterr().err == (f"cgain-error: validation: {source.format(cfg=cfg)} must be a "
                                       f"non-negative integer, got {shown}\n")
    written = {data, cfg} if in_file is not None else {data}
    assert set(tmp_path.iterdir()) == written   # refused before any file is written


# one sample command-line/config-file value per field annotation
SAMPLES = {"str": ("abc", "abc"), "int": ("3", 3), "int | None": ("3", 3), "float": ("0.5", 0.5)}


def test_every_run_config_field_is_a_flag_a_config_key_and_a_printed_line(tmp_path, capsys):
    declared = list(fields(RunConfig))
    assert len(declared) == 19
    parser = cli.build_parser()
    expected = {}
    for f in declared:
        choices = f.metadata["choices"]
        text, value = (choices[-1], choices[-1]) if choices else SAMPLES[f.type]
        expected[f.name] = (text, value)
        flag = f"--{f.name.replace('_', '-')}"
        assert getattr(parser.parse_args(["train", flag, text]), f.name) == value

    cfg_file = tmp_path / "all.cfg"
    cfg_file.write_text("".join(f"{name}={text}\n" for name, (text, _) in expected.items()))
    cfg = cli.resolve_config(parser.parse_args(["train", "--config", str(cfg_file)]))
    for name, (_, value) in expected.items():
        assert getattr(cfg, name) == value
    assert type(cfg.batch) is int and type(cfg.lr) is float and type(cfg.adv_sign) is str

    cli.print_config(cfg, "train")
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["config command=train"] + [f"config {name}={value}"
                                                for name, (_, value) in expected.items()]


TRAIN_KNOBS = {"alpha": ("7.5", "alpha", 7.5), "batch": ("12", "batch_size", 12),
               "iters": ("15", "iterations", 15), "optimizer": ("sgd", "optimizer", "sgd"),
               "lr": ("0.02", "learning_rate", 0.02),
               "hidden_mult": ("2", "hidden_multiplier", 2),
               "adv_sign": ("literal", "adversarial_sign", "literal"), "seed": ("31", "seed", 31)}


@pytest.mark.parametrize("source", ["flags", "config"])
def test_every_training_knob_reaches_the_saved_model(tmp_path, source):
    data = write_toy_csv(tmp_path / "d.csv")
    argv = ["train", "--data", data, "--label-col", "y", "--rate", "0.3", "--out", tmp_path / "m"]
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
