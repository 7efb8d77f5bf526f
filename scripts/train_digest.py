#!/usr/bin/env python3
"""Print one sha256 per training configuration and per table's model file,
and two per benchmark grid, to check that a change keeps training numerics,
benchmark reports and model files bit for bit.

Each training digest covers the trained generator and discriminator
weights, the logged trace losses and two imputations (the model's default
noise stream and a second seed). The 16 configurations are
conditional/unconditional x adam/sgd x gain/literal sign, on a 2-class
table with three binary columns and on a 3-class table with none. Three
more cover the edges of the training buffers: a batch size clamped to a
40-row table, and a one-feature table, where every row hints column 0,
trained with and without the label block.

Each grid prints two report digests: one of the result rows of the report
CSV, and one of the report JSON with every repetition's wall-clock seconds
set to 0, so a change to the JSON alone shows as such. The three grids run
all four methods: repetition mode and strict fold mode on a small
letter-like table, and the class-imbalance grid on a credit-like table, the
last on a pool of two workers.

Each model-file digest covers the bytes save_model writes for a table's
first configuration.

Last come five lines per input CSV for the command line: `cgain corrupt`,
`cgain train --iters 50` and `cgain impute` run through cli.main in a
temporary directory, and the digests cover the corrupted data, mask, model
and imputed files and the trace CSV without its wall-clock seconds column.
One input is an unquoted CSV with \r\n line ends; the other has a quoted
label that spans two lines and a blank line, so it goes through the csv
module.

Then come three lines, one per stand-in table at its default arguments
(spambase_like, credit_like and letter_like). Each covers the features, the
labels, every ColumnSpec and the class names, so a change to a table shows.

The last line covers the min-max map: denormalize, with and without
round_binary, and normalize of what it returns, on the three stand-in
tables and on the corrupted 2-class table with binary columns.

    PYTHONPATH=src python3 scripts/train_digest.py > digests.txt

Run it on two checkouts and compare the outputs with `diff`. BLAS is pinned
to one thread here, because the determinism promise covers the BLAS thread
count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import contextlib  # noqa: E402
import csv  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from cgain import cli  # noqa: E402
from cgain.data import build_dataset, corrupt_mcar, denormalize, normalize  # noqa: E402
from cgain.datasets import credit_like, letter_like, spambase_like  # noqa: E402
from cgain.evaluate import METHODS, report_csv_rows, report_to_json_dict, run_benchmark  # noqa: E402
from cgain.imputer import ImputerModel, TrainConfig, impute, save_model, train  # noqa: E402
from cgain.nn import make_rng  # noqa: E402

ITERATIONS = 300
LOG_EVERY = 25
GRID_TRAIN = TrainConfig(iterations=60, batch_size=32)


def make_table(seed: int, n_classes: int, n_binary: int, n_rows: int = 150, n_continuous: int = 5):
    """Class-shifted continuous columns plus n_binary 0/1 columns."""
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, n_classes, size=n_rows)
    cont = rng.normal(size=(n_rows, n_continuous)) + cls[:, None] * np.linspace(0.5, 1.5, n_continuous)
    binary = (rng.random((n_rows, n_binary)) < 0.3 + 0.2 * cls[:, None] / n_classes).astype(float)
    raw = np.concatenate([cont, binary], axis=1)
    names = [f"f{j}" for j in range(raw.shape[1])]
    return build_dataset(raw, [str(c) for c in cls], names)


def digest(incomplete, config: TrainConfig) -> tuple[str, ImputerModel]:
    model, trace = train(incomplete, config)
    h = hashlib.sha256()
    for net in (model.generator, model.discriminator):
        for p in net.params():
            h.update(np.ascontiguousarray(p).tobytes())
    for values in (trace.iterations, trace.d_loss, trace.g_adversarial, trace.g_reconstruction):
        h.update(np.asarray(values, dtype=np.float64).tobytes())
    for rng in (None, make_rng(config.seed + 1)):
        h.update(impute(model, incomplete, rng).features.tobytes())
    return h.hexdigest(), model


def model_file_digest(model: ImputerModel) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        save_model(path, model)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def report_digests(report) -> tuple[str, str]:
    """The sha256 of the report CSV rows and of the report JSON without seconds."""
    payload = report_to_json_dict(report)
    for cell in payload["cells"]:
        for rep in cell["reps"]:
            rep["seconds"] = 0.0
    return (hashlib.sha256(json.dumps(report_csv_rows(report)).encode()).hexdigest(),
            hashlib.sha256(json.dumps(payload).encode()).hexdigest())


def table_digest(dataset) -> str:
    """The sha256 of a table's features, labels, column specs and class names."""
    h = hashlib.sha256()
    for array in (dataset.features, dataset.labels):
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    specs = [dataclasses.asdict(spec) for spec in dataset.schema]
    h.update(json.dumps([specs, dataset.class_names]).encode())
    return h.hexdigest()


def scaling_digest(tables) -> str:
    """The sha256 of denormalize, with and without round_binary, and of
    normalize of its result, on each table."""
    h = hashlib.sha256()
    for table in tables:
        for round_binary in (False, True):
            raw = denormalize(table.schema, table.features, round_binary=round_binary)
            h.update(raw.tobytes())
            h.update(normalize(table.schema, raw).tobytes())
    return h.hexdigest()


def cli_texts() -> dict[str, str]:
    """Two CSV texts of one table: unquoted with \\r\\n line ends, and with a
    quoted two-line label and a blank line."""
    table = make_table(601, n_classes=2, n_binary=2)
    raw = denormalize(table.schema, table.features, round_binary=True).tolist()
    header = ",".join([c.name for c in table.schema] + ["label"])

    def text(names, end, blank_after=None):
        lines = [header] + [",".join([*map(repr, values), names[c]])
                            for values, c in zip(raw, table.class_index())]
        if blank_after is not None:
            lines.insert(blank_after, "")
        return end.join(lines) + end

    return {"unquoted-crlf": text(["a", "b"], "\r\n"),
            "quoted-multiline": text(["a", '"b\nc"'], "\n", blank_after=20)}


def cli_digests(name: str, text: str) -> list[str]:
    """corrupt -> train -> impute through cli.main; one line per output file."""
    with tempfile.TemporaryDirectory() as tmp:
        def path(stem):
            return os.path.join(tmp, stem)

        with open(path("in.csv"), "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        label = ["--label-col", "label"]
        data, mask = path("c.data.csv"), path("c.mask.csv")
        runs = [["corrupt", "--data", path("in.csv"), *label, "--rate", "0.2", "--seed", "11",
                 "--out", path("c")],
                ["train", "--data", data, "--mask", mask, *label, "--method", "cgain", "--iters", "50",
                 "--seed", "12", "--out", path("r")],
                ["impute", "--model", path("r.model"), "--data", data, "--mask", mask, *label,
                 "--seed", "13", "--out", path("f")]]
        for args in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args)
            if code != 0:
                raise RuntimeError(f"cgain {args[0]} exited with code {code}")
        with open(path("r.trace.csv"), newline="", encoding="utf-8") as fh:
            trace = [row[:-1] for row in csv.reader(fh)]     # without the seconds column
        digests = {"trace": hashlib.sha256(json.dumps(trace).encode()).hexdigest()}
        for kind, stem in (("data", "c.data.csv"), ("mask", "c.mask.csv"), ("model", "r.model"),
                           ("imputed", "f.imputed.csv")):
            with open(path(stem), "rb") as fh:
                digests[kind] = hashlib.sha256(fh.read()).hexdigest()
    return [f"{digests[kind]}  cli {name} {kind}" for kind in ("data", "mask", "model", "trace", "imputed")]


def main() -> None:
    tables = {
        "2class-binary": corrupt_mcar(make_table(101, n_classes=2, n_binary=3), 0.25, make_rng(102)),
        "3class-continuous": corrupt_mcar(make_table(201, n_classes=3, n_binary=0), 0.25, make_rng(202)),
    }
    first_models = {}
    for (table, incomplete), conditional, optimizer, sign in itertools.product(
            tables.items(), (True, False), ("adam", "sgd"), ("gain", "literal")):
        config = TrainConfig(iterations=ITERATIONS, batch_size=32, log_every=LOG_EVERY, seed=7,
                             conditional=conditional, optimizer=optimizer,
                             learning_rate=1e-3 if optimizer == "adam" else 0.05,
                             adversarial_sign=sign)
        # "uniform" (the batch sampling) keeps each line diffable against older digests
        name = f"{table} {'cgain' if conditional else 'gain'} {optimizer} {sign} uniform"
        sha, model = digest(incomplete, config)
        print(f"{sha}  {name}")
        first_models.setdefault(table, (name, model))

    one_feature = make_table(501, n_classes=3, n_binary=0, n_continuous=1)
    edges = {
        "clamped-batch cgain adam gain": (make_table(401, n_classes=2, n_binary=1, n_rows=40),
                                          TrainConfig(batch_size=64)),
        "1-feature cgain adam gain": (one_feature, TrainConfig()),
        "1-feature gain sgd literal": (one_feature, TrainConfig(conditional=False, optimizer="sgd",
                                                                learning_rate=0.05, adversarial_sign="literal")),
    }
    for name, (table, config) in edges.items():
        incomplete = corrupt_mcar(table, 0.25, make_rng(402))
        config = dataclasses.replace(config, iterations=ITERATIONS, log_every=LOG_EVERY, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # the clamped batch warns
            print(f"{digest(incomplete, config)[0]}  {name}")

    letter = letter_like(n_rows=312, seed=301)
    grids = {
        "letter_like repetition": run_benchmark(
            letter, list(METHODS), [0.1, 0.25], 2, root_seed=302, train_config=GRID_TRAIN),
        "letter_like strict": run_benchmark(
            letter, list(METHODS), [0.2], 2, root_seed=303, train_config=GRID_TRAIN,
            eval_mode="strict"),
        "credit_like imbalance": run_benchmark(
            credit_like(n_rows=600, seed=304), list(METHODS), [0.2], 2, root_seed=305,
            train_config=GRID_TRAIN, jobs=2, minority_fractions=[0.1, 0.15]),
    }
    for name, report in grids.items():
        csv_sha, json_sha = report_digests(report)
        print(f"{csv_sha}  report csv {name}")
        print(f"{json_sha}  report json {name}")
    for name, model in first_models.values():
        print(f"{model_file_digest(model)}  model file {name}")
    for name, text in cli_texts().items():
        for line in cli_digests(name, text):
            print(line)
    stand_ins = [make() for make in (spambase_like, credit_like, letter_like)]
    for table in stand_ins:
        print(f"{table_digest(table)}  table {table.name}")
    scaled = stand_ins + [tables["2class-binary"].dataset]
    print(f"{scaling_digest(scaled)}  scaling normalize denormalize")


if __name__ == "__main__":
    main()
