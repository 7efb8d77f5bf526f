#!/usr/bin/env python3
"""Print one sha256 per training configuration and per table's model file,
and two per benchmark grid, to check that a change keeps training numerics,
benchmark reports and model files bit for bit.

Each training digest covers the trained generator and discriminator
weights, the logged trace losses and two imputations (the model's default
noise stream and a second seed). The 16 configurations are
conditional/unconditional x adam/sgd x gain/literal sign, on a 2-class
table with three binary columns and on a 3-class table with none.

Each grid prints two report digests: one of the result rows of the report
CSV, and one of the report JSON with every repetition's wall-clock seconds
set to 0, so a change to the JSON alone shows as such. The three grids run
all four methods: repetition mode and strict fold mode on a small
letter-like table, and the class-imbalance grid on a credit-like table, the
last on a pool of two workers.

Each model-file digest covers the bytes save_model writes for a table's
first configuration.

    PYTHONPATH=src python3 scripts/train_digest.py > digests.txt

Run it on two checkouts and compare the outputs with `diff`. BLAS is pinned
to one thread here, because the determinism promise covers the BLAS thread
count.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402

from cgain.data import build_dataset, corrupt_mcar  # noqa: E402
from cgain.datasets import credit_like, letter_like  # noqa: E402
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


if __name__ == "__main__":
    main()
