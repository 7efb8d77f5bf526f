"""Same-bytes gate: one sha256 per training, grid report, model file, CLI
output, stand-in table and scaling rule, compared with `same_bytes.txt` at
OpenBLAS thread counts 1 and 2. The file's first line is the environment it
was made in; elsewhere the test skips. A change that moves numerics
regenerates the file and names every moved line:

    PYTHONPATH=src python tests/test_same_bytes.py > tests/same_bytes.txt
"""

import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cgain import cli
from cgain.data import build_dataset, corrupt_mcar, denormalize, normalize
from cgain.datasets import credit_like, letter_like, spambase_like
from cgain.evaluate import METHODS, report_csv_rows, report_to_json_dict, run_benchmark
from cgain.imputer import TrainConfig, impute, save_model, train
from cgain.nn import make_rng, openblas_function

EXPECTED = Path(__file__).with_name("same_bytes.txt")
REGENERATE = "PYTHONPATH=src python tests/test_same_bytes.py > tests/same_bytes.txt"
THREAD_COUNTS = (1, 2)
ITERATIONS = 300
LOG_EVERY = 25
GRID_TRAIN = TrainConfig(iterations=60, batch_size=32)


def openblas():
    """NumPy's OpenBLAS core-name and thread-count entry points, or None without all three."""
    blas = SimpleNamespace(corename=openblas_function("get_corename", restype="char_p"),
                           get_threads=openblas_function("get_num_threads", restype="int"),
                           set_threads=openblas_function("set_num_threads", ("int",)))
    return None if None in vars(blas).values() else blas


def fingerprint(lib) -> str:
    """NumPy version, BLAS build and the OpenBLAS core running (not the one it was built on)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = lib.corename().decode() if lib is not None else "unknown"
    return f"numpy {np.__version__}, blas {blas.get('name')} {blas.get('version')}, core {core}"


def sha(*blobs: bytes) -> str:
    return hashlib.sha256(b"".join(blobs)).hexdigest()


def make_table(seed: int, n_classes: int, n_binary: int, n_rows: int = 150, n_continuous: int = 5):
    """Class-shifted continuous columns plus n_binary 0/1 columns."""
    rng = np.random.default_rng(seed)
    cls = rng.integers(0, n_classes, size=n_rows)
    cont = rng.normal(size=(n_rows, n_continuous)) + cls[:, None] * np.linspace(0.5, 1.5, n_continuous)
    binary = (rng.random((n_rows, n_binary)) < 0.3 + 0.2 * cls[:, None] / n_classes).astype(float)
    raw = np.concatenate([cont, binary], axis=1)
    names = [f"f{j}" for j in range(raw.shape[1])]
    return build_dataset(raw, [str(c) for c in cls], names)


def train_digest(incomplete, config: TrainConfig):
    """Over the trained weights, the logged losses and two imputations."""
    model, trace = train(incomplete, config)
    weights = [np.ascontiguousarray(p).tobytes() for net in (model.generator, model.discriminator)
               for p in net.params()]
    losses = [np.asarray(values, dtype=np.float64).tobytes()
              for values in (trace.iterations, trace.d_loss, trace.g_adversarial, trace.g_reconstruction)]
    imputed = [impute(model, incomplete, rng).features.tobytes() for rng in (None, make_rng(config.seed + 1))]
    return sha(*weights, *losses, *imputed), model


def table_digest(dataset) -> str:
    """A table's features, labels, column specs and class names."""
    specs = [dataclasses.asdict(spec) for spec in dataset.schema]
    return sha(*(np.ascontiguousarray(a, dtype=np.float64).tobytes() for a in (dataset.features, dataset.labels)),
               json.dumps([specs, dataset.class_names]).encode())


def scaling_digest(tables) -> str:
    """denormalize, with and without round_binary, and normalize of its result."""
    raws = [(t, denormalize(t.schema, t.features, round_binary=r)) for t in tables for r in (False, True)]
    return sha(*(blob for t, raw in raws for blob in (raw.tobytes(), normalize(t.schema, raw).tobytes())))


def cli_texts() -> dict[str, str]:
    """One table as CSV: unquoted with \\r\\n ends, and with a quoted two-line label and a blank line."""
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
    """corrupt -> train -> impute through cli.main; one line per output file.
    100 iterations at the default log interval put one loss row in the trace."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "in.csv").write_bytes(text.encode("utf-8"))
        label, data = ["--label-col", "label"], tmp / "c.data.csv"
        for args in (["corrupt", "--data", tmp / "in.csv", *label, "--rate", "0.2", "--seed", "11",
                      "--out", tmp / "c"],
                     ["train", "--data", data, *label, "--method", "cgain", "--iters", "100",
                      "--seed", "12", "--out", tmp / "r"],
                     ["impute", "--model", tmp / "r.model", "--data", data, *label,
                      "--seed", "13", "--out", tmp / "f"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main([str(a) for a in args]) == 0, f"cgain {args[0]} failed"
        with open(tmp / "r.trace.csv", newline="", encoding="utf-8") as fh:
            digests = {"trace": sha(json.dumps([row[:-1] for row in csv.reader(fh)]).encode())}  # no seconds
        digests |= {kind: sha((tmp / stem).read_bytes()) for kind, stem in (
            ("data", "c.data.csv"), ("mask", "c.mask.csv"), ("model", "r.model"), ("imputed", "f.imputed.csv"))}
    return [f"{digests[kind]}  cli {name} {kind}" for kind in ("data", "mask", "model", "trace", "imputed")]


def digest_lines() -> list[str]:
    """Every "<sha256>  <name>" line, in the expected file's order."""
    lines = []
    tables = {"2class-binary": corrupt_mcar(make_table(101, n_classes=2, n_binary=3), 0.25, make_rng(102)),
              "3class-continuous": corrupt_mcar(make_table(201, n_classes=3, n_binary=0), 0.25, make_rng(202))}
    first_models = {}
    for (table, incomplete), conditional in itertools.product(tables.items(), (True, False)):
        config = TrainConfig(iterations=ITERATIONS, batch_size=32, log_every=LOG_EVERY, seed=7,
                             conditional=conditional)
        # "adam" (the only optimizer), "gain" (the only generator loss) and "uniform" (the batch
        # sampling) keep each name as older digests printed it
        name = f"{table} {'cgain' if conditional else 'gain'} adam gain uniform"
        digest, model = train_digest(incomplete, config)
        lines.append(f"{digest}  {name}")
        first_models.setdefault(table, (name, model))

    edges = {
        "clamped-batch cgain adam gain": (make_table(401, n_classes=2, n_binary=1, n_rows=40),
                                          TrainConfig(batch_size=64)),
        "1-feature cgain adam gain": (make_table(501, n_classes=3, n_binary=0, n_continuous=1), TrainConfig())}
    for name, (table, config) in edges.items():
        incomplete = corrupt_mcar(table, 0.25, make_rng(402))
        config = dataclasses.replace(config, iterations=ITERATIONS, log_every=LOG_EVERY, seed=7)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")    # the clamped batch warns
            lines.append(f"{train_digest(incomplete, config)[0]}  {name}")

    letter = letter_like(n_rows=312, seed=301)
    grids = {"letter_like repetition": (letter, [0.1, 0.25], 302, {}),
             "letter_like strict": (letter, [0.2], 303, {"eval_mode": "strict"}),
             "credit_like imbalance": (credit_like(n_rows=600, seed=304), [0.2], 305,
                                       {"jobs": 2, "minority_fractions": [0.1, 0.15]})}
    for name, (table, rates, seed, options) in grids.items():
        report = run_benchmark(table, list(METHODS), rates, 2, root_seed=seed, train_config=GRID_TRAIN, **options)
        payload = report_to_json_dict(report)
        for rep in (rep for cell in payload["cells"] for rep in cell["reps"]):
            rep["seconds"] = 0.0    # so a change to the JSON alone shows as such
        lines += [f"{sha(json.dumps(report_csv_rows(report)).encode())}  report csv {name}",
                  f"{sha(json.dumps(payload).encode())}  report json {name}"]
    for name, model in first_models.values():
        with tempfile.TemporaryDirectory() as tmp:
            save_model(Path(tmp) / "m.model", model)
            lines.append(f"{sha((Path(tmp) / 'm.model').read_bytes())}  model file {name}")
    for name, text in cli_texts().items():
        lines += cli_digests(name, text)
    stand_ins = [make() for make in (spambase_like, credit_like, letter_like)]
    lines += [f"{table_digest(table)}  table {table.name}" for table in stand_ins]
    lines.append(f"{scaling_digest(stand_ins + [tables['2class-binary'].dataset])}  scaling normalize denormalize")
    # products of this size (4601x173 @ 173x171) run threaded; the small tables above may not
    spam = corrupt_mcar(stand_ins[0], 0.2, make_rng(701))
    digest, _ = train_digest(spam, TrainConfig(iterations=150, log_every=LOG_EVERY, seed=7))
    lines.append(f"{digest}  spambase_like cgain adam gain 150 iterations, full-table impute")
    return lines


def check_same_bytes(expected: str, lines, lib) -> None:
    """Compare lines() with the expected text at each thread count, or skip in another environment."""
    want_print, *want = expected.splitlines()
    have_print = fingerprint(lib)
    if lib is None or have_print != want_print:
        pytest.skip(f"bytes not compared: this environment is '{have_print}', the expected file's is "
                    f"'{want_print}'; regenerate it here with {REGENERATE}")
    before = lib.get_threads()
    try:
        for threads in THREAD_COUNTS:
            lib.set_threads(threads)
            have = lines()
            old, new = (dict(line.split("  ", 1)[::-1] for line in side) for side in (want, have))
            moved = [name for name in {**old, **new} if old.get(name) != new.get(name)]
            assert have == want, (f"at {threads} BLAS thread(s), {len(moved)} line(s) moved "
                                  f"from {EXPECTED.name}: " + "; ".join(moved or ["(order)"]))
    finally:
        lib.set_threads(before)


def test_same_bytes():
    check_same_bytes(EXPECTED.read_text(encoding="utf-8"), digest_lines, openblas())


def test_gate_names_a_moved_line_and_the_thread_count_and_restores_the_count():
    lib = openblas() or pytest.skip("no OpenBLAS thread control")
    threads = lib.get_threads
    before, expected, seen = threads(), f"{fingerprint(lib)}\naa  first\nbb  second\n", []

    def fake(second):
        seen.append(threads())
        return ["aa  first", second]

    check_same_bytes(expected, lambda: fake("bb  second"), lib)
    assert seen == [1, 2] and threads() == before
    seen.clear()
    with pytest.raises(AssertionError, match=r"at 1 BLAS thread\(s\), 1 line\(s\) moved .*: second\b"):
        check_same_bytes(expected, lambda: fake("cc  second"), lib)
    assert seen == [1] and threads() == before


def test_gate_skips_in_another_environment_and_names_both():
    lib, ran = openblas(), []
    with pytest.raises(pytest.skip.Exception) as skipped:
        check_same_bytes("numpy 0.0, blas other, core Other\naa  first\n", lambda: ran.append(1), lib)
    reason = str(skipped.value)
    assert not ran and fingerprint(lib) in reason and "core Other" in reason and REGENERATE in reason


if __name__ == "__main__":
    blas = openblas()
    if blas is not None:
        blas.set_threads(THREAD_COUNTS[0])
    print(fingerprint(blas), *digest_lines(), sep="\n")
