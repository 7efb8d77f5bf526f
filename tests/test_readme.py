"""README.md's examples and formats, checked against the code.

The walk-through block runs line by line in a temporary directory: a
`cgain <args>` line goes through `cli.main`, and a `python scripts/...`
line runs with this interpreter, `src` on PYTHONPATH and the script path
resolved against the repository root. Continuation backslashes are joined;
no other token changes. The library block runs with `exec`. The flag table,
the stated table shape, the report-JSON keys and the model-file layout are
compared with the code and with the files the walk-through wrote.
"""

import contextlib
import io
import json
import os
import re
import shlex
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cgain import cli
from cgain.imputer import MODEL_FORMAT_VERSION, TrainConfig
from cgain.nn import dense_shapes

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text of README's `## title` section, up to the next `## ` heading."""
    match = re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert match, f"README has no section '## {title}'"
    return match.group(1)


def fenced(text: str, lang: str) -> str:
    """The first fenced block of that language in text."""
    match = re.search(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)
    assert match, f"no ```{lang} block"
    return match.group(1)


def shell_lines(block: str) -> list[list[str]]:
    """The commands of a shell block, each split into tokens, with `\\` continuations joined."""
    text = re.sub(r"\\\n", " ", block)
    return [shlex.split(line) for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]


def run_line(tokens: list[str]) -> None:
    if tokens[0] == "cgain":
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            status = cli.main(tokens[1:])
        assert status == 0, f"{shlex.join(tokens)} exited {status}:\n{err.getvalue()}{out.getvalue()}"
    elif tokens[0] == "python" and tokens[1].startswith("scripts/"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, str(ROOT / tokens[1]), *tokens[2:]], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, f"{shlex.join(tokens)} exited {done.returncode}:\n{done.stderr}"
    else:
        raise AssertionError(f"the walk-through runs only cgain and scripts/ lines, got {shlex.join(tokens)}")


@pytest.fixture(scope="module")
def walked(tmp_path_factory) -> Path:
    """The directory in which the walk-through block ran, start to end."""
    where = tmp_path_factory.mktemp("walk-through")
    before = os.getcwd()
    os.chdir(where)
    try:
        for tokens in shell_lines(fenced(section("Walk-through"), "sh")):
            run_line(tokens)
    finally:
        os.chdir(before)
    return where


def backticked(text: str) -> list[str]:
    """The backticked words of text, outside parentheses."""
    return re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", text))


def bullets(text: str) -> dict[str, list[str]]:
    """`- **label:** items` lines, as label -> the backticked items."""
    return {label: backticked(items) for label, items in re.findall(r"^- \*\*(.+?):\*\* (.*)$", text, re.M)}


def test_walk_through_writes_every_file_it_names(walked):
    named = re.findall(r"`((?:data/)?[\w.]+\.(?:csv|json|model))`", section("Walk-through"))
    optional = {"data/breast_cancer.csv"}   # needs scikit-learn
    missing = [name for name in named if name not in optional
               and not ((walked / name).exists() or (walked / "data" / name).exists())]
    assert named and not missing


def test_credit_like_shape_is_as_stated(walked):
    text = " ".join(section("Walk-through").split())
    rows, features, label = re.search(r"`credit_like.csv` has (\d+) rows, (\d+) features and the label "
                                      r"column `(\w+)`", text).groups()
    counts = dict((name, int(n)) for n, name in re.findall(r"(\d+) (?:rows )?of class `(\w+)`", text))
    header, *body = (walked / "data" / "credit_like.csv").read_text().splitlines()
    assert len(body) == int(rows) and len(header.split(",")) == int(features) + 1
    labels = [line.split(",")[header.split(",").index(label)] for line in body]
    assert counts == {name: labels.count(name) for name in set(labels)}


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced(section("Library"), "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_flag_table_lists_each_commands_flags():
    table = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", section("Walk-through"), re.M))
    assert table.keys() == cli._COMMANDS.keys()
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    for command, flags in table.items():
        declared = [f"--{f.name.replace('_', '-')}" for f in cli.command_fields(command)]
        assert backticked(flags) == declared, command
        parsed = [s for a in subparsers[command]._actions for s in a.option_strings if s.startswith("--")]
        assert sorted(parsed) == sorted(declared + ["--help"]), command


def test_report_json_paragraph_matches_the_walk_through_reports(walked):
    stated = bullets(section("Output formats"))
    assert re.search(r"`\*\.report\.json`, version (\d+)\)", section("Output formats")).group(1) == "2"
    for stem, grid in (("bench", "rate"), ("imbalance", "imbalance")):
        report = json.loads((walked / f"{stem}.report.json").read_text())
        assert list(report) == stated["top level"]
        assert (report["format"], report["version"]) == ("cgain-benchmark-report", 2)
        config = stated["`config` of a rate grid"]
        if grid == "imbalance":
            config = config + stated["`config` of an imbalance grid adds"]
        assert sorted(report["config"]) == sorted(config), grid
        assert all(list(cell) == stated["each of `cells`"] for cell in report["cells"])
        reps = [rep for cell in report["cells"] for rep in cell["reps"]]
        assert reps and all(list(rep) == stated["each of a cell's `reps`"] for rep in reps)
    assert {"conditional", "seed"}.isdisjoint(report["config"]["train"])


def test_model_file_paragraph_matches_a_saved_model(walked):
    text = section("Output formats")
    stated = bullets(text)
    blob = (walked / "run.model").read_bytes()
    magic = stated["magic"][0].encode()
    version = int(re.search(r"^- \*\*version:\*\* (\d+), a little-endian uint32", text, re.M).group(1))
    assert version == MODEL_FORMAT_VERSION
    assert blob[:len(magic)] == magic and f"the {len(magic)} bytes" in text
    assert "- **header length:** in bytes, a little-endian uint64" in text
    file_version, header_len = struct.unpack_from("<IQ", blob, len(magic))
    assert file_version == version
    start = len(magic) + struct.calcsize("<IQ")
    header = json.loads(blob[start:start + header_len].decode("utf-8"))
    assert sorted(header) == sorted(stated["header"])
    assert sorted(header["config"]) == sorted(TrainConfig.__dataclass_fields__)
    assert stated["weights"] == ["w1", "b1", "w2", "b2", "w3", "b3"]
    assert "little-endian float32 (`<f4`)" in " ".join(text.split())

    # the widths the paragraph states: inputs 3d + m and 2d + m, hidden h, output d
    assert "`3d + m`" in text and "`2d + m`" in text
    d, m = len(header["column_kinds"]), header["n_classes"] if header["config"]["conditional"] else 0
    h = header["config"]["hidden_multiplier"] * d
    n_weights = sum(int(np.prod(s)) for n_in in (3 * d + m, 2 * d + m) for s in dense_shapes(n_in, h, d))
    weights = blob[start + header_len:]
    assert len(weights) == 4 * n_weights
    assert np.isfinite(np.frombuffer(weights, dtype="<f4")).all()
