import csv
import io
import math
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cgain import data
from cgain.data import (BINARY, CONTINUOUS, Dataset, IncompleteDataset, build_dataset, corrupt_mcar,
                        denormalize, load_csv, load_incomplete_csv, load_mask_csv, normalize, parse_table,
                        read_csv_table, split_folds, subsample_imbalance, write_mask_csv)
from cgain.nn import make_rng

from conftest import assert_same_bits, toy_dataset
from oracles import (ref_denormalize, ref_normalize, ref_parse_mask, ref_parse_table,
                     ref_read_csv_table)


def write_csv(path, text):
    path.write_text(text)
    return path


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def test_minmax_normalization_definition(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,y\n10,0\n20,1\n30,0\n")
    ds = load_csv(p, "y")
    assert_allclose(ds.features[:, 0], [0.0, 0.5, 1.0])
    assert ds.schema[0].lo == 10.0 and ds.schema[0].hi == 30.0


def test_one_hot_encoding_with_sorted_labels(tmp_path):
    p = write_csv(tmp_path / "t.csv", "x,y\n1,A\n2,B\n3,A\n")
    ds = load_csv(p, "y")
    assert ds.class_names == ["A", "B"]
    assert_array_equal(ds.labels, [[1, 0], [0, 1], [1, 0]])
    assert_array_equal(ds.labels.sum(axis=1), np.ones(3))


def test_numeric_labels_sort_numerically(tmp_path):
    p = write_csv(tmp_path / "t.csv", "x,y\n1,10\n2,2\n3,10\n")
    ds = load_csv(p, "y")
    assert ds.class_names == ["2", "10"]


def test_binary_kind_inferred_and_overridable(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n0,1.5,0\n1,2.5,1\n0,3.5,0\n")
    ds = load_csv(p, "y")
    assert [c.kind for c in ds.schema] == [BINARY, CONTINUOUS]
    assert_array_equal(ds.features[:, 0], [0.0, 1.0, 0.0])   # binary kept as-is


def test_constant_continuous_column_rejected(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,y\n5,0\n5,1\n5,0\n")
    with pytest.raises(ValueError, match="constant"):
        load_csv(p, "y")


def test_single_class_label_rejected(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,y\n1,Z\n2,Z\n")
    with pytest.raises(ValueError, match="single class"):
        load_csv(p, "y")


def test_parse_failure_reports_row_and_column(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n1,oops,1\n")
    with pytest.raises(ValueError, match=r"row 3, column 'b'"):
        load_csv(p, "y")


def test_complete_loader_rejects_empty_cells(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n1,,1\n")
    with pytest.raises(ValueError, match="empty cell"):
        load_csv(p, "y")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_loaders_reject_non_finite_cells(tmp_path, cell):
    p = write_csv(tmp_path / "t.csv", f"a,b,y\n1,2,0\n3,{cell},1\n5,6,0\n")
    with pytest.raises(ValueError, match="column 'b' holds a non-finite value"):
        load_csv(p, "y")
    with pytest.raises(ValueError, match="column 'b' holds a non-finite value"):
        load_incomplete_csv(p, "y")
    # a missing cell beside the bad one does not hide it
    p = write_csv(tmp_path / "t.csv", f"a,b,y\n1,,0\n3,{cell},1\n5,6,0\n")
    with pytest.raises(ValueError, match="column 'b' holds a non-finite value"):
        load_incomplete_csv(p, "y")


@pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
def test_build_dataset_ignores_the_values_of_missing_cells(cell):
    raw = np.array([[1.0, 2.0], [3.0, cell], [5.0, 6.0], [0.5, 4.0]])
    labels, names = ["0", "1", "0", "1"], ["a", "b"]
    mask = np.ones_like(raw)
    mask[1, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ds = build_dataset(raw, labels, names, observed_mask=mask)
    assert np.isfinite(ds.features).all() and ds.features[1, 1] == 0.0
    assert ds.schema[1].lo == 2.0 and ds.schema[1].hi == 6.0
    IncompleteDataset(ds, mask)
    assert np.array_equal(raw[1, 1], cell, equal_nan=True)    # the caller's array is left as it was
    # the same value at an observed cell is refused
    with pytest.raises(ValueError, match="column 'b' holds a non-finite value"):
        build_dataset(raw, labels, names, observed_mask=np.ones_like(raw))


def test_label_column_by_index_and_missing_column(tmp_path):
    p = write_csv(tmp_path / "t.csv", "y,a\n0,1\n1,2\n")
    ds = load_csv(p, 0)
    assert ds.label_column == "y" and ds.n_features == 1
    with pytest.raises(ValueError, match="not found"):
        load_csv(p, "nope")
    # a header name wins; other text of ASCII digits, or an integer, is an index
    years = write_csv(tmp_path / "years.csv",
                      "2019,2020,1\n" + "".join(f"{i}.5,{i % 3},{i % 2}\n" for i in range(6)))
    for label, column, classes in (("1", "1", 2), ("2020", "2020", 3), ("0", "2019", 6),
                                   (np.int64(0), "2019", 6)):
        ds = load_csv(years, label)
        assert (ds.label_column, ds.n_classes) == (column, classes)
    for label, message in ((True, "must be a header name or a 0-based index, got True"),
                           ("-1", "label column '-1' not found"), ("\u0663", "not found"),
                           ("9", "label column index 9 out of range for 3 columns")):
        with pytest.raises(ValueError, match=message):
            load_csv(years, label)


def test_breast_cancer_table_shape():
    pytest.importorskip("sklearn")
    from cgain.datasets import load_breast_cancer_dataset
    ds = load_breast_cancer_dataset()
    assert ds.features.shape == (569, 30)
    assert ds.n_classes == 2
    assert np.all(ds.features >= 0.0) and np.all(ds.features <= 1.0)


def test_incomplete_loader_masks_empty_cells(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n,4,1\n3,,0\n5,6,1\n")
    inc = load_incomplete_csv(p, "y")
    assert_array_equal(inc.mask, [[1, 1], [0, 1], [1, 0], [1, 1]])
    # stats from observed entries only: column a over {1,3,5}
    assert inc.dataset.schema[0].lo == 1.0 and inc.dataset.schema[0].hi == 5.0
    assert inc.dataset.features[1, 0] == 0.0   # masked cells zeroed


def test_incomplete_loader_rejects_missing_labels(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,y\n1,0\n2,\n")
    with pytest.raises(ValueError, match="labels must be fully observed"):
        load_incomplete_csv(p, "y")


def test_mask_csv_round_trip(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n,4,1\n")
    inc = load_incomplete_csv(p, "y")
    mp = tmp_path / "m.csv"
    write_mask_csv(mp, inc.mask, ["a", "b"])
    assert mp.read_bytes() == b"a,b\r\n1,1\r\n0,1\r\n"
    assert_array_equal(load_mask_csv(mp), inc.mask)


def test_duplicate_header_names_rejected(tmp_path):
    p = write_csv(tmp_path / "t.csv", "x,y,x\n1,2,0\n3,4,1\n")
    with pytest.raises(ValueError, match="duplicate column name 'x'"):
        read_csv_table(p)
    with pytest.raises(ValueError, match="duplicate column name 'x'"):
        load_csv(p, 2)


# ---------------------------------------------------------------------------
# bulk parsing against the per-cell reference
# ---------------------------------------------------------------------------

NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["1e3", "-2.5E-3", "+7", "-0", ".5", "5.", "1_0", "1_000.5", "\u0661\u0662"]),
)
PADDING = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])
CELL_KINDS = {
    "number": st.tuples(PADDING, NUMBER_TEXT, PADDING).map("".join),
    "empty": st.sampled_from(["", " ", "\t ", "\u00a0"]),       # empty or whitespace only
    "non-finite": st.sampled_from(["nan", " -inf", "Infinity"]),
    "bad": st.sampled_from(["1__0", "_1", "0x1f", "1.2.3", "abc"]),
}
FEATURE_CELL = st.sampled_from(["number"] * 16 + ["empty"] * 3 + ["non-finite", "bad"]).flatmap(
    CELL_KINDS.__getitem__)
LABEL_CELL = st.sampled_from(["0", "1", " 1 ", "a"] * 4 + ["", " "])


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


@st.composite
def cell_tables(draw):
    width = draw(st.integers(2, 5))
    label_idx = draw(st.integers(0, width - 1))
    rows = draw(st.lists(st.lists(FEATURE_CELL, min_size=width, max_size=width),
                         min_size=1, max_size=8))
    for row in rows:
        row[label_idx] = draw(LABEL_CELL)
    return [f"c{j}" for j in range(width)], rows, label_idx


@settings(max_examples=300, deadline=None)
@given(table=cell_tables(), allow_missing=st.booleans())
def test_bulk_parse_matches_per_cell_reference(table, allow_missing):
    header, rows, label_idx = table
    expected = _outcome(lambda: ref_parse_table("t.csv", header, rows, label_idx, allow_missing))
    actual = _outcome(lambda: parse_table("t.csv", header, rows, label_idx, allow_missing))
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert not isinstance(actual, str), actual
        for got, want in zip(actual[:2], expected[:2]):
            assert_same_bits(got, want)
        assert actual[2] == expected[2]


@settings(max_examples=200, deadline=None)
@given(table=cell_tables(), allow_missing=st.booleans())
def test_loaders_match_per_cell_reference(table, allow_missing):
    """The whole loader, typing and non-finite checks included."""
    header, rows, label_idx = table
    names = [h for j, h in enumerate(header) if j != label_idx]

    def reference():
        raw, mask, labels = ref_parse_table("t.csv", header, rows, label_idx, allow_missing)
        ds = build_dataset(raw, labels, names, label_column=header[label_idx], name="t",
                           observed_mask=mask if allow_missing else None)
        return ds, mask

    def bulk():
        if allow_missing:
            inc = load_incomplete_csv("t.csv", label_idx, table=(header, rows))
            return inc.dataset, inc.mask
        return load_csv("t.csv", label_idx, table=(header, rows)), None

    expected, actual = _outcome(reference), _outcome(bulk)
    if isinstance(expected, str):
        assert actual == expected
        return
    assert not isinstance(actual, str), actual
    assert_same_bits(actual[0].features, expected[0].features)
    assert_array_equal(actual[0].labels, expected[0].labels)
    assert actual[0].schema == expected[0].schema
    assert actual[0].class_names == expected[0].class_names
    if allow_missing:
        assert_same_bits(actual[1], expected[1])


MISSING_LABEL = "missing label; labels must be fully observed"


@pytest.mark.parametrize("loader, text, message", [
    # an unparseable cell in row 2 beats an empty cell in row 3, and the reverse
    (load_csv, "a,b,y\n1,x,0\n,2,1\n", "row 2, column 'b': cannot parse 'x' as a number"),
    (load_csv, "a,b,y\n1,,0\nx,2,1\n", "row 2, column 'b': empty cell in a complete dataset"),
    (load_incomplete_csv, "a,b,y\n,x,0\n,2,1\n", "row 2, column 'b': cannot parse 'x' as a number"),
    # a missing label beats a later bad cell, in a later row or earlier in its own row
    (load_incomplete_csv, "a,b,y\n1,2,\nx,2,1\n", f"row 2: {MISSING_LABEL}"),
    (load_incomplete_csv, "a,y,b\nx, ,1\n1,0,2\n", f"row 2: {MISSING_LABEL}"),
    (load_incomplete_csv, "a,b,y\n1,x,1\n1,2,\n", "row 2, column 'b': cannot parse 'x' as a number"),
    # the complete loader applies the same label rule
    (load_csv, "a,y,b\nx,,1\n1,0,2\n", f"row 2: {MISSING_LABEL}"),
    # a parse error comes before a non-finite value in an earlier row
    (load_csv, "a,b,y\n1,inf,0\n1,z,1\n", "row 3, column 'b': cannot parse 'z' as a number"),
])
def test_first_bad_cell_in_row_major_order(tmp_path, loader, text, message):
    p = write_csv(tmp_path / "t.csv", text)
    with pytest.raises(ValueError) as info:
        loader(p, "y")
    assert str(info.value) == f"{p}: {message}"


@pytest.mark.parametrize("loader, text, message", [
    # a blank line, then the bad cell on line 4 (record 2)
    (load_csv, "a,b,y\n1,2,0\n\n1,x,1\n", "row 4, column 'b': cannot parse 'x' as a number"),
    # a quoted label spans lines 2-3, then the bad cell on line 4 (record 2)
    (load_csv, 'a,b,y\n1,2,"0\nzero"\n1,x,1\n', "row 4, column 'b': cannot parse 'x' as a number"),
    (load_csv, "a,b,y\n\n1,,0\n", "row 3, column 'b': empty cell in a complete dataset"),
    (load_incomplete_csv, "a,b,y\n1,2,0\n\n\n1,2,\n", f"row 5: {MISSING_LABEL}"),
    (load_csv, "a,b,y\n1,2,0\n\n3,4,\n5,6,1\n", f"row 4: {MISSING_LABEL}"),   # not a class ''
    (read_csv_table, "a,b,y\n\n1,2\n", "row 3 has 2 cells, expected 3"),
    (load_mask_csv, "m0,m1\n1,0\n\n1,2\n", "row 4, column 'm1': mask cells must be 0 or 1, got '2'"),
], ids=["blank-line", "multi-line-cell", "empty-cell", "missing-label", "missing-label-complete",
        "row-length", "mask-cell"])
def test_errors_name_the_file_line_of_the_record(tmp_path, loader, text, message):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        loader(p, "y") if loader in (load_csv, load_incomplete_csv) else loader(p)
    assert str(info.value) == f"{p}: {message}"


# ---------------------------------------------------------------------------
# reader against csv.reader
# ---------------------------------------------------------------------------

READER_CHARS = ["a", "1", ",", " ", "\r", "\n", "\r\n", "\x0b", "\x85", "\u00e9"]


def _read_outcome(read, path):
    try:
        header, rows, lines = read(path)
        return header, list(rows), list(lines)
    except (ValueError, csv.Error) as exc:
        return type(exc).__name__, str(exc)


def _read_with_lines(path):
    header, rows = read_csv_table(path)
    return header, rows, rows.lines


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.lists(st.sampled_from(READER_CHARS)),
                      st.lists(st.sampled_from(READER_CHARS + ['"', "\0"]))).map("".join))
def test_reader_matches_csv_reader(text):
    """Header, rows, their file lines and every error, for texts with and
    without quotes and NULs; \\x0b and \\x85 end no line for csv.reader."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = _read_outcome(ref_read_csv_table, path)
        actual = _read_outcome(_read_with_lines, path)
    assert actual == expected


@pytest.mark.parametrize("text, quoted", [
    ("a,b,y\r\n1,2,0\r\n\r\n3,4,1\r\n", False),
    ("a,b,y\n1,2,0\r3,\x0b4,1", False),
    ('a,b,y\n1,2,"0"\n', True),
    ("a,b,y\n1,2,\0\n", True),
])
def test_reader_hands_only_quoted_or_nul_files_to_csv_reader(tmp_path, monkeypatch, text, quoted):
    calls = []
    real_reader = csv.reader
    monkeypatch.setattr(data.csv, "reader", lambda lines: calls.append(1) or real_reader(lines))
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    actual = _read_outcome(_read_with_lines, path)
    assert len(calls) == (1 if quoted else 0)
    assert actual == _read_outcome(ref_read_csv_table, path)


def test_reader_keeps_the_csv_field_size_error(tmp_path):
    path = write_csv(tmp_path / "t.csv", "a,b\n123456789,1\n")
    limit = csv.field_size_limit(8)
    try:
        with pytest.raises(csv.Error, match=r"^field larger than field limit \(8\)$"):
            read_csv_table(path)
    finally:
        csv.field_size_limit(limit)


@settings(max_examples=100, deadline=None)
@given(width=st.integers(1, 4),
       cells=st.lists(st.sampled_from(["0", "1", " 1", "0 ", "", "2", "01", "1.0", "x"]),
                      min_size=0, max_size=24))
def test_mask_loader_matches_per_cell_reference(width, cells):
    header = [f"m{j}" for j in range(width)]
    rows = [cells[i:i + width] for i in range(0, len(cells) - len(cells) % width, width)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        _, read_rows = read_csv_table(path)
        expected = _outcome(lambda: ref_parse_mask(path, header, read_rows))
        actual = _outcome(lambda: load_mask_csv(path))
    if isinstance(expected, str):
        assert actual == expected
    else:
        assert_same_bits(actual, expected)


# ---------------------------------------------------------------------------
# block writer against csv.writer
# ---------------------------------------------------------------------------

def _csv_writer_text(header, rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([header] + rows)
    return buf.getvalue().encode("utf-8")


def _write_csv_bytes(header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.csv"
        data.write_csv(path, header, iter(rows))
        return path.read_bytes()


WRITER_CELL = st.text(alphabet=st.sampled_from(list('a1., "\r\n\t-é')), max_size=5)


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.one_of(st.lists(WRITER_CELL, min_size=1, max_size=4), st.just([""])),
                     max_size=12),
       block=st.integers(1, 4))
def test_block_writer_matches_csv_writer(rows, block):
    header = ["h0", "h 1"]
    with mock.patch.object(data, "WRITE_BLOCK_ROWS", block):
        assert _write_csv_bytes(header, rows) == _csv_writer_text(header, rows)


@pytest.mark.parametrize("dirty", [["1", "x,y"], ["1", 'q"'], ["1", "a\nb"], ["1", "a\rb"], [""]])
def test_block_writer_hands_only_blocks_needing_quotes_to_csv_writer(monkeypatch, dirty):
    header = ["a", "b"]
    clean = [[repr(0.1 * i), ""] for i in range(4)]
    rows = clean + [dirty] + clean[:3]
    expected = _csv_writer_text(header, rows)
    calls = []
    real_writer = csv.writer
    monkeypatch.setattr(data, "WRITE_BLOCK_ROWS", 4)
    monkeypatch.setattr(data.csv, "writer", lambda fh: calls.append(fh) or real_writer(fh))
    assert _write_csv_bytes(header, rows) == expected
    assert len(calls) == 1   # blocks: header + 3 clean | 1 clean, dirty, 2 clean | 1 clean


MASK_NAME = st.text(alphabet=st.sampled_from(list('ab,"\n\u00e9 ')), max_size=4)


@settings(max_examples=200, deadline=None)
@given(header=st.lists(MASK_NAME, max_size=5), n_rows=st.integers(0, 6),
       cells=st.sampled_from([[0.0, 1.0], [0.0, -0.0, 1.0], [0, 1]]), seed=st.integers(0, 2**32 - 1))
def test_mask_writer_matches_csv_writer(header, n_rows, cells, seed):
    mask = np.random.default_rng(seed).choice(np.array(cells), size=(n_rows, len(header)))
    rows = [[str(int(v)) for v in row] for row in mask.tolist()]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_mask_csv(path, mask, header)
        assert path.read_bytes() == _csv_writer_text(header, rows)


@pytest.mark.parametrize("cell", [0.5, 2.0, -1.0, np.nan])
def test_mask_writer_refuses_a_cell_not_0_or_1(tmp_path, cell):
    mask = np.ones((3, 2))
    mask[2, 1] = cell
    with pytest.raises(ValueError, match=f"^mask cell in column 'b', row 2, is {cell!r}; "
                                         "mask cells must be 0 or 1$"):
        write_mask_csv(tmp_path / "m.csv", mask, ["a", "b"])
    assert not (tmp_path / "m.csv").exists()


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corrupt_rejects_out_of_range_rates(dataset):
    for rate in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="missing rate"):
            corrupt_mcar(dataset, rate, make_rng(0))


def test_a_value_left_at_a_missing_cell_is_refused(dataset):
    # a complete table under a corruption's mask would hand its hidden cells to the generator
    mask = corrupt_mcar(dataset, 0.3, make_rng(6)).mask
    i, j = next((i, j) for i, j in np.argwhere(mask == 0) if dataset.features[i, j] != 0)
    with pytest.raises(ValueError, match=rf"^feature cell in column 'c{j}', row {i}, "
                                         rf"is {float(dataset.features[i, j])!r}; a missing cell \(mask 0\) must hold 0"):
        IncompleteDataset(dataset, mask)
    IncompleteDataset(replace(dataset, features=np.where(mask == 0, -0.0, dataset.features)), mask)


def test_empirical_missing_fraction_spambase_sized():
    rng = np.random.default_rng(0)
    raw = rng.uniform(0, 100, size=(4601, 57))
    labels = [str(v) for v in rng.integers(0, 2, size=4601)]
    ds = build_dataset(raw, labels, [f"f{j}" for j in range(57)])
    inc = corrupt_mcar(ds, 0.2, make_rng(99))
    fraction = 1.0 - inc.mask.mean()
    assert 0.198 <= fraction <= 0.202


def test_corruption_is_reproducible_and_leaves_labels(dataset):
    a = corrupt_mcar(dataset, 0.3, make_rng(5))
    b = corrupt_mcar(dataset, 0.3, make_rng(5))
    assert_array_equal(a.mask, b.mask)
    assert_array_equal(a.dataset.features, b.dataset.features)
    assert_array_equal(a.dataset.labels, dataset.labels)
    assert a.mask.shape == dataset.features.shape
    # masked cells are zeroed, observed cells untouched
    assert_array_equal(a.dataset.features, dataset.features * a.mask)


# ---------------------------------------------------------------------------
# imbalance subsampling
# ---------------------------------------------------------------------------

def balanced_dataset(n_per_class=50, seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 1, size=(2 * n_per_class, 3))
    labels = ["0"] * n_per_class + ["1"] * n_per_class
    return build_dataset(raw, labels, ["a", "b", "c"])


def test_half_fraction_on_balanced_data_keeps_all_rows():
    ds = balanced_dataset()
    sub = subsample_imbalance(ds, "1", 0.5, make_rng(3))
    assert sub.n_rows == ds.n_rows
    # same multiset of rows, order shuffled
    assert_allclose(np.sort(sub.features, axis=0), np.sort(ds.features, axis=0))


def test_minority_count_solves_share_equation():
    rng = np.random.default_rng(1)
    raw = rng.uniform(0, 1, size=(1300, 2))
    labels = ["0"] * 1000 + ["1"] * 300
    ds = build_dataset(raw, labels, ["a", "b"])
    sub = subsample_imbalance(ds, "1", 0.10, make_rng(2))
    n1 = int(sub.labels[:, 1].sum())
    assert n1 in (111, 112)     # f*n0/(1-f) = 0.1*1000/0.9
    assert int(sub.labels[:, 0].sum()) == 1000


@pytest.mark.parametrize("fraction", [0.10, 0.25, 0.40, 0.50])
def test_benchmark_fractions_land_within_one_row(fraction):
    ds = balanced_dataset(n_per_class=200, seed=4)
    sub = subsample_imbalance(ds, 1, fraction, make_rng(7))
    share = sub.labels[:, 1].sum() / sub.n_rows
    achievable = 1.0 / sub.n_rows
    assert abs(share - fraction) <= achievable + 1e-12


def skewed_dataset(n0=1000, n1=300, seed=1):
    raw = np.random.default_rng(seed).uniform(0, 1, size=(n0 + n1, 2))
    return build_dataset(raw, ["0"] * n0 + ["1"] * n1, ["a", "b"])


def test_fraction_below_the_table_share_keeps_the_thin_minority_draw():
    # all majority rows, then a draw of minority rows, shuffled: the rows
    # and bytes of every grid cell below the table's own share
    ds = skewed_dataset()
    cls = ds.class_index()
    rng = make_rng(2)
    keep = np.concatenate([np.flatnonzero(cls == 0),
                           rng.choice(np.flatnonzero(cls == 1), size=111, replace=False)])
    rng.shuffle(keep)
    sub = subsample_imbalance(ds, "1", 0.10, make_rng(2))
    assert_same_bits(sub.features, ds.take_rows(keep).features)
    assert_array_equal(sub.labels, ds.labels[keep])


@pytest.mark.parametrize("fraction, n0", [(0.40, 450), (0.35, 557), (0.25, 900), (0.50, 300)])
def test_fraction_above_the_table_share_thins_the_majority(fraction, n0):
    # 300 minority rows of 1300 is a 23% share; above it every minority row
    # stays and round(300 * (1 - f) / f) majority rows are drawn
    ds = skewed_dataset()
    sub = subsample_imbalance(ds, "1", fraction, make_rng(5))
    assert sub.labels.sum(axis=0).tolist() == [n0, 300]
    rows = {tuple(r) for r in ds.features.tolist()}
    assert len({tuple(r) for r in sub.features.tolist()} & rows) == sub.n_rows
    assert abs(300 / sub.n_rows - fraction) <= 1.0 / sub.n_rows


def test_subsample_errors():
    ds = balanced_dataset(n_per_class=5)
    empty = Dataset(ds.features, np.column_stack([np.ones(10), np.zeros(10)]), ds.schema, ["0", "1"])
    with pytest.raises(ValueError, match="has no rows"):
        subsample_imbalance(empty, "1", 0.3, make_rng(0))
    with pytest.raises(ValueError, match="fraction"):
        subsample_imbalance(ds, "1", 0.7, make_rng(0))
    multi = toy_dataset(n=12, n_classes=3)
    with pytest.raises(ValueError, match="binary"):
        subsample_imbalance(multi, "1", 0.3, make_rng(0))


def test_class_reference_is_a_name_or_else_a_0_based_index():
    # classes "1" (30 rows) and "2" (10 rows): the name "1" is class 0, the index 1 is class "2"
    raw = np.random.default_rng(6).uniform(0, 1, size=(40, 2))
    ds = build_dataset(raw, ["1"] * 30 + ["2"] * 10, ["a", "b"])
    for ref, minority in (("1", "1"), ("2", "2"), (0, "1"), (1, "2"), (np.int64(1), "2"), ("0", "1")):
        sub = subsample_imbalance(ds, ref, 0.25, make_rng(0))
        share = sub.labels[:, ds.class_names.index(minority)].mean()
        assert abs(share - 0.25) <= 1.0 / sub.n_rows, ref
    for ref, message in ((0.9, "class must be a class name or a 0-based index, got 0.9"),
                         (1.7, "got 1.7"), (True, "got True"), (np.float64(1.0), "got np.float64"),
                         ("x", "class 'x' not found in class names"), ("-1", "class '-1' not found"),
                         ("\u0661", "not found"), (2, "class index 2 out of range for 2 classes")):
        with pytest.raises(ValueError, match=message):
            subsample_imbalance(ds, ref, 0.25, make_rng(0))


def test_half_fraction_on_balanced_is_identity_up_to_order():
    ds = balanced_dataset(n_per_class=5)
    sub = subsample_imbalance(ds, "1", 0.5, make_rng(0))
    assert sub.n_rows == 10


# ---------------------------------------------------------------------------
# folds
# ---------------------------------------------------------------------------

def test_stratified_folds_tiny_exact():
    rng = np.random.default_rng(2)
    raw = rng.uniform(0, 1, size=(10, 2))
    ds = build_dataset(raw, ["0", "1"] * 5, ["a", "b"])
    folds = split_folds(ds, 5, make_rng(1))
    cls = ds.class_index()
    for fold in folds:
        assert fold.size == 2
        assert sorted(cls[fold]) == [0, 1]


def test_ten_folds_on_toy_data():
    ds = toy_dataset(n=60, seed=8)
    folds = split_folds(ds, 10, make_rng(0))
    assert len(folds) == 10
    cls = ds.class_index()
    for c in range(ds.n_classes):
        counts = [int((cls[f] == c).sum()) for f in folds]
        assert max(counts) - min(counts) <= 1


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 1000), st.integers(2, 4))
def test_fold_union_is_a_partition(k, seed, n_classes):
    n = 6 * k
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 5.0, size=(n, 3))
    labels = [str(i % n_classes) for i in range(n)]   # every class has >= k rows
    ds = build_dataset(raw, labels, ["a", "b", "c"])
    folds = split_folds(ds, k, make_rng(seed))
    combined = np.concatenate(folds)
    assert len(combined) == len(set(combined.tolist())) == ds.n_rows
    assert set(combined.tolist()) == set(range(ds.n_rows))


def test_fold_errors():
    ds = toy_dataset(n=8)
    with pytest.raises(ValueError, match="at least 2"):
        split_folds(ds, 1, make_rng(0))
    with pytest.raises(ValueError, match="fewer than k"):
        split_folds(ds, 7, make_rng(0))


# ---------------------------------------------------------------------------
# scale round-trips
# ---------------------------------------------------------------------------

def test_denormalize_endpoints(dataset):
    lo = denormalize(dataset.schema, np.zeros((1, dataset.n_features)))
    hi = denormalize(dataset.schema, np.ones((1, dataset.n_features)))
    for j, spec in enumerate(dataset.schema):
        assert lo[0, j] == spec.lo
        assert hi[0, j] == pytest.approx(spec.hi, rel=1e-12)


def test_normalize_denormalize_round_trip():
    ds = toy_dataset(n=40, d=6, seed=12, binary_col=False)
    raw = denormalize(ds.schema, ds.features)
    back = normalize(ds.schema, raw)
    assert np.max(np.abs(back - ds.features)) < 1e-9


@pytest.mark.parametrize("round_binary", [False, True])
def test_scaling_bits_equal_per_column_references(round_binary):
    ds = toy_dataset(n=50, d=5, seed=13)
    values = make_rng(14).uniform(-0.5, 1.5, size=(50, 5))
    values[:3] = [[0.0] * 5, [-0.0] * 5, [0.5] * 5]
    raw = denormalize(ds.schema, values, round_binary=round_binary)
    assert_same_bits(raw, ref_denormalize(ds.schema, values, round_binary))
    assert_same_bits(normalize(ds.schema, raw), ref_normalize(ds.schema, raw))


@pytest.mark.parametrize("masked", [False, True], ids=["complete", "masked"])
def test_build_dataset_features_are_normalize_of_raw(masked):
    rng = make_rng(15)
    raw = rng.uniform(-3.0, 7.0, size=(30, 4))
    raw[:, 2] = rng.integers(0, 2, size=30)
    raw[3, 2] = -0.0        # a binary column holding -0.0
    mask = None
    if masked:
        mask = (rng.random((30, 4)) >= 0.3).astype(np.float64)
        mask[3, 2] = 1.0
        raw = np.where(mask == 1, raw, 0.0)     # as loaded from a CSV
    ds = build_dataset(raw, ["a", "b"] * 15, ["w", "x", "y", "z"], observed_mask=mask)
    assert ds.column_kinds == (CONTINUOUS, CONTINUOUS, BINARY, CONTINUOUS)
    expected = normalize(ds.schema, raw)
    assert_same_bits(ds.features, expected if mask is None else expected * mask)
    assert math.copysign(1.0, ds.features[3, 2]) == -1.0


def test_binary_rounding_at_denormalize():
    schema = [type(s)(s.name, BINARY, 0.0, 1.0) for s in toy_dataset(d=1).schema[:1]]
    out = denormalize(schema, np.array([[0.7], [0.3]]), round_binary=True)
    assert_array_equal(out, [[1.0], [0.0]])


def test_denormalize_shape_mismatch(dataset):
    with pytest.raises(ValueError, match="schema width"):
        denormalize(dataset.schema, np.zeros((2, dataset.n_features + 1)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_normalization_is_monotone_per_column(seed):
    ds = toy_dataset(n=25, d=3, seed=seed, binary_col=False)
    raw = denormalize(ds.schema, ds.features)
    for j in range(3):
        order_raw = np.argsort(raw[:, j], kind="stable")
        order_norm = np.argsort(ds.features[:, j], kind="stable")
        assert_array_equal(order_raw, order_norm)
