import csv
import io
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cgain import data
from cgain.data import (BINARY, CONTINUOUS, build_dataset, corrupt_mcar, denormalize,
                        load_csv, load_incomplete_csv, load_mask_csv, normalize, parse_table,
                        read_csv_table, split_folds, subsample_imbalance, uncorrupted,
                        write_mask_csv)
from cgain.nn import make_rng

from conftest import assert_same_bits, toy_dataset
from oracles import ref_parse_mask, ref_parse_table


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
    ds2 = load_csv(p, "y", schema_overrides={"a": CONTINUOUS})
    assert ds2.schema[0].kind == CONTINUOUS
    with pytest.raises(ValueError, match="declared binary"):
        load_csv(p, "y", schema_overrides={"b": BINARY})


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


def test_label_column_by_index_and_missing_column(tmp_path):
    p = write_csv(tmp_path / "t.csv", "y,a\n0,1\n1,2\n")
    ds = load_csv(p, 0)
    assert ds.label_column == "y" and ds.n_features == 1
    with pytest.raises(ValueError, match="not found"):
        load_csv(p, "nope")


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


def test_mask_csv_round_trip_and_mismatch(tmp_path):
    p = write_csv(tmp_path / "t.csv", "a,b,y\n1,2,0\n,4,1\n")
    inc = load_incomplete_csv(p, "y")
    mp = tmp_path / "m.csv"
    write_mask_csv(mp, inc.mask, ["a", "b"])
    assert_array_equal(load_mask_csv(mp), inc.mask)
    again = load_incomplete_csv(p, "y", mask_path=mp)
    assert_array_equal(again.mask, inc.mask)
    bad = write_csv(tmp_path / "bad.csv", "a,b\n1,1\n1,1\n")
    with pytest.raises(ValueError, match="disagrees"):
        load_incomplete_csv(p, "y", mask_path=bad)


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
    # the complete loader does not check labels, so the bad cell is reported
    (load_csv, "a,y,b\nx,,1\n1,0,2\n", "row 2, column 'a': cannot parse 'x' as a number"),
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
    (read_csv_table, "a,b,y\n\n1,2\n", "row 3 has 2 cells, expected 3"),
    (load_mask_csv, "m0,m1\n1,0\n\n1,2\n", "row 4, column 'm1': mask cells must be 0 or 1, got '2'"),
], ids=["blank-line", "multi-line-cell", "empty-cell", "missing-label", "row-length", "mask-cell"])
def test_errors_name_the_file_line_of_the_record(tmp_path, loader, text, message):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        loader(p, "y") if loader in (load_csv, load_incomplete_csv) else loader(p)
    assert str(info.value) == f"{p}: {message}"


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


# ---------------------------------------------------------------------------
# corruption
# ---------------------------------------------------------------------------

def test_corrupt_rejects_out_of_range_rates(dataset):
    for rate in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="missing rate"):
            corrupt_mcar(dataset, rate, make_rng(0))


def test_uncorrupted_mask_is_all_ones(dataset):
    inc = uncorrupted(dataset)
    assert_array_equal(inc.mask, np.ones_like(dataset.features))


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


def test_subsample_errors():
    ds = balanced_dataset(n_per_class=5)
    # a fraction demanding more minority rows than exist
    rng = np.random.default_rng(1)
    raw = rng.uniform(0, 1, size=(12, 2))
    skew = build_dataset(raw, ["0"] * 10 + ["1"] * 2, ["a", "b"])
    with pytest.raises(ValueError, match="fewer than"):
        subsample_imbalance(skew, "1", 0.5, make_rng(0))
    with pytest.raises(ValueError, match="fraction"):
        subsample_imbalance(ds, "1", 0.7, make_rng(0))
    multi = toy_dataset(n=12, n_classes=3)
    with pytest.raises(ValueError, match="binary"):
        subsample_imbalance(multi, "1", 0.3, make_rng(0))


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
