import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from cgain.data import (BINARY, CONTINUOUS, build_dataset, corrupt_mcar, denormalize,
                        load_csv, load_incomplete_csv, load_mask_csv, normalize,
                        split_folds, subsample_imbalance, uncorrupted, write_mask_csv)
from cgain.nn import make_rng

from conftest import toy_dataset


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
