import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from cgain.baselines import MICE_LITE_SWEEPS, MeanImputer, MiceLiteImputer
from cgain.data import IncompleteDataset, build_dataset, corrupt_mcar, uncorrupted
from cgain.evaluate import rmse_missing
from cgain.nn import make_rng
from conftest import toy_dataset
from oracles import ref_mice_lite, scalar_rmse


def incomplete_from(features, mask, labels=None):
    n = features.shape[0]
    labels = labels or ["0", "1"] * (n // 2) + ["0"] * (n % 2)
    ds = build_dataset(features, labels, [f"c{j}" for j in range(features.shape[1])])
    masked = ds.features * mask
    from dataclasses import replace
    return ds, IncompleteDataset(replace(ds, features=masked), mask)


def test_mean_imputation_definition():
    raw = np.array([[0.2, 1.0], [0.4, 2.0], [0.9, 3.0]])
    mask = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
    # column 0 observed values are 0.2 and 0.4 once normalized? use raw directly:
    ds, inc = incomplete_from(raw, mask)
    completed = MeanImputer().fit(inc).transform(inc)
    obs = ds.features[:2, 0]
    assert completed[2, 0] == pytest.approx(obs.mean(), abs=1e-15)
    assert_array_equal(completed[inc.mask == 1], inc.dataset.features[inc.mask == 1])


def test_mean_imputation_exact_example():
    # direct check of the {0.2, 0.4} -> 0.3 case on already-normalized values
    from cgain.data import ColumnSpec, Dataset
    ds = Dataset(features=np.array([[0.2], [0.4], [0.0]]),
                 labels=np.array([[1.0, 0], [0, 1.0], [1.0, 0]]),
                 schema=[ColumnSpec("c0", "continuous", 0.0, 1.0)],
                 class_names=["0", "1"])
    inc = IncompleteDataset(ds, np.array([[1.0], [1.0], [0.0]]))
    completed = MeanImputer().fit(inc).transform(inc)
    assert completed[2, 0] == pytest.approx(0.3, abs=1e-15)


def test_mean_identity_without_missing(dataset):
    inc = uncorrupted(dataset)
    completed = MeanImputer().fit(inc).transform(inc)
    assert_array_equal(completed, dataset.features)


def test_mean_rejects_fully_missing_column():
    ds = toy_dataset(n=6, d=3, seed=2, binary_col=False)
    mask = np.ones_like(ds.features)
    mask[:, 1] = 0.0
    from dataclasses import replace
    inc = IncompleteDataset(replace(ds, features=ds.features * mask), mask)
    with pytest.raises(ValueError, match="no observed values"):
        MeanImputer().fit(inc)


def test_mean_rmse_matches_direct_recomputation():
    ds = toy_dataset(n=50, d=4, seed=3, binary_col=False)
    inc = corrupt_mcar(ds, 0.3, make_rng(4))
    completed = MeanImputer().fit(inc).transform(inc)
    result = rmse_missing(ds, completed, inc.mask)
    expected, count = scalar_rmse(ds.features.tolist(), completed.tolist(),
                                  inc.mask.tolist())
    assert result.overall == pytest.approx(expected, abs=1e-12)
    assert result.n_missing == count


def test_mice_recovers_exact_linear_relation():
    rng = np.random.default_rng(5)
    n = 40
    a = rng.uniform(0.1, 0.9, n)
    features = np.column_stack([a, a.copy(), rng.uniform(0.1, 0.9, n)])
    mask = np.ones_like(features)
    mask[::4, 1] = 0.0   # hide some of column B = column A
    ds, inc = incomplete_from(features, mask)
    completed = MiceLiteImputer().fit(inc).transform(inc)
    hidden = mask[:, 1] == 0
    assert np.max(np.abs(completed[hidden, 1] - ds.features[hidden, 0])) < 1e-6


def test_mice_changes_only_missing_cells():
    ds = toy_dataset(n=30, d=4, seed=6, binary_col=False)
    inc = corrupt_mcar(ds, 0.25, make_rng(7))
    completed = MiceLiteImputer().fit(inc).transform(inc)
    obs = inc.mask == 1
    assert_array_equal(completed[obs], inc.dataset.features[obs])
    assert np.all(completed >= 0.0) and np.all(completed <= 1.0)


def test_mice_beats_mean_on_linear_data():
    rng = np.random.default_rng(8)
    n = 50
    x = rng.uniform(0.0, 1.0, n)
    features = np.column_stack([x, 0.8 * x + 0.1 + 0.02 * rng.normal(size=n),
                                0.5 - 0.4 * x + 0.02 * rng.normal(size=n)])
    ds, _ = incomplete_from(features, np.ones_like(features))
    inc = corrupt_mcar(ds, 0.3, make_rng(9))
    mice_rmse = rmse_missing(ds, MiceLiteImputer().fit(inc).transform(inc), inc.mask).overall
    mean_rmse = rmse_missing(ds, MeanImputer().fit(inc).transform(inc), inc.mask).overall
    assert mice_rmse < mean_rmse


def test_fit_transform_replays_the_fit_on_same_data():
    ds = toy_dataset(n=40, d=4, seed=10, binary_col=False)
    inc = corrupt_mcar(ds, 0.3, make_rng(11))
    mice = MiceLiteImputer().fit(inc)
    assert_allclose(mice.transform(inc), ref_mice_lite(inc.dataset.features, inc.mask, MICE_LITE_SWEEPS),
                    atol=1e-12)
    mean = MeanImputer().fit(inc)
    assert isinstance(mean, MiceLiteImputer) and mean.betas_ == []   # mean imputation is MICE-lite's start
    assert_array_equal(mean.transform(inc), np.where(inc.mask == 1, inc.dataset.features, mean.means_))


def test_transform_on_held_out_rows_uses_fitted_statistics():
    ds = toy_dataset(n=60, d=3, seed=12, binary_col=False)
    inc = corrupt_mcar(ds, 0.3, make_rng(13))
    train_rows = np.arange(0, 40)
    test_rows = np.arange(40, 60)
    mean = MeanImputer().fit(inc.take_rows(train_rows))
    test_inc = inc.take_rows(test_rows)
    filled = mean.transform(test_inc)
    miss = test_inc.mask == 0
    expected = np.broadcast_to(mean.means_, filled.shape)
    assert_array_equal(filled[miss], expected[miss])
    mice = MiceLiteImputer().fit(inc.take_rows(train_rows))
    out = mice.transform(test_inc)
    assert out.shape == test_inc.dataset.features.shape
    assert_array_equal(out[test_inc.mask == 1], test_inc.dataset.features[test_inc.mask == 1])
    with pytest.raises(ValueError, match="not fitted"):
        MiceLiteImputer().transform(test_inc)
