"""Classical single-imputation baselines: an iterative least-squares
chained-regression scheme (a deliberately small stand-in for full MICE), and
column means, which are that scheme's starting point with no sweep.

Both expose fit/transform: fit learns from the rows it is given, and
transform fills the missing cells of any rows with what fit learnt, either
the fitted rows themselves (repetition mode) or held-out rows (strict mode).
"""

from __future__ import annotations

import numpy as np

from .nn import Array
from .data import IncompleteDataset

MICE_LITE_SWEEPS = 5
RIDGE_LAMBDA = 1e-6     # damping on the normal equations for collinear columns


def _column_means(inc: IncompleteDataset) -> Array:
    obs_counts = inc.mask.sum(axis=0)
    empty = np.flatnonzero(obs_counts == 0)
    if empty.size:
        names = [inc.dataset.schema[j].name for j in empty]
        raise ValueError(f"columns with no observed values cannot be imputed: {names}")
    return (inc.dataset.features * inc.mask).sum(axis=0) / obs_counts


def _mean_filled(inc: IncompleteDataset, means: Array) -> Array:
    """A copy of the features with each missing cell set to its column mean."""
    return np.where(inc.mask == 0, means, inc.dataset.features)


def _others(d: int, j: int) -> list[int]:
    return [k for k in range(d) if k != j]


def _refill(x: Array, mask: Array, j: int, beta: Array) -> None:
    """Overwrite column j's missing cells with beta's [0, 1]-clamped
    prediction from the other columns."""
    rows = np.flatnonzero(mask[:, j] == 0)
    if rows.size:
        pred = x[rows][:, _others(x.shape[1], j)] @ beta[:-1] + beta[-1]
        x[rows, j] = np.clip(pred, 0.0, 1.0)


class MiceLiteImputer:
    """Chained linear regressions: initialize missing cells with column
    means, then in each of SWEEPS sweeps re-regress each column on all the
    others over the rows where it is observed, overwriting its missing cells
    with the (ridge-damped, [0,1]-clamped) predictions.

    transform() replays the fitted per-sweep regressions on any rows; on the
    fitted rows it reproduces the fit's own completion.
    """

    SWEEPS = MICE_LITE_SWEEPS

    def __init__(self):
        self.means_: Array | None = None
        self.betas_: list[list[Array]] | None = None   # [sweep][column] -> (d,) coefs + intercept

    def fit(self, inc: IncompleteDataset) -> "MiceLiteImputer":
        self.means_ = _column_means(inc)
        x = _mean_filled(inc, self.means_)
        d = x.shape[1]
        self.betas_ = [[] for _ in range(self.SWEEPS)]
        for sweep_betas in self.betas_:
            for j in range(d):
                obs = inc.mask[:, j] == 1
                # least squares with intercept; tiny ridge keeps collinear columns solvable
                z = np.column_stack([x[obs][:, _others(d, j)], np.ones(int(obs.sum()))])
                gram = z.T @ z + RIDGE_LAMBDA * np.eye(z.shape[1])
                sweep_betas.append(np.linalg.solve(gram, z.T @ x[obs, j]))
                _refill(x, inc.mask, j, sweep_betas[j])
        return self

    def transform(self, inc: IncompleteDataset) -> Array:
        if self.betas_ is None:
            raise ValueError("imputer is not fitted")
        x = _mean_filled(inc, self.means_)
        for sweep_betas in self.betas_:
            for j, beta in enumerate(sweep_betas):
                _refill(x, inc.mask, j, beta)
        return x


class MeanImputer(MiceLiteImputer):
    """Fill each missing cell with its column's observed mean: MICE-lite
    with no sweep."""

    SWEEPS = 0
