"""Classical single-imputation baselines: column means and an iterative
least-squares chained-regression scheme (a deliberately small stand-in for
full MICE).

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
    x = inc.dataset.features.copy()
    miss = inc.mask == 0
    x[miss] = np.broadcast_to(means, x.shape)[miss]
    return x


class MeanImputer:
    """Fill each missing cell with its column's observed mean."""

    def __init__(self):
        self.means_: Array | None = None

    def fit(self, inc: IncompleteDataset) -> "MeanImputer":
        self.means_ = _column_means(inc)
        return self

    def transform(self, inc: IncompleteDataset) -> Array:
        if self.means_ is None:
            raise ValueError("imputer is not fitted")
        return _mean_filled(inc, self.means_)


class MiceLiteImputer:
    """Chained linear regressions: initialize missing cells with column
    means, then in each of MICE_LITE_SWEEPS sweeps re-regress each column on
    all the others over the rows where it is observed, overwriting its
    missing cells with the (ridge-damped, [0,1]-clamped) predictions.

    transform() replays the fitted per-sweep regressions on any rows; on the
    fitted rows it reproduces the fit's own completion.
    """

    def __init__(self):
        self.means_: Array | None = None
        self.betas_: list[list[Array]] | None = None   # [sweep][column] -> (d,) coefs + intercept

    def fit(self, inc: IncompleteDataset) -> "MiceLiteImputer":
        self.means_ = _column_means(inc)
        x = _mean_filled(inc, self.means_)
        mask = inc.mask
        d = x.shape[1]

        self.betas_ = []
        for _ in range(MICE_LITE_SWEEPS):
            sweep_betas = []
            for j in range(d):
                others = [k for k in range(d) if k != j]
                obs = mask[:, j] == 1
                beta = self._fit_column(x[obs][:, others], x[obs, j])
                sweep_betas.append(beta)
                rows = np.flatnonzero(~obs)
                if rows.size:
                    x[rows, j] = self._predict(beta, x[rows][:, others])
            self.betas_.append(sweep_betas)
        return self

    def transform(self, inc: IncompleteDataset) -> Array:
        if self.betas_ is None:
            raise ValueError("imputer is not fitted")
        x = _mean_filled(inc, self.means_)
        mask = inc.mask
        d = x.shape[1]
        for sweep_betas in self.betas_:
            for j in range(d):
                others = [k for k in range(d) if k != j]
                rows = np.flatnonzero(mask[:, j] == 0)
                if rows.size:
                    x[rows, j] = self._predict(sweep_betas[j], x[rows][:, others])
        return x

    def _fit_column(self, a: Array, y: Array) -> Array:
        # least squares with intercept; tiny ridge keeps collinear columns solvable
        z = np.column_stack([a, np.ones(a.shape[0])])
        gram = z.T @ z + RIDGE_LAMBDA * np.eye(z.shape[1])
        return np.linalg.solve(gram, z.T @ y)

    def _predict(self, beta: Array, a: Array) -> Array:
        pred = a @ beta[:-1] + beta[-1]
        return np.clip(pred, 0.0, 1.0)

