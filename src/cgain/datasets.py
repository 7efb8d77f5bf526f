"""Benchmark datasets: the real Wisconsin breast-cancer table (via
scikit-learn's bundled copy) and synthetic class-conditional stand-ins
matching the shapes and class balances of the other UCI tables.

Two synthetic families: tables whose correlation structure is
class-specific (per-class latent mixing, make_class_conditional), and the
binary credit_like table, where a few key features carry a strong
class-dependent mean. Both put genuine class-conditional structure in the
data, which is the regime an imputer conditioned on labels is supposed to
exploit.
"""

from __future__ import annotations

import numpy as np

from .nn import make_rng
from .data import Dataset, build_dataset, denormalize, write_csv


def load_breast_cancer_dataset() -> Dataset:
    """Wisconsin diagnostic breast cancer: 569 rows, 30 features, 2 classes."""
    try:
        from sklearn.datasets import load_breast_cancer
    except ImportError as exc:
        raise ImportError("scikit-learn is required for the breast cancer dataset "
                          "(pip install cgain[test])") from exc
    raw = load_breast_cancer()
    features = np.asarray(raw.data, dtype=np.float64)
    labels = [str(int(v)) for v in raw.target]
    names = [n.replace(" ", "_") for n in raw.feature_names]
    return build_dataset(features, labels, names, label_column="diagnosis", name="breast_cancer")


# The stand-ins' generator constants. They are fixed so that each table is
# a pure function of its size and seed; do not re-tune them.
CLASS_SEPARATION = 0.3   # scale of the per-class mean shifts
LATENT_DIM = 8           # width of the shared latent space
NOISE_SCALE = 0.15       # std of the per-cell Gaussian noise


def make_class_conditional(n_rows: int, n_features: int, n_classes: int,
                           class_weights, seed: int, name: str = "synthetic") -> Dataset:
    """Rows whose correlation structure, not just mean, depends on the class.

    Each class gets its own low-rank mixing of a shared latent space plus a
    mildly shifted mean, so filling a hidden cell from the observed ones
    requires the class-appropriate regression map. That is the regime where
    conditioning on the label should genuinely help an imputer.
    """
    weights = np.asarray(class_weights, dtype=np.float64)
    if weights.size != n_classes or not np.isclose(weights.sum(), 1.0):
        raise ValueError("class weights must have one entry per class and sum to 1")
    rng = make_rng(seed)
    q = LATENT_DIM
    centers = rng.uniform(-1.0, 1.0, size=(n_classes, n_features)) * CLASS_SEPARATION
    mixing = rng.normal(size=(n_classes, n_features, q)) / np.sqrt(q)

    cls = rng.choice(n_classes, size=n_rows, p=weights)
    latent = rng.normal(size=(n_rows, q))
    raw = (centers[cls] + np.einsum("nq,ndq->nd", latent, mixing[cls])
           + NOISE_SCALE * rng.normal(size=(n_rows, n_features)))
    labels = [str(int(c)) for c in cls]
    names = [f"f{j:02d}" for j in range(n_features)]
    return build_dataset(raw, labels, names, label_column="label", name=name)


def spambase_like(seed: int = 7) -> Dataset:
    """Same shape and class balance as Spambase: 4601 x 57, two classes."""
    return make_class_conditional(4601, 57, 2, (0.606, 0.394), seed, name="spambase_like")


def credit_like(n_rows: int = 5000, seed: int = 11) -> Dataset:
    """Default-credit-like binary table: 23 features, 77.9/22.1 class split.

    The first 5 features are key features with strongly class-dependent
    means (class centers U(-1, 1) * 1.5) and only a damped share (0.3) of
    the common 4-wide latent structure; the rest are class-free but
    correlated, and every cell gets N(0, 0.1^2) noise. When a key cell is
    hidden, the observed class-free cells say little about it, so the label
    is worth real information there; a label-blind imputer drifts key cells
    toward the majority class's values.
    """
    n_features, n_key, latent_dim = 23, 5, 4
    rng = make_rng(seed)
    cls = rng.choice(2, size=n_rows, p=(0.7788, 0.2212))
    latent = rng.normal(size=(n_rows, latent_dim))
    centers = np.zeros((2, n_features))
    centers[:, :n_key] = rng.uniform(-1.0, 1.0, size=(2, n_key)) * 1.5
    mixing = rng.normal(size=(n_features, latent_dim)) / np.sqrt(latent_dim)
    mixing[:n_key] *= 0.3
    raw = centers[cls] + latent @ mixing.T + 0.10 * rng.normal(size=(n_rows, n_features))
    labels = [str(int(c)) for c in cls]
    names = [f"f{j:02d}" for j in range(n_features)]
    return build_dataset(raw, labels, names, label_column="label", name="credit_like")


def letter_like(n_rows: int = 2000, seed: int = 13) -> Dataset:
    """Letter-recognition-like table: 16 features, 26 balanced classes."""
    weights = np.full(26, 1.0 / 26)
    return make_class_conditional(n_rows, 16, 26, weights, seed, name="letter_like")


def write_dataset_csv(path, dataset: Dataset) -> None:
    """Write a dataset on raw scale with its label column appended."""
    raw = denormalize(dataset.schema, dataset.features, round_binary=True)
    labels = [dataset.class_names[c] for c in dataset.class_index()]
    rows = ([*map(repr, values), label] for values, label in zip(raw.tolist(), labels))
    write_csv(path, [c.name for c in dataset.schema] + [dataset.label_column], rows)
