"""Labeled tabular data: CSV ingestion, per-column typing and min-max
normalization, MCAR corruption masks, class-imbalance subsampling, and
stratified fold splits.

Conventions: feature matrices are float64 (n, d) arrays normalized to
[0, 1]; labels are one-hot (n, m) with every row summing to 1; a mask entry
of 1 means observed, 0 means missing. Labels are always fully observed.
Missingness is carried by the mask alone; masked-out feature cells are
zeroed so a leaked value can never be read back.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace

import numpy as np

from .nn import Array

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass(frozen=True)
class ColumnSpec:
    """Per-feature typing plus the raw-scale range used for normalization.

    Binary columns carry (lo, hi) = (0, 1) so normalization is the identity.
    """

    name: str
    kind: str
    lo: float
    hi: float


@dataclass
class Dataset:
    """Fully observed, normalized feature matrix with one-hot class labels."""

    features: Array                 # (n, d) in [0, 1]
    labels: Array                   # (n, m) one-hot
    schema: list[ColumnSpec]
    class_names: list[str]
    label_column: str = "label"
    name: str = ""

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return self.labels.shape[1]

    @property
    def column_kinds(self) -> list[str]:
        return [c.kind for c in self.schema]

    def class_index(self) -> Array:
        """Integer class per row, matching class_names order."""
        return np.argmax(self.labels, axis=1)

    def take_rows(self, idx: Array) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


@dataclass
class IncompleteDataset:
    """Dataset plus observed/missing mask; masked cells are zeroed."""

    dataset: Dataset
    mask: Array                     # (n, d) of {0, 1}, 1 = observed

    def __post_init__(self):
        if self.mask.shape != self.dataset.features.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match features {self.dataset.features.shape}")

    @property
    def x_tilde(self) -> Array:
        """Feature matrix with zeros at missing cells."""
        return self.dataset.features

    def take_rows(self, idx: Array) -> "IncompleteDataset":
        return IncompleteDataset(self.dataset.take_rows(idx), self.mask[idx])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def read_csv_table(path) -> tuple[list[str], list[list[str]]]:
    """Read a headered CSV into (header, rows of raw cell strings)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        rows = [row for row in reader if row]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
    return header, rows


def _resolve_label_column(header: list[str], label_column) -> int:
    if isinstance(label_column, int):
        if not 0 <= label_column < len(header):
            raise ValueError(f"label column index {label_column} out of range for {len(header)} columns")
        return label_column
    if label_column not in header:
        raise ValueError(f"label column {label_column!r} not found in header {header}")
    return header.index(label_column)


def _sorted_class_names(values: list[str]) -> list[str]:
    """Distinct label values in sorted order (numeric when all parse)."""
    distinct = sorted(set(values))
    try:
        return sorted(distinct, key=float)
    except ValueError:
        return distinct


def _parse_cell(text: str, row: int, col_name: str, path="") -> float:
    try:
        return float(text)
    except ValueError:
        where = f"{path}: " if path else ""
        raise ValueError(f"{where}row {row}, column {col_name!r}: cannot parse {text!r} as a number") from None


def build_dataset(raw: Array, label_values: list[str], feature_names: list[str],
                  label_column: str = "label", schema_overrides: dict | None = None,
                  name: str = "", observed_mask: Array | None = None) -> Dataset:
    """Type columns, normalize to [0, 1], and one-hot encode labels.

    raw is the unnormalized (n, d) feature matrix; every observed cell must
    be finite. If observed_mask is given, column statistics and the binary
    check use observed entries only (missing cells of raw are ignored).
    """
    raw = np.asarray(raw, dtype=np.float64)
    n, d = raw.shape
    if n < 1 or d < 1:
        raise ValueError(f"need at least one row and one feature column, got {raw.shape}")
    finite = np.isfinite(raw)
    if observed_mask is not None:
        finite |= observed_mask == 0
    bad = np.flatnonzero(~finite.all(axis=0))
    if bad.size:
        j = int(bad[0])
        value = raw[np.argmin(finite[:, j]), j]
        raise ValueError(f"column {feature_names[j]!r} holds a non-finite value ({value}); "
                         "feature cells must be finite numbers")
    overrides = dict(schema_overrides or {})
    for key in overrides:
        if key not in feature_names:
            raise ValueError(f"schema override for unknown column {key!r}")

    schema: list[ColumnSpec] = []
    features = np.zeros_like(raw)
    for j, col_name in enumerate(feature_names):
        col = raw[:, j]
        obs = col if observed_mask is None else col[observed_mask[:, j] == 1]
        if obs.size == 0:
            raise ValueError(f"column {col_name!r} has no observed values")
        is_binary = bool(np.all((obs == 0.0) | (obs == 1.0)))
        kind = overrides.get(col_name, BINARY if is_binary else CONTINUOUS)
        if kind not in (BINARY, CONTINUOUS):
            raise ValueError(f"unknown column kind {kind!r} for {col_name!r}")
        if kind == BINARY:
            if not is_binary:
                raise ValueError(f"column {col_name!r} declared binary but has values outside {{0, 1}}")
            schema.append(ColumnSpec(col_name, BINARY, 0.0, 1.0))
            features[:, j] = col
        else:
            lo, hi = float(obs.min()), float(obs.max())
            if lo >= hi:
                raise ValueError(
                    f"column {col_name!r} is constant ({lo}); min-max normalization undefined")
            schema.append(ColumnSpec(col_name, CONTINUOUS, lo, hi))
            features[:, j] = (col - lo) / (hi - lo)

    class_names = _sorted_class_names(label_values)
    if len(class_names) < 2:
        raise ValueError(f"label column has a single class {class_names}; need at least 2")
    index = {c: i for i, c in enumerate(class_names)}
    labels = np.zeros((n, len(class_names)))
    labels[np.arange(n), [index[v] for v in label_values]] = 1.0

    if observed_mask is not None:
        features = features * observed_mask
    return Dataset(features=features, labels=labels, schema=schema,
                   class_names=class_names, label_column=label_column, name=name)


def load_csv(path, label_column, schema_overrides: dict | None = None, name: str | None = None) -> Dataset:
    """Load a fully observed labeled CSV.

    Every non-label cell must parse as a number; corruption is injected
    separately, so empty cells are a load error here.
    """
    header, rows = read_csv_table(path)
    label_idx = _resolve_label_column(header, label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]

    raw = np.zeros((len(rows), len(feature_names)))
    label_values = []
    for i, row in enumerate(rows):
        label_values.append(row[label_idx].strip())
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            text = cell.strip()
            if text == "":
                raise ValueError(f"{path}: row {i + 2}, column {header[j]!r}: empty cell in a complete dataset")
            raw[i, k] = _parse_cell(text, i + 2, header[j], path=str(path))
            k += 1

    stem = name if name is not None else os.path.splitext(os.path.basename(str(path)))[0]
    return build_dataset(raw, label_values, feature_names, label_column=header[label_idx],
                         schema_overrides=schema_overrides, name=stem)


def load_incomplete_csv(path, label_column, schema_overrides: dict | None = None,
                        mask_path=None, name: str | None = None) -> IncompleteDataset:
    """Load a labeled CSV where empty feature cells mean missing.

    Column statistics come from observed entries only. If mask_path is given
    the 0/1 mask file must agree with the empty-cell pattern.
    """
    header, rows = read_csv_table(path)
    label_idx = _resolve_label_column(header, label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]

    raw = np.zeros((len(rows), len(feature_names)))
    mask = np.ones((len(rows), len(feature_names)))
    label_values = []
    for i, row in enumerate(rows):
        text = row[label_idx].strip()
        if text == "":
            raise ValueError(f"{path}: row {i + 2}: missing label; labels must be fully observed")
        label_values.append(text)
        k = 0
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            text = cell.strip()
            if text == "":
                mask[i, k] = 0.0
            else:
                raw[i, k] = _parse_cell(text, i + 2, header[j], path=str(path))
            k += 1

    if mask_path is not None:
        file_mask = load_mask_csv(mask_path, expected_columns=feature_names)
        if file_mask.shape != mask.shape:
            raise ValueError(f"mask file shape {file_mask.shape} does not match data {mask.shape}")
        if not np.array_equal(file_mask, mask):
            raise ValueError(f"{mask_path}: mask disagrees with the empty-cell pattern of {path}")

    stem = name if name is not None else os.path.splitext(os.path.basename(str(path)))[0]
    ds = build_dataset(raw, label_values, feature_names, label_column=header[label_idx],
                       schema_overrides=schema_overrides, name=stem, observed_mask=mask)
    return IncompleteDataset(ds, mask)


def load_mask_csv(path, expected_columns: list[str] | None = None) -> Array:
    header, rows = read_csv_table(path)
    if expected_columns is not None and header != expected_columns:
        raise ValueError(f"{path}: mask columns {header} do not match data feature columns {expected_columns}")
    mask = np.zeros((len(rows), len(header)))
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            v = cell.strip()
            if v not in ("0", "1"):
                raise ValueError(f"{path}: row {i + 2}, column {header[j]!r}: mask cells must be 0 or 1, got {v!r}")
            mask[i, j] = float(v)
    return mask


def write_mask_csv(path, mask: Array, feature_names: list[str]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(feature_names)
        for row in np.asarray(mask, dtype=int):
            writer.writerow(list(row))


# ---------------------------------------------------------------------------
# corruption, subsampling, folds
# ---------------------------------------------------------------------------

def uncorrupted(dataset: Dataset) -> IncompleteDataset:
    """Wrap a complete dataset with an all-ones mask."""
    return IncompleteDataset(dataset, np.ones_like(dataset.features))


def corrupt_mcar(dataset: Dataset, missing_rate: float, rng: np.random.Generator) -> IncompleteDataset:
    """Hide each feature cell independently with the given probability.

    Labels are never corrupted. The returned features are zeroed at missing
    cells; keep the original dataset around for evaluation against truth.
    """
    if not 0.0 < missing_rate < 1.0:
        raise ValueError(f"missing rate must be in (0, 1), got {missing_rate}")
    mask = (rng.random(dataset.features.shape) >= missing_rate).astype(np.float64)
    corrupted = replace(dataset, features=dataset.features * mask)
    return IncompleteDataset(corrupted, mask)


def subsample_imbalance(dataset: Dataset, minority_class, minority_fraction: float,
                        rng: np.random.Generator) -> Dataset:
    """Thin one class of a binary dataset until it holds the target share.

    All rows of the other class are kept; minority rows are sampled without
    replacement so that minority/(minority+majority) hits minority_fraction
    to within one row. The result is re-shuffled.
    """
    if dataset.n_classes != 2:
        raise ValueError(f"imbalance subsampling needs a binary dataset, got {dataset.n_classes} classes")
    if not 0.0 < minority_fraction <= 0.5:
        raise ValueError(f"minority fraction must be in (0, 0.5], got {minority_fraction}")
    if isinstance(minority_class, str):
        if minority_class not in dataset.class_names:
            raise ValueError(f"unknown class {minority_class!r}; classes are {dataset.class_names}")
        minority_idx = dataset.class_names.index(minority_class)
    else:
        minority_idx = int(minority_class)
        if minority_idx not in (0, 1):
            raise ValueError(f"minority class index must be 0 or 1, got {minority_idx}")

    cls = dataset.class_index()
    minority_rows = np.flatnonzero(cls == minority_idx)
    majority_rows = np.flatnonzero(cls != minority_idx)
    n_major = majority_rows.size
    # solve n1 / (n0 + n1) = f  ->  n1 = f * n0 / (1 - f)
    target = int(round(minority_fraction * n_major / (1.0 - minority_fraction)))
    if target < 1:
        raise ValueError(f"target minority count {target} is below 1; fraction too small for this dataset")
    if target > minority_rows.size:
        raise ValueError(
            f"class {dataset.class_names[minority_idx]!r} has {minority_rows.size} rows, "
            f"fewer than the {target} needed for fraction {minority_fraction}")
    keep_minor = rng.choice(minority_rows, size=target, replace=False)
    keep = np.concatenate([majority_rows, keep_minor])
    rng.shuffle(keep)
    return dataset.take_rows(keep)


def split_folds(dataset: Dataset, k: int, rng: np.random.Generator) -> list[Array]:
    """Disjoint stratified row-index folds covering every row.

    Per-class counts differ by at most one across folds.
    """
    if k < 2:
        raise ValueError(f"need at least 2 folds, got {k}")
    cls = dataset.class_index()
    folds: list[list[int]] = [[] for _ in range(k)]
    for c in range(dataset.n_classes):
        rows = np.flatnonzero(cls == c)
        if rows.size < k:
            raise ValueError(
                f"class {dataset.class_names[c]!r} has {rows.size} rows, fewer than k={k}")
        rows = rows.copy()
        rng.shuffle(rows)
        for i, r in enumerate(rows):
            folds[i % k].append(int(r))
    return [np.array(sorted(f), dtype=int) for f in folds]


# ---------------------------------------------------------------------------
# scale round-tripping
# ---------------------------------------------------------------------------

def denormalize(schema: list[ColumnSpec], values: Array, round_binary: bool = False) -> Array:
    """Map [0, 1] values back to raw scale: raw = lo + v * (hi - lo).

    With round_binary, binary columns snap to the nearest of {0, 1}.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(schema):
        raise ValueError(f"values shape {values.shape} does not match schema width {len(schema)}")
    out = np.empty_like(values)
    for j, spec in enumerate(schema):
        out[:, j] = spec.lo + values[:, j] * (spec.hi - spec.lo)
        if round_binary and spec.kind == BINARY:
            out[:, j] = np.where(out[:, j] >= 0.5, 1.0, 0.0)
    return out


def normalize(schema: list[ColumnSpec], raw: Array) -> Array:
    """Inverse of denormalize for values inside each column's (lo, hi) range."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != len(schema):
        raise ValueError(f"values shape {raw.shape} does not match schema width {len(schema)}")
    out = np.empty_like(raw)
    for j, spec in enumerate(schema):
        out[:, j] = (raw[:, j] - spec.lo) / (spec.hi - spec.lo)
    return out
