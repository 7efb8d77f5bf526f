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
from itertools import chain, islice

import numpy as np

from .nn import Array

CONTINUOUS = "continuous"
BINARY = "binary"
WRITE_BLOCK_ROWS = 512     # rows per block in write_csv


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
        features, mask = self.dataset.features, self.mask
        for what, cells, bad in (("feature", features, ~np.isfinite(features)),
                                 ("mask", mask, (mask != 0) & (mask != 1))):
            if bad.any():
                i, j = np.argwhere(bad)[0]
                raise ValueError(f"{what} cell in column {self.dataset.schema[j].name!r}, row {i}, "
                                 f"is {float(cells[i, j])!r}; features must be finite and "
                                 "mask cells 0 or 1")

    def take_rows(self, idx: Array) -> "IncompleteDataset":
        return IncompleteDataset(self.dataset.take_rows(idx), self.mask[idx])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

class CsvRows(list):
    """Records below a CSV header; lines[i] is the file line record i starts
    on, which messages name as "row N"."""

    lines: list[int]


def read_csv_table(path) -> tuple[list[str], CsvRows]:
    """Read a headered CSV into (header, rows of raw cell strings), skipping
    blank lines; a quoted cell may span lines."""
    rows = CsvRows()
    rows.lines = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row") from None
        start = reader.line_num + 1
        for row in reader:
            if row:
                rows.append(row)
                rows.lines.append(start)
            start = reader.line_num + 1
    seen = set()
    for column in header:
        if column in seen:
            raise ValueError(f"{path}: duplicate column name {column!r} in the header; "
                             "header names must be distinct")
        seen.add(column)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {rows.lines[i]} has {len(row)} cells, expected {len(header)}")
    return header, rows


def write_csv(path, header: list[str], rows) -> None:
    """Write a header and rows of strings, byte for byte as csv.writer does.

    Rows go out in blocks. A block that holds no quote, no delimiter or line
    break inside a cell and no lone empty cell needs no quoting, so it is
    joined directly; any other block is written by csv.writer.
    """
    lines = chain([header], rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        while block := list(islice(lines, WRITE_BLOCK_ROWS)):
            text = "\r\n".join(map(",".join, block)) + "\r\n"
            n = len(block)
            if ('"' in text or text.count(",") != sum(map(len, block)) - n
                    or text.count("\r") != n or text.count("\n") != n or [""] in block):
                csv.writer(fh).writerows(block)
            else:
                fh.write(text)


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


def _first_bad_cell(path, header: list[str], rows: list[list[str]], label_idx: int,
                    allow_missing: bool) -> ValueError:
    """The error for the first bad cell in row-major order: a missing label
    (when cells may be missing), an empty feature cell (when none may be) or
    a feature cell that does not parse."""
    # a plain list of records is read as one line each below a one-line header
    lines = rows.lines if isinstance(rows, CsvRows) else range(2, len(rows) + 2)
    for i, row in zip(lines, rows):
        if allow_missing and row[label_idx].strip() == "":
            return ValueError(f"{path}: row {i}: missing label; labels must be fully observed")
        for j, cell in enumerate(row):
            if j == label_idx:
                continue
            text = cell.strip()
            if text == "":
                if not allow_missing:
                    return ValueError(f"{path}: row {i}, column {header[j]!r}: "
                                      "empty cell in a complete dataset")
                continue
            try:
                float(text)
            except ValueError:
                return ValueError(f"{path}: row {i}, column {header[j]!r}: "
                                  f"cannot parse {text!r} as a number")
    raise AssertionError("no bad cell found")


def parse_table(path, header: list[str], rows: list[list[str]], label_idx: int,
                allow_missing: bool) -> tuple[Array, Array, list[str]]:
    """Parse the cells of a table into (raw features, mask, stripped labels).

    Feature cells are stripped; an empty one is missing (mask 0, raw 0.0)
    when allow_missing, and an error otherwise. Every other feature cell is
    converted with float(). On failure the error names the first bad cell
    in row-major order.
    """
    n, width = len(rows), len(header)
    cells = list(map(str.strip, chain.from_iterable(rows)))
    labels = cells[label_idx::width]
    del cells[label_idx::width]
    observed = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    values = None
    if (allow_missing and all(labels)) or (not allow_missing and observed.all()):
        try:
            values = np.fromiter(map(float, filter(None, cells)), dtype=np.float64,
                                 count=int(observed.sum()))
        except ValueError:
            pass
    if values is None:
        raise _first_bad_cell(path, header, rows, label_idx, allow_missing)
    raw = np.zeros(len(cells))
    raw[observed] = values
    shape = (n, width - 1)
    return raw.reshape(shape), observed.reshape(shape).astype(np.float64), labels


def _load_table(path, label_column, schema_overrides, name, table, allow_missing: bool,
                mask_path=None) -> tuple[Dataset, Array]:
    """(dataset, mask) of a labeled CSV, for load_csv and load_incomplete_csv."""
    header, rows = table if table is not None else read_csv_table(path)
    label_idx = _resolve_label_column(header, label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    raw, mask, label_values = parse_table(path, header, rows, label_idx, allow_missing)

    if mask_path is not None:
        file_mask = load_mask_csv(mask_path, expected_columns=feature_names)
        if file_mask.shape != mask.shape:
            raise ValueError(f"mask file shape {file_mask.shape} does not match data {mask.shape}")
        if not np.array_equal(file_mask, mask):
            raise ValueError(f"{mask_path}: mask disagrees with the empty-cell pattern of {path}")

    stem = name if name is not None else os.path.splitext(os.path.basename(str(path)))[0]
    ds = build_dataset(raw, label_values, feature_names, label_column=header[label_idx],
                       schema_overrides=schema_overrides, name=stem,
                       observed_mask=mask if allow_missing else None)
    return ds, mask


def load_csv(path, label_column, schema_overrides: dict | None = None, name: str | None = None,
             *, table: tuple[list[str], list[list[str]]] | None = None) -> Dataset:
    """Load a fully observed labeled CSV.

    Every non-label cell must parse as a number; corruption is injected
    separately, so empty cells are a load error here. table, when given, is
    the file's (header, rows) as read_csv_table returned them; path then
    only names the file in messages and the dataset.
    """
    return _load_table(path, label_column, schema_overrides, name, table, allow_missing=False)[0]


def load_incomplete_csv(path, label_column, schema_overrides: dict | None = None,
                        mask_path=None, name: str | None = None,
                        *, table: tuple[list[str], list[list[str]]] | None = None) -> IncompleteDataset:
    """Load a labeled CSV where empty feature cells mean missing.

    Column statistics come from observed entries only. If mask_path is given
    the 0/1 mask file must agree with the empty-cell pattern. table is as
    for load_csv.
    """
    return IncompleteDataset(*_load_table(path, label_column, schema_overrides, name, table,
                                          allow_missing=True, mask_path=mask_path))


def load_mask_csv(path, expected_columns: list[str] | None = None) -> Array:
    header, rows = read_csv_table(path)
    if expected_columns is not None and header != expected_columns:
        raise ValueError(f"{path}: mask columns {header} do not match data feature columns {expected_columns}")
    cells = list(map(str.strip, chain.from_iterable(rows)))
    ones = np.fromiter(map("1".__eq__, cells), dtype=bool, count=len(cells))
    valid = ones | np.fromiter(map("0".__eq__, cells), dtype=bool, count=len(cells))
    if not valid.all():
        k = int(np.argmin(valid))
        raise ValueError(f"{path}: row {rows.lines[k // len(header)]}, column {header[k % len(header)]!r}: "
                         f"mask cells must be 0 or 1, got {cells[k]!r}")
    return ones.reshape(len(rows), len(header)).astype(np.float64)


def write_mask_csv(path, mask: Array, feature_names: list[str]) -> None:
    mask = np.asarray(mask, dtype=int)
    values, codes = np.unique(mask, return_inverse=True)   # format each distinct value once
    texts = list(map(str, values.tolist()))
    rows = ([*map(texts.__getitem__, row)] for row in codes.reshape(mask.shape).tolist())
    write_csv(path, feature_names, rows)


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
