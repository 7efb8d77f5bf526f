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
    def column_kinds(self) -> tuple[str, ...]:
        return tuple(c.kind for c in self.schema)

    def class_index(self) -> Array:
        """Integer class per row, matching class_names order."""
        return np.argmax(self.labels, axis=1)

    def class_position(self, ref) -> int:
        """The index of class ref, a class name or else a 0-based index, by resolve_name."""
        return resolve_name(self.class_names, ref, "class", "class", "classes")

    def take_rows(self, idx: Array) -> "Dataset":
        return replace(self, features=self.features[idx], labels=self.labels[idx])


@dataclass
class IncompleteDataset:
    """Dataset plus observed/missing mask; masked cells must be zeroed (0 or
    -0.0), or the pair is refused when it is built."""

    dataset: Dataset
    mask: Array                     # (n, d) of {0, 1}, 1 = observed

    def __post_init__(self):
        if self.mask.shape != self.dataset.features.shape:
            raise ValueError(
                f"mask shape {self.mask.shape} does not match features {self.dataset.features.shape}")
        self.require(np.isfinite(self.dataset.features), (self.mask == 0) | (self.mask == 1),
                     "features must be finite and mask cells 0 or 1")
        self.require((self.mask == 1) | (self.dataset.features == 0), np.True_,
                     "a missing cell (mask 0) must hold 0, so its hidden value cannot be read")

    def require(self, features_ok: Array, mask_ok: Array, rule: str) -> None:
        """ValueError naming the first feature, then mask, cell not ok, by column and 0-based row."""
        for what, cells, ok in (("feature", self.dataset.features, features_ok), ("mask", self.mask, mask_ok)):
            if not ok.all():
                i, j = np.argwhere(~ok)[0]
                raise ValueError(f"{what} cell in column {self.dataset.schema[j].name!r}, row {i}, "
                                 f"is {float(cells[i, j])!r}; {rule}")

    def take_rows(self, idx: Array) -> "IncompleteDataset":
        return IncompleteDataset(self.dataset.take_rows(idx), self.mask[idx])


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

class CsvRows(list):
    """Records below a CSV header; lines[i] is the file line record i starts
    on, which messages name as "row N"."""

    lines: list[int]


def _drain(lines: list[str]):
    """Yield each line, dropping the list's reference to it, so a file's
    text is not held twice while its cells are split out."""
    for k, line in enumerate(lines):
        lines[k] = None
        yield line


def _records(lines: list[str]):
    """(file line, cells) for each record in lines, as csv.reader reads them.

    A file whose lines hold no quote and no NUL has one record per line,
    split at commas directly. Any other file, and one with a line longer
    than csv's field size limit (so that its error is kept), goes through
    csv.reader.
    """
    if (any('"' in line or "\0" in line for line in lines)
            or max(map(len, lines), default=0) > csv.field_size_limit()):
        reader = csv.reader(_drain(lines))
        start = 1
        for row in reader:
            yield start, row
            start = reader.line_num + 1
        return
    for k, line in enumerate(_drain(lines), 1):
        line = line.rstrip("\r\n")
        yield k, line.split(",") if line else []


def read_csv_table(path) -> tuple[list[str], CsvRows]:
    """Read a headered CSV into (header, rows of raw cell strings), skipping
    blank lines; a quoted cell may span lines. A leading UTF-8 byte-order
    mark, as Excel writes, is dropped."""
    # newline="" splits lines at \r\n, \n and a lone \r, where csv.reader splits them
    with open(path, newline="", encoding="utf-8-sig") as fh:
        records = _records(fh.readlines())
    _, header = next(records, (0, None))
    if header is None:
        raise ValueError(f"{path}: empty file, expected a header row")
    rows = CsvRows()
    rows.lines = []
    for line, row in records:
        if row:
            rows.append(row)
            rows.lines.append(line)
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


def resolve_name(names: list[str], ref, what: str = "label column", kind: str = "header",
                 unit: str = "columns") -> int:
    """The index that ref picks in names: a name wins; otherwise ref is a
    0-based index, an integer (NumPy integers included) or a string of ASCII
    digits. A bool, a float or other text is refused with ValueError, worded
    by what, kind and unit."""
    if ref in names:
        return names.index(ref)
    if isinstance(ref, str) and not (ref.isascii() and ref.isdigit()):
        raise ValueError(f"{what} {ref!r} not found in {kind} names {names}")
    if isinstance(ref, bool) or not isinstance(ref, (str, int, np.integer)):
        raise ValueError(f"{what} must be a {kind} name or a 0-based index, got {ref!r}")
    index = int(ref)
    if not 0 <= index < len(names):
        raise ValueError(f"{what} index {index} out of range for {len(names)} {unit}")
    return index


def _sorted_class_names(values: list[str]) -> list[str]:
    """Distinct label values in sorted order (numeric when all parse)."""
    distinct = sorted(set(values))
    try:
        return sorted(distinct, key=float)
    except ValueError:
        return distinct


def build_dataset(raw: Array, label_values: list[str], feature_names: list[str],
                  label_column: str = "label", name: str = "",
                  observed_mask: Array | None = None) -> Dataset:
    """Type columns, normalize to [0, 1] with normalize, and one-hot encode labels.

    raw is the unnormalized (n, d) feature matrix; every observed cell must
    be finite. A column whose observed values are all 0 or 1 is binary, any
    other continuous. If observed_mask is given, column statistics and the
    binary check use observed entries only (missing cells of raw are ignored, 0 in the features).
    """
    raw = np.asarray(raw, dtype=np.float64)
    n, d = raw.shape
    if n < 1 or d < 1:
        raise ValueError(f"need at least one row and one feature column, got {raw.shape}")
    if observed_mask is not None:
        raw = np.where(observed_mask == 0, 0.0, raw)
    finite = np.isfinite(raw)
    bad = np.flatnonzero(~finite.all(axis=0))
    if bad.size:
        j = int(bad[0])
        value = raw[np.argmin(finite[:, j]), j]
        raise ValueError(f"column {feature_names[j]!r} holds a non-finite value ({value}); "
                         "feature cells must be finite numbers")

    schema: list[ColumnSpec] = []
    for j, col_name in enumerate(feature_names):
        obs = raw[:, j] if observed_mask is None else raw[observed_mask[:, j] == 1, j]
        if obs.size == 0:
            raise ValueError(f"column {col_name!r} has no observed values")
        if np.all((obs == 0.0) | (obs == 1.0)):
            schema.append(ColumnSpec(col_name, BINARY, 0.0, 1.0))
        else:
            lo, hi = float(obs.min()), float(obs.max())
            if lo >= hi:
                raise ValueError(
                    f"column {col_name!r} is constant ({lo}); min-max normalization undefined")
            schema.append(ColumnSpec(col_name, CONTINUOUS, lo, hi))
    features = normalize(schema, raw)

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
    """The error for the first bad cell in row-major order: a missing label,
    an empty feature cell (when none may be) or a feature cell that does not
    parse."""
    # a plain list of records is read as one line each below a one-line header
    lines = rows.lines if isinstance(rows, CsvRows) else range(2, len(rows) + 2)
    for i, row in zip(lines, rows):
        if row[label_idx].strip() == "":
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

    Every label must be non-empty. Feature cells are stripped; an empty one
    is missing (mask 0, raw 0.0) when allow_missing, and an error otherwise.
    Every other feature cell is converted with float(). On failure the error
    names the first bad cell in row-major order.
    """
    n, width = len(rows), len(header)
    cells = list(map(str.strip, chain.from_iterable(rows)))
    labels = cells[label_idx::width]
    del cells[label_idx::width]
    observed = np.fromiter(map(bool, cells), dtype=bool, count=len(cells))
    values = None
    if all(labels) and (allow_missing or observed.all()):
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


def _load_table(path, label_column, table, allow_missing: bool,
                mask_path=None) -> tuple[Dataset, Array]:
    """(dataset, mask) of a labeled CSV, for load_csv and load_incomplete_csv."""
    header, rows = table if table is not None else read_csv_table(path)
    label_idx = resolve_name(header, label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    raw, mask, label_values = parse_table(path, header, rows, label_idx, allow_missing)

    if mask_path is not None:
        file_mask = load_mask_csv(mask_path, expected_columns=feature_names)
        if file_mask.shape != mask.shape:
            raise ValueError(f"mask file shape {file_mask.shape} does not match data {mask.shape}")
        if not np.array_equal(file_mask, mask):
            raise ValueError(f"{mask_path}: mask disagrees with the empty-cell pattern of {path}")

    stem = os.path.splitext(os.path.basename(str(path)))[0]
    ds = build_dataset(raw, label_values, feature_names, label_column=header[label_idx], name=stem,
                       observed_mask=mask if allow_missing else None)
    return ds, mask


def load_csv(path, label_column, *, table: tuple[list[str], list[list[str]]] | None = None) -> Dataset:
    """Load a fully observed labeled CSV, named by the file stem; each
    column's kind is inferred from its values as build_dataset does.
    label_column is a header name, or else a 0-based index.

    Every non-label cell must parse as a number; corruption is injected
    separately, so empty cells are a load error here. table, when given, is
    the file's (header, rows) as read_csv_table returned them; path then
    only names the file in messages and the dataset.
    """
    return _load_table(path, label_column, table, allow_missing=False)[0]


def load_incomplete_csv(path, label_column, *, mask_path=None,
                        table: tuple[list[str], list[list[str]]] | None = None) -> IncompleteDataset:
    """Load a labeled CSV where empty feature cells mean missing; the label
    column is found as for load_csv.

    Column statistics come from observed entries only. If mask_path is given
    the 0/1 mask file must agree with the empty-cell pattern. table is as
    for load_csv.
    """
    return IncompleteDataset(*_load_table(path, label_column, table, allow_missing=True,
                                          mask_path=mask_path))


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
    """Write a 0/1 mask under a header of feature names with write_csv. A
    cell that is not 0 or 1 is refused with ValueError."""
    mask = np.asarray(mask)
    ones = mask == 1
    bad = ~(ones | (mask == 0))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"mask cell in column {feature_names[j]!r}, row {i}, is {float(mask[i, j])!r}; "
                         "mask cells must be 0 or 1")
    write_csv(path, feature_names, (row.tolist() for row in np.where(ones, "1", "0")))


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
    """Thin one class of a binary dataset until the minority class holds the
    target share.

    When the table has enough minority rows, all majority rows are kept and
    round(f * n_majority / (1 - f)) minority rows are sampled without
    replacement. Otherwise all minority rows are kept and
    round(n_minority * (1 - f) / f) majority rows are sampled. Either way
    minority/(minority+majority) hits minority_fraction to within one row,
    and the result is re-shuffled.
    """
    if dataset.n_classes != 2:
        raise ValueError(f"imbalance subsampling needs a binary dataset, got {dataset.n_classes} classes")
    if not 0.0 < minority_fraction <= 0.5:
        raise ValueError(f"minority fraction must be in (0, 0.5], got {minority_fraction}")
    minority_idx = dataset.class_position(minority_class)
    cls = dataset.class_index()
    minority_rows = np.flatnonzero(cls == minority_idx)
    majority_rows = np.flatnonzero(cls != minority_idx)
    n_major = majority_rows.size
    # solve n1 / (n0 + n1) = f  ->  n1 = f * n0 / (1 - f)
    target = int(round(minority_fraction * n_major / (1.0 - minority_fraction)))
    if target < 1:
        raise ValueError(f"target minority count {target} is below 1; fraction too small for this dataset")
    if target <= minority_rows.size:
        keep = np.concatenate([majority_rows, rng.choice(minority_rows, size=target, replace=False)])
    elif minority_rows.size == 0:
        raise ValueError(f"class {dataset.class_names[minority_idx]!r} has no rows")
    else:
        # the table's own minority share is below the target: thin the majority
        n_keep = int(round(minority_rows.size * (1.0 - minority_fraction) / minority_fraction))
        keep = np.concatenate([rng.choice(majority_rows, size=n_keep, replace=False), minority_rows])
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

def _scale(schema: list[ColumnSpec], values: Array) -> tuple[Array, Array, Array]:
    """(values as float64, lo, hi - lo) of a (n, len(schema)) array, with one lo and one hi per column."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(schema):
        raise ValueError(f"values shape {values.shape} does not match schema width {len(schema)}")
    lo, hi = (np.array([getattr(spec, end) for spec in schema], dtype=np.float64) for end in ("lo", "hi"))
    return values, lo, hi - lo


def denormalize(schema: list[ColumnSpec], values: Array, round_binary: bool = False) -> Array:
    """Map [0, 1] values back to raw scale: raw = lo + v * (hi - lo).

    With round_binary, binary columns snap to the nearest of {0, 1}.
    """
    values, lo, span = _scale(schema, values)
    out = lo + values * span
    if round_binary:
        binary = [spec.kind == BINARY for spec in schema]
        out[:, binary] = out[:, binary] >= 0.5
    return out


def normalize(schema: list[ColumnSpec], raw: Array) -> Array:
    """Inverse of denormalize for values inside each column's (lo, hi) range:
    v = (raw - lo) / (hi - lo)."""
    raw, lo, span = _scale(schema, raw)
    return (raw - lo) / span
