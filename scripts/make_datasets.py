#!/usr/bin/env python3
"""Materialize the benchmark tables as CSVs under data/.

breast_cancer.csv is the real Wisconsin diagnostic table (via scikit-learn);
the other tables are synthetic class-conditional stand-ins matching the
shapes and class balances of the corresponding UCI datasets. Without
scikit-learn the stand-ins are still written, breast_cancer.csv is skipped
with one line on stderr, and the exit status is 0.
"""

import argparse
import sys
from pathlib import Path

from cgain.datasets import (credit_like, letter_like, load_breast_cancer_dataset,
                            spambase_like, write_dataset_csv)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="data", type=Path)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    tables = {}
    try:
        tables["breast_cancer.csv"] = load_breast_cancer_dataset()
    except ImportError as exc:
        print(f"skipped breast_cancer.csv: {exc}", file=sys.stderr)
    tables.update({
        "spambase_like.csv": spambase_like(),
        "credit_like.csv": credit_like(),
        "letter_like.csv": letter_like(),
    })
    for filename, dataset in tables.items():
        path = args.out_dir / filename
        write_dataset_csv(path, dataset)
        print(f"wrote {path} ({dataset.n_rows} rows, {dataset.n_features} features, "
              f"{dataset.n_classes} classes, label column {dataset.label_column!r})")


if __name__ == "__main__":
    main()
