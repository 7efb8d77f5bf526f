import json
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))   # makes oracles importable

from cgain.data import Dataset, ColumnSpec, IncompleteDataset, build_dataset


def toy_dataset(n=12, d=4, seed=0, binary_col=True, n_classes=2, name="toy") -> Dataset:
    """Small random dataset with an optional binary column, built on raw scale."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.0, 10.0, size=(n, d))
    if binary_col:
        raw[:, -1] = rng.integers(0, 2, size=n)
    labels = [str(int(c)) for c in rng.integers(0, n_classes, size=n)]
    # make sure every class appears at least twice
    for c in range(n_classes):
        if 2 * c + 1 < n:
            labels[2 * c] = str(c)
            labels[2 * c + 1] = str(c)
    names = [f"c{j}" for j in range(d)]
    return build_dataset(raw, labels, names, name=name)


def assert_same_bits(actual, expected):
    """Identical float64 bit patterns (so 0.0 and -0.0 differ); NaN cells
    only need to be NaN in both."""
    actual, expected = np.asarray(actual, dtype=np.float64), np.asarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


@pytest.fixture
def dataset() -> Dataset:
    return toy_dataset()


def random_incomplete(dataset: Dataset, rate=0.3, seed=1) -> IncompleteDataset:
    from cgain.data import corrupt_mcar
    from cgain.nn import make_rng
    return corrupt_mcar(dataset, rate, make_rng(seed))


def _with_config_key(blob: bytes, version: int, key: str, value) -> bytes:
    """The model file repacked as the given version, with key set in its config."""
    (n,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + n])
    header["config"][key] = value
    packed = json.dumps(header, sort_keys=True).encode()
    return blob[:8] + struct.pack("<IQ", version, len(packed)) + packed + blob[20 + n:]


def as_format_v3(blob: bytes) -> bytes:
    """A format-4 model file repacked as format 3 laid it out: version 3 and
    the config key v4 dropped, `adversarial_sign`, set to "gain"."""
    return _with_config_key(blob, 3, "adversarial_sign", "gain")


def as_format_v2(blob: bytes) -> bytes:
    """A format-4 model file repacked as format 2 laid it out: format 3's
    layout at version 2, with the config key v3 dropped, `optimizer`, set to "adam"."""
    return _with_config_key(as_format_v3(blob), 2, "optimizer", "adam")


def as_format_v1(blob: bytes) -> bytes:
    """A format-4 model file repacked as format 1 laid it out: version 1,
    format 2's config, the header keys v2 dropped (all but the array list)
    and the weights widened to float64."""
    blob = as_format_v2(blob)
    (n,) = struct.unpack_from("<Q", blob, 12)
    header = json.loads(blob[20:20 + n])
    header.update(format_version=1, n_features=len(header["column_kinds"]),
                  conditional=header["config"]["conditional"],
                  generator_activations=["relu", "sigmoid"], discriminator_activations=["relu", "sigmoid"])
    packed = json.dumps(header, sort_keys=True).encode()
    weights = np.frombuffer(blob, dtype="<f4", offset=20 + n).astype("<f8").tobytes()
    return blob[:8] + struct.pack("<IQ", 1, len(packed)) + packed + weights
