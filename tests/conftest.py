"""Shared fixtures and dataset builders."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dxml import Dataset, LabelSet, SparseRows, SparseVector
from dxml.model_io import FORMAT_VERSION, MAGIC, _array_specs


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")


def sparse(pairs) -> SparseVector:
    """One point from (index, value) pairs, sorted by index, zero values dropped."""
    pairs = sorted((int(i), float(v)) for i, v in pairs if v != 0.0)
    return SparseVector(np.array([i for i, _ in pairs], dtype=np.int32),
                        np.array([v for _, v in pairs], dtype=np.float64))


def rows_of(xs) -> SparseRows:
    """Points as CSR rows, in order: the input of the library's batched functions."""
    indptr = np.zeros(len(xs) + 1, dtype=np.int64)
    np.cumsum(np.array([x.indices.size for x in xs], dtype=np.int64), out=indptr[1:])
    if not xs:
        return SparseRows(indptr, np.empty(0, dtype=np.int32), np.empty(0))
    return SparseRows(indptr, np.concatenate([x.indices for x in xs]).astype(np.int32),
                      np.concatenate([x.values for x in xs]).astype(np.float64))


# ── model files that pass the checksum and fail the structural checks ──


def read_payload(path) -> bytearray:
    """A model file's payload: what lies between its 16-byte prefix and its checksum."""
    with open(path, "rb") as fh:
        return bytearray(fh.read())[16:-32]


def write_payload(path, payload, digest=None):
    """A model file around ``payload``, with its true checksum unless ``digest`` is given."""
    digest = hashlib.sha256(payload).digest() if digest is None else digest
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + bytes(payload) + digest)


def stored_array(payload: bytearray, name: str) -> tuple[int, np.ndarray]:
    """The offset of a stored array in ``payload`` and a writable view of it.

    Any name not in the fixed-order arrays gives the label table after them.
    """
    pos = 4 + struct.unpack_from("<I", payload, 0)[0]
    for array, dtype, shape in _array_specs(json.loads(bytes(payload[4:pos]))["dims"]):
        if array == name:
            break
        pos += math.prod(shape) * np.dtype(dtype).itemsize
    else:
        dtype, shape = "<i4", ((len(payload) - pos) // 4,)
    return pos, np.frombuffer(payload, dtype, math.prod(shape), pos).reshape(shape)


def without_clusters(payload: bytearray) -> bytes:
    """``payload`` with no clusters and no training points; the network is kept."""
    end = 4 + struct.unpack_from("<I", payload, 0)[0]
    header = json.loads(bytes(payload[4:end]))
    header["dims"].update(num_clusters=0, num_train=0)
    header_bytes = json.dumps(header).encode()
    network = payload[end : stored_array(payload, "centers")[0]]
    offsets = np.zeros(1, "<u8").tobytes()  # one point boundary, no label ids after it
    return struct.pack("<I", len(header_bytes)) + header_bytes + network + offsets


def random_dataset(
    rng: np.random.Generator,
    n: int = 30,
    d: int = 12,
    L: int = 6,
    max_labels: int = 3,
    allow_unlabeled: bool = False,
) -> Dataset:
    """Random sparse dataset with nonzero values and valid indices."""
    points = []
    for _ in range(n):
        nnz = int(rng.integers(0, min(d, 6) + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False)).astype(np.int32)
        val = rng.standard_normal(nnz)
        val[val == 0.0] = 1.0
        low = 0 if allow_unlabeled else 1
        n_labels = int(rng.integers(low, max_labels + 1))
        labels = rng.choice(L, size=n_labels, replace=False)
        points.append(
            (SparseVector(idx, val), LabelSet.from_iterable(labels.tolist()))
        )
    return Dataset(num_points=n, num_features=d, num_labels=L, points=points)


@contextlib.contextmanager
def screen_blocks(rows: int):
    """Send every nearest-row search through the screen, ``rows`` queries per block.

    Temporaries are capped at ``rows`` float64 values, so blocks hold
    ``rows`` queries and the exact row sums run a few points per chunk.
    """
    from dxml import cluster

    with mock.patch.multiple(cluster, _SCREEN_ROWS=rows, _CHUNK_BYTES=8 * rows, _EXACT_TABLE=0):
        yield


def planted_dataset(n: int, L: int, seed: int, noise_features: int = 6) -> Dataset:
    """Labels are recoverable: label j owns features 2j and 2j+1."""
    rng = np.random.default_rng(seed)
    d = 2 * L + noise_features
    points = []
    for _ in range(n):
        labels = sorted(rng.choice(L, size=int(rng.integers(1, 4)), replace=False).tolist())
        feats: dict[int, float] = {}
        for j in labels:
            feats[2 * j] = 1.0
            feats[2 * j + 1] = 1.0
        feats[2 * L + int(rng.integers(noise_features))] = 0.5
        points.append(
            (
                sparse(feats.items()),
                LabelSet.from_iterable(labels),
            )
        )
    return Dataset(num_points=n, num_features=d, num_labels=L, points=points)


def _benchmark_paths(name: str) -> tuple[Path, Path] | None:
    train = os.environ.get(f"DXML_{name.upper()}_TRAIN")
    test = os.environ.get(f"DXML_{name.upper()}_TEST")
    if train and test and Path(train).is_file() and Path(test).is_file():
        return Path(train), Path(test)
    root = os.environ.get("DXML_DATA_DIR")
    if root:
        train_p = Path(root) / f"{name}_train.txt"
        test_p = Path(root) / f"{name}_test.txt"
        if train_p.is_file() and test_p.is_file():
            return train_p, test_p
    return None


@pytest.fixture(scope="session")
def data_files(tmp_path_factory):
    """Planted-structure train/test files shared by the command-line tests."""
    from dxml import save_repo_file

    root = tmp_path_factory.mktemp("data")
    train = str(root / "train.txt")
    test = str(root / "test.txt")
    save_repo_file(planted_dataset(n=60, L=6, seed=0), train)
    save_repo_file(planted_dataset(n=20, L=6, seed=1), test)
    return train, test


@pytest.fixture(scope="session")
def bibtex_files():
    paths = _benchmark_paths("bibtex")
    if paths is None:
        pytest.skip(
            "Bibtex benchmark files not found; set DXML_DATA_DIR or "
            "DXML_BIBTEX_TRAIN/DXML_BIBTEX_TEST"
        )
    return paths


@pytest.fixture(scope="session")
def mediamill_files():
    paths = _benchmark_paths("mediamill")
    if paths is None:
        pytest.skip(
            "MediaMill benchmark files not found; set DXML_DATA_DIR or "
            "DXML_MEDIAMILL_TRAIN/DXML_MEDIAMILL_TEST"
        )
    return paths
