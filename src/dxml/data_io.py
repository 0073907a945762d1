"""Sparse dataset model and text-format I/O.

The on-disk format is the one used by the public extreme-classification
benchmark files: a header line ``n d L`` followed by one line per data point,

    lbl,lbl,... idx:val idx:val ...

The label field is a comma-separated list of 0-based label indices and may be
empty, in which case the line starts with a space.  Feature indices are
0-based and strictly increasing within a line.  Files are UTF-8 with LF or
CRLF line endings.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .errors import DataFormatError, ValidationError

__all__ = [
    "SparseVector",
    "LabelSet",
    "Dataset",
    "parse_repo_file",
    "write_repo_file",
    "load_repo_file",
    "save_repo_file",
    "normalize_features",
]

NORMALIZATION_SCHEMES = ("none", "unit_l2")


@dataclass(frozen=True, eq=False)
class SparseVector:
    """Sparse real vector stored as parallel index/value arrays.

    Indices are strictly increasing; explicit zeros are never stored.
    """

    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, float]]) -> "SparseVector":
        pairs = [(int(i), float(v)) for i, v in pairs if v != 0.0]
        if not pairs:
            return cls(np.empty(0, dtype=np.int32), np.empty(0, dtype=np.float64))
        idx = np.array([p[0] for p in pairs], dtype=np.int32)
        val = np.array([p[1] for p in pairs], dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        idx, val = idx[order], val[order]
        if np.any(np.diff(idx) <= 0):
            raise ValidationError("duplicate feature index in sparse vector")
        return cls(idx, val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def validate(self, num_features: int) -> None:
        if self.indices.size != self.values.size:
            raise ValidationError("index/value arrays differ in length")
        if self.indices.size == 0:
            return
        if self.indices[0] < 0 or self.indices[-1] >= num_features:
            raise ValidationError("feature index out of range")
        if np.any(np.diff(self.indices) <= 0):
            raise ValidationError("feature indices not strictly increasing")
        if np.any(self.values == 0.0):
            raise ValidationError("explicit zero value stored")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite feature value")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Sorted set of 0-based label indices; may be empty."""

    ids: np.ndarray

    @classmethod
    def from_iterable(cls, labels: Iterable[int]) -> "LabelSet":
        uniq = sorted({int(x) for x in labels})
        return cls(np.array(uniq, dtype=np.int32))

    @classmethod
    def empty(cls) -> "LabelSet":
        return cls(np.empty(0, dtype=np.int32))

    def validate(self, num_labels: int) -> None:
        if self.ids.size == 0:
            return
        if self.ids[0] < 0 or self.ids[-1] >= num_labels:
            raise ValidationError("label index out of range")
        if np.any(np.diff(self.ids) <= 0):
            raise ValidationError("label ids not strictly increasing")

    def __len__(self) -> int:
        return int(self.ids.size)

    def __iter__(self):
        return iter(self.ids.tolist())

    def __contains__(self, label: int) -> bool:
        pos = int(np.searchsorted(self.ids, label))
        return pos < self.ids.size and self.ids[pos] == label

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return np.array_equal(self.ids, other.ids)


@dataclass(eq=True)
class Dataset:
    """A multi-label dataset: n sparse points over d features and L labels."""

    num_points: int
    num_features: int
    num_labels: int
    points: list[tuple[SparseVector, LabelSet]]

    def validate(self) -> None:
        if self.num_points < 0 or self.num_features <= 0 or self.num_labels <= 0:
            raise ValidationError("dataset dimensions must be positive")
        if len(self.points) != self.num_points:
            raise ValidationError(
                f"declared {self.num_points} points, stored {len(self.points)}"
            )
        for sv, ls in self.points:
            sv.validate(self.num_features)
            ls.validate(self.num_labels)


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise DataFormatError(
            f"malformed header, expected 'n d L', got {line!r}", line=lineno
        )
    try:
        n, d, L = (int(p) for p in parts)
    except ValueError:
        raise DataFormatError(
            f"malformed header, non-integer field in {line!r}", line=lineno
        ) from None
    if n < 0 or d <= 0 or L <= 0:
        raise DataFormatError("header dimensions out of range", line=lineno)
    return n, d, L


def _parse_labels(field: str, num_labels: int, lineno: int) -> LabelSet:
    if field == "":
        return LabelSet.empty()
    ids = set()
    for tok in field.split(","):
        try:
            label = int(tok)
        except ValueError:
            raise DataFormatError(f"malformed label token {tok!r}", line=lineno) from None
        if label < 0 or label >= num_labels:
            raise DataFormatError(
                f"label index {label} outside [0, {num_labels})", line=lineno
            )
        ids.add(label)
    return LabelSet.from_iterable(ids)


def _parse_features(tokens: list[str], num_features: int, lineno: int) -> SparseVector:
    indices: list[int] = []
    values: list[float] = []
    last = -1
    for tok in tokens:
        if tok == "":
            continue
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise DataFormatError(f"malformed feature token {tok!r}", line=lineno)
        try:
            idx = int(idx_s)
            val = float(val_s)
        except ValueError:
            raise DataFormatError(f"malformed feature token {tok!r}", line=lineno) from None
        if idx < 0 or idx >= num_features:
            raise DataFormatError(
                f"feature index {idx} outside [0, {num_features})", line=lineno
            )
        if idx <= last:
            raise DataFormatError(
                f"feature index {idx} not strictly increasing", line=lineno
            )
        last = idx
        if not np.isfinite(val):
            raise DataFormatError(f"non-finite feature value {val_s!r}", line=lineno)
        if val == 0.0:
            continue
        indices.append(idx)
        values.append(val)
    return SparseVector(
        np.array(indices, dtype=np.int32), np.array(values, dtype=np.float64)
    )


def parse_repo_file(source: IO[str] | str) -> Dataset:
    """Parse a benchmark-format text stream (or string) into a Dataset.

    Raises DataFormatError with a 1-based line number on any malformed
    content: bad header, out-of-range index, non-monotone feature indices,
    or a line count that disagrees with the header.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    try:
        first = next(lines)
    except StopIteration:
        raise DataFormatError("empty file, missing header", line=1) from None
    n, d, L = _parse_header(first.rstrip("\r\n"), 1)

    points: list[tuple[SparseVector, LabelSet]] = []
    lineno = 1
    for raw in lines:
        lineno += 1
        line = raw.rstrip("\r\n")
        if len(points) == n:
            if line.strip() == "":
                continue
            raise DataFormatError(
                f"expected {n} data lines, found extra content", line=lineno
            )
        tokens = line.split(" ")
        labels = _parse_labels(tokens[0], L, lineno)
        features = _parse_features(tokens[1:], d, lineno)
        points.append((features, labels))
    if len(points) < n:
        raise DataFormatError(
            f"expected {n} data lines, found {len(points)}", line=lineno + 1
        )
    return Dataset(num_points=n, num_features=d, num_labels=L, points=points)


def write_repo_file(dataset: Dataset, stream: IO[str] | None = None) -> str:
    """Serialize a Dataset in the benchmark text format.

    Float values are written with repr, which round-trips float64 exactly,
    so parse(write(D)) == D.
    """
    out = stream if stream is not None else io.StringIO()
    out.write(f"{dataset.num_points} {dataset.num_features} {dataset.num_labels}\n")
    for sv, ls in dataset.points:
        label_field = ",".join(str(x) for x in ls.ids.tolist())
        feats = " ".join(
            f"{i}:{v!r}" for i, v in zip(sv.indices.tolist(), sv.values.tolist())
        )
        out.write(label_field + (" " + feats if feats else "") + "\n")
    return out.getvalue() if stream is None else ""


def load_repo_file(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_repo_file(fh)


def save_repo_file(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_repo_file(dataset, fh)


def normalize_features(dataset: Dataset, scheme: str = "none") -> Dataset:
    """Return a Dataset with per-point feature scaling applied.

    'none' is the identity; 'unit_l2' divides each vector by its Euclidean
    norm, leaving vectors with no stored entries untouched.
    """
    if scheme not in NORMALIZATION_SCHEMES:
        raise ValidationError(
            f"unknown normalization scheme {scheme!r}, expected one of {NORMALIZATION_SCHEMES}"
        )
    if scheme == "none":
        return dataset
    points = []
    for sv, ls in dataset.points:
        if sv.nnz == 0:
            points.append((sv, ls))
            continue
        nrm = sv.norm()
        points.append((SparseVector(sv.indices, sv.values / nrm), ls))
    return Dataset(dataset.num_points, dataset.num_features, dataset.num_labels, points)
