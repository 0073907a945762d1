"""Sparse dataset model and text-format I/O.

The on-disk format is the one used by the public extreme-classification
benchmark files: a header line ``n d L`` followed by one line per data point,

    lbl,lbl,... idx:val idx:val ...

The label field is a comma-separated list of 0-based label indices and may be
empty, in which case the line starts with a space.  Feature indices are
0-based and strictly increasing within a line.  Files are UTF-8 with LF or
CRLF line endings.

A ``Dataset`` keeps its points as CSR arrays.  Files are parsed a block of
lines at a time, by one of two readers with the same result.  A clean
block, whose feature text is printable ASCII with one colon in each token
and whose tokens all convert and pass their checks, takes the array path:
its tokens are converted by ``int`` and ``float`` through ``np.fromiter``
and every check is one array operation over the block.  Every other block
is read one line and one token at a time, and that reader, the grammar,
raises every DataFormatError.
"""

from __future__ import annotations

import io
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, repeat
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import DataFormatError, PointError, ValidationError

__all__ = [
    "SparseVector",
    "SparseRows",
    "LabelSet",
    "Dataset",
    "parse_repo_file",
    "write_repo_file",
    "load_repo_file",
    "save_repo_file",
    "normalize_features",
]

NORMALIZATION_SCHEMES = ("none", "unit_l2")

_BLOCK_LINES = 64  # data lines parsed together; bounds the parser's temporaries
_INDEX_MAX = int(np.iinfo(np.int32).max)  # feature indices and label ids are int32
# Deletes every ASCII character but colon and space: what is left of a clean
# block's feature text alternates colon and space.
_NOT_COLON_OR_SPACE = dict.fromkeys(c for c in range(128) if chr(c) not in ": ")


@dataclass(frozen=True, eq=False)
class SparseVector:
    """One point's features: parallel index/value arrays.

    Indices are strictly increasing; explicit zeros are never stored.  This
    is the per-point form of ``Dataset.points`` and of ``predictor.predict``;
    batches of points are ``SparseRows``.
    """

    indices: np.ndarray
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class SparseRows:
    """Sparse points as CSR arrays, the input of the embedding network.

    Row i has the feature ids ``indices[indptr[i]:indptr[i + 1]]`` (strictly
    increasing) and the ``values`` alongside them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    def take(self, rows: np.ndarray) -> "SparseRows":
        """The given rows, in that order, copied into new arrays."""
        rows = np.asarray(rows, dtype=np.int64)
        starts = self.indptr[rows]
        counts = self.indptr[rows + 1] - starts
        indptr = _offsets(counts)
        pos = np.repeat(starts - indptr[:-1], counts) + np.arange(indptr[-1])
        return SparseRows(indptr, self.indices[pos], self.values[pos])


@dataclass(frozen=True, eq=False, slots=True)  # no __dict__: a model holds one per training point
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


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Row pointers (n + 1 entries, int64) from n per-row counts."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _concat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """``arrays`` end to end as ``dtype``; ids must fit int32."""
    out = np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)
    if dtype is np.int32 and out.size and (out.min() < -_INDEX_MAX - 1 or out.max() > _INDEX_MAX):
        raise ValidationError("index out of range")
    return out.astype(dtype, copy=False)


def _check_rows(indptr: np.ndarray, ids: np.ndarray, bound: int, what: str) -> None:
    """Every row of ``ids`` lies in [0, bound) and strictly increases."""
    if indptr[0] != 0 or indptr[-1] != ids.size or np.any(np.diff(indptr) < 0):
        raise ValidationError(f"{what} row pointers do not partition the entries")
    if ids.size == 0:
        return
    if ids.min() < 0 or ids.max() >= bound:
        raise ValidationError(f"{what} index out of range")
    row_start = np.zeros(ids.size, dtype=bool)
    row_start[indptr[:-1][indptr[:-1] < ids.size]] = True
    if np.any((np.diff(ids) <= 0) & ~row_start[1:]):
        raise ValidationError(f"{what} indices not strictly increasing")


class Dataset:
    """A multi-label dataset: n sparse points over d features and L labels.

    The points are CSR arrays.  Point i's features are
    ``indices[indptr[i]:indptr[i + 1]]`` (int32, strictly increasing) with
    their ``values`` (float64, nonzero) alongside; its labels are
    ``label_ids[label_indptr[i]:label_indptr[i + 1]]`` (int32, sorted,
    unique).  ``Dataset(n, d, L, points)`` builds the arrays from
    (SparseVector, LabelSet) pairs, ``Dataset.from_csr`` takes them as they
    are, and ``points`` gives the pairs back as views of the arrays, built the
    first time it is read.  ``features`` gives the feature arrays as one
    ``SparseRows``, the input of the embedding network.
    """

    def __init__(
        self,
        num_points: int,
        num_features: int,
        num_labels: int,
        points: Iterable[tuple[SparseVector, LabelSet]] = (),
    ):
        self.num_points = num_points
        self.num_features = num_features
        self.num_labels = num_labels
        pts = list(points)
        if any(sv.values.size != sv.indices.size for sv, _ in pts):
            raise ValidationError("index/value arrays differ in length")
        self.indptr = _offsets([sv.indices.size for sv, _ in pts])
        self.indices = _concat([sv.indices for sv, _ in pts], np.int32)
        self.values = _concat([sv.values for sv, _ in pts], np.float64)
        self.label_indptr = _offsets([ls.ids.size for _, ls in pts])
        self.label_ids = _concat([ls.ids for _, ls in pts], np.int32)

    @classmethod
    def from_csr(
        cls,
        num_points: int,
        num_features: int,
        num_labels: int,
        *,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
        label_indptr: np.ndarray,
        label_ids: np.ndarray,
    ) -> "Dataset":
        """A Dataset over the given arrays, without copying those of the right dtype."""
        ds = cls(num_points, num_features, num_labels)
        ds.indptr = np.asarray(indptr, dtype=np.int64)
        ds.indices = np.asarray(indices, dtype=np.int32)
        ds.values = np.asarray(values, dtype=np.float64)
        ds.label_indptr = np.asarray(label_indptr, dtype=np.int64)
        ds.label_ids = np.asarray(label_ids, dtype=np.int32)
        return ds

    @property
    def features(self) -> SparseRows:
        """The feature rows of every point, as the dataset's own arrays."""
        return SparseRows(self.indptr, self.indices, self.values)

    @cached_property
    def points(self) -> list[tuple[SparseVector, LabelSet]]:
        """(features, labels) of every point, as views of the CSR arrays."""
        ip, lp = self.indptr.tolist(), self.label_indptr.tolist()
        return [
            (SparseVector(self.indices[a:b], self.values[a:b]), LabelSet(self.label_ids[c:e]))
            for a, b, c, e in zip(ip, ip[1:], lp, lp[1:])
        ]

    def label_sets(self, rows: np.ndarray) -> list[LabelSet]:
        """The label sets of the given points, in order, as views of ``label_ids``."""
        lp = self.label_indptr.tolist()
        return [LabelSet(self.label_ids[lp[i] : lp[i + 1]]) for i in rows.tolist()]

    def validate(self) -> None:
        if self.num_points < 0 or self.num_features <= 0 or self.num_labels <= 0:
            raise ValidationError("dataset dimensions must be positive")
        stored = self.indptr.size - 1
        if stored != self.num_points or self.label_indptr.size - 1 != self.num_points:
            raise ValidationError(f"declared {self.num_points} points, stored {stored}")
        if self.values.size != self.indices.size:
            raise ValidationError("index/value arrays differ in length")
        _check_rows(self.indptr, self.indices, self.num_features, "feature")
        if np.any(self.values == 0.0):
            raise ValidationError("explicit zero value stored")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite feature value")
        _check_rows(self.label_indptr, self.label_ids, self.num_labels, "label")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        fields = ("num_points", "num_features", "num_labels")
        arrays = ("indptr", "indices", "values", "label_indptr", "label_ids")
        return all(getattr(self, f) == getattr(other, f) for f in fields) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in arrays
        )

    def __repr__(self) -> str:
        return (
            f"Dataset(num_points={self.num_points}, num_features={self.num_features}, "
            f"num_labels={self.num_labels}, nnz={self.indices.size}, "
            f"label_nnz={self.label_ids.size})"
        )


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
    if n < 0 or not 0 < d <= _INDEX_MAX or not 0 < L <= _INDEX_MAX:
        raise DataFormatError("header dimensions out of range", line=lineno)
    return n, d, L


def _parse_lines(lines: list[str], num_features: int, num_labels: int, lineno: int):
    """CSR pieces of data lines (line ends stripped), the first numbered ``lineno``.

    The grammar, read one line and one token at a time.  Returns (nonzeros
    per line, indices, values, labels per line, label ids): explicit zeros
    dropped, each line's labels sorted and de-duplicated.  A malformed line
    raises its DataFormatError; within a line the first bad token is
    reported, labels before features.
    """
    nnz, indices, values, label_counts, label_ids = [], [], [], [], []
    for lineno, line in enumerate(lines, lineno):
        head, _, tail = line.partition(" ")
        labels = set()
        for tok in head.split(",") if head else ():
            try:
                label = int(tok)
            except ValueError:
                raise DataFormatError(f"malformed label token {tok!r}", line=lineno) from None
            if not 0 <= label < num_labels:
                raise DataFormatError(f"label index {label} outside [0, {num_labels})", line=lineno)
            labels.add(label)
        label_counts.append(len(labels))
        label_ids += sorted(labels)
        last, kept = -1, len(indices)
        for tok in tail.split(" "):
            if not tok:
                continue
            idx_s, sep, val_s = tok.partition(":")
            try:
                if not sep:
                    raise ValueError
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise DataFormatError(f"malformed feature token {tok!r}", line=lineno) from None
            if not 0 <= idx < num_features:
                raise DataFormatError(
                    f"feature index {idx} outside [0, {num_features})", line=lineno
                )
            if idx <= last:
                raise DataFormatError(f"feature index {idx} not strictly increasing", line=lineno)
            last = idx
            if not math.isfinite(val):
                raise DataFormatError(f"non-finite feature value {val_s!r}", line=lineno)
            if val != 0.0:
                indices.append(idx)
                values.append(val)
        nnz.append(len(indices) - kept)
    return (
        np.array(nnz, np.int64), np.array(indices, np.int32), np.array(values, np.float64),
        np.array(label_counts, np.int64), np.array(label_ids, np.int32),
    )


def _parse_arrays(lines: list[str], num_features: int, num_labels: int):
    """What ``_parse_lines`` returns for a clean block, as array code; None for any other.

    A clean block's feature text is printable ASCII with exactly one colon in
    each space-separated token, and every token converts and passes its
    checks.  Its tokens are converted by ``int`` and ``float`` through
    ``np.fromiter`` and every check is one array operation.
    """
    heads, _, tails = zip(*map(str.partition, lines, repeat(" ")))
    rows = len(lines)
    text = " ".join(tails)
    if not (text.isascii() and text.isprintable()):
        return None
    spaced = " ".join(text.split())  # one space between tokens
    count = spaced.count(" ") + 1 if spaced else 0  # feature tokens in the block
    if spaced.translate(_NOT_COLON_OR_SPACE) != " ".join(repeat(":", count)):
        return None
    parts = spaced.replace(":", " ").split(" ") if count else []  # index, value, index, ...

    # Labels: the field before the first space, comma-separated; may be empty.
    filled = np.fromiter(map(len, heads), np.int64, rows) > 0
    per_line = np.fromiter(map(str.count, heads, repeat(",")), np.int64, rows) + 1
    label_toks = ",".join(filter(None, heads)).split(",") if filled.any() else []
    label_row = np.repeat(np.arange(rows), np.where(filled, per_line, 0))
    # Features: each line has one token per colon.
    colons = np.fromiter(map(str.count, tails, repeat(":")), np.int64, rows)
    token_row = np.repeat(np.arange(rows), colons)
    try:
        labels = np.fromiter(map(int, label_toks), np.int64, len(label_toks))
        indices = np.fromiter(map(int, parts[0::2]), np.int64, count)
        values = np.fromiter(map(float, parts[1::2]), np.float64, count)
    except (ValueError, OverflowError):
        return None
    flags = (indices < 0) | (indices >= num_features) | ~np.isfinite(values)
    flags[1:] |= (token_row[1:] == token_row[:-1]) & (indices[1:] <= indices[:-1])
    if flags.any() or np.any((labels < 0) | (labels >= num_labels)):
        return None

    nonzero = values != 0.0
    codes = np.sort(label_row * num_labels + labels)  # sorts each line's labels
    codes = codes[np.diff(codes, prepend=-1) != 0]  # and de-duplicates them
    return (
        np.bincount(token_row[nonzero], minlength=rows),
        indices[nonzero].astype(np.int32),
        values[nonzero],
        np.bincount(codes // num_labels, minlength=rows),
        (codes % num_labels).astype(np.int32),
    )


def parse_repo_file(source: IO[str] | str) -> Dataset:
    """Parse a benchmark-format text stream (or string) into a Dataset.

    Raises DataFormatError with a 1-based line number on any malformed
    content: bad header, out-of-range index, non-monotone feature indices,
    or a line count that disagrees with the header.  Data lines are read
    and parsed _BLOCK_LINES at a time.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    try:
        first = next(lines)
    except StopIteration:
        raise DataFormatError("empty file, missing header", line=1) from None
    n, d, L = _parse_header(first.rstrip("\r\n"), 1)

    blocks = [_parse_lines([], d, L, 2)]
    read = 0
    while read < n:
        want = min(_BLOCK_LINES, n - read)
        block = list(map(str.rstrip, islice(lines, want), repeat("\r\n")))
        if block:
            blocks.append(_parse_arrays(block, d, L) or _parse_lines(block, d, L, read + 2))
        read += len(block)
        if len(block) < want:
            raise DataFormatError(f"expected {n} data lines, found {read}", line=read + 2)
    for lineno, raw in enumerate(lines, start=n + 2):
        if raw.strip() != "":
            raise DataFormatError(
                f"expected {n} data lines, found extra content", line=lineno
            )
    nnz, indices, values, label_counts, label_ids = map(np.concatenate, zip(*blocks))
    return Dataset.from_csr(
        n, d, L, indptr=_offsets(nnz), indices=indices, values=values,
        label_indptr=_offsets(label_counts), label_ids=label_ids,
    )


def write_repo_file(dataset: Dataset, stream: IO[str] | None = None) -> str:
    """Serialize a Dataset in the benchmark text format.

    Float values are written with repr, which round-trips float64 exactly,
    so parse(write(D)) == D.
    """
    out = stream if stream is not None else io.StringIO()
    out.write(f"{dataset.num_points} {dataset.num_features} {dataset.num_labels}\n")
    ip, lp = dataset.indptr.tolist(), dataset.label_indptr.tolist()
    idx, val = dataset.indices.tolist(), dataset.values.tolist()
    lab = dataset.label_ids.tolist()
    for a, b, c, e in zip(ip, ip[1:], lp, lp[1:]):
        label_field = ",".join(map(str, lab[c:e]))
        feats = " ".join(f"{i}:{v!r}" for i, v in zip(idx[a:b], val[a:b]))
        out.write(label_field + (" " + feats if feats else "") + "\n")
    return out.getvalue() if stream is None else ""


@contextmanager
def open_text(path: str) -> Iterator[IO[str]]:
    """Open a UTF-8 text input; bytes that do not decode raise DataFormatError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_repo_file(path: str) -> Dataset:
    with open_text(path) as fh:
        return parse_repo_file(fh)


def save_repo_file(dataset: Dataset, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_repo_file(dataset, fh)


def normalize_features(dataset: Dataset, scheme: str = "none") -> Dataset:
    """Return a Dataset with per-point feature scaling applied.

    'none' is the identity; 'unit_l2' divides each vector by its Euclidean
    norm, leaving vectors with no stored entries untouched.  A point whose
    squared norm underflows to 0 or overflows in float64 has no norm to
    divide by and raises ``PointError``, naming the first such point.  The
    result shares every array but ``values`` with ``dataset``.
    """
    if scheme not in NORMALIZATION_SCHEMES:
        raise ValidationError(
            f"unknown normalization scheme {scheme!r}, expected one of {NORMALIZATION_SCHEMES}"
        )
    if scheme == "none":
        return dataset
    v, ip = dataset.values, dataset.indptr.tolist()
    # np.linalg.norm of a vector is sqrt(x.dot(x)); one BLAS dot per row keeps its bits.
    with np.errstate(over="ignore"):  # an overflow is reported below, naming the point
        norms = np.sqrt([v[a:b].dot(v[a:b]) for a, b in zip(ip, ip[1:])])
    counts = np.diff(dataset.indptr)
    bad = np.flatnonzero(((norms == 0.0) & (counts > 0)) | np.isinf(norms))
    if bad.size:
        i = int(bad[0])
        kind = "overflows" if np.isinf(norms[i]) else "underflows to 0"
        raise PointError(
            i, f"its squared feature norm {kind} in float64, so it cannot be scaled to unit L2 norm"
        )
    return Dataset.from_csr(
        dataset.num_points, dataset.num_features, dataset.num_labels,
        indptr=dataset.indptr, indices=dataset.indices,
        values=v / np.repeat(norms, counts),
        label_indptr=dataset.label_indptr, label_ids=dataset.label_ids,
    )
