"""Sparse dataset model and text-format I/O.

The on-disk format is the one used by the public extreme-classification
benchmark files: a header line ``n d L`` followed by one line per data point,

    lbl,lbl,... idx:val idx:val ...

The label field is a comma-separated list of 0-based label indices and may be
empty, in which case the line starts with a space.  Feature indices are
0-based and strictly increasing within a line.  Files are UTF-8 with LF or
CRLF line endings.

A ``Dataset`` keeps its points as CSR arrays.  Files are parsed a block of
lines at a time: each block is split into label and feature fields, its
tokens are converted by ``int`` and ``float`` through ``np.fromiter``, and
every check is one array operation over the block.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, islice, repeat
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
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
# A block's feature fields are joined by newlines, then split into parts at
# every space, newline and colon.
_FEATURE_SEPARATORS = str.maketrans(":\n", "  ")
_SPACE, _NEWLINE, _COLON = ord(" "), ord("\n"), ord(":")


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


def _numbers(convert, dtype, tokens: list[str]) -> tuple[np.ndarray, int]:
    """``convert`` of the tokens before the first one it rejects, and that position.

    The position is ``len(tokens)`` when every token converts.  Integers
    saturate at the int64 range: as indices they are out of range either way.
    """
    try:
        return np.fromiter(map(convert, tokens), dtype, len(tokens)), len(tokens)
    except (ValueError, OverflowError):
        pass
    good = []
    for tok in tokens:
        try:
            good.append(convert(tok))
        except ValueError:
            break
    if dtype is np.int64:
        good = [min(max(v, _INT64_MIN), _INT64_MAX) for v in good]
    return np.array(good, dtype=dtype), len(good)


def _first(flags: np.ndarray, stop: int) -> int:
    """Position of the first set flag, or ``stop`` if it comes first."""
    hits = np.flatnonzero(flags[:stop])
    return int(hits[0]) if hits.size else stop


def _label_error(tok: str, num_labels: int, lineno: int) -> DataFormatError:
    try:
        label = int(tok)
    except ValueError:
        return DataFormatError(f"malformed label token {tok!r}", line=lineno)
    return DataFormatError(f"label index {label} outside [0, {num_labels})", line=lineno)


def _feature_error(tok: str, last: int, num_features: int, lineno: int) -> DataFormatError:
    """The error for a bad feature token; ``last`` is the line's previous index or -1."""
    idx_s, sep, val_s = tok.partition(":")
    try:
        if not sep:
            raise ValueError
        idx = int(idx_s)
        float(val_s)
    except ValueError:
        return DataFormatError(f"malformed feature token {tok!r}", line=lineno)
    if idx < 0 or idx >= num_features:
        return DataFormatError(f"feature index {idx} outside [0, {num_features})", line=lineno)
    if idx <= last:
        return DataFormatError(f"feature index {idx} not strictly increasing", line=lineno)
    return DataFormatError(f"non-finite feature value {val_s!r}", line=lineno)


def _parse_block(lines: list[str], num_features: int, num_labels: int, lineno: int):
    """CSR pieces of consecutive data lines, the first of them numbered ``lineno``.

    Returns (nonzeros per line, indices, values, labels per line, label ids).
    A malformed block raises the DataFormatError of its first bad line, and
    within that line of its first bad token, labels before features: the
    error a line-by-line reading meets first.
    """
    lines = list(map(str.rstrip, lines, repeat("\r\n")))
    heads, _, tails = zip(*map(str.partition, lines, repeat(" ")))
    rows = len(lines)

    # Labels: the field before the first space, comma-separated; may be empty.
    filled = np.fromiter(map(len, heads), np.int64, rows) > 0
    per_line = np.fromiter(map(str.count, heads, repeat(",")), np.int64, rows) + 1
    label_toks = ",".join(filter(None, heads)).split(",") if filled.any() else []
    label_row = np.repeat(np.arange(rows), np.where(filled, per_line, 0))
    labels, label_stop = _numbers(int, np.int64, label_toks)
    label_bad = _first((labels < 0) | (labels >= num_labels), label_stop)

    # Features: the rest of each line, split on spaces; empty tokens are
    # skipped and each token is split at its one colon.  Token bounds, lines
    # and colon counts come from the block's bytes.
    text = "\n".join(tails)
    raw = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    seps = np.flatnonzero((raw == _SPACE) | (raw == _NEWLINE))
    starts = np.concatenate(([0], seps + 1))
    ends = np.append(seps, raw.size)
    token_row = np.concatenate(([0], np.cumsum(raw[seps] == _NEWLINE)))
    colons = np.bincount(np.searchsorted(seps, np.flatnonzero(raw == _COLON)), minlength=ends.size)
    first_part = np.cumsum(colons + 1) - (colons + 1)  # a token makes colons + 1 parts
    kept = ends > starts
    starts, ends, token_row, colons, first_part = (
        a[kept] for a in (starts, ends, token_row, colons, first_part)
    )
    shaped = _first(colons != 1, colons.size)  # tokens before it have one colon
    parts = text.translate(_FEATURE_SEPARATORS).split(" ")
    idx_part = np.zeros(len(parts), dtype=bool)
    idx_part[first_part[:shaped]] = True
    val_part = np.zeros(len(parts), dtype=bool)
    val_part[first_part[:shaped] + 1] = True
    indices, idx_stop = _numbers(int, np.int64, list(compress(parts, idx_part)))
    values, val_stop = _numbers(float, np.float64, list(compress(parts, val_part)))
    well_formed = min(shaped, idx_stop, val_stop)  # the first malformed token, if any
    indices, values = indices[:well_formed], values[:well_formed]
    row = token_row[:well_formed]
    flags = (indices < 0) | (indices >= num_features) | ~np.isfinite(values)
    flags[1:] |= (row[1:] == row[:-1]) & (indices[1:] <= indices[:-1])
    feature_bad = _first(flags, well_formed)

    label_line = int(label_row[label_bad]) if label_bad < len(label_toks) else rows
    feature_line = int(token_row[feature_bad]) if feature_bad < colons.size else rows
    if label_line < rows and label_line <= feature_line:
        raise _label_error(label_toks[label_bad], num_labels, lineno + label_line)
    if feature_line < rows:
        j = feature_bad
        tok = raw[starts[j] : ends[j]].tobytes().decode("utf-8", "surrogatepass")
        last = int(indices[j - 1]) if j and token_row[j - 1] == token_row[j] else -1
        raise _feature_error(tok, last, num_features, lineno + feature_line)

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


# What _parse_block returns, for no lines.
_EMPTY_BLOCK = (
    np.empty(0, np.int64), np.empty(0, np.int32), np.empty(0, np.float64),
    np.empty(0, np.int64), np.empty(0, np.int32),
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

    blocks = [_EMPTY_BLOCK]
    read = 0
    while read < n:
        want = min(_BLOCK_LINES, n - read)
        block = list(islice(lines, want))
        if block:
            blocks.append(_parse_block(block, d, L, read + 2))
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
