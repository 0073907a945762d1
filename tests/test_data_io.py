"""Dataset parsing, writing, and feature normalization."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxml import (
    DataFormatError,
    Dataset,
    LabelSet,
    SparseVector,
    ValidationError,
    data_io,
    load_repo_file,
    normalize_features,
    parse_repo_file,
    write_repo_file,
)

from conftest import random_dataset, rows_of, sparse


# ── reference parser ─────────────────────────────────────────────────────────
# One line and one token at a time, in plain Python: the oracle for the block
# parser, which must return an equal Dataset or raise the same error.


def _ref_header(line, lineno):
    parts = line.split()
    if len(parts) != 3:
        raise DataFormatError(f"malformed header, expected 'n d L', got {line!r}", line=lineno)
    try:
        n, d, L = (int(p) for p in parts)
    except ValueError:
        raise DataFormatError(
            f"malformed header, non-integer field in {line!r}", line=lineno
        ) from None
    if n < 0 or d <= 0 or L <= 0:
        raise DataFormatError("header dimensions out of range", line=lineno)
    return n, d, L


def _ref_labels(field, num_labels, lineno):
    if field == "":
        return LabelSet.empty()
    ids = set()
    for tok in field.split(","):
        try:
            label = int(tok)
        except ValueError:
            raise DataFormatError(f"malformed label token {tok!r}", line=lineno) from None
        if label < 0 or label >= num_labels:
            raise DataFormatError(f"label index {label} outside [0, {num_labels})", line=lineno)
        ids.add(label)
    return LabelSet.from_iterable(ids)


def _ref_features(tokens, num_features, lineno):
    indices, values = [], []
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
            raise DataFormatError(f"feature index {idx} not strictly increasing", line=lineno)
        last = idx
        if not np.isfinite(val):
            raise DataFormatError(f"non-finite feature value {val_s!r}", line=lineno)
        if val == 0.0:
            continue
        indices.append(idx)
        values.append(val)
    return SparseVector(np.array(indices, dtype=np.int32), np.array(values, dtype=np.float64))


def reference_parse(text):
    lines = iter(io.StringIO(text))
    try:
        first = next(lines)
    except StopIteration:
        raise DataFormatError("empty file, missing header", line=1) from None
    n, d, L = _ref_header(first.rstrip("\r\n"), 1)
    points = []
    lineno = 1
    for raw in lines:
        lineno += 1
        line = raw.rstrip("\r\n")
        if len(points) == n:
            if line.strip() == "":
                continue
            raise DataFormatError(f"expected {n} data lines, found extra content", line=lineno)
        tokens = line.split(" ")
        labels = _ref_labels(tokens[0], L, lineno)
        points.append((_ref_features(tokens[1:], d, lineno), labels))
    if len(points) < n:
        raise DataFormatError(f"expected {n} data lines, found {len(points)}", line=lineno + 1)
    return Dataset(n, d, L, points)


def outcome(parse, text):
    """The Dataset, or ("error", line, message) of the DataFormatError raised."""
    try:
        return parse(text)
    except DataFormatError as exc:
        return ("error", exc.line, str(exc))


def block_parse(block_lines):
    def parse(text):
        with mock.patch.object(data_io, "_BLOCK_LINES", block_lines):
            return parse_repo_file(text)

    return parse

SAMPLE = "2 5 3\n0,2 1:0.5 4:1.25\n 0:2.0\n"


class TestParse:
    def test_sample_shape(self):
        ds = parse_repo_file(SAMPLE)
        assert (ds.num_points, ds.num_features, ds.num_labels) == (2, 5, 3)

    def test_sample_contents(self):
        ds = parse_repo_file(SAMPLE)
        sv0, ls0 = ds.points[0]
        assert list(ls0) == [0, 2]
        assert sv0.indices.tolist() == [1, 4]
        assert sv0.values.tolist() == [0.5, 1.25]
        sv1, ls1 = ds.points[1]
        assert len(ls1) == 0, "line starting with a space has no labels"
        assert sv1.indices.tolist() == [0]

    def test_crlf_accepted(self):
        ds = parse_repo_file(SAMPLE.replace("\n", "\r\n"))
        assert ds == parse_repo_file(SAMPLE)

    def test_file_splits_lines_as_its_text_does(self, tmp_path):
        # A lone CR is not a line end, in a file as in a string.
        lone_cr = tmp_path / "lone-cr.txt"
        lone_cr.write_bytes(b"1 3 2\n0 0:1.0\r 1:2.0\n")
        ds = load_repo_file(str(lone_cr))
        assert ds == parse_repo_file("1 3 2\n0 0:1.0\r 1:2.0\n")
        assert ds.points[0][0].indices.tolist() == [0, 1]
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(SAMPLE.replace("\n", "\r\n").encode())
        assert load_repo_file(str(crlf)) == parse_repo_file(SAMPLE)

    def test_stream_input(self):
        assert parse_repo_file(io.StringIO(SAMPLE)) == parse_repo_file(SAMPLE)

    def test_explicit_zero_values_dropped(self):
        ds = parse_repo_file("1 4 2\n0 0:0.0 2:3.5\n")
        assert ds.points[0][0].indices.tolist() == [2]

    def test_duplicate_labels_collapse(self):
        ds = parse_repo_file("1 4 3\n2,0,2 1:1.0\n")
        assert list(ds.points[0][1]) == [0, 2]

    def test_trailing_blank_lines_tolerated(self):
        ds = parse_repo_file(SAMPLE + "\n  \n")
        assert ds.num_points == 2


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,line",
        [
            ("", 1),
            ("2 5\n", 1),
            ("a 5 3\n", 1),
            ("1 0 3\n 0:1\n", 1),
            ("1 5 3\n3 1:1.0\n", 2),  # label == L
            ("1 5 3\n-1 1:1.0\n", 2),
            ("2 5 3\n0 1:1.0\n1 5:1.0\n", 3),  # feature == d
            ("1 5 3\n0 1:1.0 1:2.0\n", 2),  # duplicate feature index
            ("1 5 3\n0 3:1.0 2:2.0\n", 2),  # decreasing feature index
            ("1 5 3\n0 3-1.0\n", 2),  # missing colon
            ("1 5 3\n0 x:1.0\n", 2),
            ("1 5 3\n0 3:oops\n", 2),
            ("1 5 3\n0 3:nan\n", 2),
            ("2 5 3\n0 1:1.0\n", 3),  # too few lines
            ("1 5 3\n0 1:1.0\n2 1:1.0\n", 3),  # too many lines
        ],
    )
    def test_line_numbers(self, text, line):
        with pytest.raises(DataFormatError) as err:
            parse_repo_file(text)
        assert err.value.line == line


class TestWrite:
    def test_round_trip_handmade(self):
        ds = parse_repo_file(SAMPLE)
        assert parse_repo_file(write_repo_file(ds)) == ds

    def test_unlabeled_line_starts_with_space(self):
        ds = Dataset(1, 3, 2, [(sparse([(0, 2.0)]), LabelSet.empty())])
        assert write_repo_file(ds).splitlines()[1].startswith(" ")

    def test_floats_survive_exactly(self):
        values = [0.1, 1 / 3, 1e-17, -2.5e8, 7.0]
        ds = Dataset(
            1,
            5,
            1,
            [(sparse(enumerate(values)), LabelSet.from_iterable([0]))],
        )
        back = parse_repo_file(write_repo_file(ds))
        assert back.points[0][0].values.tolist() == values

    def test_round_trip_random(self):
        for seed in range(20):
            ds = random_dataset(np.random.default_rng(seed), allow_unlabeled=True)
            assert parse_repo_file(write_repo_file(ds)) == ds


@st.composite
def datasets(draw):
    d = draw(st.integers(1, 10))
    L = draw(st.integers(1, 6))
    n = draw(st.integers(0, 6))
    points = []
    for _ in range(n):
        idx = draw(st.lists(st.integers(0, d - 1), unique=True, max_size=d))
        vals = draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=64).filter(
                    lambda v: v != 0.0
                ),
                min_size=len(idx),
                max_size=len(idx),
            )
        )
        labels = draw(st.lists(st.integers(0, L - 1), unique=True, max_size=L))
        points.append(
            (sparse(zip(idx, vals)), LabelSet.from_iterable(labels))
        )
    return Dataset(n, d, L, points)


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_round_trip_property(ds):
    ds.validate()
    assert parse_repo_file(write_repo_file(ds)) == ds


class TestNormalize:
    def test_none_is_identity(self):
        ds = parse_repo_file(SAMPLE)
        assert normalize_features(ds, "none") is ds

    def test_unit_l2_norms(self):
        ds = random_dataset(np.random.default_rng(3), n=40)
        out = normalize_features(ds, "unit_l2")
        for sv, _ in out.points:
            if sv.values.size:
                assert np.linalg.norm(sv.values) == pytest.approx(1.0, abs=1e-12)

    def test_empty_vector_untouched(self):
        ds = Dataset(1, 3, 2, [(sparse([]), LabelSet.from_iterable([0]))])
        out = normalize_features(ds, "unit_l2")
        assert out.points[0][0].indices.size == 0

    def test_unknown_scheme(self):
        with pytest.raises(ValidationError):
            normalize_features(parse_repo_file(SAMPLE), "minmax")

    @pytest.mark.parametrize("features,kind", [
        ("5:1e-200", "underflows to 0"),
        ("2:1e-170 5:-3e-180", "underflows to 0"),
        ("5:1e200", "overflows"),
        ("2:1.5e154 5:1.5e154", "overflows"),  # each square is finite, their sum is not
    ])
    def test_squared_norm_outside_float64_is_rejected(self, features, kind):
        ds = parse_repo_file(f"4 9 2\n0 1:1.0\n\n1 {features}\n0 {features}\n")
        ds.validate()
        with pytest.raises(ValidationError, match=f"^point 2: .* {kind} "):
            normalize_features(ds, "unit_l2")
        assert normalize_features(ds, "none") is ds

    def test_original_unchanged(self):
        ds = random_dataset(np.random.default_rng(4))
        copies = [sv.values.copy() for sv, _ in ds.points]
        normalize_features(ds, "unit_l2")
        for (sv, _), before in zip(ds.points, copies):
            assert np.array_equal(sv.values, before)


class TestTypes:
    def test_label_set_sorted_unique(self):
        ls = LabelSet.from_iterable([4, 1, 4, 2])
        assert list(ls) == [1, 2, 4]
        assert 4 in ls and 3 not in ls

    def test_dataset_validate_catches_range(self):
        ds = Dataset(1, 3, 2, [(sparse([(5, 1.0)]), LabelSet.empty())])
        with pytest.raises(ValidationError):
            ds.validate()


# ── block parser against the reference ───────────────────────────────────────

BLOCK_SIZES = (1, 2, 3, 512)


@st.composite
def repo_lines(draw):
    """(d, L, data lines) of a valid file, with the grammar's loose corners.

    Labels repeat and come unsorted, values may be explicit zeros or ints,
    fields may be empty and tokens may be separated by several spaces.
    """
    d = draw(st.integers(1, 12))
    L = draw(st.integers(1, 8))
    lines = []
    for _ in range(draw(st.integers(0, 9))):
        labels = draw(st.lists(st.integers(0, L - 1), max_size=4))
        idx = sorted(draw(st.sets(st.integers(0, d - 1), max_size=6)))
        vals = draw(
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    st.integers(-3, 3),
                    st.just(-0.0),
                ),
                min_size=len(idx),
                max_size=len(idx),
            )
        )
        gap = draw(st.sampled_from([" ", "  "]))
        feats = gap.join(f"{i}:{v!r}" for i, v in zip(idx, vals))
        tail = draw(st.sampled_from(["", " "]))
        line = ",".join(map(str, labels))
        if feats or draw(st.booleans()):
            line += " " + feats + tail
        lines.append(line)
    return d, L, lines


def render(n, d, L, lines, eol="\n", trailer=""):
    return f"{n} {d} {L}{eol}" + "".join(line + eol for line in lines) + trailer


@settings(max_examples=150, deadline=None)
@given(
    repo_lines(),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\n  \n", "\r\n"]),
    st.sampled_from(BLOCK_SIZES),
)
def test_block_parser_equals_reference_on_valid_files(spec, eol, trailer, block):
    check_valid_file(spec, eol, trailer, block)


@settings(max_examples=150, deadline=None)
@given(
    repo_lines(),
    st.sampled_from(["\n", "\r\n"]),
    st.sampled_from(["", "\n", "\n  \n", "\r\n"]),
    st.sampled_from(BLOCK_SIZES),
)
def test_line_reader_equals_reference_on_valid_files(spec, eol, trailer, block):
    with mock.patch.object(data_io, "_parse_arrays", return_value=None):
        check_valid_file(spec, eol, trailer, block)


def check_valid_file(spec, eol, trailer, block):
    d, L, lines = spec
    text = render(len(lines), d, L, lines, eol, trailer)
    got = block_parse(block)(text)
    assert isinstance(got, Dataset)
    assert got == reference_parse(text)
    assert got.indices.dtype == np.int32 and got.label_ids.dtype == np.int32
    assert got.values.dtype == np.float64


# A token put somewhere in a feature field, or in a label field.
BAD_FEATURES = [
    "x", "1:2:3", "3-1.0", "0::1", ":1.0", "1:", "-1:1.0", "0:nan", "0:inf", "0:-inf",
    "0:1e999", "é:1.0", "1:é", "٣:1.0", "1:١.٥", "0:1.0\t1:2.0", "99999999999999999999999:1",
    "0:1.0", "11:1.0", "12:1.0",
]
BAD_LABELS = ["", "-1", "x", "٣", "7", "8", "99999999999999999999999", "1 ", "é"]


@settings(max_examples=300, deadline=None)
@given(repo_lines(), st.data(), st.sampled_from(BLOCK_SIZES))
def test_block_parser_raises_like_reference_on_mutated_files(spec, data, block):
    """Bad token, missing or double colon, decreasing, duplicate or too large
    index, label == L, nan/inf, a wrong line count, non-ASCII text."""
    d, L, lines = spec
    n = len(lines)
    kind = data.draw(st.sampled_from(["feature", "label", "count"] if lines else ["count"]))
    if kind == "count":
        n = data.draw(st.sampled_from([n + 1, n + 2, max(n - 1, 0)]))
        if n == len(lines):
            lines = lines + ["0 0:1.0"]
    else:
        row = data.draw(st.integers(0, len(lines) - 1))
        head, sep, rest = lines[row].partition(" ")
        if kind == "feature":
            tokens = rest.split(" ") if sep else []
            bad = data.draw(st.sampled_from(BAD_FEATURES + [f"{d}:1.0", f"{d - 1}:1.0"]))
            tokens.insert(data.draw(st.integers(0, len(tokens))), bad)
            lines[row] = head + " " + " ".join(tokens)
        else:
            labels = head.split(",") if head else []
            bad = data.draw(st.sampled_from(BAD_LABELS + [str(L)]))
            labels.insert(data.draw(st.integers(0, len(labels))), bad)
            lines[row] = ",".join(labels) + sep + rest
    text = render(n, d, L, lines)
    want = outcome(reference_parse, text)
    assert outcome(block_parse(block), text) == want


class TestBlocks:
    """Blocks of 4 lines; data lines 1-4 are file lines 2-5."""

    LINES = ["0 0:1.0", "1 1:2.0", " 2:3.0", "0,1 0:1.0 3:4.0",
             "2,0,2 1:0.0 2:5.0", "", "1 0:-1.5", "0 3:1e-3"]

    def check(self, lines, n=None, **kw):
        text = render(len(lines) if n is None else n, 4, 3, lines, **kw)
        got, want = outcome(block_parse(4), text), outcome(reference_parse, text)
        assert got == want
        return got

    @pytest.mark.parametrize("row", [0, 3, 4, 7])  # first and last line of each block
    def test_error_on_block_edges(self, row):
        lines = list(self.LINES)
        lines[row] = lines[row] + " 9:1.0"
        got = self.check(lines)
        assert got[:2] == ("error", row + 2)

    def test_exact_multiple_of_block(self):
        assert isinstance(self.check(self.LINES), Dataset)
        assert self.check(self.LINES, n=9)[:2] == ("error", 10)
        assert self.check(self.LINES, n=7)[:2] == ("error", 9)

    def test_crlf_and_trailing_blank_lines(self):
        ds = self.check(self.LINES, eol="\r\n", trailer="\r\n \r\n\n")
        assert ds.num_points == 8

    def test_unlabeled_lines_zeros_and_duplicate_labels(self):
        ds = self.check(self.LINES)
        assert ds.label_indptr.tolist() == [0, 1, 2, 2, 4, 6, 6, 7, 8]
        assert ds.points[4][1].ids.tolist() == [0, 2]
        assert ds.points[4][0].indices.tolist() == [2]  # 1:0.0 dropped
        assert ds.points[5][0].indices.size == 0

    def test_label_error_before_feature_error_on_one_line(self):
        lines = list(self.LINES)
        lines[5] = "7 9:1.0"
        assert self.check(lines) == ("error", 7, "line 7: label index 7 outside [0, 3)")

    def test_first_error_wins_across_blocks(self):
        lines = list(self.LINES)
        lines[2] = "x" + lines[2]
        lines[6] = "9 0:1.0"
        assert self.check(lines)[:2] == ("error", 4)


class TestReaders:
    """Which reader takes a block: the array path for clean text, the per-line reader otherwise."""

    def lines_read(self, text):
        """The outcome of parsing ``text``, and how many data lines reached ``_parse_lines``."""
        with mock.patch.object(data_io, "_parse_lines", wraps=data_io._parse_lines) as spy:
            got = outcome(parse_repo_file, text)
        return got, sum(len(call.args[0]) for call in spy.call_args_list)

    @pytest.mark.parametrize("line,per_line", [
        ("0 0:1.0\t", True),  # a tab after a value
        ("0,2 ٣:1.0 5:2.0", True),  # a non-ASCII digit
        ("1 0:1.0\r 2:2.0", True),  # a CR inside a line
        ("0\t 0:1.0", False),  # the label field is not feature text
        ("2 1_0:2.5 11:1", False),  # int accepts an underscore; printable ASCII
    ])
    def test_unclean_valid_tokens_equal_the_reference(self, line, per_line):
        text = render(3, 12, 3, ["1 4:0.5", line, " 7:1.0"])
        got, read = self.lines_read(text)
        assert isinstance(got, Dataset) and got == reference_parse(text)
        assert read == (3 if per_line else 0)

    def test_clean_files_never_reach_the_line_reader(self):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), allow_unlabeled=True, n=150)
            got, read = self.lines_read(write_repo_file(ds))
            assert got == ds and read == 0

    def test_a_declined_block_reports_through_the_line_reader(self):
        got, read = self.lines_read(render(2, 4, 3, ["0 0:1.0", "1 3:1.0 2:2.0"]))
        assert got == ("error", 3, "line 3: feature index 2 not strictly increasing")
        assert read == 2


# ── Dataset as CSR ───────────────────────────────────────────────────────────


class TestCsr:
    def test_points_round_trip(self):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), allow_unlabeled=True)
            again = Dataset(ds.num_points, ds.num_features, ds.num_labels, ds.points)
            assert again == ds
            for (sv, ls), i in zip(again.points, range(ds.num_points)):
                a, b = ds.indptr[i], ds.indptr[i + 1]
                assert np.array_equal(sv.indices, ds.indices[a:b])
                assert np.array_equal(sv.values, ds.values[a:b])
                c, e = ds.label_indptr[i], ds.label_indptr[i + 1]
                assert np.array_equal(ls.ids, ds.label_ids[c:e])

    def test_from_csr_and_points_views(self):
        ds = Dataset.from_csr(
            2, 5, 3, indptr=[0, 2, 3], indices=[1, 4, 0], values=[0.5, 1.25, 2.0],
            label_indptr=[0, 2, 2], label_ids=[0, 2],
        )
        assert ds == parse_repo_file(SAMPLE)
        assert np.shares_memory(ds.points[0][0].values, ds.values)

    def test_sparse_rows_take_and_label_sets(self):
        ds = random_dataset(np.random.default_rng(3), allow_unlabeled=True)
        xs = [sv for sv, _ in ds.points]
        feats = ds.features
        assert len(feats) == ds.num_points and feats.values is ds.values
        rows = np.array([4, 0, 4, 7])
        taken = feats.take(rows)
        want = rows_of([xs[i] for i in rows])
        for name in ("indptr", "indices", "values"):
            assert getattr(taken, name).tobytes() == getattr(want, name).tobytes()
        assert len(feats.take(np.array([], dtype=np.int64))) == 0
        assert ds.label_sets(rows) == [ds.points[i][1] for i in rows]
        assert all(np.shares_memory(ls.ids, ds.label_ids) for ls in ds.label_sets(rows) if len(ls))

    def test_empty_dataset(self):
        ds = parse_repo_file("0 3 2\n")
        assert ds == Dataset(0, 3, 2, [])
        assert ds.points == [] and ds.indptr.tolist() == [0]
        ds.validate()

    @pytest.mark.parametrize(
        "pairs,labels",
        [
            ([(0, 1.0)], [5]),
            ([], [1, 1]),
        ],
    )
    def test_validate_catches_labels(self, pairs, labels):
        ds = Dataset(1, 3, 2, [(sparse(pairs), LabelSet(np.array(labels)))])
        with pytest.raises(ValidationError):
            ds.validate()

    def test_validate_catches_features(self):
        bad = [
            SparseVector(np.array([2, 1]), np.array([1.0, 1.0])),
            SparseVector(np.array([1, 1]), np.array([1.0, 2.0])),
            SparseVector(np.array([0]), np.array([0.0])),
            SparseVector(np.array([0]), np.array([np.inf])),
        ]
        for sv in bad:
            with pytest.raises(ValidationError):
                Dataset(1, 3, 2, [(sv, LabelSet.empty())]).validate()
        with pytest.raises(ValidationError):
            Dataset(2, 3, 2, [(sparse([]), LabelSet.empty())]).validate()
        # Indices restart in the next row: valid.
        two = [(SparseVector(np.array([2]), np.array([1.0])), LabelSet.empty())] * 2
        Dataset(2, 3, 2, two).validate()

    def test_header_dimensions_fit_int32(self):
        with pytest.raises(DataFormatError) as err:
            parse_repo_file(f"1 {2**31} 3\n0 0:1.0\n")
        assert err.value.line == 1


class TestNormalizeBitwise:
    def test_matches_per_point_norm(self):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), n=50, d=40)
            out = normalize_features(ds, "unit_l2")
            assert np.array_equal(out.indptr, ds.indptr) and out.label_ids is ds.label_ids
            for (sv, _), (got, _) in zip(ds.points, out.points):
                want = sv.values / float(np.linalg.norm(sv.values)) if sv.values.size else sv.values
                assert got.values.tobytes() == want.tobytes()
