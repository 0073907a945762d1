"""Ranking metrics against hand values and a brute-force oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxml import Dataset, LabelSet, MetricReport, ValidationError, evaluate
from dxml.metrics import _ranked_head

from conftest import sparse

# Frozen by hand from the formula: hits at rank positions 1 and 3 of the
# top 3, two true labels.  DCG = 1 + 1/log2(4) = 1.5; ideal = 1 + 1/log2(3).
HAND_NDCG = 1.5 / (1.0 + 1.0 / math.log2(3.0))


def brute_rank(scores, k):
    """Reference ranking: stable sort on (-score, index), NaN last, plain Python."""
    def key(i):
        return (math.isnan(scores[i]), 0.0 if math.isnan(scores[i]) else -scores[i], i)

    order = sorted(range(len(scores)), key=key)
    return order[: min(k, len(scores))]


def brute_precision(scores, truth, k):
    return sum(1 for i in brute_rank(scores, k) if i in truth) / k


def brute_ndcg(scores, truth, k):
    if not truth:
        return 0.0
    ranked = brute_rank(scores, k)
    dcg = sum(1.0 / math.log2(pos + 1) for pos, i in enumerate(ranked, 1) if i in truth)
    ideal = sum(1.0 / math.log2(pos + 1) for pos in range(1, min(k, len(truth)) + 1))
    return dcg / ideal


def rank_k(scores, k):
    """The head ``evaluate`` ranks for one point's dense score vector, at k."""
    scores = np.asarray(scores, dtype=np.float64)
    return _ranked_head(dict(enumerate(scores.tolist())), scores.size, min(k, scores.size))


def one_point(scores, truth, k):
    """``evaluate``'s report at k for one point with dense ``scores`` and labels ``truth``."""
    ds = tiny_dataset([truth.ids.tolist()], num_labels=len(scores))
    return evaluate([dict(enumerate(np.asarray(scores).tolist()))], ds, ks=(k,))


def precision_at_k(scores, truth, k):
    """One point's P@k, through ``evaluate``."""
    return one_point(scores, truth, k).precision[k]


def ndcg_at_k(scores, truth, k):
    """One point's nDCG@k, through ``evaluate``."""
    return one_point(scores, truth, k).ndcg[k]


class TestRankK:
    def test_basic_example(self):
        assert rank_k(np.array([0.1, 0.9, 0.5]), 2).tolist() == [1, 2]

    def test_all_equal_ties_by_index(self):
        assert rank_k(np.array([0.3, 0.3, 0.3]), 2).tolist() == [0, 1]

    def test_k_exceeding_length(self):
        assert rank_k(np.array([0.2, 0.8]), 5).tolist() == [1, 0]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 20))
            scores = rng.integers(0, 5, size=n) / 4.0
            k = int(rng.integers(1, n + 2))
            assert rank_k(scores, k).tolist() == brute_rank(scores.tolist(), k)

    def test_bad_inputs(self):
        ds = tiny_dataset([[0]], num_labels=1)
        with pytest.raises(ValidationError):
            evaluate([{0: 0.1}], ds, ks=(0,))
        with pytest.raises(ValidationError):
            evaluate([{0: 0.1}], ds, ks=())


class TestPrecisionAtK:
    def test_all_top_k_correct(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1])
        assert precision_at_k(scores, LabelSet.from_iterable([0, 1, 2]), 3) == 1.0

    def test_empty_truth_is_zero(self):
        assert precision_at_k(np.array([0.5, 0.4]), LabelSet.empty(), 2) == 0.0

    def test_two_of_three(self):
        # correct labels land at ranked positions 1 and 3
        scores = np.array([0.9, 0.8, 0.7])
        assert precision_at_k(scores, LabelSet.from_iterable([0, 2]), 3) == pytest.approx(2 / 3)

    def test_k_beyond_labels_dilutes(self):
        scores = np.array([0.9, 0.1, 0.1])
        assert precision_at_k(scores, LabelSet.from_iterable([0]), 5) == pytest.approx(1 / 5)


class TestNdcgAtK:
    def test_hand_example(self):
        # scores rank labels 0, 2, 1; truth {0, 1} hits positions 1 and 3
        scores = np.array([0.9, 0.5, 0.8])
        got = ndcg_at_k(scores, LabelSet.from_iterable([0, 1]), 3)
        assert got == pytest.approx(HAND_NDCG, abs=1e-15)
        assert got == pytest.approx(0.9197207891481876, abs=1e-12)

    def test_perfect_top_k(self):
        scores = np.array([0.9, 0.8, 0.7, 0.1, 0.0])
        assert ndcg_at_k(scores, LabelSet.from_iterable([0, 1, 2]), 3) == 1.0

    def test_empty_truth_is_zero(self):
        assert ndcg_at_k(np.array([0.5]), LabelSet.empty(), 3) == 0.0

    def test_single_true_label_found_first(self):
        scores = np.array([0.1, 0.9])
        assert ndcg_at_k(scores, LabelSet.from_iterable([1]), 3) == 1.0

    @given(
        st.lists(st.integers(0, 10), min_size=1, max_size=12),
        st.sets(st.integers(0, 11), max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_ndcg_at_1_equals_p_at_1(self, raw_scores, truth_ids):
        scores = np.array(raw_scores, dtype=np.float64) / 10.0
        truth = LabelSet.from_iterable(truth_ids)
        assert ndcg_at_k(scores, truth, 1) == precision_at_k(scores, truth, 1)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = rng.random(8)
            truth = LabelSet.from_iterable(rng.choice(8, 3, replace=False))
            k = int(rng.integers(1, 6))
            assert ndcg_at_k(scores, truth, k) == ndcg_at_k(np.exp(3 * scores), truth, k)
            assert precision_at_k(scores, truth, k) == precision_at_k(2 * scores + 1, truth, k)


class TestBruteForceOracle:
    def test_1000_random_triples_exact(self):
        rng = np.random.default_rng(2)
        for trial in range(1000):
            n = int(rng.integers(1, 25))
            style = trial % 10
            if style == 0:
                scores = np.full(n, 0.5)  # all tied
            elif style == 1:
                scores = rng.integers(0, 3, size=n) / 2.0  # heavy ties
            else:
                scores = rng.random(n)
            if style == 2:
                truth_ids = []  # empty label set
            else:
                truth_ids = rng.choice(n, size=int(rng.integers(0, min(n, 6) + 1)), replace=False)
            truth = LabelSet.from_iterable(int(t) for t in truth_ids)
            truth_set = set(truth_ids.tolist()) if style != 2 else set()
            k = int(rng.integers(1, n + 2))
            assert precision_at_k(scores, truth, k) == brute_precision(scores.tolist(), truth_set, k)
            assert ndcg_at_k(scores, truth, k) == brute_ndcg(scores.tolist(), truth_set, k)


def tiny_dataset(label_sets, num_labels):
    points = [
        (sparse([(0, 1.0)]), LabelSet.from_iterable(ls))
        for ls in label_sets
    ]
    return Dataset(num_points=len(points), num_features=1, num_labels=num_labels, points=points)


class TestEvaluate:
    def test_mean_of_hit_and_miss(self):
        ds = tiny_dataset([[0], [0]], num_labels=3)
        maps = [{0: 1.0}, {1: 1.0}]
        report = evaluate(maps, ds, ks=(1,))
        assert report.precision[1] == pytest.approx(0.5)
        assert "P@1=50.00" in report.format_kv()

    def test_all_perfect_reports_100(self):
        ds = tiny_dataset([[0, 1, 2, 3, 4], [1, 2, 3, 4, 5]], num_labels=6)
        maps = [
            {l: 1.0 - 0.01 * r for r, l in enumerate(ls)}
            for ls in ([0, 1, 2, 3, 4], [1, 2, 3, 4, 5])
        ]
        report = evaluate(maps, ds, ks=(1, 3, 5))
        for k in (1, 3, 5):
            assert report.precision[k] == 1.0
            assert report.ndcg[k] == 1.0
        kv = report.format_kv()
        assert kv.count("=100.00") == 6

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(3)
        L = 9
        label_sets = [rng.choice(L, size=rng.integers(0, 4), replace=False).tolist() for _ in range(25)]
        ds = tiny_dataset(label_sets, num_labels=L)
        maps = []
        for _ in range(25):
            chosen = rng.choice(L, size=4, replace=False)
            maps.append({int(l): float(rng.random()) for l in chosen})
        report = evaluate(maps, ds, ks=(1, 3))
        for k in (1, 3):
            dense_scores = []
            for m in maps:
                row = [0.0] * L
                for l, v in m.items():
                    row[l] = v
                dense_scores.append(row)
            want_p = np.mean([
                brute_precision(row, set(ls), k) for row, ls in zip(dense_scores, label_sets)
            ])
            want_n = np.mean([
                brute_ndcg(row, set(ls), k) for row, ls in zip(dense_scores, label_sets)
            ])
            assert report.precision[k] == pytest.approx(want_p, abs=1e-10)
            assert report.ndcg[k] == pytest.approx(want_n, abs=1e-10)

    def test_skip_unlabeled_changes_denominator(self):
        ds = tiny_dataset([[0], []], num_labels=2)
        maps = [{0: 1.0}, {0: 1.0}]
        with_zeros = evaluate(maps, ds, ks=(1,))
        skipped = evaluate(maps, ds, ks=(1,), skip_unlabeled=True)
        assert with_zeros.precision[1] == pytest.approx(0.5)
        assert with_zeros.num_points == 2 and with_zeros.num_skipped == 0
        assert skipped.precision[1] == pytest.approx(1.0)
        assert skipped.num_points == 1 and skipped.num_skipped == 1

    def test_count_mismatch_rejected(self):
        ds = tiny_dataset([[0]], num_labels=2)
        with pytest.raises(ValidationError):
            evaluate([{0: 1.0}, {1: 0.5}], ds)

    def test_out_of_range_label_rejected(self):
        ds = tiny_dataset([[0]], num_labels=2)
        with pytest.raises(ValidationError):
            evaluate([{5: 1.0}], ds, ks=(1,))

    def test_all_points_skipped_rejected(self):
        ds = tiny_dataset([[]], num_labels=2)
        with pytest.raises(ValidationError):
            evaluate([{0: 1.0}], ds, ks=(1,), skip_unlabeled=True)


class TestReportFormat:
    def report(self):
        return MetricReport(
            ks=(1, 3),
            precision={1: 0.660344, 3: 0.402111},
            ndcg={1: 0.660344, 3: 0.54},
            num_points=100,
        )

    def test_kv_lines(self):
        kv = self.report().format_kv()
        assert re.search(r"^P@1=66\.03$", kv, re.M)
        assert re.search(r"^P@3=40\.21$", kv, re.M)
        assert re.search(r"^nDCG@3=54\.00$", kv, re.M)
        assert kv.endswith("\n")

    def test_table_has_two_decimal_percentages(self):
        table = self.report().format_table()
        assert "66.03" in table and "40.21" in table
        assert "points evaluated: 100" in table


def reference_evaluate(score_maps, dataset, ks, skip_unlabeled=False):
    """Every k ranks every point's full dense score vector: the first evaluate.

    A point's P@k and nDCG@k are the brute-force formulas, summed in the
    same order as the library's, so the means agree bit for bit.
    """
    dense = [0.0] * dataset.num_labels
    p_sums = {k: 0.0 for k in ks}
    n_sums = {k: 0.0 for k in ks}
    counted = skipped = 0
    for point_scores, (_, truth) in zip(score_maps, dataset.points):
        if skip_unlabeled and len(truth) == 0:
            skipped += 1
            continue
        for label, score in point_scores.items():
            dense[label] = score
        truth_ids = set(truth.ids.tolist())
        for k in ks:
            p_sums[k] += brute_precision(dense, truth_ids, k)
            n_sums[k] += brute_ndcg(dense, truth_ids, k)
        counted += 1
        dense = [0.0] * dataset.num_labels
    return ({k: p_sums[k] / counted for k in ks}, {k: n_sums[k] / counted for k in ks},
            counted, skipped)


@st.composite
def scored_points(draw):
    L = draw(st.integers(1, 12))
    n = draw(st.integers(1, 8))
    label_sets = [draw(st.lists(st.integers(0, L - 1), unique=True, max_size=L)) for _ in range(n)]
    score = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0, float("nan")]),
        st.floats(-2.0, 2.0),
    )
    maps = [draw(st.dictionaries(st.integers(0, L - 1), score, max_size=L)) for _ in range(n)]
    ks = draw(st.lists(st.integers(1, 15), min_size=1, max_size=6, unique=True))
    return tiny_dataset(label_sets, L), maps, tuple(ks)


@settings(max_examples=300, deadline=None)
@given(scored_points(), st.booleans())
def test_evaluate_bitwise_equals_ranking_every_k(case, skip):
    """Ties, zero and negative scores, unscored labels and k > L included."""
    ds, maps, ks = case
    if skip and all(len(ls) == 0 for _, ls in ds.points):
        skip = False
    report = evaluate(maps, ds, ks=ks, skip_unlabeled=skip)
    precision, ndcg, counted, skipped = reference_evaluate(maps, ds, ks, skip)
    assert report.precision == precision and report.ndcg == ndcg
    assert (report.num_points, report.num_skipped) == (counted, skipped)
