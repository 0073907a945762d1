"""Clustered k-NN prediction: search, aggregation, ranking, full path."""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxml import (
    ClusterIndex,
    Dataset,
    LabelSet,
    MlpModel,
    Prediction,
    SparseVector,
    TrainConfig,
    ValidationError,
    init_model,
    kmeans,
    knn_batch,
    predict,
    predict_batch,
    top_p,
)
from dxml import cli, load_model, nearest_clusters, predictor, save_repo_file
from dxml.cluster import gemm_error_bound
from dxml.net import embed_points, train_embedding_net
from dxml.predictor import score_neighbors

from conftest import planted_dataset, random_dataset, rows_of, screen_blocks, sparse


def labels(*ids):
    return LabelSet.from_iterable(ids)


def embed(mlp, x):
    """One point's embedding: ``embed_points`` on a batch of one."""
    return embed_points(mlp, rows_of([x]))[0]


def sorted_oracle(vectors, query, k):
    """Full sort by (distance, id); the reference k-NN search."""
    d2 = ((vectors - query) ** 2).sum(axis=1)
    order = sorted(range(len(vectors)), key=lambda i: (d2[i], i))
    return order[: min(k, len(vectors))], np.sqrt(d2)


def oracle_knn(vectors, query, k, ids=None):
    """(ids, distances) of the k nearest rows, by ``sorted_oracle``; ``ids`` ascend with rows."""
    order, dists = sorted_oracle(vectors, query, k)
    ids = np.arange(len(vectors)) if ids is None else np.asarray(ids)
    return ids[order], dists[order]


def knn_one(vectors, query, k, ids=None):
    """``knn_batch`` for one query over one cluster of the given rows.

    Row i is training point ``ids[i]`` (default i); the other training
    points of the model are not in the cluster.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n, dim = vectors.shape
    if ids is None:
        embeds, assignments = vectors, np.zeros(n, dtype=int)
    else:
        embeds = np.zeros((int(np.max(ids)) + 1, dim))
        embeds[ids] = vectors
        assignments = np.ones(len(embeds), dtype=int)
        assignments[ids] = 0
    # With ids, the other points form cluster 1, whose center ties with
    # cluster 0's: a tie routes to the lower id, so every query meets the rows.
    index = ClusterIndex(centers=np.zeros((int(assignments.max(initial=0)) + 1, dim)),
                         assignments=assignments)
    return knn_batch(index, embeds, np.asarray(query, dtype=np.float64)[None, :], k)[0]


def vote(neighbor_labels, weighting="uniform", distances=None):
    """``score_neighbors`` for one query whose neighbors, in order, hold ``neighbor_labels``."""
    n = len(neighbor_labels)
    index = ClusterIndex(centers=np.zeros((1, 1)), assignments=np.zeros(n, dtype=int))
    return score_neighbors(index, neighbor_labels, [(np.arange(n), distances)], weighting)[0]


class TestKnnSearch:
    def test_matches_sort_oracle_200_instances(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 6))
            k = int(rng.integers(1, n + 3))
            vectors = rng.standard_normal((n, dim))
            q = rng.standard_normal(dim)
            ids, dists = knn_one(vectors, q, k)
            want_ids, all_d = sorted_oracle(vectors, q, k)
            assert ids.tolist() == want_ids, f"trial {trial}"
            assert np.array_equal(dists, all_d[want_ids])

    def test_duplicate_rows_tie_break_by_id(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        ids, dists = knn_one(vectors, np.zeros(2), 4)
        assert ids.tolist() == [1, 2, 0, 3]
        assert dists.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_k_larger_than_pool_returns_all(self):
        vectors = np.array([[0.0], [2.0], [1.0]])
        ids, _ = knn_one(vectors, np.array([0.0]), 10)
        assert ids.tolist() == [0, 2, 1]

    def test_query_equal_to_member_ranks_first(self):
        rng = np.random.default_rng(1)
        vectors = rng.standard_normal((20, 3))
        ids, dists = knn_one(vectors, vectors[13], 5)
        assert ids[0] == 13 and dists[0] == 0.0

    def test_zero_dimensional_vectors_all_tie(self):
        ids, dists = knn_one(np.zeros((3, 0)), np.zeros(0), 2)
        assert ids.tolist() == [0, 1] and dists.tolist() == [0.0, 0.0]

    def test_custom_ids_are_reported(self):
        vectors = np.array([[0.0], [1.0]])
        ids, _ = knn_one(vectors, np.array([0.9]), 1, ids=np.array([70, 31]))
        assert ids.tolist() == [31]

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            knn_one(np.zeros((2, 2)), np.zeros(2), 0)
        with pytest.raises(ValidationError, match="no members"):
            knn_one(np.empty((0, 2)), np.zeros(2), 1)
        with pytest.raises(ValidationError):
            knn_one(np.zeros((2, 2)), np.zeros(3), 1)


class TestAggregateLabels:
    def test_uniform_counting_example(self):
        scores = vote([labels(1, 2), labels(2), labels(2, 3)])
        assert scores == pytest.approx({1: 1 / 3, 2: 1.0, 3: 1 / 3})

    def test_single_neighbor_scores_one(self):
        assert vote([labels(4, 9)]) == pytest.approx({4: 1.0, 9: 1.0})

    def test_uniform_scores_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            sets = [
                labels(*rng.choice(12, size=rng.integers(1, 5), replace=False))
                for _ in range(int(rng.integers(1, 8)))
            ]
            scores = vote(sets)
            assert all(0.0 < v <= 1.0 + 1e-12 for v in scores.values())

    def test_inverse_distance_weighting(self):
        d = np.array([1.0, 3.0])
        raw = 1.0 / (d + 1e-8)
        w = raw / raw.sum()
        scores = vote([labels(0), labels(1)], "inverse_distance", d)
        assert scores == pytest.approx({0: w[0], 1: w[1]})
        assert sum(scores.values()) == pytest.approx(1.0)

    def test_inverse_distance_requires_distances(self):
        with pytest.raises(ValidationError):
            vote([labels(0)], "inverse_distance")
        with pytest.raises(ValidationError):
            vote([labels(0)], "inverse_distance", np.array([1.0, 2.0]))

    def test_unknown_weighting(self):
        with pytest.raises(ValidationError):
            vote([labels(0)], "softmax")

    def test_empty_neighbors_rejected(self):
        with pytest.raises(ValidationError):
            vote([])


class TestTopP:
    def test_tie_broken_by_label_index(self):
        assert top_p({1: 1 / 3, 2: 1.0, 3: 1 / 3}, 2) == [2, 1]

    def test_p_one_is_argmax(self):
        assert top_p({0: 0.2, 7: 0.9, 3: 0.5}, 1) == [7]

    def test_fewer_scores_than_p(self):
        assert top_p({5: 1.0}, 4) == [5]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            scores = {int(l): float(rng.integers(-2, 4)) / 4 for l in rng.choice(50, n, False)}
            p = int(rng.integers(1, 8))
            want = sorted(scores, key=lambda l: (-scores[l], l))[:p]
            got = top_p(scores, p)
            assert got == want
            assert all(type(label) is int for label in got)

    def test_sum_vs_average_same_ranking(self):
        # ranking is invariant under positive scaling of all scores
        rng = np.random.default_rng(4)
        for _ in range(30):
            scores = {int(l): float(rng.random()) for l in rng.choice(30, 8, False)}
            scaled = {l: v * len(scores) for l, v in scores.items()}
            assert top_p(scores, 5) == top_p(scaled, 5)


def trained_toy_artifacts(seed=0, n=40, d=8, L=7, m=1):
    """Small trained pipeline tail: mlp, clusters, train embeddings, labels."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=n, d=d, L=L, max_labels=3)
    xs = [sv for sv, _ in ds.points]
    label_sets = [ls for _, ls in ds.points]
    targets = rng.standard_normal((n, 4))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    mlp = train_embedding_net(
        ds.features, targets, d, TrainConfig(epochs=3, rng_seed=seed), hidden_size=6
    )
    embeds = embed_points(mlp, ds.features)
    clusters = kmeans(embeds, m, rng_seed=seed)
    return mlp, clusters, embeds, label_sets, xs


class TestPredict:
    def test_single_point_training_set(self):
        rng = np.random.default_rng(5)
        x = sparse([(0, 1.0), (2, -0.5)])
        mlp = init_model(3, 4, 3, rng)
        embeds = embed_points(mlp, rows_of([x]))
        clusters = kmeans(embeds, 1)
        out = predict(mlp, clusters, embeds, [labels(2, 5)], x, k=1, p=5)
        assert out.scores == {2: 1.0, 5: 1.0}
        assert out.top_labels == [2, 5]

    def test_m1_equals_global_knn_bitwise(self):
        mlp, clusters, embeds, label_sets, xs = trained_toy_artifacts(m=1)
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = sparse(enumerate(rng.standard_normal(8)))
            got = predict(mlp, clusters, embeds, label_sets, q, k=5, p=5)
            # standalone global k-NN, no clustering involved
            fx = embed(mlp, q)
            d2 = ((embeds - fx) ** 2).sum(axis=1)
            order = np.lexsort((np.arange(len(xs)), d2))[:5]
            want_scores: dict[int, float] = {}
            for i in order.tolist():
                for label in label_sets[i]:
                    want_scores[label] = want_scores.get(label, 0.0) + 1.0 / 5
            assert got.scores == want_scores, "bit-identical aggregation"
            want_top = sorted(want_scores, key=lambda l: (-want_scores[l], l))[:5]
            assert got.top_labels == want_top

    def test_m4_neighbors_come_from_routed_cluster(self):
        mlp, clusters, embeds, label_sets, xs = trained_toy_artifacts(seed=1, m=4)
        rng = np.random.default_rng(7)
        for _ in range(30):
            q = sparse(enumerate(rng.standard_normal(8)))
            fx = embed(mlp, q)
            ci = int(np.argmin(((clusters.centers - fx) ** 2).sum(axis=1)))
            member_ids = clusters.members[ci]
            k = 6
            ids, _ = oracle_knn(embeds[member_ids], fx, k, ids=member_ids)
            assert set(ids.tolist()) <= set(member_ids.tolist())
            assert ids.size == min(k, member_ids.size)
            got = predict(mlp, clusters, embeds, label_sets, q, k=k, p=3)
            want = reference_vote([label_sets[i] for i in ids.tolist()], "uniform", None)
            assert got.scores == want

    def test_m4_matches_global_knn_when_contained(self):
        mlp, clusters, embeds, label_sets, xs = trained_toy_artifacts(seed=2, m=4)
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(30):
            q = sparse(enumerate(rng.standard_normal(8)))
            fx = embed(mlp, q)
            global_ids, _ = oracle_knn(embeds, fx, 4)
            ci = int(np.argmin(((clusters.centers - fx) ** 2).sum(axis=1)))
            if not set(global_ids.tolist()) <= set(clusters.members[ci].tolist()):
                continue
            got = predict(mlp, clusters, embeds, label_sets, q, k=4, p=3)
            want = reference_vote([label_sets[i] for i in global_ids.tolist()], "uniform", None)
            assert got.scores == want
            checked += 1
        assert checked > 0, "containment case never exercised"

    def test_repeat_calls_identical(self):
        mlp, clusters, embeds, label_sets, _ = trained_toy_artifacts(seed=3, m=2)
        q = sparse([(1, 0.3), (4, -1.2)])
        a = predict(mlp, clusters, embeds, label_sets, q, k=3, p=2)
        b = predict(mlp, clusters, embeds, label_sets, q, k=3, p=2)
        assert a == b and isinstance(a, Prediction)

    def test_feature_index_out_of_range(self):
        mlp, clusters, embeds, label_sets, _ = trained_toy_artifacts(seed=4)
        bad = sparse([(99, 1.0)])
        with pytest.raises(ValidationError):
            predict(mlp, clusters, embeds, label_sets, bad)

    def test_bad_k_p(self):
        mlp, clusters, embeds, label_sets, _ = trained_toy_artifacts(seed=5)
        q = sparse([(0, 1.0)])
        with pytest.raises(ValidationError):
            predict(mlp, clusters, embeds, label_sets, q, k=0)
        with pytest.raises(ValidationError):
            predict(mlp, clusters, embeds, label_sets, q, p=0)


# ── the batched engine against a full-sort oracle ────────────────────────────


def routed_oracle(index, embeds, q, k):
    """Nearest center by linear scan, then a full sort of its members by (distance, id)."""
    c = int(np.argmin(((index.centers - q) ** 2).sum(axis=1)))
    members = index.members[c]
    d2 = ((embeds[members] - q) ** 2).sum(axis=1)
    order = sorted(range(members.size), key=lambda j: (d2[j], members[j]))[:k]
    return members[order], np.sqrt(d2[order])


def engine_case(seed, n, dim, m, kind, query_kind, num_queries):
    """Training rows, a cluster index over them and queries, for one engine check.

    kind: 'gaussian'; 'grid' (entries in {-1, 0, 1}, so exact distance ties and
    duplicate rows); 'duplicates' (a few distinct rows, each repeated); 'offset'
    (a large common offset plus small noise, where |v|^2 - 2 q.v loses every
    digit that separates the rows).
    """
    rng = np.random.default_rng(seed)
    if kind == "grid":
        rows = rng.integers(-1, 2, size=(n, dim)).astype(np.float64)
    elif kind == "duplicates":
        base = rng.standard_normal((max(1, n // 4), dim))
        rows = base[rng.integers(base.shape[0], size=n)]
    elif kind == "offset":
        offset = 10.0 ** rng.integers(3, 9)
        rows = offset + 10.0 ** rng.integers(-3, 1) * rng.standard_normal((n, dim))
    else:
        rows = rng.standard_normal((n, dim))
    m = min(m, n)
    assign = rng.permutation(np.concatenate([np.arange(m), rng.integers(m, size=n - m)]))
    centers = np.stack([rows[assign == c].mean(axis=0) for c in range(m)])
    index = ClusterIndex(centers=centers, assignments=assign)
    if query_kind == "train_rows":
        queries = rows[rng.integers(n, size=num_queries)]
    else:
        spread = rows.std(axis=0) + 1e-3
        queries = rows.mean(axis=0) + spread * rng.standard_normal((num_queries, dim))
    return rows, index, queries


engine_cases = st.builds(
    engine_case,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 90),
    dim=st.integers(1, 8),
    m=st.integers(1, 4),
    kind=st.sampled_from(["gaussian", "grid", "duplicates", "offset"]),
    query_kind=st.sampled_from(["random", "train_rows"]),
    num_queries=st.integers(1, 12),
)


def assert_same_neighbors(got, want):
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


class TestKnnBatch:
    # k below the cluster size takes the GEMM shortlist, or for inputs this small
    # the exact table; k at or above it, the whole scan.
    @given(engine_cases, st.one_of(st.integers(1, 8), st.integers(1, 100)))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_sort_oracle(self, case, k):
        rows, index, queries = case
        for searched in (contextlib.nullcontext(), screen_blocks(64)):
            with searched:
                got = knn_batch(index, rows, queries, k)
            assert len(got) == len(queries)
            for q, nbrs in zip(queries, got):
                assert_same_neighbors(nbrs, routed_oracle(index, rows, q, k))

    @given(engine_cases, st.integers(1, 12), st.sampled_from([1, 2, 5]))
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_one_at_a_time(self, case, k, block):
        rows, index, queries = case
        with screen_blocks(block):
            batch = knn_batch(index, rows, queries, k)
        for q, nbrs in zip(queries, batch):
            assert_same_neighbors(nbrs, knn_batch(index, rows, q[None, :], k)[0])

    def test_duplicate_rows_and_ties_break_by_id(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [3.0, 3.0]])
        index = kmeans(rows, 1)
        ids, dists = knn_batch(index, rows, np.zeros((1, 2)), 4)[0]
        assert ids.tolist() == [1, 2, 0, 3]
        assert dists.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_k_at_least_cluster_size_returns_whole_cluster(self):
        rows, index, queries = engine_case(4, 30, 3, 3, "gaussian", "random", 20)
        sizes = {c: ids.size for c, ids in enumerate(index.members)}
        routed = {int(np.argmin(((index.centers - q) ** 2).sum(axis=1))) for q in queries}
        assert len(routed) > 1, "queries should reach more than one cluster"
        for q, (ids, _) in zip(queries, knn_batch(index, rows, queries, 50)):
            c = int(np.argmin(((index.centers - q) ** 2).sum(axis=1)))
            assert ids.size == sizes[c]
            assert sorted(ids.tolist()) == index.members[c].tolist()

    def test_query_equal_to_training_row(self):
        rows, index, _ = engine_case(5, 80, 6, 1, "gaussian", "random", 1)
        for i in (0, 17, 79):
            ids, dists = knn_batch(index, rows, rows[i][None, :], 5)[0]
            assert ids[0] == i and dists[0] == 0.0

    def test_large_offset_widens_the_shortlist(self):
        rng = np.random.default_rng(6)
        rows = 1e8 + 1e-3 * rng.standard_normal((60, 4))
        queries = 1e8 + 1e-3 * rng.standard_normal((8, 4))
        index = kmeans(rows, 1)
        k = 5
        # The GEMM form alone cannot rank these rows: its values are whole ulps of 4e16.
        approx = (rows**2).sum(axis=1) - 2.0 * queries @ rows.T
        naive = [np.argsort(a, kind="stable")[:k].tolist() for a in approx]
        exact = [routed_oracle(index, rows, q, k)[0].tolist() for q in queries]
        assert naive != exact
        with screen_blocks(64):
            found = knn_batch(index, rows, queries, k)
        for q, nbrs in zip(queries, found):
            assert_same_neighbors(nbrs, routed_oracle(index, rows, q, k))

    def test_single_cluster_searches_without_copying(self):
        rows, index, queries = engine_case(7, 40, 3, 1, "gaussian", "random", 5)
        spy = mock.patch.object(predictor, "_nearest_rows", wraps=predictor._nearest_rows)
        with spy as nearest_rows:
            knn_batch(index, rows, queries, 5)
        assert nearest_rows.call_count == 1
        assert nearest_rows.call_args.args[0] is rows

    def test_empty_batch(self):
        rows, index, _ = engine_case(8, 10, 2, 2, "gaussian", "random", 1)
        assert knn_batch(index, rows, np.empty((0, 2)), 3) == []

    def test_query_routed_to_an_empty_cluster(self):
        rows = np.zeros((4, 2))
        index = ClusterIndex(centers=np.array([[0.0, 0.0], [5.0, 5.0]]),
                             assignments=np.zeros(4, dtype=np.int64))
        with pytest.raises(ValidationError, match="no members"):
            knn_batch(index, rows, np.array([[5.0, 5.0]]), 2)

    def test_bad_inputs(self):
        rows, index, queries = engine_case(9, 10, 2, 1, "gaussian", "random", 2)
        with pytest.raises(ValidationError):
            knn_batch(index, rows, queries, 0)
        with pytest.raises(ValidationError):
            knn_batch(index, rows, np.zeros((2, 3)), 3)


def oracle_prediction(mlp, index, embeds, label_sets, x, k, p, weighting):
    """Prediction from the routed full-sort oracle and a plain dict vote."""
    ids, dists = routed_oracle(index, embeds, embed(mlp, x), k)
    if weighting == "uniform":
        weights = [1.0 / ids.size] * ids.size
    else:
        raw = 1.0 / (dists + 1e-8)
        weights = (raw / raw.sum()).tolist()
    scores: dict[int, float] = {}
    for i, w in zip(ids.tolist(), weights):
        for label in label_sets[i]:
            scores[label] = scores.get(label, 0.0) + w
    top = sorted(scores, key=lambda l: (-scores[l], l))[:p]
    return Prediction(scores=scores, top_labels=top)


class TestPredictBatch:
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("weighting", ["uniform", "inverse_distance"])
    def test_matches_oracle_and_single_predict(self, m, weighting):
        mlp, clusters, embeds, label_sets, xs = trained_toy_artifacts(seed=11, n=60, m=m)
        rng = np.random.default_rng(12)
        queries = xs[:10] + [sparse(enumerate(rng.standard_normal(8))) for _ in range(15)]
        for k in (1, 4, 25, 100):
            batch = predict_batch(
                mlp, clusters, embeds, label_sets, rows_of(queries), k=k, weighting=weighting
            )
            for x, scores in zip(queries, batch):
                got = predict(mlp, clusters, embeds, label_sets, x, k, 3, weighting)
                assert got.scores == scores
                assert got == oracle_prediction(
                    mlp, clusters, embeds, label_sets, x, k, 3, weighting
                )

    def test_empty_batch(self):
        mlp, clusters, embeds, label_sets, _ = trained_toy_artifacts(seed=14)
        assert predict_batch(mlp, clusters, embeds, label_sets, rows_of([])) == []


# ── the per-model search cache against the per-call reference ────────────────


def reference_block_neighbors(rows, ids, queries, k):
    """The search with every row norm computed again on each call, as before the cache."""
    n, dim = rows.shape
    if k >= n:
        return [oracle_knn(rows, q, k, ids=ids) for q in queries]
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    approx = queries @ rows.T
    approx *= -2.0
    approx += sq_norms
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    bound = gemm_error_bound(dim, sq_norms.max(), np.einsum("ij,ij->i", queries, queries))
    keep = ~(approx > (kth + 2.0 * bound)[:, None])
    out = []
    for q, row_keep in zip(queries, keep):
        sel = np.flatnonzero(row_keep)
        out.append(oracle_knn(rows[sel], q, k, ids=sel if ids is None else ids[sel]))
    return out


def reference_knn_batch(index, train_embeds, queries, k):
    """One query at a time, copying the routed cluster's rows for each."""
    train_embeds = np.asarray(train_embeds, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    out = []
    for q, c in zip(queries, nearest_clusters(index, queries).tolist()):
        members = index.members[c]
        if members.size == train_embeds.shape[0]:
            rows, ids = train_embeds, None
        else:
            rows, ids = train_embeds[members], members
        out.append(reference_block_neighbors(rows, ids, q[None, :], k)[0])
    return out


def reference_vote(neighbor_labels, weighting, distances):
    """The dict vote over LabelSets, one ``ids.tolist()`` per neighbor."""
    if weighting == "uniform":
        weights = np.full(len(neighbor_labels), 1.0 / len(neighbor_labels))
    else:
        raw = 1.0 / (np.asarray(distances, dtype=np.float64) + 1e-8)
        weights = raw / raw.sum()
    scores: dict[int, float] = {}
    for labels, w in zip(neighbor_labels, weights.tolist()):
        for label in labels.ids.tolist():
            scores[label] = scores.get(label, 0.0) + w
    return scores


def reference_scores(index, train_embeds, label_sets, queries, k, weighting):
    return [
        reference_vote([label_sets[i] for i in ids.tolist()], weighting, dists)
        for ids, dists in reference_knn_batch(index, train_embeds, queries, k)
    ]


def same_bits(got, want):
    """Score maps equal in keys, values and insertion (accumulation) order."""
    assert [list(m.items()) for m in got] == [list(m.items()) for m in want]


def label_sets_for(rng, n, L=9):
    """Random label sets, about a fifth of them empty."""
    return [
        LabelSet.from_iterable(rng.choice(L, size=int(rng.integers(0, 4)), replace=False))
        if rng.random() > 0.2 else LabelSet.empty()
        for _ in range(n)
    ]


class TestSearchCache:
    @given(engine_cases, st.one_of(st.integers(1, 8), st.integers(1, 100)),
           st.sampled_from(["uniform", "inverse_distance"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_search_and_vote_match_reference(self, case, k, weighting, seed):
        # train_rows queries sit at distance 0 from a training row; k up to 100
        # reaches past every cluster's size.
        rows, index, queries = case
        label_sets = label_sets_for(np.random.default_rng(seed), rows.shape[0])
        want = reference_scores(index, rows, label_sets, queries, k, weighting)
        for _ in range(2):  # the second call reads the cache the first one built
            got = score_neighbors(index, label_sets, knn_batch(index, rows, queries, k), weighting)
            same_bits(got, want)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("weighting", ["uniform", "inverse_distance"])
    def test_predict_and_predict_batch_match_reference(self, m, weighting):
        mlp, clusters, embeds, _, xs = trained_toy_artifacts(seed=21, n=60, m=m)
        label_sets = label_sets_for(np.random.default_rng(22), len(xs))
        queries = xs[:20]
        fx = embed_points(mlp, rows_of(queries))
        for k in (1, 4, 25, 100):
            want = reference_scores(clusters, embeds, label_sets, fx, k, weighting)
            got = predict_batch(mlp, clusters, embeds, label_sets, rows_of(queries), k, weighting)
            same_bits(got, want)
            for x, scores in zip(queries, want):
                one = predict(mlp, clusters, embeds, label_sets, x, k, 3, weighting)
                same_bits([one.scores], [scores])
                assert one.top_labels == sorted(scores, key=lambda l: (-scores[l], l))[:3]

    def test_two_models_used_alternately(self):
        models = [trained_toy_artifacts(seed=23, n=50, m=1),
                  trained_toy_artifacts(seed=24, n=50, m=3)]
        rng = np.random.default_rng(25)
        queries = rows_of([sparse(enumerate(rng.standard_normal(8))) for _ in range(6)])
        for _ in range(3):
            for mlp, clusters, embeds, label_sets, _ in models:
                fx = embed_points(mlp, queries)
                want = reference_scores(clusters, embeds, label_sets, fx, 5, "inverse_distance")
                got = predict_batch(
                    mlp, clusters, embeds, label_sets, queries, 5, "inverse_distance"
                )
                same_bits(got, want)

    @pytest.mark.parametrize("m", [1, 3])
    def test_results_follow_a_new_array_of_the_same_shape(self, m):
        rows, index, queries = engine_case(26, 60, 4, m, "gaussian", "random", 10)
        rng = np.random.default_rng(27)
        label_sets = label_sets_for(rng, 60)
        other_rows = rows[rng.permutation(60)]
        other_labels = label_sets_for(rng, 60)
        first = score_neighbors(index, label_sets, knn_batch(index, rows, queries, 3))
        for embeds, sets in [(other_rows, label_sets), (rows, other_labels), (rows, label_sets)]:
            got = score_neighbors(index, sets, knn_batch(index, embeds, queries, 3))
            same_bits(got, reference_scores(index, embeds, sets, queries, 3, "uniform"))
            assert (got == first) == (embeds is rows and sets is label_sets)

    def test_cache_is_keyed_on_the_callers_object(self):
        rows, index, queries = engine_case(28, 40, 3, 2, "gaussian", "random", 4)
        as_f32 = rows.astype(np.float32)
        knn_batch(index, as_f32, queries, 3)
        built = index.search_cache.rows[1]
        knn_batch(index, as_f32, queries, 3)
        assert index.search_cache.rows[1] is built, "a float32 input must not rebuild"
        knn_batch(index, as_f32.copy(), queries, 3)
        assert index.search_cache.rows[1] is not built, "another object must rebuild"

    def test_cache_is_ignored_by_equality(self):
        rows, index, queries = engine_case(29, 30, 3, 2, "gaussian", "random", 3)
        twin = ClusterIndex(centers=index.centers, assignments=index.assignments)
        knn_batch(index, rows, queries, 3)
        assert index.search_cache is not None and twin.search_cache is None
        assert index == twin

    @pytest.mark.parametrize("weighting", ["uniform", "inverse_distance"])
    def test_sweep_k_matches_reference(self, tmp_path, weighting):
        train = planted_dataset(80, 6, seed=30)
        test = planted_dataset(25, 6, seed=31)
        train_path, test_path = str(tmp_path / "train.txt"), str(tmp_path / "test.txt")
        save_repo_file(train, train_path)
        save_repo_file(test, test_path)
        model = str(tmp_path / "model.dxml")
        assert cli.main(["-q", "train", train_path, "--model-out", model, "--embed-dim", "4",
                         "--walks-per-node", "2", "--walk-length", "6", "--window", "2",
                         "--embed-epochs", "1", "--hidden", "8", "--epochs", "2",
                         "--clusters", "3"]) == 0
        grid = (1, 4, 9, 100)
        with mock.patch.object(cli, "evaluate", wraps=cli.evaluate) as spy:
            assert cli.main(["-q", "sweep-k", model, test_path, "--k-grid",
                             ",".join(map(str, grid)), "--weighting", weighting]) == 0
        art = load_model(model)
        fx = embed_points(art.mlp, cli._load_test_for_model(art, test_path).features)
        neighbors = reference_knn_batch(art.clusters, art.train_embeds, fx, max(grid))
        for k, call in zip(grid, spy.call_args_list):
            want = [
                reference_vote([art.train_labels[i] for i in ids[:k].tolist()], weighting, d[:k])
                for ids, d in neighbors
            ]
            same_bits(call.args[0], want)


# ── a loaded model's float32 arrays against the same model widened ─────────


def float32_and_widened(seed, m, n=50, d=9, H=7, el=4):
    """(float32 side, float64 side): a model with float32 W1 and train_embeds, and its widening.

    Each side is (mlp, clusters, train_embeds); the clusters are twins, so
    neither side reads a search cache the other built.
    """
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n=n, d=d, L=9)  # about one point in seven has no features
    model = init_model(d, H, el, rng)
    W1 = model.W1.astype(np.float32)
    mlp32 = MlpModel(W1=W1, b1=rng.standard_normal(H), W2=model.W2, b2=rng.standard_normal(el))
    mlp64 = MlpModel(W1=W1.astype(np.float64), b1=mlp32.b1, W2=mlp32.W2, b2=mlp32.b2)
    embeds = embed_points(mlp64, ds.features).astype(np.float32)
    index = kmeans(embeds.astype(np.float64), m, rng_seed=seed)
    twin = ClusterIndex(centers=index.centers, assignments=index.assignments)
    return (mlp32, index, embeds), (mlp64, twin, embeds.astype(np.float64))


def sparse_queries(rng, num, d=9):
    """Random sparse points, every third one with no features."""
    out = []
    for i in range(num):
        nnz = 0 if i % 3 == 0 else int(rng.integers(1, d + 1))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        out.append(SparseVector(idx.astype(np.int32), rng.standard_normal(nnz)))
    return out


class TestFloat32Model:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3]),
           st.sampled_from(["uniform", "inverse_distance"]), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_same_bits_as_the_widened_model(self, seed, m, weighting, k):
        f32, f64 = float32_and_widened(seed, m)
        label_sets = label_sets_for(np.random.default_rng(seed + 1), 50)
        xs = sparse_queries(np.random.default_rng(seed + 2), 12)
        for x in xs:
            assert embed(f32[0], x).tobytes() == embed(f64[0], x).tobytes()
        rows = rows_of(xs)
        assert embed_points(f32[0], rows).tobytes() == embed_points(f64[0], rows).tobytes()
        want = predict_batch(*f64, label_sets, rows, k, weighting)
        same_bits(predict_batch(*f32, label_sets, rows, k, weighting), want)
        for x, scores in zip(xs[:4], want):
            one = predict(*f32, label_sets, x, k, 3, weighting)
            same_bits([one.scores], [scores])
            assert one == predict(*f64, label_sets, x, k, 3, weighting)

    def test_float32_train_embeds_are_never_widened_whole(self):
        n, dim = 30000, 8
        embeds = np.random.default_rng(42).standard_normal((n, dim)).astype(np.float32)
        queries = np.ones((2, dim))
        for m in (1, 3):
            index = ClusterIndex(centers=np.eye(m, dim), assignments=np.arange(n) % m)
            index.members  # the model's member lists, built once, are not the search's memory
            tracemalloc.start()
            try:
                knn_batch(index, embeds, queries, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rows = [cr.rows for cr in index.search_cache.rows[1]]
            assert all(r.dtype == np.float32 for r in rows)
            assert sum(r.shape[0] for r in rows) == n
            if m == 1:
                assert rows[0] is embeds
            copy = 0 if m == 1 else 4 * n * dim  # the float32 rows the cache gathers
            tables = 2 * 4 * len(queries) * (n // m)  # float32 screen values and their partition
            norms = 12 * n  # float32 screen norms, and the float64 ones they are rounded from
            assert peak < copy + tables + norms, m

    @pytest.mark.parametrize("m", [1, 3, 8])
    def test_cluster_major_rows_are_views_of_train_embeds(self, m):
        # Points stored grouped by cluster, as ``dxml train`` writes them: each
        # cluster's rows are read in place, with no gathered copy.
        n, dim = 30000, 8
        embeds = np.random.default_rng(43).standard_normal((n, dim)).astype(np.float32)
        index = ClusterIndex(centers=np.eye(m, dim), assignments=np.arange(n) * m // n)
        index.members
        tracemalloc.start()
        try:
            knn_batch(index, embeds, np.ones((2, dim)), 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        built = index.search_cache.rows[1]
        assert len(built) == m
        for members, cr in zip(index.members, built):
            assert np.shares_memory(cr.rows, embeds)
            assert cr.rows.tobytes() == embeds[members].tobytes()
            assert (cr.ids is None) if members[0] == 0 else (cr.ids is members)
        tables = 2 * 4 * 2 * n  # float32 screen values and their partition, at most
        norms = 12 * n  # float32 screen norms, and the float64 ones they are rounded from
        assert peak < tables + norms < 4 * n * dim  # a gathered copy of the rows

    def test_interleaved_clusters_give_the_cluster_major_bits(self):
        # A model whose clusters interleave (written before the stored order
        # grouped them) takes the gather path and finds the same neighbors, as
        # long as each cluster keeps the order of its points.
        mlp, clusters, embeds, _, xs = trained_toy_artifacts(seed=44, n=60, m=3)
        label_sets = label_sets_for(np.random.default_rng(45), 60)
        major = np.argsort(clusters.assignments, kind="stable")
        assign = clusters.assignments[major]
        rank = np.arange(60) - np.searchsorted(assign, assign)  # place inside the cluster
        twin = np.lexsort((assign, rank))  # round robin over the clusters
        assert not np.array_equal(twin, np.arange(60))
        models = []
        for order in (major, major[twin]):
            index = ClusterIndex(centers=clusters.centers, assignments=clusters.assignments[order])
            models.append((index, embeds[order], [label_sets[i] for i in order]))
        queries = rows_of(xs[:20])
        for k, weighting in ((1, "uniform"), (4, "uniform"), (100, "inverse_distance")):
            got = [predict_batch(mlp, index, rows, sets, queries, k, weighting)
                   for index, rows, sets in models]
            same_bits(got[1], got[0])
        views = [[np.shares_memory(cr.rows, rows) for cr in index.search_cache.rows[1]]
                 for index, rows, _ in models]
        assert views == [[True] * 3, [False] * 3]

    @pytest.mark.parametrize("clusters", ["1", "3"])
    @pytest.mark.parametrize("weighting", ["uniform", "inverse_distance"])
    def test_sweep_k_same_as_with_the_widened_model(self, tmp_path, capsys, clusters, weighting):
        train = planted_dataset(80, 6, seed=42)
        test = planted_dataset(25, 6, seed=43)
        empty = SparseVector(np.empty(0, dtype=np.int32), np.empty(0))
        test = Dataset(test.num_points, test.num_features, test.num_labels,
                       [(empty if i == 3 else sv, ls) for i, (sv, ls) in enumerate(test.points)])
        assert test.indptr[4] == test.indptr[3]  # point 3 has no features
        train_path, test_path = str(tmp_path / "train.txt"), str(tmp_path / "test.txt")
        save_repo_file(train, train_path)
        save_repo_file(test, test_path)
        model = str(tmp_path / "model.dxml")
        assert cli.main(["-q", "train", train_path, "--model-out", model, "--embed-dim", "4",
                         "--walks-per-node", "2", "--walk-length", "6", "--window", "2",
                         "--embed-epochs", "1", "--hidden", "8", "--epochs", "2",
                         "--clusters", clusters]) == 0
        assert load_model(model).mlp.W1.dtype == np.float32

        def widened(path, **kwargs):
            art = load_model(path, **kwargs)
            art.mlp.W1 = art.mlp.W1.astype(np.float64)
            art.train_embeds = art.train_embeds.astype(np.float64)
            return art

        outputs, maps = [], []
        for loader in (load_model, widened):
            out = str(tmp_path / f"best-{len(outputs)}.txt")
            capsys.readouterr()
            with mock.patch.object(cli, "load_model", loader), \
                    mock.patch.object(cli, "evaluate", wraps=cli.evaluate) as spy:
                assert cli.main(["-q", "sweep-k", model, test_path, "--k-grid", "1,4,9,100",
                                 "--weighting", weighting, "--out", out]) == 0
            with open(out) as fh:
                outputs.append((capsys.readouterr().out, fh.read()))
            maps.append([call.args[0] for call in spy.call_args_list])
        assert outputs[0] == outputs[1]
        assert len(maps[0]) == 4
        for got, want in zip(*maps):
            same_bits(got, want)
