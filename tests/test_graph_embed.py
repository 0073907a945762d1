"""Random walks and skip-gram label embeddings."""

import numpy as np
import pytest

from dxml import DeepWalkConfig, ValidationError, embed_labels, generate_walks
from dxml import graph_embed
from dxml.graph_embed import (
    WalkCorpus, _sgns_update, _token_blocks, _window_pairs, _work_arrays, fit_skipgram,
)

from test_label_graph import adjacent, dataset_from_label_sets
from dxml import build_label_graph


def graph_of(label_sets, L):
    return build_label_graph(dataset_from_label_sets(label_sets, L))


def two_cliques(size=5):
    """Two disjoint cliques built from full-label-set points."""
    first = set(range(size))
    second = set(range(size, 2 * size))
    return graph_of([first, first, second, second], 2 * size)


def walks_of(corpus):
    """The corpus's walks as a list of arrays, one per walk."""
    return np.split(corpus.tokens, corpus.indptr[1:-1])


def corpus_of(walks, num_nodes):
    """A flat ``WalkCorpus`` holding ``walks``, in order."""
    indptr = np.concatenate(([0], np.cumsum([w.size for w in walks]))).astype(np.int64)
    return WalkCorpus(tokens=np.concatenate(walks).astype(np.int32), indptr=indptr,
                      num_nodes=num_nodes)


def reference_walks(graph, walks_per_node, walk_length, rng_seed, weighted=False):
    """The walks one at a time, each its own array, from per-node neighbour and weight lists.

    Each (node, pass) draws from a generator seeded by SeedSequence(seed,
    spawn_key=(0, node, pass)); a step takes a uniform neighbour, or, with
    ``weighted``, the first whose float64 cumulative weight exceeds
    ``random() * total``.
    """
    adj, weights = zip(*(adjacent(graph, v) for v in range(graph.num_nodes)))
    cumweights = [np.cumsum(w, dtype=np.float64) for w in weights]
    walks = []
    for pass_idx in range(walks_per_node):
        for start in range(graph.num_nodes):
            if adj[start].size == 0:
                walks.append(np.array([start], dtype=np.int32))
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence(rng_seed, spawn_key=(0, start, pass_idx)))
            walk = np.empty(walk_length, dtype=np.int32)
            walk[0] = cur = start
            for step in range(1, walk_length):
                nbrs = adj[cur]
                if weighted:
                    cw = cumweights[cur]
                    cur = int(nbrs[np.searchsorted(cw, rng.random() * cw[-1], side="right")])
                else:
                    cur = int(nbrs[rng.integers(nbrs.size)])
                walk[step] = cur
            walks.append(walk)
    return walks


SMALL_CFG = DeepWalkConfig(dim=12, walks_per_node=4, walk_length=16, epochs=2, rng_seed=9)


def negative_sampling_objective(vectors, corpus, window, negatives, seed):
    """Mean sampled log likelihood of every (centre, context) pair at the full window.

    Each pair draws ``negatives`` nodes from the unigram^0.75 distribution of
    the corpus, from a generator seeded by ``seed``, so two models scored
    with one seed meet the same negatives; a draw equal to the context counts
    for nothing, as in training.
    """
    centres, contexts = [], []
    for walk in walks_of(corpus):
        for t in range(walk.size):
            for u in range(max(0, t - window), min(walk.size, t + window + 1)):
                if u != t:
                    centres.append(walk[t])
                    contexts.append(walk[u])
    centres, contexts = np.array(centres), np.array(contexts)
    noise = np.bincount(corpus.tokens, minlength=corpus.num_nodes) ** 0.75
    rng = np.random.default_rng(seed)
    drawn = rng.choice(corpus.num_nodes, size=(centres.size, negatives), p=noise / noise.sum())
    node_vectors, context_vectors = vectors
    v = node_vectors[centres]
    # log sigmoid(s) = -log(1 + exp(-s)): the context's score, and minus each negative's
    pos = -np.logaddexp(0.0, -np.einsum("pd,pd->p", v, context_vectors[contexts]))
    neg = -np.logaddexp(0.0, np.einsum("pd,pkd->pk", v, context_vectors[drawn]))
    kept = drawn != contexts[:, None]
    return float(np.mean(pos + (kept * neg).sum(axis=1)))


class TestWalks:
    def test_counts_and_lengths(self):
        g = graph_of([{0, 1, 2}, {1, 3}], 5)
        corpus = generate_walks(g, walks_per_node=3, walk_length=10, rng_seed=1)
        walks = walks_of(corpus)
        assert len(walks) == 3 * g.num_nodes and corpus.indptr[-1] == corpus.total_tokens
        for walk in walks:
            expected = 1 if adjacent(g, int(walk[0]))[0].size == 0 else 10
            assert walk.size == expected

    def test_every_node_starts_its_walks(self):
        g = graph_of([{0, 1}, {1, 2}], 4)
        corpus = generate_walks(g, walks_per_node=4, walk_length=6, rng_seed=0)
        starts = corpus.tokens[corpus.indptr[:-1]].tolist()
        for node in range(g.num_nodes):
            assert starts.count(node) == 4

    def test_steps_follow_edges(self):
        g = graph_of([{0, 1, 2}, {2, 3}], 4)
        corpus = generate_walks(g, walks_per_node=5, walk_length=12, rng_seed=3)
        for walk in walks_of(corpus):
            for a, b in zip(walk[:-1], walk[1:]):
                assert int(b) in adjacent(g, int(a))[0].tolist()

    def test_path_graph_alternates(self):
        g = graph_of([{0, 1}], 2)
        corpus = generate_walks(g, walks_per_node=2, walk_length=7, rng_seed=5)
        for walk in walks_of(corpus):
            assert walk.tolist() == [walk[0], 1 - walk[0]] * 3 + [walk[0]]

    def test_isolated_nodes_yield_singletons(self):
        g = graph_of([{0, 1}], 4)
        corpus = generate_walks(g, walks_per_node=2, walk_length=9, rng_seed=0)
        singles = [w for w in walks_of(corpus) if w.size == 1]
        assert sorted(int(w[0]) for w in singles) == [2, 2, 3, 3]

    def test_walks_stay_in_component(self):
        g = two_cliques(3)
        corpus = generate_walks(g, walks_per_node=4, walk_length=20, rng_seed=2)
        for walk in walks_of(corpus):
            side = int(walk[0]) // 3
            assert all(int(x) // 3 == side for x in walk)

    def test_deterministic_for_seed(self):
        g = graph_of([{0, 1, 2}, {2, 3, 4}], 5)
        a = generate_walks(g, 5, 15, rng_seed=11)
        b = generate_walks(g, 5, 15, rng_seed=11)
        c = generate_walks(g, 5, 15, rng_seed=12)
        assert np.array_equal(a.tokens, b.tokens) and np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indptr, c.indptr) and not np.array_equal(a.tokens, c.tokens)

    def test_weighted_walks_prefer_heavy_edges(self):
        # node 0 co-occurs with 1 in 50 points and with 2 in a single point
        sets = [{0, 1}] * 50 + [{0, 2}]
        g = graph_of(sets, 3)
        corpus = generate_walks(g, walks_per_node=40, walk_length=8, rng_seed=7, weighted=True)
        from_zero = [int(w[1]) for w in walks_of(corpus) if int(w[0]) == 0]
        assert from_zero.count(1) / len(from_zero) > 0.9

    def test_bad_params(self):
        g = graph_of([{0, 1}], 2)
        with pytest.raises(ValidationError):
            generate_walks(g, 0, 10)
        with pytest.raises(ValidationError):
            generate_walks(g, 1, 0)


def oracle_graphs():
    """Random graphs with isolated nodes, a path, weights 50 and 1, and no edges at all."""
    for seed in range(4):
        # Labels 9-11 never occur and label 8 only alone: four isolated nodes.
        # Repeated sets give edges weights above 1.
        rng = np.random.default_rng(seed)
        sets = [set(rng.choice(8, size=int(rng.integers(1, 5)), replace=False).tolist())
                for _ in range(12)]
        yield graph_of(sets + sets[:5] + [{8}], 12)
    yield graph_of([{0, 1}, {1, 2}, {2, 3}, {2, 3}], 5)  # nodes of degree 1, node 4 isolated
    yield graph_of([{0, 1}] * 50 + [{0, 2}, {1, 2}], 3)
    yield graph_of([{0}, {1}], 3)


class TestWalkOracle:
    """The flat corpus equals the per-walk reference token for token."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("walk_length", [1, 2, 9])
    def test_corpus_matches_reference(self, weighted, walk_length):
        for seed, g in enumerate(oracle_graphs()):
            corpus = generate_walks(g, 3, walk_length, rng_seed=seed, weighted=weighted)
            want = reference_walks(g, 3, walk_length, seed, weighted)
            assert corpus.num_nodes == g.num_nodes
            assert corpus.tokens.dtype == np.int32 and corpus.indptr.dtype == np.int64
            assert corpus.indptr.tolist() == np.cumsum([0] + [w.size for w in want]).tolist()
            assert corpus.tokens.tobytes() == np.concatenate(want).tobytes()


class TestSkipgram:
    def test_shape_and_finiteness(self):
        g = graph_of([{0, 1, 2}, {1, 2, 3}], 5)
        V = embed_labels(g, SMALL_CFG)
        assert V.shape == (12, 5) and V.dtype == np.float64 and V.flags.c_contiguous
        assert np.all(np.isfinite(V))

    def test_bit_identical_for_seed(self):
        g = graph_of([{0, 1, 2}, {2, 3}], 4)
        a = embed_labels(g, SMALL_CFG)
        b = embed_labels(g, SMALL_CFG)
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_result(self):
        g = graph_of([{0, 1, 2}, {2, 3}], 4)
        a = embed_labels(g, SMALL_CFG)
        b = embed_labels(g, DeepWalkConfig(**{**SMALL_CFG.__dict__, "rng_seed": 10}))
        assert not np.array_equal(a, b)

    def test_singleton_corpus_keeps_initialization(self):
        # All labels isolated: no positive pairs, so no updates can happen.
        g = graph_of([{0}, {1}, {2}], 3)
        corpus = generate_walks(g, 4, 10, rng_seed=1)
        assert np.array_equal(corpus.indptr, np.arange(4 * 3 + 1))
        node_vectors, context_vectors = fit_skipgram(corpus, SMALL_CFG)
        assert np.all(context_vectors == 0.0)
        bound = 0.5 / SMALL_CFG.dim
        assert np.all(np.abs(node_vectors) <= bound)
        assert np.any(node_vectors != 0.0)

    def test_objective_improves(self):
        g = graph_of([{0, 1, 2}, {2, 3, 4}, {0, 4}], 5)
        corpus = generate_walks(g, 6, 20, rng_seed=4)
        start = fit_skipgram(corpus, DeepWalkConfig(**{**SMALL_CFG.__dict__, "epochs": 0}))
        trained = fit_skipgram(corpus, SMALL_CFG)
        assert np.all(start[1] == 0.0)  # the initial vectors
        scores = [negative_sampling_objective(vectors, corpus, SMALL_CFG.window,
                                              SMALL_CFG.negative_samples, seed=SMALL_CFG.rng_seed)
                  for vectors in (start, trained)]
        assert scores[1] > scores[0]

    def test_window_must_fit_walk(self):
        with pytest.raises(ValidationError):
            DeepWalkConfig(window=40, walk_length=40).validate()

    def test_embed_labels_matches_fit(self):
        g = graph_of([{0, 1}, {1, 2}], 3)
        corpus = generate_walks(g, SMALL_CFG.walks_per_node, SMALL_CFG.walk_length,
                                rng_seed=SMALL_CFG.rng_seed)
        node_vectors, _ = fit_skipgram(corpus, SMALL_CFG)
        V = embed_labels(g, SMALL_CFG)
        assert V.tobytes() == np.ascontiguousarray(node_vectors.T).tobytes()


def reference_pairs(walks, order, reach):
    """(centre, context) corpus positions by a plain loop over (walk, t, u).

    ``reach[s]`` is the reach of the s-th token when the walks are taken in
    ``order``.
    """
    starts = np.cumsum([0] + [w.size for w in walks])
    pairs, s = [], 0
    for wi in order:
        n = walks[wi].size
        for t in range(n):
            r = int(reach[s])
            s += 1
            for u in range(max(0, t - r), min(n, t + r + 1)):
                if u != t:
                    pairs.append((int(starts[wi]) + t, int(starts[wi]) + u))
    return pairs


def reference_update(syn0, syn1, centre, rows, weight):
    """Every row read at chunk start, then each pair's update added in a loop."""
    syn0_0, syn1_0 = syn0.copy(), syn1.copy()
    syn0, syn1 = syn0.copy(), syn1.copy()
    for i, c in enumerate(centre):
        v = syn0_0[c]
        for j, r in enumerate(rows[i]):
            label = 1.0 if j == 0 else 0.0
            g = weight[i, j] * (label - 1.0 / (1.0 + np.exp(-(syn1_0[r] @ v))))
            syn1[r] += g * v
            syn0[c] += g * syn1_0[r]
    return syn0, syn1


class TestChunkedSkipgram:
    def test_pairs_match_double_loop(self):
        # length-1 and length-2 walks, and reaches that run past a walk's end
        walks = [np.array([3]), np.array([1, 2]), np.arange(7), np.array([4]),
                 np.array([0, 5]), np.arange(10, 15)]
        corpus = corpus_of(walks, 15)
        window = 3
        reach = np.random.default_rng(0).integers(1, window + 1, size=corpus.total_tokens)
        reach[:4] = window
        for order in (np.arange(len(walks)), np.array([4, 2, 0, 5, 1, 3])):
            expected = reference_pairs(walks, order, reach)
            for block_tokens in (1, 2, 5, corpus.total_tokens):
                got = []
                for step, pos, start, end in _token_blocks(corpus.indptr, order, block_tokens):
                    i, ctx = _window_pairs(pos, start, end, reach[step], window)
                    got += zip(pos[i].tolist(), ctx.tolist())
                assert got == expected, (order, block_tokens)

    def test_chunk_update_adds_every_duplicate_row(self):
        rng = np.random.default_rng(3)
        syn0 = rng.normal(size=(6, 8))
        syn1 = rng.normal(size=(6, 8))
        centre = np.array([0, 1, 0])
        # row 3: context of pair 0 and twice a negative of pair 1; row 4: a
        # negative of pair 0, context of pair 1, negative of pair 2; pair 2
        # drew its own context as a negative, which carries weight 0
        rows = np.array([[3, 4, 5], [4, 3, 3], [5, 5, 4]])
        weight = np.full(rows.shape, 0.05)
        weight[2, 1] = 0.0
        want0, want1 = reference_update(syn0, syn1, centre, rows, weight)
        _sgns_update(syn0, syn1, centre, rows, weight, _work_arrays(3, 3, 8))
        np.testing.assert_allclose(syn0, want0, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(syn1, want1, rtol=1e-12, atol=1e-15)

    def test_tiny_blocks_train_deterministically(self, monkeypatch):
        monkeypatch.setattr(graph_embed, "_BLOCK_PAIRS", 4)
        g = graph_of([{0, 1, 2}, {2, 3}, {3, 4}], 5)
        corpus = generate_walks(g, 3, 12, rng_seed=1)
        a = fit_skipgram(corpus, SMALL_CFG)
        b = fit_skipgram(corpus, SMALL_CFG)
        assert all(np.all(np.isfinite(x)) for x in a)
        assert [x.tobytes() for x in a] == [x.tobytes() for x in b]


def pairwise_cosines(V, nodes):
    cols = [V[:, j] / np.linalg.norm(V[:, j]) for j in nodes]
    return [
        float(cols[i] @ cols[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    ]


class TestCliqueSeparation:
    def test_disjoint_cliques_separate(self):
        V = embed_labels(two_cliques(5), DeepWalkConfig(rng_seed=0))
        intra = pairwise_cosines(V, range(5)) + pairwise_cosines(V, range(5, 10))
        inter = [
            float(
                V[:, i]
                @ V[:, j]
                / (np.linalg.norm(V[:, i]) * np.linalg.norm(V[:, j]))
            )
            for i in range(5)
            for j in range(5, 10)
        ]
        gap = np.mean(intra) - np.mean(inter)
        assert gap >= 0.2, f"cosine gap {gap:.3f}"
