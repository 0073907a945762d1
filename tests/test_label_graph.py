"""Label co-occurrence graph construction and adjacency I/O."""

import io
from itertools import combinations

import numpy as np
import pytest

from dxml import DataFormatError, Dataset, LabelSet, build_label_graph
from dxml.label_graph import read_adjacency, write_adjacency

from conftest import random_dataset, sparse


def dataset_from_label_sets(label_sets, L):
    sv = sparse([])
    points = [(sv, LabelSet.from_iterable(ls)) for ls in label_sets]
    return Dataset(len(points), 1, L, points)


def adjacent(g, v):
    """Node v's neighbour ids and co-occurrence counts: its slices of the CSR arrays."""
    a, b = g.indptr[v], g.indptr[v + 1]
    return g.indices[a:b], g.weights[a:b]


def edge_counts(g):
    """{(i, j): weight} over the edges of ``g``, i < j, read from the CSR arrays."""
    got = {}
    for v in range(g.num_nodes):
        for u, w in zip(*(x.tolist() for x in adjacent(g, v))):
            if v < u:
                got[(v, u)] = w
    return got


def brute_force_counts(label_sets, L):
    """Independent pair counter: scan every point for every label pair."""
    counts = {}
    for i, j in combinations(range(L), 2):
        c = sum(1 for ls in label_sets if i in ls and j in ls)
        if c:
            counts[(i, j)] = c
    return counts


class TestBuild:
    def test_weights_count_cooccurrences(self):
        g = build_label_graph(dataset_from_label_sets([{0, 2}, {0, 1}, {0, 2}], 3))
        assert g.num_edges == 2
        nbrs, wts = adjacent(g, 0)
        assert nbrs.tolist() == [1, 2]
        assert wts.tolist() == [1, 2]

    def test_no_self_loops(self):
        g = build_label_graph(dataset_from_label_sets([{1}, {1}, {1, 2}], 3))
        for node in range(3):
            assert node not in adjacent(g, node)[0].tolist()

    def test_single_label_points_make_no_edges(self):
        g = build_label_graph(dataset_from_label_sets([{0}, {1}, {2}], 3))
        assert g.num_edges == 0

    def test_isolated_labels_keep_nodes(self):
        g = build_label_graph(dataset_from_label_sets([{0, 1}], 5))
        assert g.num_nodes == 5 and g.indptr.size == 6
        assert g.indptr[4] == g.indptr[5] == g.indices.size

    def test_symmetry_and_degree_sum(self):
        for seed in range(10):
            ds = random_dataset(np.random.default_rng(seed), n=50, L=8, max_labels=4)
            g = build_label_graph(ds)
            assert g.indptr[-1] == 2 * g.num_edges
            for v in range(g.num_nodes):
                for u, w in zip(*(x.tolist() for x in adjacent(g, v))):
                    back, back_w = adjacent(g, u)
                    assert v in back.tolist()
                    assert back_w[back.tolist().index(v)] == w

    def test_against_brute_force(self):
        for seed in range(15):
            ds = random_dataset(np.random.default_rng(seed), n=60, L=7, max_labels=5)
            label_sets = [set(ls) for _, ls in ds.points]
            expected = brute_force_counts(label_sets, ds.num_labels)
            assert edge_counts(build_label_graph(ds)) == expected

    def test_against_brute_force_many_labels(self):
        # Up to 12 labels a point and unlabeled points; neighbours sorted.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            L = int(rng.integers(1, 30))
            ds = random_dataset(rng, n=80, L=L, max_labels=min(L, 12), allow_unlabeled=True)
            g = build_label_graph(ds)
            assert g.indices.dtype == np.int32 and g.weights.dtype == np.int64
            assert g.indptr[0] == 0 and np.all(np.diff(g.indptr) >= 0)
            for v in range(L):
                assert np.all(np.diff(adjacent(g, v)[0]) > 0)
            assert edge_counts(g) == brute_force_counts([set(ls) for _, ls in ds.points], L)

    def test_no_labels_at_all(self):
        g = build_label_graph(dataset_from_label_sets([set(), set()], 4))
        assert g.num_nodes == 4 and g.num_edges == 0
        assert g.indptr.tolist() == [0, 0, 0, 0, 0] and g.indices.size == g.weights.size == 0


class TestAdjacencyIO:
    def roundtrip(self, g):
        buf = io.StringIO()
        write_adjacency(g, buf)
        return read_adjacency(io.StringIO(buf.getvalue()), g.num_nodes)

    def test_round_trip(self):
        for seed in range(5):
            ds = random_dataset(np.random.default_rng(seed), n=40, L=8, max_labels=4)
            g = build_label_graph(ds)
            back = self.roundtrip(g)
            for got, want in ((back.indptr, g.indptr), (back.indices, g.indices),
                              (back.weights, g.weights)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_written_text(self):
        # Node 3 and node 5 are isolated; each edge is written once, from its lower end.
        g = build_label_graph(dataset_from_label_sets([{0, 2}, {0, 1}, {0, 2}, {2, 4}], 6))
        buf = io.StringIO()
        write_adjacency(g, buf)
        assert buf.getvalue() == "6\n0 1 1\n0 2 2\n2 4 1\n"

    def test_weightless_edges_default_to_one(self):
        g = read_adjacency(io.StringIO("3\n0 1\n"), 3)
        assert adjacent(g, 0)[1].tolist() == [1]

    @pytest.mark.parametrize(
        "text",
        ["", "3\n0 0 1\n", "3\n0 5 1\n", "3\n0 1 0\n", "3\n0 1 1\n1 0 1\n", "3\nx y\n"],
    )
    def test_malformed(self, text):
        with pytest.raises(DataFormatError):
            read_adjacency(io.StringIO(text), 3)

    def test_node_count_mismatch(self):
        with pytest.raises(DataFormatError):
            read_adjacency(io.StringIO("4\n0 1 1\n"), 3)
