"""K-means partitioning, nearest-center routing and the nearest-row kernel."""

import contextlib
import logging
import tracemalloc

import numpy as np
import pytest

from dxml import ClusterIndex, ValidationError, kmeans, knn_batch, nearest_clusters
from dxml.cluster import _nearest_rows, _seed_centers, _sq_dists

from conftest import screen_blocks


def nearest_cluster(index, query):
    """The cluster one query is routed to: ``nearest_clusters`` on a batch of one."""
    return int(nearest_clusters(index, np.asarray(query, dtype=np.float64)[None, :])[0])


def blobs(rng, centers, per_blob, spread=0.05):
    rows = []
    for c in centers:
        rows.append(np.asarray(c) + spread * rng.standard_normal((per_blob, len(c))))
    return np.concatenate(rows)


class TestKmeans:
    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((40, 6))
        index = kmeans(pts, 1)
        assert index.num_clusters == 1
        assert np.array_equal(index.centers[0], pts.mean(axis=0))
        assert np.all(index.assignments == 0)

    def test_two_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        index = kmeans(pts, 2, rng_seed=1)
        got = {tuple(sorted(m.tolist())) for m in index.members}
        assert got == {(0, 1), (2, 3)}
        centers = sorted(index.centers.tolist())
        assert centers[0] == pytest.approx([0.05, 0.0], abs=1e-12)
        assert centers[1] == pytest.approx([10.05, 0.0], abs=1e-12)

    def test_separated_blobs_recovered(self):
        rng = np.random.default_rng(2)
        pts = blobs(rng, [(0, 0, 0), (8, 0, 0), (0, 8, 0)], per_blob=25)
        index = kmeans(pts, 3, rng_seed=2)
        for start in (0, 25, 50):
            block = index.assignments[start : start + 25]
            assert np.all(block == block[0]), "each blob lands in one cluster"

    def test_wcss_monotone_200_points(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((200, 5))
        index = kmeans(pts, 8, rng_seed=3)
        hist = index.wcss_history
        assert len(hist) >= 2
        for before, after in zip(hist, hist[1:]):
            assert after <= before + 1e-12

    def test_wcss_monotone_50_random_instances(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            n = int(rng.integers(10, 80))
            dim = int(rng.integers(2, 8))
            m = int(rng.integers(1, min(n, 9)))
            pts = rng.standard_normal((n, dim))
            index = kmeans(pts, m, rng_seed=trial)
            for before, after in zip(index.wcss_history, index.wcss_history[1:]):
                assert after <= before + 1e-12, f"trial {trial}"

    def test_partition_validity(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((60, 4))
        index = kmeans(pts, 5, rng_seed=5)
        seen = np.sort(np.concatenate(index.members))
        assert np.array_equal(seen, np.arange(60))
        for c, ids in enumerate(index.members):
            assert ids.size > 0
            assert np.all(index.assignments[ids] == c)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((50, 3))
        assert kmeans(pts, 4, rng_seed=7) == kmeans(pts, 4, rng_seed=7)

    def test_one_cluster_per_distinct_point(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((12, 3))
        index = kmeans(pts, 12, rng_seed=8)
        assert index.wcss_history[-1] == 0.0
        assert all(m.size == 1 for m in index.members)

    def test_too_many_clusters_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValidationError):
            kmeans(pts, 4)

    def test_duplicate_points_cannot_fill_clusters(self):
        pts = np.ones((5, 2))
        with pytest.raises(ValidationError, match="could not form that many non-empty clusters"):
            kmeans(pts, 2, rng_seed=0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            kmeans(np.empty((0, 2)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.random.default_rng(11).standard_normal((10, 3))
        pts[7, 1] = bad
        for m in (1, 2):
            with pytest.raises(ValidationError, match="finite"):
                kmeans(pts, m)


class TestNearestCluster:
    def index_with_centers(self, centers):
        m = len(centers)
        return ClusterIndex(centers=np.asarray(centers, dtype=np.float64), assignments=np.arange(m))

    def test_query_at_center(self):
        index = self.index_with_centers([[0.0, 0.0], [3.0, 4.0], [-1.0, 2.0]])
        for j in range(3):
            assert nearest_cluster(index, index.centers[j]) == j

    def test_equidistant_tie_picks_lowest(self):
        index = self.index_with_centers([[0.0, 0.0], [2.0, 0.0]])
        assert nearest_cluster(index, np.array([1.0, 5.0])) == 0

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(9)
        centers = rng.standard_normal((7, 4))
        index = self.index_with_centers(centers)
        for _ in range(200):
            q = rng.standard_normal(4)
            expected = int(np.argmin(((centers - q) ** 2).sum(axis=1)))
            assert nearest_cluster(index, q) == expected

    def test_dimension_mismatch(self):
        index = self.index_with_centers([[0.0, 0.0]])
        with pytest.raises(ValidationError):
            nearest_cluster(index, np.zeros(3))
        with pytest.raises(ValidationError):
            nearest_clusters(index, np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            nearest_clusters(index, np.zeros(2))

    def test_batch_routing_matches_single_queries(self):
        rng = np.random.default_rng(10)
        centers = rng.integers(-2, 3, size=(9, 3)).astype(np.float64)  # ties abound
        index = self.index_with_centers(centers)
        queries = rng.integers(-2, 3, size=(300, 3)).astype(np.float64)
        got = nearest_clusters(index, queries)
        assert got.tolist() == [nearest_cluster(index, q) for q in queries]
        assert nearest_clusters(index, np.empty((0, 3))).size == 0


def broadcast_sq_dists(points, centers):
    """The all-pairs formula k-means assignment used before it went per center."""
    return ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def assign(points, centers):
    """k-means assignment: the first column of the kernel at k=1."""
    return _nearest_rows(centers, points, 1)[0][:, 0]


def shortlist_lengths(monkeypatch):
    """Spy on the screen; returns the shortlist length of each screened query, in query order.

    The exact table is turned off, so the screen decides every query.
    """
    import dxml.cluster

    lengths = []
    real = dxml.cluster._shortlists

    def spy(keep, k):
        lengths.extend(keep.sum(axis=1).tolist())
        return real(keep, k)

    monkeypatch.setattr(dxml.cluster, "_shortlists", spy)
    monkeypatch.setattr(dxml.cluster, "_EXACT_TABLE", 0)
    return lengths


class TestAssign:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_broadcast_formula_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        m = int(rng.integers(1, 65))
        dim = int(rng.integers(1, 40))
        if seed % 3 == 0:  # small integers: exact distance ties between centers
            points = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)
            centers = rng.integers(-2, 3, size=(m, dim)).astype(np.float64)
        else:
            scale = 10.0 ** rng.integers(-3, 7)
            points = scale * rng.standard_normal((n, dim))
            centers = scale * rng.standard_normal((m, dim))
        want = broadcast_sq_dists(points, centers)
        for c in range(m):  # the distances to one center, as k-means++ seeding takes them
            assert np.array_equal(_sq_dists(points, centers, np.full((n, 1), c))[:, 0], want[:, c])
        for i in range(n):  # the distances from one point, as the per-query re-rank takes them
            assert np.array_equal(_sq_dists(points[i : i + 1], centers, np.arange(m)[None, :])[0],
                                  want[i])
        every = np.arange(m)[None, :].repeat(n, axis=0)  # the exact table
        assert np.array_equal(_sq_dists(points, centers, every), want)
        picks = np.argsort(-want, axis=1, kind="stable")  # gathered rows, as a shortlist's
        assert np.array_equal(_sq_dists(points, centers, picks), np.take_along_axis(want, picks, 1))
        order = np.lexsort((np.broadcast_to(np.arange(m), want.shape), want), axis=1)
        for screened in (contextlib.nullcontext(), screen_blocks(64)):
            with screened:
                assert np.array_equal(assign(points, centers), np.argmin(want, axis=1))
                for k in (1, 3):
                    ids, d2 = _nearest_rows(centers, points, k)
                    top = order[:, : min(k, m)]
                    assert np.array_equal(ids, top)
                    assert d2.tobytes() == np.take_along_axis(want, top, axis=1).tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_float32_targets_give_the_bits_of_their_widening(self, seed):
        # A float32 difference would round away the low bits of these rows.
        rng = np.random.default_rng(100 + seed)
        n, m, dim = int(rng.integers(1, 60)), int(rng.integers(1, 30)), int(rng.integers(1, 40))
        scale = 10.0 ** rng.integers(-3, 4)
        offset = 10.0 ** rng.integers(0, 4) if seed % 2 else 0.0
        points = offset + scale * rng.standard_normal((n, dim))
        t32 = (offset + scale * rng.standard_normal((m, dim))).astype(np.float32)
        t64 = t32.astype(np.float64)
        for pts in (points, points.astype(np.float32)):
            wide = pts.astype(np.float64)
            for c in range(m):  # one center for every point, as k-means++ seeding takes it
                one = np.full((n, 1), c)
                assert _sq_dists(pts, t32, one).tobytes() == _sq_dists(wide, t64, one).tobytes()
            every = np.arange(m)[None, :].repeat(n, axis=0)  # the exact table
            assert _sq_dists(pts, t32, every).tobytes() == _sq_dists(wide, t64, every).tobytes()
            picks = rng.integers(m, size=(n, 5))  # gathered rows, as a shortlist's
            assert _sq_dists(pts, t32, picks).tobytes() == _sq_dists(wide, t64, picks).tobytes()
        assert np.array_equal(_sq_dists(points, t32, every), broadcast_sq_dists(points, t64))

    def test_chunk_boundaries(self, monkeypatch):
        import dxml.cluster

        rng = np.random.default_rng(3)
        points = rng.standard_normal((50, 4))
        for m in (3, 10):  # fewer and more centers than a block's or a chunk's points
            centers = rng.standard_normal((m, 4))
            want = np.argmin(broadcast_sq_dists(points, centers), axis=1)
            with screen_blocks(7):  # blocks of 7 queries, a point or two per chunk of row sums
                assert np.array_equal(assign(points, centers), want)
            with monkeypatch.context() as patch:  # the exact table, 7 points per chunk
                patch.setattr(dxml.cluster, "_CHUNK_BYTES", 8 * 4 * m * 7)
                assert np.array_equal(assign(points, centers), want)

    def test_screen_leaves_gaps_within_twice_the_bound_to_the_exact_path(self, monkeypatch):
        # Centers 0 and 2 on a line, points 1 + j * eps: every screened value
        # (4 - 4p for center 2, 0 for center 0) is exact, so the screened gap
        # is 4|j| eps, against 2 * 16 * dim * eps * (max|c|^2 + |p|^2), about
        # 160 eps.  Steps with |j| < 40 must keep both centers, the others one.
        lengths = shortlist_lengths(monkeypatch)
        eps = np.finfo(np.float64).eps
        steps = np.array([0, 1, -1, 3, -3, 7, 12, -19, 30, 36, -37, 44, -45, 60, 200, -1000])
        points = (1.0 + steps * eps)[:, None]
        centers = np.array([[0.0], [2.0]])
        assert np.array_equal(assign(points, centers), (steps > 0).astype(np.int64))
        assert lengths == np.where(np.abs(steps) < 40, 2, 1).tolist()

    def test_second_neighbor_gaps_within_twice_the_bound_reach_the_re_rank(self, monkeypatch):
        # The k=2 form of the test above: a row at 1 is every point's nearest,
        # and rows 0 and 2 compete for second place with the same exact
        # screened values and the same 160 eps threshold, so exactly those
        # queries keep all three rows.
        lengths = shortlist_lengths(monkeypatch)
        eps = np.finfo(np.float64).eps
        steps = np.array([0, 1, -1, 3, -3, 7, 12, -19, 30, 36, -37, 44, -45, 60, 200, -1000])
        points = (1.0 + steps * eps)[:, None]
        rows = np.array([[1.0], [0.0], [2.0]])
        ids, d2 = _nearest_rows(rows, points, 2)
        assert ids[:, 0].tolist() == [0] * steps.size
        assert ids[:, 1].tolist() == np.where(steps > 0, 2, 1).tolist()
        want = broadcast_sq_dists(points, rows)
        assert d2.tobytes() == np.take_along_axis(want, ids, axis=1).tobytes()
        assert lengths == np.where(np.abs(steps) < 40, 3, 2).tolist()

    def test_both_sides_of_the_size_rule_give_the_same_bits(self, monkeypatch):
        import dxml.cluster

        dim = 64
        pairs = dxml.cluster._EXACT_TABLE // dim  # query-row pairs at the rule's edge
        tables = []
        real = dxml.cluster._sq_dists

        def spy(points, targets, which=None):
            if which is not None and which.shape[1] == targets.shape[0]:
                tables.append(points.shape[0])
            return real(points, targets, which)

        monkeypatch.setattr(dxml.cluster, "_sq_dists", spy)
        rng = np.random.default_rng(31)
        for q, n, k, exact in [(1, pairs, 3, True), (1, pairs + 1, 3, False),
                               (8, pairs // 8, 1, True), (8, pairs // 8 + 1, 1, False)]:
            rows = rng.integers(-2, 3, size=(n, dim)).astype(np.float64)  # ties
            queries = np.concatenate([rows[:1], rng.standard_normal((q - 1, dim))])
            want = broadcast_sq_dists(queries, rows)
            order = np.lexsort((np.broadcast_to(np.arange(n), want.shape), want), axis=1)[:, :k]
            del tables[:]
            got = _nearest_rows(rows, queries, k)
            assert (len(tables) > 0) == exact, (q, n)
            assert np.array_equal(got[0], order)
            assert got[1].tobytes() == np.take_along_axis(want, order, axis=1).tobytes()
            got_assign = assign(queries, rows)
            assert np.array_equal(got_assign, np.argmin(want, axis=1))
            for other in (0, 10**9):  # the other side of the rule
                with monkeypatch.context() as patch:
                    patch.setattr(dxml.cluster, "_EXACT_TABLE", other)
                    again = _nearest_rows(rows, queries, k)
                    assert np.array_equal(again[0], got[0])
                    assert again[1].tobytes() == got[1].tobytes()
                    assert np.array_equal(assign(queries, rows), got_assign)

    def test_assignment_memory_does_not_grow_with_the_point_count(self):
        rng = np.random.default_rng(32)
        centers = rng.standard_normal((64, 16))
        index = ClusterIndex(centers=centers, assignments=np.arange(64))
        beyond_output = []
        for n in (5_000, 50_000):
            queries = rng.standard_normal((n, 16))
            tracemalloc.start()
            try:
                got = nearest_clusters(index, queries)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.shape == (n,)
            beyond_output.append(peak - 16 * n)  # the search's ids and distances
        assert beyond_output[1] <= beyond_output[0] + 64 * 1024


def reference_assign(points, centers):
    """k-means assignment as it was before the GEMM screen: exact row sums only.

    Its ``argmin`` takes a NaN distance as nearest, unlike the kernel; the
    inputs it is compared on never mix NaN and numbers in one query's
    distances.
    """
    n, m = points.shape[0], centers.shape[0]
    out = np.empty(n, dtype=np.int64)
    d = np.empty((min(n, 8192), m), dtype=np.float64)
    for s in range(0, n, 8192):
        block = points[s : s + 8192]
        dist = d[: block.shape[0]]
        if block.shape[0] < m:
            for i, point in enumerate(block):
                dist[i] = ((centers - point) ** 2).sum(axis=1)
        else:
            for c, center in enumerate(centers):
                dist[:, c] = ((block - center) ** 2).sum(axis=1)
        out[s : s + 8192] = dist.argmin(axis=1)
    return out


def reference_wcss(points, centers, assign):
    return float(((points - centers[assign]) ** 2).sum(axis=1).sum())


def reference_kmeans(pts, num_clusters, max_iters=100, rng_seed=0):
    """``kmeans`` as it was before the GEMM screen; returns centers, assignments, history."""
    rng = np.random.default_rng(rng_seed)
    centers = _seed_centers(pts, num_clusters, rng)
    assign = reference_assign(pts, centers)
    history = [reference_wcss(pts, centers, assign)]
    for _ in range(max_iters):
        centers = centers.copy()
        empties = []
        for c in range(num_clusters):
            mask = assign == c
            if mask.any():
                centers[c] = pts[mask].mean(axis=0)
            else:
                empties.append(c)
        if empties:
            d_own = ((pts - centers[assign]) ** 2).sum(axis=1)
            for c in empties:
                far = int(np.argmax(d_own))
                centers[c] = pts[far]
                d_own[far] = -1.0
        new_assign = reference_assign(pts, centers)
        history.append(reference_wcss(pts, centers, new_assign))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return centers, assign, history


def reseed_case():
    """Points whose k-means empties a cluster at seed 4154, so reseeding runs."""
    rng = np.random.default_rng(4154)
    n = int(rng.integers(4, 30))
    m = int(rng.integers(2, min(n, 10) + 1))
    dim = int(rng.integers(1, 3))
    return rng.exponential(size=(n, dim)) ** 4, m


def oracle_cases():
    rng = np.random.default_rng(21)
    blob_centers = 3.0 * rng.standard_normal((8, 40))
    yield "blobs", blob_centers[rng.integers(0, 8, 333)] + rng.standard_normal((333, 40)), 8, (0, 1)
    yield "gaussian-m16", rng.standard_normal((250, 12)), 16, (0, 1)
    yield "gaussian-m1", rng.standard_normal((130, 7)), 1, (0, 1)
    yield "grid-ties", rng.integers(-2, 3, size=(200, 3)).astype(np.float64), 12, (0, 1)
    yield "offset-1e6", 1e6 + 1e-3 * rng.standard_normal((150, 6)), 5, (0, 1)
    yield "n-equals-m", rng.standard_normal((9, 4)), 9, (0, 1)
    yield "duplicates", np.repeat(rng.standard_normal((20, 5)), 4, axis=0), 10, (0, 1)
    yield ("reseed", *reseed_case(), (4154,))


def reference_seed_centers(points, m, rng):
    """k-means++ seeding with whole-array row sums, as before the chunked helper."""
    n = points.shape[0]
    centers = np.empty((m, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for c in range(1, m):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[c] = points[idx]
        np.minimum(d2, ((points - centers[c]) ** 2).sum(axis=1), out=d2)
    return centers


class TestKmeansOracle:
    """``kmeans`` and routing equal the exact-only reference bit for bit."""

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
    def test_kmeans_matches_reference(self, case, rows, caplog):
        _, pts, m, seeds = case
        with screen_blocks(rows) if rows is not None else contextlib.nullcontext():
            for seed in seeds:
                want_centers, want_assign, want_history = reference_kmeans(pts, m, rng_seed=seed)
                with caplog.at_level(logging.DEBUG, logger="dxml.cluster"):
                    index = kmeans(pts, m, rng_seed=seed)
                assert index.centers.tobytes() == want_centers.tobytes()
                assert np.array_equal(index.assignments, want_assign)
                for c, ids in enumerate(index.members):
                    assert np.array_equal(ids, np.flatnonzero(want_assign == c))
                assert np.array(index.wcss_history).tobytes() == np.array(want_history).tobytes()
                queries = np.concatenate([pts[::3], pts[:5] + 1e-9, pts.mean(axis=0, keepdims=True)])
                assert np.array_equal(nearest_clusters(index, queries), reference_assign(queries, index.centers))
        if case[0] == "reseed":
            assert "reseeded 1 empty clusters" in caplog.text

    @pytest.mark.parametrize("rows", [None, 1, 7])
    @pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
    def test_seeding_matches_reference(self, case, rows):
        _, pts, m, seeds = case
        with screen_blocks(rows) if rows is not None else contextlib.nullcontext():
            for seed in seeds:
                got = _seed_centers(pts, m, np.random.default_rng(seed))
                want = reference_seed_centers(pts, m, np.random.default_rng(seed))
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("rows", [None, 1, 7])
    def test_routing_matches_reference(self, rows):
        rng = np.random.default_rng(22)
        base = rng.standard_normal((6, 5))
        center_sets = {
            "duplicate": np.concatenate([base, base[[4, 1]], base[[1]]]),  # exact ties
            "grid": rng.integers(-2, 3, size=(10, 5)).astype(np.float64),
            "offset-1e6": 1e6 + 1e-3 * rng.standard_normal((7, 5)),
            "one": base[:1],
        }
        for name, centers in center_sets.items():
            index = ClusterIndex(centers=centers, assignments=np.arange(len(centers)))
            queries = np.concatenate([
                centers,
                centers[:3] + 1e-12,
                rng.integers(-2, 3, size=(131, 5)).astype(np.float64),
                centers.mean(axis=0) + 1e-3 * rng.standard_normal((40, 5)),
                [[np.nan] * 5, [0.0, np.inf, 0.0, 0.0, 0.0], [-np.inf] * 5, [1e300] * 5],
            ])
            # a batch of queries not a multiple of the block, fewer queries than centers, one query
            for qs in (queries, queries[:3], queries[-4:], queries[:1]):
                with np.errstate(invalid="ignore", over="ignore"):
                    want = reference_assign(qs, centers)
                    with screen_blocks(rows) if rows is not None else contextlib.nullcontext():
                        assert np.array_equal(nearest_clusters(index, qs), want), name
                        assert [nearest_cluster(index, q) for q in qs] == want.tolist(), name

    def test_nan_center_goes_last_as_in_knn(self):
        # Routing orders centers as the k-NN search orders rows: a NaN
        # distance counts as farthest, where np.argmin would take it.
        centers = np.array([[0.0, 0.0], [np.nan, 0.0], [1.0, 0.0], [np.inf, 0.0]])
        index = ClusterIndex(centers=centers, assignments=np.arange(4))
        queries = np.array([[0.1, 0.0], [0.9, 0.0], [np.inf, 0.0], [np.nan, 1.0]])
        with np.errstate(invalid="ignore"):
            assert reference_assign(queries, centers).tolist() == [1, 1, 1, 0]
            want = nearest_oracle(centers, queries, 1)[0][:, 0]
            assert want.tolist() == [0, 2, 0, 0]
            for screened in (contextlib.nullcontext(), screen_blocks(1)):
                with screened:
                    assert np.array_equal(nearest_clusters(index, queries), want)
                    assert [nearest_cluster(index, q) for q in queries] == want.tolist()

    def test_one_center_routes_without_a_search(self, monkeypatch):
        import dxml.cluster

        def no_search(*args, **kwargs):
            raise AssertionError("a one-center index needs no search")

        index = ClusterIndex(centers=np.ones((1, 3)), assignments=np.zeros(4, dtype=np.int64))
        monkeypatch.setattr(dxml.cluster, "_nearest_rows", no_search)
        queries = np.array([[0.0, 0.0, 0.0], [np.nan, 1.0, 2.0], [np.inf, 0.0, 0.0]])
        got = nearest_clusters(index, queries)
        assert got.dtype == np.int64 and got.tolist() == [0, 0, 0]
        assert nearest_clusters(index, np.empty((0, 3))).shape == (0,)
        with pytest.raises(ValidationError):
            nearest_clusters(index, np.zeros((2, 2)))


def nearest_oracle(rows, queries, k):
    """The k nearest rows by (exact distance, id), NaN last, from the broadcast formula."""
    want = broadcast_sq_dists(queries, rows)
    ids = np.broadcast_to(np.arange(rows.shape[0]), want.shape)
    order = np.lexsort((ids, want), axis=1)[:, : min(k, rows.shape[0])]
    return order, np.take_along_axis(want, order, axis=1)


def assert_float32_rows_match(rows32, queries, ks, blocks=(None, 1, 64)):
    """Float32 rows give the oracle's ids and distance bits, as their float64 widening does."""
    rows64 = rows32.astype(np.float64)
    with np.errstate(all="ignore"):
        want_assign = nearest_oracle(rows64, queries, 1)[0][:, 0]
        wants = {k: nearest_oracle(rows64, queries, k) for k in ks}
        for rows in blocks:
            with screen_blocks(rows) if rows is not None else contextlib.nullcontext():
                assert np.array_equal(assign(queries, rows32), want_assign)
                for k, (want_ids, want_d2) in wants.items():
                    for searched in (rows32, rows64):
                        ids, d2 = _nearest_rows(searched, queries, k)
                        assert np.array_equal(ids, want_ids), (rows, k, searched.dtype)
                        assert d2.tobytes() == want_d2.tobytes(), (rows, k, searched.dtype)


def float32_screen_values(rows32, queries):
    """|v|^2 - 2 q.v as the float32 screen forms it."""
    norms = np.einsum("ij,ij->i", rows32, rows32, dtype=np.float64).astype(np.float32)
    with np.errstate(all="ignore"):
        return norms - 2 * (queries.astype(np.float32) @ rows32.T)


class TestFloat32Screen:
    """Float32 rows, screened in float32 and re-ranked widened, give the float64 results' bits."""

    @pytest.mark.parametrize("rows", [None, 1, 7, 64])
    @pytest.mark.parametrize("case", list(oracle_cases()), ids=lambda c: c[0])
    def test_oracle_cases_rounded_to_float32(self, case, rows):
        _, pts, m, seeds = case
        rows32 = pts.astype(np.float32)
        rows64 = rows32.astype(np.float64)
        queries = np.concatenate([pts[::3], pts[:5] + 1e-9, pts.mean(axis=0, keepdims=True),
                                  rows64[:4]])
        assert_float32_rows_match(rows32, queries, (1, 3, 10), blocks=(rows,))
        index = kmeans(pts, m, rng_seed=seeds[0])  # rounding to float32 merges offset-1e6 points
        twin = ClusterIndex(centers=index.centers, assignments=index.assignments)
        with screen_blocks(rows) if rows is not None else contextlib.nullcontext():
            for k in (1, 5, 40):
                got = knn_batch(index, rows32, queries, k)
                want = knn_batch(twin, rows64, queries, k)
                for (ids, dists), (want_ids, want_dists) in zip(got, want):
                    assert np.array_equal(ids, want_ids)
                    assert dists.tobytes() == want_dists.tobytes()
        assert all(cr.rows.dtype == np.float32 for cr in index.search_cache.rows[1])

    def test_screen_leaves_gaps_within_twice_the_float32_bound_to_the_exact_path(self, monkeypatch):
        # The float32 twin of the float64 gap test: rows 0 and 2, queries
        # 1 + j * eps32, every screened value exact in float32 (0 for row 0,
        # -4 j eps32 for row 2).  Twice the bound is
        # 2 * gamma_7 * (4 + |q|^2) + 6 lambda, just above 35 eps32, so
        # exactly the queries with 4 |j| <= 35, |j| <= 8, keep both rows.
        lengths = shortlist_lengths(monkeypatch)
        eps = float(np.finfo(np.float32).eps)
        steps = np.array([0, 1, -1, 4, -4, 5, -5, 7, 8, -8, 9, -9, 12, 30, -100])
        points = (1.0 + steps * eps)[:, None]
        rows = np.array([[0.0], [2.0]], dtype=np.float32)
        assert np.array_equal(float32_screen_values(rows, points)[:, 1], -4 * steps * eps)
        assert np.array_equal(assign(points, rows), (steps > 0).astype(np.int64))
        assert lengths == np.where(np.abs(steps) <= 8, 2, 1).tolist()
        del lengths[:]
        ids, d2 = _nearest_rows(rows, points, 1)
        assert ids[:, 0].tolist() == (steps > 0).astype(np.int64).tolist()
        assert d2.tobytes() == np.take_along_axis(
            broadcast_sq_dists(points, rows.astype(np.float64)), ids, axis=1).tobytes()
        assert lengths == np.where(np.abs(steps) <= 8, 2, 1).tolist()

    def test_large_offset_widens_the_shortlist(self):
        rng = np.random.default_rng(6)
        rows32 = (1e3 + 1e-2 * rng.standard_normal((60, 4))).astype(np.float32)
        queries = 1e3 + 1e-2 * rng.standard_normal((8, 4))
        # The float32 screen alone cannot rank these rows: its values are whole ulps of 4e6.
        naive = np.argsort(float32_screen_values(rows32, queries), axis=1, kind="stable")[:, :5]
        assert not np.array_equal(naive, nearest_oracle(rows32.astype(np.float64), queries, 5)[0])
        assert_float32_rows_match(rows32, queries, (1, 5))

    def test_subnormal_products(self):
        # Rows and queries below 1.2e-21: every float32 square and product is
        # subnormal, so only the absolute term of the bound keeps the screen
        # from dropping some queries' nearest rows.
        rng = np.random.default_rng(7)
        rows32 = (3e-23 * rng.uniform(-40, 40, size=(40, 1))).astype(np.float32)
        queries = 3e-23 * rng.uniform(-40, 40, size=(200, 1))
        products = queries.astype(np.float32)[:, None, :] * rows32[None, :, :]
        assert np.all(np.abs(products) < np.finfo(np.float32).tiny)
        naive = np.argsort(float32_screen_values(rows32, queries), axis=1, kind="stable")[:, :3]
        assert not np.array_equal(naive, nearest_oracle(rows32.astype(np.float64), queries, 3)[0])
        assert_float32_rows_match(rows32, queries, (1, 3))

    def test_squared_norms_that_overflow_float32(self):
        rng = np.random.default_rng(8)
        rows32 = (3e19 * rng.standard_normal((30, 3))).astype(np.float32)
        assert np.isinf(np.einsum("ij,ij->i", rows32, rows32)).any()
        queries = np.concatenate([rows32[:4].astype(np.float64) * (1 + 1e-6),
                                  3e19 * rng.standard_normal((5, 3)),
                                  [[1e39, 0.0, 0.0], [0.0, -1e40, 1.0]]])  # beyond float32
        assert_float32_rows_match(rows32, queries, (1, 4))

    def test_screen_products_that_overflow_float32(self):
        # Rows 0 and 1 have finite float32 norms near max / 2, but -2 q.v
        # overflows to -inf for row 0 only, while row 1 is the query itself:
        # only the bound's overflow guard keeps row 1 in the shortlist.
        big = float(np.finfo(np.float32).max)
        c = np.float32(np.sqrt(big / 2) * (1 - 1e-6))
        rows32 = np.array([[c * (1 + 4e-6), 0.0], [c, 0.0], [0.0, 1.0]], dtype=np.float32)
        queries = np.array([[float(c), 0.0], [1.0, 2.0]])
        assert float32_screen_values(rows32, queries)[0, 0] == -np.inf
        assert np.isfinite(float32_screen_values(rows32, queries)[0, 1])
        assert nearest_oracle(rows32.astype(np.float64), queries, 1)[0][0, 0] == 1
        assert_float32_rows_match(rows32, queries, (1, 2))

    def test_nan_and_inf_rows(self):
        rng = np.random.default_rng(9)
        rows32 = rng.standard_normal((30, 3)).astype(np.float32)
        rows32[[3, 11]] = np.nan
        rows32[7, 1] = np.inf
        rows32[20] = -np.inf
        rows32[25, 0] = np.nan
        queries = np.concatenate([rng.standard_normal((6, 3)),
                                  [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [0.0, -np.inf, 0.0]]])
        assert_float32_rows_match(rows32, queries, (1, 3, 29))

    def test_exact_duplicates(self):
        rng = np.random.default_rng(10)
        rows32 = np.repeat(rng.standard_normal((8, 5)).astype(np.float32), 5, axis=0)
        queries = np.concatenate([rows32[::7].astype(np.float64), rng.standard_normal((6, 5))])
        assert_float32_rows_match(rows32, queries, (1, 4, 5, 12))

    def test_k_at_least_the_row_count(self):
        rng = np.random.default_rng(11)
        rows32 = rng.standard_normal((9, 4)).astype(np.float32)
        queries = rng.standard_normal((20, 4))
        assert_float32_rows_match(rows32, queries, (9, 10, 50))


class TestMembers:
    def test_members_list_each_clusters_ids_ascending(self):
        rng = np.random.default_rng(40)
        for m in (1, 3, 7):
            assignments = rng.integers(m, size=50)
            assignments[assignments == m - 1] = 0  # with m > 1, the last cluster is empty
            index = ClusterIndex(centers=np.zeros((m, 2)), assignments=assignments)
            assert len(index.members) == m
            for c, ids in enumerate(index.members):
                assert ids.dtype == np.intp
                assert np.array_equal(ids, np.flatnonzero(assignments == c))
            assert index.members is index.members, "built once"
