"""K-means partitioning of the embedded training points, and the nearest-row kernel.

Lloyd iterations over k-means++ seeds.  Clusters route test points to a
small candidate pool for the k-NN stage, so the index keeps both the center
matrix and the per-cluster member lists.

One kernel, ``_nearest_rows``, finds the exact k nearest rows for a batch
of queries: k-means assignment and routing (k=1 over the centers) and the
k-NN search in ``predictor`` (over a cluster's members) all call it.  A
matrix product gives ``|v|^2 - 2 q.v`` for every row v; every row within
twice its floating-point error bound of the k-th smallest value joins the
query's shortlist, which provably holds the exact k nearest.  Exact row
sums then rank the shortlists, all at once where a shortlist holds exactly
k rows and one query at a time otherwise (ties, NaN, inf).  The screen only
decides which rows the exact sums see, so results are the exact ones bit
for bit, whatever the block size or the BLAS thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["ClusterIndex", "kmeans", "nearest_cluster", "nearest_clusters"]

log = logging.getLogger(__name__)

_WCSS_ROWS = 8192  # rows per partial sum of the WCSS; fixed, as the sum's bits depend on it
_SCREEN_ROWS = 64  # queries per screening product; some unblocked shapes stall BLAS
_CHUNK_BYTES = 1 << 17  # temporaries per screened block or per chunk of exact row sums
_EXACT_TABLE = 1 << 15  # queries x rows x dim; an exact table this small beats the screen
# c in the error bound c * dim * eps * (|v|^2 + |q|^2) between a GEMM distance
# and the exact row sum; the rounding error of the two together stays below
# (2 + 3 / dim) * dim * eps * (|v|^2 + |q|^2), so 16 leaves a wide margin.
_GEMM_SLACK = 16.0
_EPS = float(np.finfo(np.float64).eps)


def gemm_error_bound(dim: int, max_row_sq: float, query_sq: np.ndarray) -> np.ndarray:
    """Per query, a bound on |GEMM distance - exact distance| to rows of squared norm <= ``max_row_sq``.

    The GEMM distance is ``|v|^2 - 2 q.v + |q|^2``; ``query_sq`` holds ``|q|^2``.
    """
    return _GEMM_SLACK * dim * _EPS * (max_row_sq + query_sq)


@dataclass(eq=False)
class ClusterIndex:
    """Centers (one row each), per-point assignments, per-cluster members.

    ``search_cache`` holds the routed search's per-model data, built and
    owned by ``predictor``; ``__eq__`` and ``validate`` ignore it.  It is
    derived from ``members``, which must not change after the first search.
    """

    centers: np.ndarray
    assignments: np.ndarray
    members: list[np.ndarray]
    wcss_history: list[float] = field(default_factory=list)
    search_cache: Any = field(default=None, init=False, repr=False)

    @property
    def num_clusters(self) -> int:
        return int(self.centers.shape[0])

    def validate(self) -> None:
        n = self.assignments.size
        if self.centers.ndim != 2 or self.num_clusters < 1:
            raise ValidationError("centers must be a non-empty 2-d array")
        if len(self.members) != self.num_clusters:
            raise ValidationError("members list does not match cluster count")
        if np.any(self.assignments < 0) or np.any(self.assignments >= self.num_clusters):
            raise ValidationError("assignment outside cluster range")
        seen = np.concatenate([m for m in self.members]) if self.members else np.empty(0)
        if seen.size != n or np.unique(seen).size != n:
            raise ValidationError("members do not partition the points")
        for c, ids in enumerate(self.members):
            if ids.size == 0:
                raise ValidationError(f"cluster {c} is empty")
            if np.any(self.assignments[ids] != c):
                raise ValidationError("members inconsistent with assignments")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterIndex):
            return NotImplemented
        return (
            np.array_equal(self.centers, other.centers)
            and np.array_equal(self.assignments, other.assignments)
            and len(self.members) == len(other.members)
            and all(np.array_equal(a, b) for a, b in zip(self.members, other.members))
        )


def _sq_dists(
    points: np.ndarray, targets: np.ndarray, which: np.ndarray | None = None
) -> np.ndarray:
    """Exact squared distances ``((p - t) ** 2).sum()`` from each point p.

    Without ``which``, t is ``targets``, one vector, and there is one
    distance per point.  With ``which``, one row of row ids per point, point
    i is compared with each ``targets[which[i, j]]``, giving ``which``'s
    shape.  Points are taken a few at a time so temporaries stay near
    _CHUNK_BYTES.  Each distance sums one contiguous row of squared
    differences, so its bits depend on neither the chunk nor the shapes.
    """
    n, dim = points.shape
    out = np.empty(n if which is None else which.shape, dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (8 * max(1, dim * (1 if which is None else which.shape[1]))))
    for s in range(0, n, step):
        if which is None:
            diff = points[s : s + step] - targets
        else:
            diff = np.take(targets, which[s : s + step], axis=0)
            diff -= points[s : s + step, None, :]
        np.multiply(diff, diff, out=diff)
        out[s : s + step] = diff.sum(axis=-1)
    return out


def _nearest_rows(
    rows: np.ndarray,
    queries: np.ndarray,
    k: int,
    ids: np.ndarray | None = None,
    row_sq: np.ndarray | None = None,
    max_sq: float | None = None,
    query_sq: np.ndarray | None = None,
    argmin: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The exact k nearest rows to each query, as (ids, squared distances).

    Both are len(queries) x min(k, len(rows)), each query's rows ordered by
    (squared distance, id) with NaN last; row j's id is ``ids[j]``, by
    default j.  ``row_sq`` (with its max ``max_sq``) and ``query_sq`` are
    the squared norms, if the caller keeps them.  With ``argmin`` (k=1) a
    query takes the row ``np.argmin`` over its exact distances would, a NaN
    distance counting as nearest, and no distances are returned.  Queries
    are screened in blocks sized to _CHUNK_BYTES; with k at least the row
    count, or an exact table of at most _EXACT_TABLE elements, that table
    replaces the screen.
    """
    q, (n, dim) = queries.shape[0], rows.shape
    kk = min(k, n)
    if argmin and n == 1:  # every query's one row: no distance pass
        return np.zeros((q, 1), dtype=np.int64), None
    nbr = np.empty((q, kk), dtype=np.int64)
    d2 = None if argmin else np.empty((q, kk), dtype=np.float64)

    def finish(done, qs: np.ndarray, pos: np.ndarray) -> None:
        """Rank rows ``pos[i]`` exactly for query ``qs[i]``, into ``nbr[done]``, ``d2[done]``."""
        found = pos if ids is None else ids[pos]
        if argmin and pos.shape[1] == 1:
            nbr[done] = found
            return
        dist = _sq_dists(qs, rows, pos)
        order = dist.argmin(1)[:, None] if argmin else np.lexsort((found, dist), axis=1)[:, :kk]
        by_query = np.arange(order.shape[0])[:, None]
        nbr[done] = found[by_query, order]
        if not argmin:
            d2[done] = dist[by_query, order]

    # Queries per block: whole screening products, as many as fit _CHUNK_BYTES, at least one.
    block = max(1, _CHUNK_BYTES // (8 * max(1, n) * _SCREEN_ROWS)) * _SCREEN_ROWS
    block = min(block, max(1, q))
    if kk == n or q * n * dim <= _EXACT_TABLE:
        every_row = np.arange(n)[None, :].repeat(block, axis=0)
        for s in range(0, q, block):
            qb = queries[s : s + block]
            finish(slice(s, s + qb.shape[0]), qb, every_row[: qb.shape[0]])
        return nbr, d2
    if row_sq is None:
        row_sq = np.einsum("ij,ij->i", rows, rows)
    if max_sq is None:
        max_sq = row_sq.max()
    approx_buf = np.empty((block, n), dtype=np.float64)
    part_buf = np.empty((block, n), dtype=np.float64) if k > 1 else None
    for s in range(0, q, block):
        qb = queries[s : s + block]
        b = qb.shape[0]
        approx = approx_buf[:b]
        for r in range(0, b, _SCREEN_ROWS):
            np.matmul(qb[r : r + _SCREEN_ROWS], rows.T, out=approx[r : r + _SCREEN_ROWS])
        approx *= -2.0
        approx += row_sq
        if k == 1:  # argmin and a gather beat a min over short rows
            kth = approx[np.arange(b), approx.argmin(axis=1)]
        else:
            part = part_buf[:b]
            np.copyto(part, approx)
            part.partition(k - 1, axis=1)
            kth = part[:, k - 1]
        qsq = np.einsum("ij,ij->i", qb, qb) if query_sq is None else query_sq[s : s + b]
        # A row farther than kth + 2 * bound is provably behind k others; NaN stays in.
        keep = approx > (kth + 2.0 * gemm_error_bound(dim, max_sq, qsq))[:, None]
        np.logical_not(keep, out=keep)
        which, cols = np.divmod(np.flatnonzero(keep), n)  # each query's shortlist, in row order
        if cols.size == k * b:  # every shortlist holds exactly k rows, as none holds fewer
            finish(slice(s, s + b), qb, cols.reshape(b, k))
            continue
        counts = np.bincount(which, minlength=b)
        exact_k = counts == k
        done = s + np.flatnonzero(exact_k)
        finish(done, qb[exact_k], cols[np.repeat(exact_k, counts)].reshape(-1, k))
        ends = np.cumsum(counts)
        for i in np.flatnonzero(~exact_k).tolist():  # ties, NaN, inf: one at a time
            finish(s + i, qb[i : i + 1], cols[ends[i] - counts[i] : ends[i]][None, :])
    return nbr, d2


def _wcss(points: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> float:
    total = 0.0
    buf = np.empty((min(points.shape[0], _WCSS_ROWS), points.shape[1]), dtype=np.float64)
    for s in range(0, points.shape[0], _WCSS_ROWS):
        block = points[s : s + _WCSS_ROWS]
        diff = buf[: block.shape[0]]
        # Ids come from argmin, so "clip" never clips; it spares take's buffered copy.
        np.take(centers, assign[s : s + _WCSS_ROWS], axis=0, out=diff, mode="clip")
        np.subtract(block, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        total += float(diff.sum())
    return total


def _seed_centers(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: first seed uniform, then proportional to squared distance."""
    n = points.shape[0]
    centers = np.empty((m, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = _sq_dists(points, centers[0])
    for c in range(1, m):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining mass on duplicates
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        np.minimum(d2, _sq_dists(points, centers[c]), out=d2)
    return centers


def kmeans(
    points: Sequence[np.ndarray] | np.ndarray,
    num_clusters: int,
    max_iters: int = 100,
    rng_seed: int = 0,
) -> ClusterIndex:
    """Cluster rows of ``points`` into ``num_clusters`` groups.

    Deterministic for a fixed seed.  The recorded within-cluster sum of
    squares is non-increasing across iterations; a cluster that empties is
    reseeded at the point currently farthest from its assigned center.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty 2-d array")
    n = pts.shape[0]
    if num_clusters < 1:
        raise ValidationError("num_clusters must be >= 1")
    if num_clusters > n:
        raise ValidationError(f"num_clusters {num_clusters} exceeds point count {n}")
    if max_iters < 1:
        raise ValidationError("max_iters must be >= 1")
    rng = np.random.default_rng(rng_seed)
    centers = _seed_centers(pts, num_clusters, rng)
    sq_norms = np.einsum("ij,ij->i", pts, pts)
    assign = _nearest_rows(centers, pts, 1, query_sq=sq_norms, argmin=True)[0][:, 0]
    history = [_wcss(pts, centers, assign)]
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
            d_own = _sq_dists(pts, centers, assign[:, None])[:, 0]
            for c in empties:
                far = int(np.argmax(d_own))
                centers[c] = pts[far]
                d_own[far] = -1.0  # one donor per empty cluster
            log.debug("reseeded %d empty clusters", len(empties))
        new_assign = _nearest_rows(centers, pts, 1, query_sq=sq_norms, argmin=True)[0][:, 0]
        history.append(_wcss(pts, centers, new_assign))
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    members = [np.flatnonzero(assign == c) for c in range(num_clusters)]
    if any(m.size == 0 for m in members):
        raise ValidationError(
            "could not form that many non-empty clusters; too many duplicate points"
        )
    index = ClusterIndex(
        centers=centers, assignments=assign, members=members, wcss_history=history
    )
    index.validate()
    return index


def nearest_clusters(index: ClusterIndex, queries: np.ndarray) -> np.ndarray:
    """Nearest center per row of ``queries``, as in k-means assignment; ties pick the lowest id."""
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.centers.shape[1]:
        raise ValidationError(
            f"queries shape {queries.shape} does not match center dim {index.centers.shape[1]}"
        )
    return _nearest_rows(index.centers, queries, 1, argmin=True)[0][:, 0]


def nearest_cluster(index: ClusterIndex, query: np.ndarray) -> int:
    """Cluster whose center is Euclidean-nearest to ``query``; ties pick the lowest id."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.centers.shape[1],):
        raise ValidationError(
            f"query shape {query.shape} does not match center dim {index.centers.shape[1]}"
        )
    return int(nearest_clusters(index, query[None, :])[0])
