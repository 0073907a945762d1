"""K-means partitioning of the embedded training points, and the nearest-row kernel.

Lloyd iterations over k-means++ seeds.  Clusters route test points to a
small candidate pool for the k-NN stage.  The index stores the center matrix
and each point's cluster; the per-cluster member lists derive from those
assignments.

One kernel, ``_nearest_rows``, finds the exact k nearest rows for a batch
of queries: k-means assignment and routing (k=1 over the centers) and the
k-NN search in ``predictor`` (over a cluster's members) all call it.  It
has one rule: each query's rows in order of (exact squared distance, id),
NaN last, returned as ids and distances.  k-means takes each WCSS from the
distances its assignment search returns, with no pass of its own.  A
matrix product gives ``|v|^2 - 2 q.v`` for every row v, in the rows' own
precision: float32 rows (the stored training embeddings) against the query
rounded to float32, float64 rows in float64.  Every row within twice that
precision's error bound (``gemm_error_bound``) of the k-th smallest value
joins the query's shortlist, which provably holds the exact k nearest.
Exact float64 row sums then rank a block's shortlists together: those of
exactly k rows as one table, the longer ones as one table padded to the
longest.  The screen only decides which rows the exact sums see, so
results are the exact ones bit for bit, whatever the rows' dtype, the
block size or the BLAS thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["ClusterIndex", "kmeans", "nearest_clusters"]

log = logging.getLogger(__name__)

_SCREEN_ROWS = 64  # queries per screening product; some unblocked shapes stall BLAS
_CHUNK_BYTES = 1 << 17  # temporaries per screened block or per chunk of exact row sums
_EXACT_TABLE = 1 << 15  # queries x rows x dim; an exact table this small beats the screen
# c in the float64 error bound c * dim * eps * (|v|^2 + |q|^2) between a GEMM
# distance and the exact row sum; the rounding error of the two together stays
# below (2 + 3 / dim) * dim * eps * (|v|^2 + |q|^2), so 16 leaves a wide margin.
_GEMM_SLACK = 16.0
_EPS = float(np.finfo(np.float64).eps)
_U32 = float(np.finfo(np.float32).eps) / 2  # float32 unit roundoff, 2**-24
_TINY32 = float(np.finfo(np.float32).tiny)  # smallest normal float32, 2**-126
_PAD_ID = np.iinfo(np.int64).max  # the id of a padding entry in a shortlist table
# M + Q past which the screen's arithmetic could overflow (see gemm_error_bound).
_SCREEN_LIMIT = {np.float32: float(np.finfo(np.float32).max) / 4,
                 np.float64: float(np.finfo(np.float64).max) / 4}


def gemm_error_bound(
    dim: int, max_row_sq: float, query_sq: np.ndarray, dtype: type = np.float64
) -> np.ndarray:
    """Per query, the error bound B that makes the ``dtype`` screen safe.

    M = ``max_row_sq`` bounds the rows' |v|^2; Q = ``query_sq`` holds each
    query's |q|^2, with 2 |q| |v| <= M + Q bounding every cross term.  The
    screen value of row v is s(v) = |v|^2 - 2 q.v, computed in ``dtype``;
    d(v) is the exact float64 row sum of squared differences.  The screen
    drops v when s(v) > fl(kth + 2B), kth the k-th smallest screen value.
    With |s(v) + |q|^2 - d(v)| <= E for every row, each of the k rows w with
    s(w) <= kth has d(w) <= kth + E + |q|^2, and a dropped row has
    d(v) > kth + 2B - t - E + |q|^2, t the rounding of the threshold; so
    B >= E + t / 2 proves every dropped row farther than k others.

    Float64 rows and queries: B = 16 * dim * eps * (M + Q); see
    ``_GEMM_SLACK``.

    Float32 rows, queries rounded to float32 (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3): u = 2**-24, gamma_n = n u / (1 - n u),
    lambda = 2**-126 the smallest normal float32.  IEEE round to nearest; an
    underflowing result may be subnormal or flushed to zero.

    - Row norms: the squares of float32 values are exact in float64, summed
      there and rounded once to float32 (``_screen_norms``): u M.
    - Query rounding: |fl32(q_i) - q_i| <= u |q_i| + u lambda, so
      |2 (fl32(q) - q).v| <= u (M + Q) + u lambda (dim + M).
    - Float32 products and sums, in any order, blocked or fused (the BLAS
      picks): |fl(q'.v) - q'.v| <= gamma_dim sum |q'_i v_i| + dim lambda,
      lambda bounding an underflowing product's loss; doubled, at most
      gamma_dim (1 + u) (M + Q) + 2 dim lambda.
    - Screen arithmetic: the scaling by -2 is exact; adding the norm rounds
      once, at most u (|v|^2 + 2 |q'.v|) <= 2 u (M + Q) to first order.
    - The threshold kth + 2B is rounded to float32: t / 2 <= u (M + Q) + u B,
      as |kth| <= 2 (M + Q).
    - The float64 row sums err by at most gamma_(dim+2) (float64) * 2 (M + Q),
      2**-28 (dim + 2) u (M + Q).

    So E + t / 2 <= (dim + 5) u (M + Q) + u B, plus terms of order u^2 and
    2**-28 dim u, plus absolute terms below 3 dim lambda.  B =
    gamma_(dim+6) (M + Q) + 3 dim lambda covers them for dim < 2**20: its
    (dim + 6) u (M + Q) takes the first-order terms and one spare
    u (M + Q), which absorbs u B and the smaller terms.

    Past M + Q = max(dtype) / 4 the screen's arithmetic could overflow, so
    B is infinite there, as where M + Q is NaN, and every row is kept.
    """
    if dtype == np.float32:
        terms = (dim + 6) * _U32
        coef = terms / (1.0 - terms)
        floor = 3 * dim * _TINY32 / coef  # the absolute term, so that B = coef * scale
    else:
        coef, floor = _GEMM_SLACK * dim * _EPS, 0.0
    scale = max_row_sq + floor + query_sq
    return np.where(scale <= _SCREEN_LIMIT[dtype], coef * scale, np.inf)


@dataclass(eq=False)
class ClusterIndex:
    """Centers (one row each) and each point's cluster, ``assignments``.

    ``members`` derives each cluster's point ids from ``assignments`` on
    first use.  ``search_cache`` holds the routed search's per-model data,
    built from ``members`` and owned by ``predictor``; ``__eq__`` ignores
    it.  ``assignments`` must not change after either is built.
    """

    centers: np.ndarray
    assignments: np.ndarray
    wcss_history: list[float] = field(default_factory=list)
    search_cache: Any = field(default=None, init=False, repr=False)

    @property
    def num_clusters(self) -> int:
        return int(self.centers.shape[0])

    @cached_property
    def members(self) -> list[np.ndarray]:
        """Each cluster's point ids, ascending: ``assignments`` sorted stably, cut per cluster."""
        order = np.argsort(self.assignments, kind="stable")
        counts = np.bincount(self.assignments, minlength=self.num_clusters)
        return np.split(order, np.cumsum(counts)[:-1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ClusterIndex):
            return NotImplemented
        return np.array_equal(self.centers, other.centers) and np.array_equal(
            self.assignments, other.assignments
        )


def _sq_dists(points: np.ndarray, targets: np.ndarray, which: np.ndarray) -> np.ndarray:
    """Exact squared distances ``((t - p) ** 2).sum()``, summed in float64, in ``which``'s shape.

    ``which`` holds one row of row ids per point: point i is compared with
    each ``targets[which[i, j]]``.  Float32 inputs are widened before the
    subtraction, which is exact, so they give the bits of their float64
    widening.  Points are taken a few at a time so temporaries stay near
    _CHUNK_BYTES.  Each distance sums one contiguous row of squared
    differences, so its bits depend on neither the chunk nor the shapes.
    """
    n, dim = points.shape
    out = np.empty(which.shape, dtype=np.float64)
    step = max(1, _CHUNK_BYTES // (8 * max(1, dim * which.shape[1])))
    buf = np.empty((min(step, n), which.shape[1], dim), dtype=np.float64)
    gathered = buf if targets.dtype == np.float64 else np.empty(buf.shape, targets.dtype)
    for s in range(0, n, step):
        ids = which[s : s + step]
        diff = buf[: ids.shape[0]]
        # Row ids are in range, so "clip" never clips; it spares take's buffered copy.
        np.take(targets, ids, axis=0, out=gathered[: ids.shape[0]], mode="clip")
        if gathered is not buf:
            np.copyto(diff, gathered[: ids.shape[0]])
        diff -= points[s : s + step, None, :]
        np.multiply(diff, diff, out=diff)
        out[s : s + step] = diff.sum(axis=-1)
    return out


def _screen_norms(rows: np.ndarray) -> tuple[np.ndarray, float]:
    """Squared row norms in the rows' dtype, for the screen, and the largest of them.

    The norms are summed in float64, where the squares of float32 values are
    exact, and float32 rows get them rounded once to float32, as
    ``gemm_error_bound`` assumes.
    """
    sq = np.einsum("ij,ij->i", rows, rows, dtype=np.float64)
    return sq.astype(rows.dtype, copy=False), float(sq.max()) if sq.size else 0.0


def _shortlists(
    keep: np.ndarray, k: int
) -> list[tuple[np.ndarray | None, np.ndarray, np.ndarray | None]]:
    """Each query's kept rows, in row order, as tables for the exact re-rank.

    Returns (group, positions, pad) per table, ``group`` indexing the
    block's queries (None: all of them): the queries whose lists hold exactly k rows as
    one k-column table, then the longer lists as one table padded to the
    longest.  ``pad`` marks the entries past a query's own list, whose
    positions are 0; it is None when the table has none.
    """
    b, n = keep.shape
    if b == 1:
        return [(None, np.flatnonzero(keep)[None, :], None)]
    which, cols = np.divmod(np.flatnonzero(keep), n)
    if cols.size == k * b:  # every list holds exactly k rows, as none holds fewer
        return [(None, cols.reshape(b, k), None)]
    counts = np.bincount(which, minlength=b)
    longer = counts > k
    in_longer = np.repeat(longer, counts)
    tables = []
    if not longer.all():
        tables.append((np.flatnonzero(~longer), cols[~in_longer].reshape(-1, k), None))
    counts = counts[longer]
    pad = np.arange(counts.max()) >= counts[:, None]
    pos = np.zeros(pad.shape, dtype=np.int64)
    pos[~pad] = cols[in_longer]  # row-major, as flatnonzero gave them
    tables.append((np.flatnonzero(longer), pos, pad))
    return tables


def _nearest_rows(
    rows: np.ndarray,
    queries: np.ndarray,
    k: int,
    ids: np.ndarray | None = None,
    row_sq: np.ndarray | None = None,
    max_sq: float | None = None,
    query_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact k nearest rows to each float64 query, as (ids, squared distances).

    Both are len(queries) x min(k, len(rows)), each query's rows ordered by
    (squared distance, id) with NaN last; row j's id is ``ids[j]``, by
    default j.  Float32 rows are screened in float32, any others in float64;
    the distances are float64 either way.  ``row_sq`` and ``max_sq`` (from
    ``_screen_norms``) and ``query_sq`` are the squared norms, if the caller
    keeps them.  Every caller gets this one order: k-means assignment and
    routing read the first column, and k-means sums the distances into its
    WCSS.  Queries are screened in blocks sized to _CHUNK_BYTES; with k at
    least the row count, or an exact table of at most _EXACT_TABLE elements,
    that table replaces the screen.
    """
    q, (n, dim) = queries.shape[0], rows.shape
    kk = min(k, n)
    nbr = np.empty((q, kk), dtype=np.int64)
    d2 = np.empty((q, kk), dtype=np.float64)

    def finish(s: int, qb: np.ndarray, group: np.ndarray | None, pos: np.ndarray,
               pad: np.ndarray | None = None) -> None:
        """Rank rows ``pos[i]`` exactly for query ``group[i]`` of the block ``qb`` (None: all).

        The block starts at query ``s``; results go to ``nbr`` and ``d2``.
        Entries under ``pad`` get NaN and the largest id, so they sort
        after every row.  Every query keeps at least k rows, so no pad is
        ranked among them.
        """
        if group is None:
            done, qs = slice(s, s + qb.shape[0]), qb
        else:
            done, qs = s + group, qb[group]
        found = pos if ids is None else ids[pos]
        dist = _sq_dists(qs, rows, pos)
        if pad is not None:
            dist[pad] = np.nan
            found = np.where(pad, _PAD_ID, found)
        order = np.lexsort((found, dist), axis=1)[:, :kk]
        by_query = np.arange(order.shape[0])[:, None]
        nbr[done] = found[by_query, order]
        d2[done] = dist[by_query, order]

    screen = np.float32 if rows.dtype == np.float32 else np.float64
    # Queries per block: whole screening products, as many as fit _CHUNK_BYTES, at least one.
    block = max(1, _CHUNK_BYTES // (8 * max(1, n) * _SCREEN_ROWS)) * _SCREEN_ROWS
    block = min(block, max(1, q))
    if kk == n or q * n * dim <= _EXACT_TABLE:
        every_row = np.arange(n)[None, :].repeat(block, axis=0)
        for s in range(0, q, block):
            qb = queries[s : s + block]
            finish(s, qb, None, every_row[: qb.shape[0]])
        return nbr, d2
    if row_sq is None:
        row_sq, max_sq = _screen_norms(rows)
    approx_buf = np.empty((block, n), dtype=screen)
    part_buf = np.empty((block, n), dtype=screen) if k > 1 else None
    for s in range(0, q, block):
        qb = queries[s : s + block]
        b = qb.shape[0]
        approx = approx_buf[:b]
        screened = qb.astype(screen, copy=False)
        for r in range(0, b, _SCREEN_ROWS):
            np.matmul(screened[r : r + _SCREEN_ROWS], rows.T, out=approx[r : r + _SCREEN_ROWS])
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
        threshold = kth + 2.0 * gemm_error_bound(dim, max_sq, qsq, screen)
        # A row past the threshold is provably behind k others; NaN stays in.
        keep = approx > threshold.astype(screen, copy=False)[:, None]
        np.logical_not(keep, out=keep)
        for table in _shortlists(keep, k):
            finish(s, qb, *table)
    return nbr, d2


def _seed_centers(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: first seed uniform, then proportional to squared distance."""
    n = points.shape[0]
    centers = np.empty((m, points.shape[1]), dtype=np.float64)

    def dists_to(c: int) -> np.ndarray:
        return _sq_dists(points, centers, np.full((n, 1), c))[:, 0]

    centers[0] = points[int(rng.integers(n))]
    d2 = dists_to(0)
    for c in range(1, m):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining mass on duplicates
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        np.minimum(d2, dists_to(c), out=d2)
    return centers


def kmeans(
    points: Sequence[np.ndarray] | np.ndarray,
    num_clusters: int,
    max_iters: int = 100,
    rng_seed: int = 0,
) -> ClusterIndex:
    """Cluster rows of ``points`` into ``num_clusters`` groups.

    Deterministic for a fixed seed.  Each assignment is ``_nearest_rows``
    at k=1 over the centers, and the within-cluster sum of squares recorded
    for it is the sum of the squared distances that search returns; it is
    non-increasing across iterations.  A cluster that empties is reseeded at
    the point currently farthest from its assigned center.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValidationError("points must be a non-empty 2-d array")
    if not np.isfinite(pts).all():
        raise ValidationError("points must be finite")
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
    ids, d2 = _nearest_rows(centers, pts, 1, query_sq=sq_norms)
    assign, history = ids[:, 0], [float(d2.sum())]
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
        ids, d2 = _nearest_rows(centers, pts, 1, query_sq=sq_norms)
        history.append(float(d2.sum()))
        if np.array_equal(ids[:, 0], assign):
            break
        assign = ids[:, 0]
    if not np.bincount(assign, minlength=num_clusters).all():
        raise ValidationError(
            "could not form that many non-empty clusters; too many duplicate points"
        )
    return ClusterIndex(centers=centers, assignments=assign, wcss_history=history)


def nearest_clusters(index: ClusterIndex, queries: np.ndarray) -> np.ndarray:
    """Nearest center per row of ``queries``: column 0 of ``_nearest_rows`` at k=1.

    A one-center index sends every query to center 0 without a search.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.centers.shape[1]:
        raise ValidationError(
            f"queries shape {queries.shape} does not match center dim {index.centers.shape[1]}"
        )
    if index.num_clusters == 1:
        return np.zeros(queries.shape[0], dtype=np.int64)
    return _nearest_rows(index.centers, queries, 1)[0][:, 0]
