"""K-means partitioning of the embedded training points.

Lloyd iterations over k-means++ seeds.  Clusters route test points to a
small candidate pool for the k-NN stage, so the index keeps both the center
matrix and the per-cluster member lists.

Assignment, in k-means and in routing, is screened and then re-checked.  A
matrix product per block of points gives ``|c|^2 - 2 p.c`` for every center
c.  A point whose smallest screened value is below every other by more than
twice the screen's floating-point error bound provably has that center as
its unique exact nearest, and takes it.  Every other point (near-ties, exact
ties, non-finite rows, data whose norms dwarf its spread) is assigned by the
exact per-center row sums, and so is every point of a call with fewer
points than centers, such as a single query.  The screen only decides which
path a point takes, never which center it gets, so the assignment is the
exact one bit for bit, whatever the block size or the BLAS thread count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError

__all__ = ["ClusterIndex", "kmeans", "nearest_cluster", "nearest_clusters"]

log = logging.getLogger(__name__)

_CHUNK = 8192
_SCREEN_ROWS = 64  # points per screening product; some unblocked shapes stall BLAS
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


def _sq_dists_to(points: np.ndarray, center: np.ndarray) -> np.ndarray:
    return ((points - center) ** 2).sum(axis=1)


def _exact_assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point by exact row sums; ties go to the lowest index.

    One center (or, for fewer points than centers, one point) at a time, so
    temporaries stay at chunk x dim plus a chunk x m distance table.  Either
    way each distance is the same row sum, so the result is the same bits.
    """
    n, m = points.shape[0], centers.shape[0]
    out = np.empty(n, dtype=np.int64)
    d = np.empty((min(n, _CHUNK), m), dtype=np.float64)
    for s in range(0, n, _CHUNK):
        block = points[s : s + _CHUNK]
        dist = d[: block.shape[0]]
        if block.shape[0] < m:
            for i, point in enumerate(block):
                dist[i] = _sq_dists_to(centers, point)
        else:
            for c, center in enumerate(centers):
                dist[:, c] = _sq_dists_to(block, center)
        out[s : s + _CHUNK] = dist.argmin(axis=1)
    return out


def _assign(
    points: np.ndarray, centers: np.ndarray, sq_norms: np.ndarray | None = None
) -> np.ndarray:
    """``_exact_assign(points, centers)``, with most points decided by a GEMM screen.

    ``sq_norms``, if given, holds each point's squared norm.  A point takes
    the center of its smallest screened value when every other value is
    larger by more than twice ``gemm_error_bound``; the others, and every
    point of a call with fewer points than centers, go through
    ``_exact_assign``.
    """
    n, m = points.shape[0], centers.shape[0]
    if m == 1:
        return np.zeros(n, dtype=np.int64)
    if n < m:  # e.g. one query: its exact sums cost fewer numpy calls than the screen
        return _exact_assign(points, centers)
    if sq_norms is None:
        sq_norms = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    screen = np.empty((n, m), dtype=np.float64)
    for s in range(0, n, _SCREEN_ROWS):
        np.matmul(points[s : s + _SCREEN_ROWS], centers.T, out=screen[s : s + _SCREEN_ROWS])
    screen *= -2.0
    screen += c_sq
    rows = np.arange(n)
    out = screen.argmin(axis=1)
    best = screen[rows, out]
    screen[rows, out] = np.inf
    gap = screen.min(axis=1) - best
    decided = gap > 2.0 * gemm_error_bound(points.shape[1], c_sq.max(), sq_norms)
    if not decided.all():  # NaN compares False, so it is re-checked
        undecided = np.flatnonzero(~decided)
        out[undecided] = _exact_assign(points[undecided], centers)
    return out


def _wcss(points: np.ndarray, centers: np.ndarray, assign: np.ndarray) -> float:
    total = 0.0
    buf = np.empty((min(points.shape[0], _CHUNK), points.shape[1]), dtype=np.float64)
    for s in range(0, points.shape[0], _CHUNK):
        block = points[s : s + _CHUNK]
        diff = buf[: block.shape[0]]
        # Ids come from argmin, so "clip" never clips; it spares take's buffered copy.
        np.take(centers, assign[s : s + _CHUNK], axis=0, out=diff, mode="clip")
        np.subtract(block, diff, out=diff)
        np.multiply(diff, diff, out=diff)
        total += float(diff.sum())
    return total


def _seed_centers(points: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++: first seed uniform, then proportional to squared distance."""
    n = points.shape[0]
    centers = np.empty((m, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = _sq_dists_to(points, centers[0])
    for c in range(1, m):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))  # all remaining mass on duplicates
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        centers[c] = points[idx]
        np.minimum(d2, _sq_dists_to(points, centers[c]), out=d2)
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
    assign = _assign(pts, centers, sq_norms)
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
            d_own = ((pts - centers[assign]) ** 2).sum(axis=1)
            for c in empties:
                far = int(np.argmax(d_own))
                centers[c] = pts[far]
                d_own[far] = -1.0  # one donor per empty cluster
            log.debug("reseeded %d empty clusters", len(empties))
        new_assign = _assign(pts, centers, sq_norms)
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
    return _assign(queries, index.centers)


def nearest_cluster(index: ClusterIndex, query: np.ndarray) -> int:
    """Cluster whose center is Euclidean-nearest to ``query``; ties pick the lowest id."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.centers.shape[1],):
        raise ValidationError(
            f"query shape {query.shape} does not match center dim {index.centers.shape[1]}"
        )
    return int(nearest_clusters(index, query[None, :])[0])
