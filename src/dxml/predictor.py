"""Clustered k-NN label prediction.

Test points are embedded, routed to the nearest cluster, compared against
that cluster's members, and scored by aggregating the neighbors' label sets.

The search is batched.  For each block of queries routed to one cluster, a
single GEMM gives ``|v|^2 - 2 q.v`` for every member v; a partial sort picks
the k-th value, and every member within a floating-point error bound of it
joins a shortlist that provably holds the exact k nearest.  The shortlist is
re-ranked by ``knn_search``, the exact scan, so neighbors, distances and
scores equal those of a full exact scan bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .cluster import ClusterIndex, nearest_clusters
from .data_io import LabelSet, SparseRows, SparseVector
from .errors import ValidationError
from .net import MlpModel, embed_points

__all__ = [
    "Prediction", "knn_search", "knn_batch", "aggregate_labels", "top_p", "predict",
    "predict_batch",
]

log = logging.getLogger(__name__)

_INV_DIST_EPS = 1e-8
_SCAN_CHUNK = 16384
_BLOCK = 64  # queries per distance GEMM; temporaries stay at _BLOCK x cluster rows
# c in the error bound c * dim * eps * (|v|^2 + |q|^2) between a GEMM distance
# and the exact scan's; the rounding error of the two together stays below
# (2 + 3 / dim) * dim * eps * (|v|^2 + |q|^2), so 16 leaves a wide margin.
_GEMM_SLACK = 16.0


@dataclass(eq=True)
class Prediction:
    """Sparse label scores plus the ranked head of the score list."""

    scores: dict[int, float]
    top_labels: list[int]


def knn_search(
    vectors: np.ndarray,
    query: np.ndarray,
    k: int,
    ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of ``vectors`` to ``query``.

    Returns (ids, distances) ordered by ascending Euclidean distance with
    ties broken by ascending id.  ``ids`` defaults to row positions; fewer
    than k rows yield all of them.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    query = np.asarray(query, dtype=np.float64)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValidationError("vectors must be a non-empty 2-d array")
    if query.shape != (vectors.shape[1],):
        raise ValidationError(
            f"query shape {query.shape} does not match vector dim {vectors.shape[1]}"
        )
    n = vectors.shape[0]
    if ids is None:
        ids = np.arange(n, dtype=np.int64)
    else:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (n,):
            raise ValidationError("ids must align with vector rows")
    d2 = np.empty(n, dtype=np.float64)
    for s in range(0, n, _SCAN_CHUNK):
        d2[s : s + _SCAN_CHUNK] = ((vectors[s : s + _SCAN_CHUNK] - query) ** 2).sum(axis=1)
    order = np.lexsort((ids, d2))[: min(k, n)]
    return ids[order], np.sqrt(d2[order])


def aggregate_labels(
    neighbor_labels: Sequence[LabelSet],
    weighting: str = "uniform",
    distances: np.ndarray | None = None,
) -> dict[int, float]:
    """Fold neighbor label sets into one sparse score map.

    'uniform' gives every neighbor weight 1/len(neighbors), so a label held
    by every neighbor scores exactly 1.  'inverse_distance' weights neighbor
    i by 1/(distance_i + 1e-8), normalized to sum to 1.
    """
    if not neighbor_labels:
        raise ValidationError("need at least one neighbor")
    if weighting == "uniform":
        weights = np.full(len(neighbor_labels), 1.0 / len(neighbor_labels))
    elif weighting == "inverse_distance":
        if distances is None or len(distances) != len(neighbor_labels):
            raise ValidationError("inverse_distance weighting needs aligned distances")
        raw = 1.0 / (np.asarray(distances, dtype=np.float64) + _INV_DIST_EPS)
        weights = raw / raw.sum()
    else:
        raise ValidationError(f"unknown weighting {weighting!r}")
    scores: dict[int, float] = {}
    for labels, w in zip(neighbor_labels, weights.tolist()):
        for label in labels.ids.tolist():
            scores[label] = scores.get(label, 0.0) + w
    return scores


def top_p(scores: Mapping[int, float], p: int) -> list[int]:
    """The p highest-scoring labels, ties broken by ascending label index."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    labels = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    return labels[np.lexsort((labels, -values))[:p]].tolist()


def _block_neighbors(
    rows: np.ndarray, ids: np.ndarray | None, queries: np.ndarray, k: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``knn_search(rows, q, k, ids)`` for each query row, through a GEMM shortlist."""
    n, dim = rows.shape
    if k >= n:  # every row is a neighbor
        return [knn_search(rows, q, k, ids=ids) for q in queries]
    sq_norms = np.einsum("ij,ij->i", rows, rows)
    approx = queries @ rows.T
    approx *= -2.0
    approx += sq_norms
    kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
    bound = _GEMM_SLACK * dim * np.finfo(np.float64).eps * (
        sq_norms.max() + np.einsum("ij,ij->i", queries, queries)
    )
    # A row farther than kth + 2 * bound is provably behind k others; NaN stays in.
    keep = ~(approx > (kth + 2.0 * bound)[:, None])
    out = []
    for q, row_keep in zip(queries, keep):
        sel = np.flatnonzero(row_keep)
        out.append(knn_search(rows[sel], q, k, ids=sel if ids is None else ids[sel]))
    return out


def knn_batch(
    clusters: ClusterIndex,
    train_embeds: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact k nearest training rows for each query row, inside its routed cluster.

    Entry i equals ``knn_search(train_embeds[members], queries[i], k,
    ids=members)`` for the members of the cluster nearest to ``queries[i]``.
    Queries are searched in blocks of at most _BLOCK that share a cluster.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    train_embeds = np.asarray(train_embeds, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    by_cluster: dict[int, list[int]] = {}
    for q, c in enumerate(nearest_clusters(clusters, queries).tolist()):
        by_cluster.setdefault(c, []).append(q)
    out: list = [None] * len(queries)
    for c, qs in sorted(by_cluster.items()):
        members = clusters.members[c]
        if members.size < k:
            log.debug("cluster %d has %d members, fewer than k=%d", c, members.size, k)
        if members.size == train_embeds.shape[0]:
            rows, ids = train_embeds, None  # no copy
        else:
            rows, ids = train_embeds[members], members
        for s in range(0, len(qs), _BLOCK):
            block = qs[s : s + _BLOCK]
            for q, nbrs in zip(block, _block_neighbors(rows, ids, queries[block], k)):
                out[q] = nbrs
    return out


def predict_batch(
    mlp: MlpModel,
    clusters: ClusterIndex,
    train_embeds: np.ndarray,
    train_labels: Sequence[LabelSet],
    xs: SparseRows | Sequence[SparseVector],
    k: int = 10,
    weighting: str = "uniform",
) -> list[dict[int, float]]:
    """Embed every point, find its neighbors with ``knn_batch``, score labels.

    Returns one sparse score map per point.  Each point uses min(k, cluster
    size) neighbors; a shortfall is logged.
    """
    neighbors = knn_batch(clusters, train_embeds, embed_points(mlp, xs), k)
    return [
        aggregate_labels([train_labels[i] for i in ids.tolist()], weighting, dists)
        for ids, dists in neighbors
    ]


def predict(
    mlp: MlpModel,
    clusters: ClusterIndex,
    train_embeds: np.ndarray,
    train_labels: Sequence[LabelSet],
    x: SparseVector,
    k: int = 10,
    p: int = 5,
    weighting: str = "uniform",
) -> Prediction:
    """Embed, route to the nearest cluster, search its members, score labels.

    The scores are ``predict_batch`` on a batch of one.
    """
    if k < 1 or p < 1:
        raise ValidationError("k and p must be >= 1")
    scores = predict_batch(mlp, clusters, train_embeds, train_labels, [x], k, weighting)[0]
    return Prediction(scores=scores, top_labels=top_p(scores, p) if scores else [])
