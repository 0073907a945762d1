"""Clustered k-NN label prediction.

Test points are embedded, routed to the nearest cluster, compared against
that cluster's members, and scored by aggregating the neighbors' label sets.

The search is batched: the queries routed to one cluster go together
through ``cluster._nearest_rows``, the screened kernel that k-means and
routing also use, which returns the exact k nearest members ordered by
(distance, training id).  So neighbors, distances and scores equal those of
a full exact scan of the routed cluster bit for bit.

What depends only on the model is built once, on the first search, and kept
on the ``ClusterIndex`` (its ``search_cache``): each cluster's rows as one
contiguous array, their squared norms for the screen (``cluster._screen_norms``)
and the largest of them, and each training point's label ids as a Python
list.  Rows keep the float32 of the ``train_embeds`` that ``load_model``
returns, so the kernel screens them in float32 and widens only the rows it
re-ranks.  ``dxml train`` stores the training points grouped by cluster, so
each cluster's members form one range of ids and its rows are a view of
``train_embeds``, not a copy: the cache holds no rows of its own.  Only a
model whose clusters interleave (a file written by version 0.5.0 or
earlier) has its clusters' rows gathered into copies.  Embeddings of any
other dtype are widened to float64, a cluster's rows after they are
gathered.  The cache keeps the ``train_embeds`` and
``train_labels`` objects it was built from and is rebuilt whenever a call
passes any other object, so those arrays and lists must not be changed in
place after the first search.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cluster import ClusterIndex, _nearest_rows, _screen_norms, nearest_clusters
from .data_io import LabelSet, SparseRows, SparseVector
from .errors import ValidationError
from .net import MlpModel, embed_points

__all__ = ["Prediction", "knn_batch", "score_neighbors", "top_p", "predict", "predict_batch"]

log = logging.getLogger(__name__)

_INV_DIST_EPS = 1e-8


@dataclass(eq=True)
class Prediction:
    """Sparse label scores plus the ranked head of the score list."""

    scores: dict[int, float]
    top_labels: list[int]


def _weights(n: int, weighting: str, distances: np.ndarray | None) -> list[float]:
    """Vote weight of each of ``n`` neighbors; see ``score_neighbors``."""
    if n == 0:
        raise ValidationError("need at least one neighbor")
    if weighting == "uniform":
        return [1.0 / n] * n
    if weighting == "inverse_distance":
        if distances is None or len(distances) != n:
            raise ValidationError("inverse_distance weighting needs aligned distances")
        raw = 1.0 / (np.asarray(distances, dtype=np.float64) + _INV_DIST_EPS)
        return (raw / raw.sum()).tolist()
    raise ValidationError(f"unknown weighting {weighting!r}")


def _vote(neighbor_ids: Iterable[list[int]], weights: list[float]) -> dict[int, float]:
    """Add each neighbor's weight to each of its labels, neighbors and labels in order."""
    scores: dict[int, float] = {}
    get = scores.get
    for labels, w in zip(neighbor_ids, weights):
        for label in labels:
            scores[label] = get(label, 0.0) + w
    return scores


def rank_scores(scores: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Labels and their scores by descending score, ties broken by ascending label index."""
    labels = np.fromiter(scores.keys(), dtype=np.int64, count=len(scores))
    values = np.fromiter(scores.values(), dtype=np.float64, count=len(scores))
    order = np.lexsort((labels, -values))
    return labels[order], values[order]


def top_p(scores: Mapping[int, float], p: int) -> list[int]:
    """The p highest-scoring labels, ties broken by ascending label index."""
    if p < 1:
        raise ValidationError("p must be >= 1")
    return rank_scores(scores)[0][:p].tolist()


@dataclass(frozen=True)
class _ClusterRows:
    """One cluster's rows, their training ids (None: row positions) and screen norms."""

    rows: np.ndarray
    ids: np.ndarray | None
    sq_norms: np.ndarray
    max_sq: float


class _SearchCache:
    """The per-model search data, each part with the caller's object it was built from.

    A part is replaced as a whole (one attribute store), so a reader never
    pairs one object with data built from another.
    """

    def __init__(self) -> None:
        self.rows: tuple[object, list[_ClusterRows]] | None = None
        self.labels: tuple[object, list[list[int]]] | None = None


def _search_cache(clusters: ClusterIndex) -> _SearchCache:
    if clusters.search_cache is None:
        clusters.search_cache = _SearchCache()
    return clusters.search_cache


def _cluster_rows(clusters: ClusterIndex, train_embeds: np.ndarray) -> list[_ClusterRows]:
    """Each cluster's rows and norms, built once per ``train_embeds`` object.

    A cluster whose members are one range of ids ``lo:hi`` reads the view
    ``train_embeds[lo:hi]``; any other cluster's rows are gathered.  Float32
    rows stay float32; rows of any other dtype are widened to float64 after
    the view or gather, so no whole-array float64 temporary is built.  Keyed
    on the caller's object, not on a converted form, so a list input still
    hits the cache.
    """
    cache = _search_cache(clusters)
    cached = cache.rows
    if cached is None or cached[0] is not train_embeds:
        embeds = np.asarray(train_embeds)
        dtype = np.float32 if embeds.dtype == np.float32 else np.float64
        built = []
        for members in clusters.members:
            lo, hi = (int(members[0]), int(members[-1]) + 1) if members.size else (0, 0)
            if hi - lo == members.size:  # ascending distinct ids: all of lo:hi, read in place
                rows = embeds if hi - lo == embeds.shape[0] else embeds[lo:hi]
                ids = None if lo == 0 else members  # None: row positions
            else:
                rows, ids = embeds[members], members
            rows = rows.astype(dtype, copy=False)  # rows already of that dtype are not copied
            built.append(_ClusterRows(rows, ids, *_screen_norms(rows)))
        cached = (train_embeds, built)
        cache.rows = cached
    return cached[1]


def _label_lists(clusters: ClusterIndex, train_labels: Sequence[LabelSet]) -> list[list[int]]:
    """Each training point's label ids as a list, built once per ``train_labels`` object."""
    cache = _search_cache(clusters)
    cached = cache.labels
    if cached is None or cached[0] is not train_labels:
        cached = (train_labels, [labels.ids.tolist() for labels in train_labels])
        cache.labels = cached
    return cached[1]


def knn_batch(
    clusters: ClusterIndex,
    train_embeds: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Exact k nearest training rows for each query row, inside its routed cluster.

    Entry i is (ids, distances) of the k members of the cluster nearest to
    ``queries[i]`` that lie nearest to it, by ascending Euclidean distance,
    ties broken by ascending training id; a cluster of fewer than k members
    gives all of them.  The queries routed to one cluster are searched
    together.  The cluster rows and norms are cached on ``clusters`` for
    this ``train_embeds`` object, which must not be changed in place
    afterwards.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    queries = np.asarray(queries, dtype=np.float64)
    by_cluster: dict[int, list[int]] = {}
    for q, c in enumerate(nearest_clusters(clusters, queries).tolist()):
        by_cluster.setdefault(c, []).append(q)
    out: list = [None] * len(queries)
    cluster_rows = _cluster_rows(clusters, train_embeds)
    for c, qs in sorted(by_cluster.items()):
        cr = cluster_rows[c]
        if cr.rows.shape[0] == 0:
            raise ValidationError(f"queries routed to cluster {c}, which has no members")
        if cr.rows.shape[0] < k:
            log.debug("cluster %d has %d members, fewer than k=%d", c, cr.rows.shape[0], k)
        ids, d2 = _nearest_rows(cr.rows, queries[qs], k, cr.ids, cr.sq_norms, cr.max_sq)
        for q, q_ids, dists in zip(qs, ids, np.sqrt(d2)):
            out[q] = (q_ids, dists)
    return out


def score_neighbors(
    clusters: ClusterIndex,
    train_labels: Sequence[LabelSet],
    neighbors: Sequence[tuple[np.ndarray, np.ndarray]],
    weighting: str = "uniform",
) -> list[dict[int, float]]:
    """One sparse score map per (ids, distances) entry of ``neighbors``.

    Each neighbor adds its weight to each of its labels.  'uniform' gives
    every neighbor weight 1/len(neighbors), so a label held by every
    neighbor scores exactly 1.  'inverse_distance' weights neighbor i by
    1/(distance_i + 1e-8), normalized to sum to 1.  The neighbors' label ids
    are read from lists cached on ``clusters`` for this ``train_labels``
    object, which must not be changed in place afterwards.
    """
    label_ids = _label_lists(clusters, train_labels)
    return [
        _vote([label_ids[i] for i in ids.tolist()], _weights(ids.size, weighting, dists))
        for ids, dists in neighbors
    ]


def predict_batch(
    mlp: MlpModel,
    clusters: ClusterIndex,
    train_embeds: np.ndarray,
    train_labels: Sequence[LabelSet],
    x: SparseRows,
    k: int = 10,
    weighting: str = "uniform",
) -> list[dict[int, float]]:
    """Embed every point, find its neighbors with ``knn_batch``, score labels.

    Returns one sparse score map per point.  Each point uses min(k, cluster
    size) neighbors; a shortfall is logged.  The search data built from
    ``train_embeds`` and ``train_labels`` is cached on ``clusters`` (see the
    module docstring), so neither may be changed in place afterwards.
    """
    neighbors = knn_batch(clusters, train_embeds, embed_points(mlp, x), k)
    return score_neighbors(clusters, train_labels, neighbors, weighting)


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
    """Embed one point, route it to the nearest cluster, search its members, score labels.

    ``x`` is one point's features; the scores are ``predict_batch`` on it
    as a batch of one.
    """
    if k < 1 or p < 1:
        raise ValidationError("k and p must be >= 1")
    row = SparseRows(np.array([0, x.indices.size]), x.indices, np.asarray(x.values, np.float64))
    scores = predict_batch(mlp, clusters, train_embeds, train_labels, row, k, weighting)[0]
    return Prediction(scores=scores, top_labels=top_p(scores, p) if scores else [])
