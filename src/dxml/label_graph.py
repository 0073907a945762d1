"""Label co-occurrence graph.

Two labels are connected iff they appear together in at least one training
point; the edge weight counts how many points contain both.  The graph is
undirected, has no self loops, and keeps a node for every label id, including
labels that never occur.  It is held as flat CSR arrays, as ``Dataset``
holds its points: one neighbour table and one weight table for all nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO

import numpy as np

from .data_io import Dataset
from .errors import DataFormatError

__all__ = ["LabelGraph", "build_label_graph", "write_adjacency", "read_adjacency"]


@dataclass
class LabelGraph:
    """CSR adjacency of the co-occurrence graph.

    Node v's neighbours are ``indices[indptr[v]:indptr[v + 1]]`` (int32,
    ascending), and the same slice of ``weights`` (int64) holds their
    co-occurrence counts.  Each undirected edge is stored once per endpoint.
    """

    num_nodes: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2


def _from_edges(
    a: np.ndarray, b: np.ndarray, weights: np.ndarray, num_nodes: int
) -> LabelGraph:
    """Adjacency of undirected edges (a[e], b[e]) carrying ``weights[e]``, each listed once."""
    src = np.concatenate([a, b]).astype(np.int64)
    dst = np.concatenate([b, a]).astype(np.int32)
    wts = np.concatenate([weights, weights]).astype(np.int64)
    order = np.lexsort((dst, src))
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return LabelGraph(num_nodes=num_nodes, indptr=indptr, indices=dst[order], weights=wts[order])


def build_label_graph(dataset: Dataset) -> LabelGraph:
    """Count pairwise label co-occurrences across all points of ``dataset``."""
    ids, indptr, L = dataset.label_ids, dataset.label_indptr, dataset.num_labels
    # Entry p pairs with the later entries of its point: p + 1 .. row end - 1.
    row_end = np.repeat(indptr[1:], np.diff(indptr))
    later = row_end - np.arange(ids.size) - 1
    first = np.repeat(np.arange(ids.size), later)
    second = first + 1 + np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    codes, weights = np.unique(
        ids[first].astype(np.int64) * L + ids[second], return_counts=True
    )
    return _from_edges(codes // L, codes % L, weights, L)


def write_adjacency(graph: LabelGraph, stream: IO[str]) -> None:
    """Write one ``i j weight`` line per undirected edge, i < j, sorted."""
    stream.write(f"{graph.num_nodes}\n")
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.indptr))
    upper = rows < graph.indices
    stream.writelines(
        f"{i} {j} {w}\n"
        for i, j, w in zip(
            rows[upper].tolist(), graph.indices[upper].tolist(), graph.weights[upper].tolist()
        )
    )


def read_adjacency(stream: IO[str], num_nodes: int | None = None) -> LabelGraph:
    """Parse the edge-list format produced by write_adjacency."""
    lines = iter(stream)
    try:
        first = next(lines).strip()
    except StopIteration:
        raise DataFormatError("empty adjacency file", line=1) from None
    try:
        declared = int(first)
    except ValueError:
        raise DataFormatError(f"malformed node count {first!r}", line=1) from None
    if num_nodes is None:
        num_nodes = declared
    elif num_nodes != declared:
        raise DataFormatError(
            f"adjacency file declares {declared} nodes, expected {num_nodes}", line=1
        )
    counts: dict[tuple[int, int], int] = {}
    lineno = 1
    for raw in lines:
        lineno += 1
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise DataFormatError(f"malformed edge line {line!r}", line=lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
            w = int(parts[2]) if len(parts) == 3 else 1
        except ValueError:
            raise DataFormatError(f"malformed edge line {line!r}", line=lineno) from None
        if a == b:
            raise DataFormatError(f"self loop on node {a}", line=lineno)
        if not (0 <= a < num_nodes and 0 <= b < num_nodes):
            raise DataFormatError(f"edge endpoint outside [0, {num_nodes})", line=lineno)
        if w <= 0:
            raise DataFormatError(f"non-positive edge weight {w}", line=lineno)
        key = (min(a, b), max(a, b))
        if key in counts:
            raise DataFormatError(f"duplicate edge {key[0]} {key[1]}", line=lineno)
        counts[key] = w
    edges = np.array(list(counts), dtype=np.int64).reshape(-1, 2)
    weights = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    return _from_edges(edges[:, 0], edges[:, 1], weights, num_nodes)
