"""Label-set targets in embedding space.

A point's target is the mean of its labels' embedding columns, optionally
scaled to unit norm so it lives on the same sphere as the network output.
"""

from __future__ import annotations

import logging

import numpy as np

from .data_io import Dataset, LabelSet
from .errors import DegenerateTargetError, UnlabeledPointError, ValidationError
from .graph_embed import EmbeddingMatrix

__all__ = ["project_label_vector", "project_targets"]

log = logging.getLogger(__name__)

_DEGENERATE_NORM = 1e-12
_GATHER_FLOATS = 1 << 18  # floats per block of gathered label columns


def project_label_vector(
    embeddings: EmbeddingMatrix, labels: LabelSet, normalize: bool = True
) -> np.ndarray:
    """Average the embedding columns named by ``labels``.

    With ``normalize`` the mean is rescaled to unit Euclidean norm; a mean
    whose norm falls below 1e-12 is reported as degenerate instead of being
    divided out.  An empty label set is an error: such points carry no
    training signal and the caller decides whether to skip them.
    """
    if len(labels) == 0:
        raise UnlabeledPointError("cannot project an empty label set")
    if labels.ids[-1] >= embeddings.count or labels.ids[0] < 0:
        raise ValidationError(
            f"label id outside [0, {embeddings.count})"
        )
    mean = embeddings.values[:, labels.ids].mean(axis=1)
    if not normalize:
        return mean
    nrm = float(np.linalg.norm(mean))
    if nrm < _DEGENERATE_NORM:
        raise DegenerateTargetError(
            f"averaged label embedding has norm {nrm:.3e}, cannot normalize"
        )
    return mean / nrm


def project_targets(
    embeddings: EmbeddingMatrix, dataset: Dataset, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray, int]:
    """Targets for every labeled point of ``dataset``, the training data of the network.

    Returns (targets, rows, skipped): ``targets[i]`` belongs to point
    ``rows[i]`` and equals ``project_label_vector`` of its labels bit for bit;
    ``skipped`` counts the unlabeled points, which get no target.
    """
    counts = np.diff(dataset.label_indptr)
    rows = np.flatnonzero(counts)
    skipped = counts.size - rows.size
    if skipped:
        log.warning("skipped %d unlabeled training points", skipped)
    ids = dataset.label_ids
    if ids.size and (ids.min() < 0 or ids.max() >= embeddings.count):
        raise ValidationError(f"label id outside [0, {embeddings.count})")
    E = embeddings.values
    targets = np.empty((rows.size, embeddings.dim), dtype=np.float64)
    starts, counts = dataset.label_indptr[rows], counts[rows]
    # Points with m labels are averaged together as a (dim, points, m) gather
    # whose mean runs over the same m contiguous values, in the same order, as
    # project_label_vector's; a block keeps the gather near _GATHER_FLOATS.
    for m in np.unique(counts).tolist():
        same = np.flatnonzero(counts == m)
        step = max(1, _GATHER_FLOATS // (m * E.shape[0]))
        for s in range(0, same.size, step):
            sel = same[s : s + step]
            cols = ids[starts[sel][:, None] + np.arange(m)]
            targets[sel] = E[:, cols].mean(axis=2).T
    if not normalize:
        return targets, rows, skipped
    # np.linalg.norm of a vector is sqrt(x.dot(x)); one BLAS dot per row keeps its bits.
    norms = np.sqrt([t.dot(t) for t in targets])
    degenerate = np.flatnonzero(norms < _DEGENERATE_NORM)
    if degenerate.size:
        raise DegenerateTargetError(
            f"averaged label embedding has norm {norms[degenerate[0]]:.3e}, cannot normalize"
        )
    targets /= norms[:, None]
    return targets, rows, skipped
