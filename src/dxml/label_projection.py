"""Label-set targets in embedding space.

A point's target is the mean of its labels' embedding columns, optionally
scaled to unit norm so it lives on the same sphere as the network output.
"""

from __future__ import annotations

import logging

import numpy as np

from .data_io import Dataset
from .errors import DegenerateTargetError, ValidationError

__all__ = ["project_targets"]

log = logging.getLogger(__name__)

_DEGENERATE_NORM = 1e-12
_GATHER_FLOATS = 1 << 18  # floats per block of gathered label columns


def project_targets(
    embeddings: np.ndarray, dataset: Dataset, normalize: bool = True
) -> tuple[np.ndarray, np.ndarray, int]:
    """Targets for every labeled point of ``dataset``, the training data of the network.

    ``embeddings`` is the (dim x L) label vectors, one column per label.
    Returns (targets, rows, skipped): ``targets[i]`` belongs to point
    ``rows[i]`` and has the bits of the mean of its labels' embedding
    columns, ``E[:, ids].mean(axis=1)``, divided with ``normalize`` by its
    ``np.linalg.norm``; a mean whose norm falls below 1e-12 raises
    DegenerateTargetError.  ``skipped`` counts the unlabeled points, which
    get no target.
    """
    counts = np.diff(dataset.label_indptr)
    rows = np.flatnonzero(counts)
    skipped = counts.size - rows.size
    if skipped:
        log.warning("skipped %d unlabeled training points", skipped)
    ids = dataset.label_ids
    E = embeddings
    if ids.size and (ids.min() < 0 or ids.max() >= E.shape[1]):
        raise ValidationError(f"label id outside [0, {E.shape[1]})")
    targets = np.empty((rows.size, E.shape[0]), dtype=np.float64)
    starts, counts = dataset.label_indptr[rows], counts[rows]
    # Points with m labels are averaged together as a (dim, points, m) gather
    # whose mean runs over the same m contiguous values, in the same order, as
    # one point's E[:, ids].mean(axis=1); a block keeps the gather near
    # _GATHER_FLOATS.
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
