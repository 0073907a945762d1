"""Ranking metrics: precision@k and nDCG@k.

Scores are ranked descending with ties broken by ascending label index.
DCG discounts the j-th ranked hit by 1/log2(j + 1) counting positions from
1; the normalizer assumes the min(k, |y|) best positions are all hits.
Points with no true labels contribute 0 to both metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data_io import Dataset
from .errors import ValidationError

__all__ = ["MetricReport", "evaluate"]


@dataclass(eq=True)
class MetricReport:
    """Mean metrics over a test set, stored as raw fractions in [0, 1]."""

    ks: tuple[int, ...]
    precision: dict[int, float]
    ndcg: dict[int, float]
    num_points: int
    num_skipped: int = 0

    def format_table(self) -> str:
        header = f"{'k':>4}  {'P@k':>8}  {'nDCG@k':>8}"
        rows = [header, "-" * len(header)]
        for k in self.ks:
            rows.append(
                f"{k:>4}  {100.0 * self.precision[k]:>8.2f}  {100.0 * self.ndcg[k]:>8.2f}"
            )
        rows.append(f"points evaluated: {self.num_points}, skipped: {self.num_skipped}")
        return "\n".join(rows)

    def format_kv(self) -> str:
        lines = []
        for k in self.ks:
            lines.append(f"P@{k}={100.0 * self.precision[k]:.2f}")
        for k in self.ks:
            lines.append(f"nDCG@{k}={100.0 * self.ndcg[k]:.2f}")
        lines.append(f"points={self.num_points}")
        lines.append(f"skipped={self.num_skipped}")
        return "\n".join(lines) + "\n"


def _ranked_head(
    point_scores: Mapping[int, float], num_labels: int, top: int
) -> np.ndarray:
    """The ``top`` labels of the dense score vector, from the scored labels only.

    Labels rank by descending score, ties broken by ascending label index,
    NaN scores last.  A label without a score ranks as a zero score.  Only
    the ``top`` lowest such ids can reach the head, so they are the only
    ones ranked.
    """
    labels = np.fromiter(point_scores.keys(), dtype=np.int64, count=len(point_scores))
    scores = np.fromiter(point_scores.values(), dtype=np.float64, count=len(point_scores))
    outside = np.flatnonzero((labels < 0) | (labels >= num_labels))
    if outside.size:
        raise ValidationError(
            f"score for label {labels[outside[0]]} outside [0, {num_labels})"
        )
    scored = np.zeros(min(num_labels, top + labels.size), dtype=bool)
    scored[labels[labels < scored.size]] = True
    unscored = np.flatnonzero(~scored)[:top]
    ids = np.concatenate([labels, unscored])
    order = np.lexsort((ids, -np.concatenate([scores, np.zeros(unscored.size)])))
    return ids[order[:top]]


def evaluate(
    score_maps: Sequence[Mapping[int, float]],
    dataset: Dataset,
    ks: Sequence[int] = (1, 3, 5),
    skip_unlabeled: bool = False,
) -> MetricReport:
    """Average P@k and nDCG@k of sparse score maps against ``dataset`` truth.

    Unlabeled test points count as zeros unless ``skip_unlabeled`` excludes
    them from the average.  Each point is ranked once, at the largest k, and
    every k reads a prefix of that ranking.  A point's P@k is its hits in
    the top k over k; its DCG and the ideal DCG are summed in rank order, so
    each per-point value has the bits of the module docstring's formulas
    evaluated left to right.
    """
    if len(score_maps) != dataset.num_points:
        raise ValidationError(
            f"{len(score_maps)} score maps for {dataset.num_points} test points"
        )
    ks = tuple(ks)
    if not ks or any(k < 1 for k in ks):
        raise ValidationError("ks must be a non-empty list of positive ints")
    top = min(max(ks), dataset.num_labels)
    gains = [1.0 / math.log2(pos + 1) for pos in range(1, max(ks) + 1)]
    ideal = [0.0]  # ideal[j]: the best DCG of j hits, summed in rank order
    for g in gains:
        ideal.append(ideal[-1] + g)
    p_sums = {k: 0.0 for k in ks}
    n_sums = {k: 0.0 for k in ks}
    counted = 0
    skipped = 0
    lp = dataset.label_indptr.tolist()
    for i, point_scores in enumerate(score_maps):
        truth = dataset.label_ids[lp[i] : lp[i + 1]]
        if skip_unlabeled and truth.size == 0:
            skipped += 1
            continue
        truth_ids = set(truth.tolist())
        ranked = _ranked_head(point_scores, dataset.num_labels, top).tolist()
        hit_count = [0]  # hit_count[j], dcg[j]: over the first j ranked labels
        dcg = [0.0]
        for pos, label in enumerate(ranked):
            hit = label in truth_ids
            hit_count.append(hit_count[-1] + hit)
            dcg.append(dcg[-1] + gains[pos] if hit else dcg[-1])
        for k in ks:
            p_sums[k] += hit_count[min(k, top)] / k
            if truth.size:  # no truth: nDCG 0
                n_sums[k] += dcg[min(k, top)] / ideal[min(k, truth.size)]
        counted += 1
    if counted == 0:
        raise ValidationError("no test points to evaluate")
    return MetricReport(
        ks=ks,
        precision={k: p_sums[k] / counted for k in ks},
        ndcg={k: n_sums[k] / counted for k in ks},
        num_points=counted,
        num_skipped=skipped,
    )
