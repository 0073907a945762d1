"""Seeded generator of multi-label data with planted label communities.

Labels are partitioned into small groups that co-occur.  Every group owns a
few "topic" features and every label owns a few features of its own, so
both the label graph and the feature space carry the community structure.
Uniform noise features are added to every point, and a small share of
training points carries no labels.  Output is the repository text format
(header ``n d L``, then ``lbl,lbl idx:val ...`` per point).

numpy only; the same (shape, seed) always yields the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Shape", "Split", "SHAPES", "generate", "rows", "repo_bytes", "split_stats", "digest"]


@dataclass(frozen=True)
class Shape:
    """Sizes and mixing rates of one generated dataset."""

    n_train: int
    n_test: int
    num_features: int
    num_labels: int
    group_sizes: tuple[int, int] = (3, 6)  # inclusive range of labels per group
    group_features: int = 12  # topic features owned by each group
    label_features: int = 6  # features owned by each label
    draw_prob: float = 0.5  # chance that an owned feature shows up in a point
    noise_mean: float = 45.0  # Poisson mean of uniform noise features per point
    cross_label_prob: float = 0.15  # chance of one extra label from any group
    unlabeled_frac: float = 0.02  # share of training points with no labels
    popularity_power: float = 0.7  # group popularity falls as 1 / (rank + offset) ** power
    popularity_offset: float = 10.0


SHAPES = {
    # Bibtex: 4880 train / 2515 test, d=1836, L=159, about 2.4 labels per point.
    "bibtex": Shape(n_train=4880, n_test=2515, num_features=1836, num_labels=159),
    # Wide: d and L of the ROADMAP's wide shape, n cut to fit the run length.
    # Group popularity is steeper than Bibtex's (the ten most popular groups
    # take a third of the points), so head labels recur in the small training
    # set and P@k is high enough to be steady over 4000 test points.
    "wide": Shape(n_train=2000, n_test=4000, num_features=5000, num_labels=4000,
                  label_features=4, noise_mean=40.0, popularity_power=1.0,
                  popularity_offset=2.0),
}


@dataclass
class Split:
    """CSR features and labels of one file's points."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    label_indptr: np.ndarray
    label_ids: np.ndarray

    @property
    def num_points(self) -> int:
        return int(self.indptr.size - 1)

    def labels(self, i: int) -> np.ndarray:
        return self.label_ids[self.label_indptr[i] : self.label_indptr[i + 1]]

    def features(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.values[s:e]


def _communities(shape: Shape, rng: np.random.Generator) -> dict:
    """Label groups (padded with -1), their popularity, and owned features."""
    L, d = shape.num_labels, shape.num_features
    perm = rng.permutation(L)
    lo, hi = shape.group_sizes
    sizes: list[int] = []
    while sum(sizes) < L:
        sizes.append(int(rng.integers(lo, hi + 1)))
    members = np.full((len(sizes), hi), -1, dtype=np.int64)
    pos = 0
    for g, size in enumerate(sizes):
        chunk = np.sort(perm[pos : pos + size])
        members[g, : chunk.size] = chunk
        pos += size
    # Skewed group popularity, as in real tag data.
    weights = 1.0 / (np.arange(len(sizes)) + shape.popularity_offset) ** shape.popularity_power
    popularity = weights[rng.permutation(len(sizes))]
    return {
        "members": members,
        "popularity": popularity / popularity.sum(),
        "group_feats": np.stack([rng.choice(d, shape.group_features, replace=False)
                                 for _ in sizes]),
        "label_feats": np.stack([rng.choice(d, shape.label_features, replace=False)
                                 for _ in range(L)]),
    }


def _dedupe_rows(keys: np.ndarray, sentinel: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-sorted keys and a mask of each row's first copy of every real key."""
    keys = np.sort(keys, axis=1)
    first = keys < sentinel
    first[:, 1:] &= keys[:, 1:] != keys[:, :-1]
    return keys, first


def _points(shape: Shape, n: int, rng, c: dict, allow_unlabeled: bool) -> Split:
    L, d = shape.num_labels, shape.num_features
    gids = rng.choice(c["members"].shape[0], size=n, p=c["popularity"])
    group = c["members"][gids]
    size = (group >= 0).sum(axis=1)
    take = 1 + rng.binomial(np.minimum(size - 1, 3), 0.45)
    # A uniform subset of `take` labels of the point's group, plus maybe one stray label.
    order = np.argsort(np.where(group >= 0, rng.random(group.shape), 2.0), axis=1)
    chosen = np.take_along_axis(group, order, axis=1)
    chosen[np.arange(group.shape[1])[None, :] >= take[:, None]] = -1
    stray = np.where(rng.random(n) < shape.cross_label_prob, rng.integers(L, size=n), -1)
    labels = np.concatenate([chosen, stray[:, None]], axis=1)
    labels, label_mask = _dedupe_rows(np.where(labels >= 0, labels, L), L)

    # Owned features of the group and of each label, each drawn with draw_prob;
    # the group's first topic feature is always present so no point is empty.
    lab_feats = c["label_feats"][np.minimum(labels, L - 1)]
    lab_feats[~label_mask] = -1
    owned = np.concatenate([c["group_feats"][gids], lab_feats.reshape(n, -1)], axis=1)
    drawn = (owned >= 0) & (rng.random(owned.shape) < shape.draw_prob)
    drawn[:, 0] = True
    counts = rng.poisson(shape.noise_mean, size=n)
    noise = rng.integers(d, size=(n, int(counts.max(initial=0))))
    noise_ok = np.arange(noise.shape[1])[None, :] < counts[:, None]
    # key = 2*feature + is_noise, so a feature drawn as signal sorts first.
    sentinel = 2 * d
    keys = np.concatenate(
        [np.where(drawn, 2 * owned, sentinel), np.where(noise_ok, 2 * noise + 1, sentinel)],
        axis=1,
    )
    keys, feat_mask = _dedupe_rows(keys, sentinel)
    feat_mask[:, 1:] &= (keys[:, 1:] >> 1) != (keys[:, :-1] >> 1)
    vals = rng.lognormal(0.0, 0.5, keys.shape)
    vals[(keys & 1) == 1] *= 0.5  # noise weighs less than signal
    vals = np.maximum(np.round(vals, 3), 0.001)

    if allow_unlabeled:
        label_mask[rng.random(n) < shape.unlabeled_frac] = False
    return Split(
        indptr=np.concatenate([[0], np.cumsum(feat_mask.sum(axis=1))]),
        indices=(keys[feat_mask] >> 1).astype(np.int32),
        values=vals[feat_mask],
        label_indptr=np.concatenate([[0], np.cumsum(label_mask.sum(axis=1))]),
        label_ids=labels[label_mask].astype(np.int32),
    )


def generate(shape: Shape, seed: int) -> tuple[Split, Split]:
    """(train, test) splits drawn from one planted community structure."""
    structure, train_stream, test_stream = (
        np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(3)
    )
    communities = _communities(shape, structure)
    train = _points(shape, shape.n_train, train_stream, communities, allow_unlabeled=True)
    test = _points(shape, shape.n_test, test_stream, communities, allow_unlabeled=False)
    return train, test


def rows(split: Split, start: int, stop: int) -> Split:
    """Points ``start`` to ``stop`` (exclusive) of ``split``."""
    a, b = split.indptr[start], split.indptr[stop]
    la, lb = split.label_indptr[start], split.label_indptr[stop]
    return Split(indptr=split.indptr[start : stop + 1] - a, indices=split.indices[a:b],
                 values=split.values[a:b], label_indptr=split.label_indptr[start : stop + 1] - la,
                 label_ids=split.label_ids[la:lb])


def repo_bytes(split: Split, shape: Shape) -> bytes:
    """The split in the repository text format, LF line endings."""
    lines = [f"{split.num_points} {shape.num_features} {shape.num_labels}"]
    idx_all = split.indices.tolist()
    val_all = split.values.tolist()
    lab_all = split.label_ids.tolist()
    ip, lp = split.indptr.tolist(), split.label_indptr.tolist()
    for i in range(split.num_points):
        labels = ",".join(map(str, lab_all[lp[i] : lp[i + 1]]))
        feats = " ".join(
            f"{j}:{v!r}" for j, v in zip(idx_all[ip[i] : ip[i + 1]], val_all[ip[i] : ip[i + 1]])
        )
        lines.append(f"{labels} {feats}")
    return ("\n".join(lines) + "\n").encode("ascii")


def split_stats(train: Split, test: Split, shape: Shape) -> dict:
    """The properties that drive cost: sizes, density, label graph, unlabeled share."""
    L = shape.num_labels
    pair_codes = []
    for i in range(train.num_points):
        ids = train.labels(i).astype(np.int64)
        if ids.size > 1:
            a, b = np.triu_indices(ids.size, k=1)
            pair_codes.append(ids[a] * L + ids[b])
    edges = int(np.unique(np.concatenate(pair_codes)).size) if pair_codes else 0
    n_all = train.num_points + test.num_points
    nnz_all = train.indices.size + test.indices.size
    labels_per_point = np.diff(train.label_indptr)
    return {
        "n_train": train.num_points,
        "n_test": test.num_points,
        "d": shape.num_features,
        "L": L,
        "mean_nnz": round(nnz_all / n_all, 3),
        "mean_labels": round(float(labels_per_point[labels_per_point > 0].mean()), 3),
        "graph_edges": edges,
        "graph_density": round(edges / (L * (L - 1) / 2), 5),
        "unlabeled_frac": round(float(np.mean(labels_per_point == 0)), 5),
    }


def digest(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()[:16]
