"""Independent check of dxml's outputs, recomputed in numpy.

From the loaded model's arrays the oracle redoes every prediction its own
way: an eval-mode forward pass over dense blocks, the nearest centre, a full
sort of the routed cluster's members by (distance, id), then the vote.  It
scores rankings with its own P@k / nDCG@k.  Only ``dxml.load_model`` is
shared with the program under test.

A point whose result legitimately depends on ulp-level rounding is counted
as ambiguous, not failed: its k-th and (k+1)-th neighbour distances, or its
two nearest centres, lie within ``TOL``, or an inverse-distance weight is
ill-conditioned because a neighbour sits closer than ``NEAR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TOL", "OracleModel", "Report", "read_model", "embed", "Neighbours",
           "neighbours", "vote", "check_predictions", "top_labels", "ranking_metrics",
           "parse_sweep_table", "parse_kv", "cosine_knn_p1"]

TOL = 1e-9  # distance-tie and score tolerance
NEAR = 1e-6  # inverse-distance weights 1/(d + 1e-8) are ill-conditioned below this
IDW_EPS = 1e-8  # documented inverse-distance offset of the predictor
NORM_EPS = 1e-12  # documented output-norm guard of the network
_BLOCK = 512


@dataclass
class OracleModel:
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    centers: np.ndarray
    members: list[np.ndarray]
    train_embeds: np.ndarray
    label_indptr: np.ndarray
    label_ids: np.ndarray
    normalize: str

    def labels(self, i: int) -> np.ndarray:
        return self.label_ids[self.label_indptr[i] : self.label_indptr[i + 1]]


@dataclass
class Report:
    """Counts of one check; ``messages`` keeps the first few failures."""

    attempted: int = 0
    failed: int = 0
    ambiguous: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 5:
            self.messages.append(message)

    def add(self, other: "Report") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.ambiguous += other.ambiguous
        self.messages.extend(other.messages[: max(0, 5 - len(self.messages))])


def read_model(path: str) -> OracleModel:
    from dxml import load_model

    art = load_model(path)
    sizes = np.array([len(ls) for ls in art.train_labels], dtype=np.int64)
    assign = np.asarray(art.clusters.assignments)
    return OracleModel(
        W1=art.mlp.W1, b1=art.mlp.b1, W2=art.mlp.W2, b2=art.mlp.b2,
        centers=art.clusters.centers,
        members=[np.flatnonzero(assign == c) for c in range(art.clusters.centers.shape[0])],
        train_embeds=art.train_embeds,
        label_indptr=np.concatenate([[0], np.cumsum(sizes)]),
        label_ids=(np.concatenate([ls.ids for ls in art.train_labels]).astype(np.int64)
                   if sizes.sum() else np.empty(0, dtype=np.int64)),
        normalize=art.meta.get("normalize_features", "none"),
    )


def _dense_rows(split, rows: range, d: int, normalize: str) -> np.ndarray:
    X = np.zeros((len(rows), d))
    for r, i in enumerate(rows):
        idx, val = split.features(i)
        if normalize == "unit_l2" and idx.size:
            val = val / math.sqrt(float(val @ val))
        X[r, idx] = val
    return X


def embed(model: OracleModel, split) -> np.ndarray:
    """Eval-mode forward pass of every point of ``split``, in dense blocks."""
    n, d = split.num_points, model.W1.shape[0]
    out = np.empty((n, model.W2.shape[1]))
    for s in range(0, n, _BLOCK):
        X = _dense_rows(split, range(s, min(n, s + _BLOCK)), d, model.normalize)
        Z = np.maximum(X @ model.W1 + model.b1, 0.0) @ model.W2 + model.b2
        out[s : s + X.shape[0]] = Z / (np.linalg.norm(Z, axis=1, keepdims=True) + NORM_EPS)
    return out


@dataclass
class Neighbours:
    """Per query: neighbour ids and distances, sorted, up to kmax + 1 of them."""

    ids: list[np.ndarray]
    dists: list[np.ndarray]
    route_tie: np.ndarray  # two nearest centres within TOL

    def ambiguous(self, i: int, k: int, weighting: str) -> bool:
        d = self.dists[i]
        if self.route_tie[i]:
            return True
        if d.size > k and d[k] - d[k - 1] <= TOL:
            return True
        return weighting == "inverse_distance" and d.size > 0 and d[0] < NEAR


def neighbours(model: OracleModel, F: np.ndarray, kmax: int) -> Neighbours:
    """Route each row of F to its nearest centre, then fully sort that cluster."""
    C = model.centers
    dc = ((F[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
    route = np.argmin(dc, axis=1)
    if C.shape[0] > 1:
        two = np.sort(dc, axis=1)[:, :2]
        route_tie = two[:, 1] - two[:, 0] <= TOL
    else:
        route_tie = np.zeros(F.shape[0], dtype=bool)
    ids: list = [None] * F.shape[0]
    dists: list = [None] * F.shape[0]
    for c, member_ids in enumerate(model.members):
        queries = np.flatnonzero(route == c)
        X = model.train_embeds[member_ids]
        xx = (X * X).sum(axis=1)
        for s in range(0, queries.size, _BLOCK):
            qi = queries[s : s + _BLOCK]
            Q = F[qi]
            D2 = xx[None, :] - 2.0 * (Q @ X.T) + (Q * Q).sum(axis=1)[:, None]
            for r, q in enumerate(qi):
                order = np.lexsort((member_ids, D2[r]))[: kmax + 1]
                # Exact distances for the shortlist, then the (distance, id) order.
                exact = np.sqrt(((X[order] - F[q]) ** 2).sum(axis=1))
                final = np.lexsort((member_ids[order], exact))
                ids[q] = member_ids[order][final]
                dists[q] = exact[final]
    return Neighbours(ids=ids, dists=dists, route_tie=route_tie)


def vote(model: OracleModel, ids: np.ndarray, dists: np.ndarray, k: int,
         weighting: str) -> dict[int, float]:
    ids, dists = ids[:k], dists[:k]
    if weighting == "uniform":
        weights = [1.0 / ids.size] * ids.size
    else:
        raw = 1.0 / (dists + IDW_EPS)
        weights = (raw / raw.sum()).tolist()
    scores: dict[int, float] = {}
    for i, w in zip(ids.tolist(), weights):
        for label in model.labels(i).tolist():
            scores[label] = scores.get(label, 0.0) + w
    return scores


def _parse_line(line: str) -> dict[int, float]:
    scores: dict[int, float] = {}
    prev = None
    for tok in line.split("\t"):
        label_s, sep, score_s = tok.partition(":")
        if not sep:
            raise ValueError(f"token {tok!r}")
        label, score = int(label_s), float(score_s)
        if label in scores:
            raise ValueError(f"duplicate label {label}")
        if prev is not None and (-score, label) <= prev:
            raise ValueError("labels not ranked by (score desc, label asc)")
        prev = (-score, label)
        scores[label] = score
    return scores


def check_predictions(path: str, expected: list[dict[int, float]],
                      ambiguous: list[bool], name: str) -> tuple[Report, list[dict]]:
    """Compare a predictions file line by line with the oracle's score maps.

    Returns the report and the parsed score maps (empty for bad lines).
    """
    rep = Report(attempted=len(expected))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        rep.fail(f"{name}: cannot read predictions: {exc}")
        rep.failed = rep.attempted
        return rep, [{} for _ in expected]
    if lines and lines[-1] == "":
        lines.pop()
    parsed: list[dict] = []
    for i, want in enumerate(expected):
        if i >= len(lines):
            rep.fail(f"{name}: line {i + 1} missing")
            parsed.append({})
            continue
        try:
            got = _parse_line(lines[i])
        except ValueError as exc:
            rep.fail(f"{name}: line {i + 1} malformed: {exc}")
            parsed.append({})
            continue
        parsed.append(got)
        if ambiguous[i]:
            rep.ambiguous += 1
        elif got.keys() != want.keys():
            rep.fail(f"{name}: line {i + 1} label set differs")
        elif max(abs(got[j] - want[j]) for j in want) > TOL:
            rep.fail(f"{name}: line {i + 1} score off by more than {TOL}")
    if len(lines) > len(expected):
        rep.fail(f"{name}: {len(lines) - len(expected)} extra lines")
    return rep, parsed


def top_labels(scores: dict[int, float], p: int) -> list[int]:
    return [j for j, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:p]]


def ranking_metrics(score_maps: list[dict[int, float]], truth, num_labels: int,
                    ks=(1, 3, 5)) -> dict[str, float]:
    """Mean P@k and nDCG@k in percent; unscored labels rank as 0, ties by index."""
    kmax = max(ks)
    p_sum = {k: 0.0 for k in ks}
    n_sum = {k: 0.0 for k in ks}
    discount = 1.0 / np.log2(np.arange(2, kmax + 2))
    for i, scores in enumerate(score_maps):
        y = truth.labels(i)
        s = np.zeros(num_labels)
        if scores:
            s[list(scores)] = list(scores.values())
        ranked = np.lexsort((np.arange(num_labels), -s))[:kmax]
        hits = np.isin(ranked, y).astype(np.float64)
        for k in ks:
            p_sum[k] += hits[:k].sum() / k
            if y.size:
                n_sum[k] += float(hits[:k] @ discount[:k]) / float(discount[: min(k, y.size)].sum())
    n = len(score_maps)
    out = {f"P@{k}": 100.0 * p_sum[k] / n for k in ks}
    out.update({f"nDCG@{k}": 100.0 * n_sum[k] / n for k in ks})
    return out


def parse_kv(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = float(value)
    return out


def parse_sweep_table(text: str) -> dict[int, dict[str, float]]:
    """{k: {"P@1": ..., "nDCG@5": ...}} from ``dxml sweep-k`` stdout."""
    rows: dict[int, dict[str, float]] = {}
    header: list[str] = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "k":
            header = parts[1:]
        elif header and len(parts) == len(header) + 1 and parts[0].isdigit():
            rows[int(parts[0])] = dict(zip(header, map(float, parts[1:])))
    return rows


def cosine_knn_p1(train, test, d: int, k: int = 10) -> float:
    """P@1 (percent) of a k-NN vote over cosine similarity in feature space.

    Blocks of train and test rows keep memory bounded; unlabeled training
    points are ignored; votes tie-break to the lowest label id.
    """
    labeled = [i for i in range(train.num_points) if train.labels(i).size]
    hits = 0
    for s in range(0, test.num_points, _BLOCK):
        Q = _dense_rows(test, range(s, min(test.num_points, s + _BLOCK)), d, "unit_l2")
        Q = Q.astype(np.float32)
        best_sim = np.full((Q.shape[0], k), -np.inf, dtype=np.float32)
        best_id = np.zeros((Q.shape[0], k), dtype=np.int64)
        for t in range(0, len(labeled), 2048):
            rows = labeled[t : t + 2048]
            X = _dense_rows(train, rows, d, "unit_l2").astype(np.float32)
            S = np.concatenate([best_sim, Q @ X.T], axis=1)
            I = np.concatenate([best_id, np.broadcast_to(np.array(rows), (Q.shape[0], len(rows)))],
                               axis=1)
            top = np.argsort(-S, axis=1, kind="stable")[:, :k]
            best_sim = np.take_along_axis(S, top, axis=1)
            best_id = np.take_along_axis(I, top, axis=1)
        for r in range(Q.shape[0]):
            votes = np.bincount(np.concatenate([train.labels(i) for i in best_id[r]]))
            if test.labels(s + r).size and votes.size:
                hits += int(np.argmax(votes) in set(test.labels(s + r).tolist()))
    return 100.0 * hits / test.num_points
