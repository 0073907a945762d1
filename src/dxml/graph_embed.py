"""Random-walk node embeddings for the label graph.

Truncated random walks over the co-occurrence graph form a corpus, held
flat as one token array and each walk's bounds in it (``WalkCorpus``); a
skip-gram model with negative sampling trained on that corpus yields one
embedding column per label.  Both stages are deterministic for a fixed seed:
walks draw from per-(node, walk) derived generators, so the corpus does not
depend on generation order, and training is single threaded.

Training draws its (centre, context) pairs and their negatives as arrays, a
bounded block at a time, and applies them in chunks of a few hundred pairs
with delayed updates: each pair of a chunk reads the vectors as they stood
at the chunk's start, and the chunk's updates, duplicate rows included, are
then added in pair order.  Sequential per-pair SGD would let every pair see
the updates of the pairs before it; the delayed form gives that up, as
multi-threaded word2vec (Hogwild) does, and keeps the objective, the
learning-rate schedule and the noise distribution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import ValidationError
from .label_graph import LabelGraph

__all__ = [
    "DeepWalkConfig",
    "WalkCorpus",
    "generate_walks",
    "fit_skipgram",
    "embed_labels",
    "write_embeddings_text",
]

log = logging.getLogger(__name__)

# Sub-stream tags so walks and training never share a generator state.
_WALK_STREAM = 0
_TRAIN_STREAM = 1


@dataclass(frozen=True)
class DeepWalkConfig:
    """Hyper-parameters for walk generation and skip-gram training."""

    dim: int = 100
    walks_per_node: int = 10
    walk_length: int = 40
    window: int = 5
    negative_samples: int = 5
    epochs: int = 5
    initial_learning_rate: float = 0.025
    min_learning_rate: float = 1e-4
    weighted_walks: bool = False
    rng_seed: int = 0

    def validate(self) -> None:
        if self.dim < 1:
            raise ValidationError("embedding dim must be >= 1")
        if self.walks_per_node < 1 or self.walk_length < 1:
            raise ValidationError("walks_per_node and walk_length must be >= 1")
        if self.window < 1:
            raise ValidationError("window must be >= 1")
        if self.window >= self.walk_length and self.walk_length > 1:
            raise ValidationError("window must be smaller than walk_length")
        if self.negative_samples < 1:
            raise ValidationError("negative_samples must be >= 1")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.initial_learning_rate <= 0 or self.min_learning_rate <= 0:
            raise ValidationError("learning rates must be positive")


@dataclass
class WalkCorpus:
    """Walks over node ids, end to end: walk w is ``tokens[indptr[w]:indptr[w + 1]]``.

    Walk ``p * num_nodes + v`` is the p-th walk from node v; isolated start
    nodes give length-1 walks.
    """

    tokens: np.ndarray
    indptr: np.ndarray
    num_nodes: int

    @property
    def total_tokens(self) -> int:
        return int(self.tokens.size)


def _walk_rng(seed: int, node: int, walk_idx: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(_WALK_STREAM, node, walk_idx))
    return np.random.default_rng(ss)


def _stream_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def generate_walks(
    graph: LabelGraph,
    walks_per_node: int,
    walk_length: int,
    rng_seed: int = 0,
    weighted: bool = False,
) -> WalkCorpus:
    """Generate ``walks_per_node`` truncated random walks from every node.

    Each step moves to a uniformly random neighbor, or proportionally to the
    co-occurrence weight when ``weighted`` is set.  Isolated nodes produce
    singleton walks.  Each (node, walk) pair draws from its own seeded
    generator, so the corpus is identical no matter how generation is
    scheduled.
    """
    if walks_per_node < 1 or walk_length < 1:
        raise ValidationError("walks_per_node and walk_length must be >= 1")
    L, nbrs = graph.num_nodes, graph.indices
    ip = graph.indptr.tolist()
    # Weights are positive integers, so node v's cumulative weights are
    # cum[ip[v]:ip[v + 1]] less before[v], the total before them, exactly;
    # before[v + 1] - before[v] is node v's total.
    cum = np.cumsum(graph.weights)
    before = np.concatenate(([0], cum))[graph.indptr].tolist()
    lengths = np.where(np.diff(graph.indptr) > 0, walk_length, 1)
    indptr = np.zeros(walks_per_node * L + 1, dtype=np.int64)
    np.cumsum(np.tile(lengths, walks_per_node), out=indptr[1:])
    tokens = np.empty(int(indptr[-1]), dtype=np.int32)
    pos = 0
    for pass_idx in range(walks_per_node):
        for start in range(L):
            tokens[pos] = cur = start
            pos += 1
            if ip[start] == ip[start + 1]:
                continue
            rng = _walk_rng(rng_seed, start, pass_idx)
            for _ in range(1, walk_length):
                if weighted:
                    r = rng.random() * float(before[cur + 1] - before[cur])
                    # The first neighbour whose cumulative weight exceeds r;
                    # those weights are integers, so comparing with floor(r) is exact.
                    cur = int(nbrs[cum.searchsorted(before[cur] + int(r), side="right")])
                else:
                    cur = int(nbrs[rng.integers(ip[cur], ip[cur + 1])])
                tokens[pos] = cur
                pos += 1
    return WalkCorpus(tokens=tokens, indptr=indptr, num_nodes=L)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |x|
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def _corpus_noise_cdf(tokens: np.ndarray, num_nodes: int) -> np.ndarray:
    """Cumulative unigram^0.75 distribution over corpus node frequencies."""
    noise = np.bincount(tokens, minlength=num_nodes).astype(np.float64) ** 0.75
    total = noise.sum()
    if total <= 0:
        raise ValidationError("empty walk corpus")
    return np.cumsum(noise / total)


def _init_node_vectors(num_nodes: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    return (rng.random((num_nodes, dim)) - 0.5) / dim


# Pairs drawn at once, so skip-gram temporaries stay bounded whatever the
# corpus size: a block takes _BLOCK_PAIRS // (2 * window) centre tokens.
_BLOCK_PAIRS = 1 << 16
# Pairs per delayed update, measured on both benchmark workloads (CHANGES.md).
_CHUNK_PAIRS = 256


def _token_blocks(indptr, order, block_tokens):
    """Cut the tokens of the walks taken in ``order`` into runs of ``block_tokens``.

    ``indptr`` bounds the walks in the corpus (``WalkCorpus.indptr``).
    Yields ``(step, pos, start, end)`` per run: each token's number in this
    order, its position in the corpus, and the bounds of its walk there.  A
    run may start or end inside a walk.
    """
    starts = indptr[order]
    lens = indptr[order + 1] - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    for first in range(0, total, block_tokens):
        step = np.arange(first, min(first + block_tokens, total))
        j = np.searchsorted(ends, step, side="right")
        start = starts[j]
        yield step, start + step - (ends[j] - lens[j]), start, start + lens[j]


def _window_pairs(pos, start, end, reach, window):
    """Every (centre, context) pair of the tokens at ``pos``, in corpus order.

    Token i pairs with each other position u of its walk ``[start[i],
    end[i])`` with ``|u - pos[i]| <= reach[i]``.  Returns the index i and the
    position u of each pair, ordered by i, then by u.
    """
    offsets = np.concatenate((np.arange(-window, 0), np.arange(1, window + 1)))
    ctx = pos[:, None] + offsets
    ok = (np.abs(offsets) <= reach[:, None]) & (ctx >= start[:, None]) & (ctx < end[:, None])
    i, col = np.nonzero(ok)
    return i, ctx[i, col]


def _pair_chunks(corpus, cdf, order, window, reach, negatives, rng):
    """Skip-gram pairs of the walks of ``corpus`` taken in ``order``, in chunks.

    ``cdf`` is the corpus's noise distribution.  ``reach(n)`` gives the
    window reach of the next n centre tokens; each pair then draws
    ``negatives`` nodes from ``cdf``.  Yields
    ``(step, centre, rows, keep)`` per chunk of at most _CHUNK_PAIRS pairs:
    the centre token's number in this order, the centre node, the context
    node followed by the negatives, and a weight per row that is 0 for a
    negative equal to the context and 1 otherwise.
    """
    tokens = corpus.tokens
    block_tokens = max(1, _BLOCK_PAIRS // (2 * window))
    for step, pos, start, end in _token_blocks(corpus.indptr, order, block_tokens):
        i, ctx = _window_pairs(pos, start, end, reach(pos.size), window)
        rows = np.empty((i.size, negatives + 1), dtype=np.intp)
        rows[:, 0] = tokens[ctx]
        rows[:, 1:] = np.searchsorted(cdf, rng.random((i.size, negatives)))
        keep = np.ones(rows.shape)
        keep[:, 1:] = rows[:, 1:] != rows[:, :1]
        # intp, as the rows: _scatter_add multiplies node ids by dim.
        centre, step = tokens[pos[i]].astype(np.intp), step[i]
        for a in range(0, i.size, _CHUNK_PAIRS):
            b = a + _CHUNK_PAIRS
            yield step[a:b], centre[a:b], rows[a:b], keep[a:b]


def _work_arrays(pairs: int, width: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat work arrays for ``_sgns_update`` on up to ``pairs`` pairs of ``width`` rows.

    Allocated once per training: when chunk-sized temporaries were made
    afresh for every chunk, the allocator handed them back to the OS and
    faulted them in again each time, which doubled the skip-gram time on
    the Bibtex shape.
    """
    size = pairs * width * dim
    return np.empty(size), np.empty(size, dtype=np.intp)


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray, flat: np.ndarray) -> None:
    """``table[rows] += values``, adding every duplicate row, in order.

    ``table`` is C-contiguous; ``flat`` is an integer work array of at least
    ``rows.size * dim`` entries.
    """
    dim = table.shape[1]
    idx = flat[: rows.size * dim].reshape(rows.size, dim)
    np.add(rows.reshape(-1, 1) * dim, np.arange(dim), out=idx)
    np.add.at(table.reshape(-1), idx.reshape(-1), values.reshape(-1))


def _sgns_update(syn0, syn1, centre, rows, weight, work) -> None:
    """One delayed negative-sampling step for a chunk of pairs.

    Pair i pulls ``syn0[centre[i]]`` and ``syn1[rows[i, 0]]`` (its context)
    together and pushes ``syn1[rows[i, 1:]]`` (its negatives) away, each
    term scaled by ``weight[i, j]``.  Every pair reads both tables as they
    stand on entry; then all the pairs' updates are added, duplicate rows
    included.  ``work`` comes from ``_work_arrays``.
    """
    grad_buf, flat = work
    v = syn0[centre]
    ctx = syn1[rows]
    g = -_sigmoid(np.einsum("cd,ckd->ck", v, ctx))
    g[:, 0] += 1.0
    g *= weight
    grad = grad_buf[: ctx.size].reshape(ctx.shape)
    np.multiply(g[:, :, None], v[:, None, :], out=grad)
    _scatter_add(syn1, rows, grad, flat)
    _scatter_add(syn0, centre, np.einsum("ck,ckd->cd", g, ctx), flat)


def fit_skipgram(corpus: WalkCorpus, config: DeepWalkConfig) -> tuple[np.ndarray, np.ndarray]:
    """Train skip-gram with negative sampling on the walk corpus.

    Returns (node_vectors, context_vectors), each (num_nodes x dim) float64.

    Single threaded and deterministic for a fixed config.  Node vectors start
    uniform in [-0.5/dim, 0.5/dim]; context vectors start at zero.  Each
    epoch visits the walks in a fresh random order; every centre position
    draws a reach in [1, window] and pairs with the positions of its walk
    within that reach.  The learning rate decays linearly from
    ``initial_learning_rate`` to ``min_learning_rate`` over all centre
    positions, and each pair takes its centre's rate.  Negatives are drawn
    from the unigram^0.75 distribution of corpus node frequencies; a draw
    that equals the context gets weight 0.

    Updates are delayed, as the module docstring describes: the pairs are
    applied in chunks of _CHUNK_PAIRS, and every pair of a chunk computes
    its gradient from the vectors as they stood at the start of the chunk.
    """
    config.validate()
    L, dim = corpus.num_nodes, config.dim
    rng = _stream_rng(config.rng_seed, _TRAIN_STREAM)
    syn0 = _init_node_vectors(L, dim, rng)
    syn1 = np.zeros((L, dim), dtype=np.float64)
    cdf = _corpus_noise_cdf(corpus.tokens, L)
    work = _work_arrays(_CHUNK_PAIRS, config.negative_samples + 1, dim)
    lr0, lr_min = config.initial_learning_rate, config.min_learning_rate
    n_tokens = corpus.total_tokens
    total_steps = max(1, config.epochs * n_tokens)
    window = config.window
    for epoch in range(config.epochs):
        chunks = _pair_chunks(
            corpus, cdf, rng.permutation(corpus.indptr.size - 1), window,
            lambda n: rng.integers(1, window + 1, size=n), config.negative_samples, rng,
        )
        for step, centre, rows, keep in chunks:
            lr = np.maximum(lr_min, lr0 * (1.0 - (epoch * n_tokens + step) / total_steps))
            _sgns_update(syn0, syn1, centre, rows, lr[:, None] * keep, work)
        log.debug("skip-gram epoch %d/%d done", epoch + 1, config.epochs)
    return syn0, syn1


def embed_labels(graph: LabelGraph, config: DeepWalkConfig) -> np.ndarray:
    """The (dim x num_nodes) label vectors: walks plus skip-gram, bit-identical for a fixed seed.

    Column j is label j's node vector from ``fit_skipgram``.
    """
    config.validate()
    corpus = generate_walks(
        graph,
        config.walks_per_node,
        config.walk_length,
        rng_seed=config.rng_seed,
        weighted=config.weighted_walks,
    )
    node_vectors, _ = fit_skipgram(corpus, config)
    return np.ascontiguousarray(node_vectors.T)


def write_embeddings_text(vectors: np.ndarray, stream: IO[str]) -> None:
    """One ``index v1 v2 ... v_dim`` line per column of the (dim x count) ``vectors``."""
    for j in range(vectors.shape[1]):
        col = " ".join(repr(float(v)) for v in vectors[:, j])
        stream.write(f"{j} {col}\n")
