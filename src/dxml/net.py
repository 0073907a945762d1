"""Sparse-input embedding network and its trainer.

Architecture: relu(x W1 + b1) W2 + b2, dropout on the output layer at train
time, then scaling to the unit sphere.  The loss is the coordinate-wise
smooth-L1 distance between the network output and the point's label target,
minimized with minibatch SGD plus momentum and weight decay.

Training, ``embed_points`` and ``forward`` (a batch of one) run one forward
pass over CSR rows (``SparseRows``).  Only the first layer is per point: one
BLAS vector-matrix product of the point's values with its gathered rows of
W1.  Bias, ReLU and dropout are one array operation each over the batch.
The second layer is a stacked ``np.matmul(A[:, None, :], W2)``, one
vector-matrix product per row, not a GEMM: a GEMM blocks its sums by the
batch size and the row's place in it, so a point's bits would depend on its
batch.  Each row's norm is its own dot product, as in ``np.linalg.norm``.  A
point thus embeds to the same bits alone or in any batch.

``sgd_step`` applies the exact dense momentum and decay update in row blocks
of about 128 KB per array, so each block stays in cache through all of its
operations; they are elementwise, so the bits do not depend on the block
size.  The trainer reuses one W1 gradient buffer and zeroes it after every
step.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data_io import Dataset, SparseRows, SparseVector
from .errors import ValidationError
from .graph_embed import EmbeddingMatrix
from .label_projection import project_targets

__all__ = [
    "MlpModel",
    "TrainConfig",
    "OptimizerState",
    "Gradients",
    "init_model",
    "forward",
    "smooth_l1",
    "embed_distance",
    "loss_and_gradients",
    "sgd_step",
    "train",
    "train_embedding_net",
    "embed_points",
]

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12
_UPDATE_BYTES = 1 << 17  # per array in one row block of the momentum step
_EMBED_ROWS = 256  # points embedded together; bounds embed_points' temporaries


@dataclass(eq=False)
class MlpModel:
    """Two fully connected layers; shapes (d,H), (H,), (H,l), (l,)."""

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self) -> int:
        return int(self.W1.shape[0])

    @property
    def hidden_size(self) -> int:
        return int(self.W1.shape[1])

    @property
    def output_dim(self) -> int:
        return int(self.W2.shape[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MlpModel):
            return NotImplemented
        return all(
            np.array_equal(a, b)
            for a, b in (
                (self.W1, other.W1),
                (self.b1, other.b1),
                (self.W2, other.W2),
                (self.b2, other.b2),
            )
        )


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for the embedding network."""

    learning_rate: float = 0.015
    momentum: float = 0.9
    weight_decay: float = 0.0005
    dropout_rate: float = 0.5
    epochs: int = 100
    minibatch_size: int = 64
    loss_mode: str = "mean"
    use_bias: bool = True
    rng_seed: int = 0

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValidationError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValidationError("weight_decay must be >= 0")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValidationError("dropout_rate must lie in [0, 1)")
        if self.epochs < 0:
            raise ValidationError("epochs must be >= 0")
        if self.minibatch_size < 1:
            raise ValidationError("minibatch_size must be >= 1")
        if self.loss_mode not in ("mean", "sum"):
            raise ValidationError("loss_mode must be 'mean' or 'sum'")


@dataclass
class Gradients:
    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray


@dataclass
class OptimizerState:
    """Momentum buffers, one per parameter tensor."""

    vW1: np.ndarray
    vb1: np.ndarray
    vW2: np.ndarray
    vb2: np.ndarray

    @classmethod
    def zeros_like(cls, model: MlpModel) -> "OptimizerState":
        return cls(
            np.zeros_like(model.W1),
            np.zeros_like(model.b1),
            np.zeros_like(model.W2),
            np.zeros_like(model.b2),
        )


def init_model(
    num_features: int,
    hidden_size: int,
    output_dim: int,
    rng: int | np.random.Generator = 0,
) -> MlpModel:
    """He-style uniform init for weights, zero biases, seeded."""
    if num_features < 1 or hidden_size < 1 or output_dim < 1:
        raise ValidationError("model dimensions must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lim1 = math.sqrt(6.0 / num_features)
    lim2 = math.sqrt(6.0 / hidden_size)
    return MlpModel(
        W1=rng.uniform(-lim1, lim1, size=(num_features, hidden_size)),
        b1=np.zeros(hidden_size),
        W2=rng.uniform(-lim2, lim2, size=(hidden_size, output_dim)),
        b2=np.zeros(output_dim),
    )


def smooth_l1(a, b):
    """Elementwise smooth-L1: 0.5*(a-b)^2 where |a-b| <= 1, else |a-b| - 0.5."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    out = np.where(diff <= 1.0, 0.5 * diff * diff, diff - 0.5)
    return float(out) if out.ndim == 0 else out


def embed_distance(fx: np.ndarray, fy: np.ndarray) -> float:
    """Sum of coordinate-wise smooth-L1 terms between two embeddings."""
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    if fx.shape != fy.shape:
        raise ValidationError(f"shape mismatch {fx.shape} vs {fy.shape}")
    return float(np.sum(smooth_l1(fx, fy)))


def _forward_rows(
    model: MlpModel,
    x: SparseRows,
    masks: np.ndarray | None,
    start: int = 0,
    stop: int | None = None,
):
    """The forward pass over rows ``start:stop`` of ``x``: (Hpre, A, Zd, F, norms, guarded)."""
    W1, idx, val, d = model.W1, x.indices, x.values, model.input_dim
    ip = x.indptr[start : None if stop is None else stop + 1].tolist()
    Hpre = np.empty((len(ip) - 1, model.hidden_size))
    for i, (a, b) in enumerate(zip(ip, ip[1:])):
        if a == b:
            Hpre[i] = -0.0  # -0.0 + b1 is b1 exactly, the sign of a zero included
            continue
        if idx[a] < 0 or idx[b - 1] >= d:  # a row's ids increase
            raise ValidationError(f"feature index outside [0, {d})")
        np.matmul(val[a:b], W1[idx[a:b]], out=Hpre[i])
    Hpre += model.b1
    A = np.maximum(Hpre, 0.0)
    # One vector-matrix product per row; a GEMM's sums depend on the batch.
    Zd = np.matmul(A[:, None, :], model.W2)[:, 0]
    Zd += model.b2
    if masks is not None:
        Zd *= masks
    # Each row's own dot product: np.linalg.norm of a vector is sqrt(z.dot(z)).
    norms = np.sqrt(np.matmul(Zd[:, None, :], Zd[:, :, None])[:, 0, 0])
    guarded = norms + _NORM_EPS
    return Hpre, A, Zd, Zd / guarded[:, None], norms, guarded


def forward(
    model: MlpModel, x: SparseVector, dropout_mask: np.ndarray | None = None
) -> np.ndarray:
    """Embed one sparse point, as a batch of one; eval mode when ``dropout_mask`` is None.

    A train-mode mask must already carry the inverted-dropout scale
    1/(1 - rate).  Output norm is epsilon-guarded, so it is 1 up to 1e-9
    whenever the pre-normalization vector is not vanishingly small.
    """
    masks = None if dropout_mask is None else np.asarray(dropout_mask)[None]
    return _forward_rows(model, SparseRows.pack([x]), masks)[3][0]


def loss_and_gradients(
    model: MlpModel,
    batch: Sequence[tuple[SparseVector, np.ndarray]] | tuple[SparseRows, np.ndarray],
    dropout_masks: np.ndarray | None = None,
    loss_mode: str = "mean",
    dW1: np.ndarray | None = None,
) -> tuple[float, Gradients]:
    """Smooth-L1 batch loss and exact gradients for all four tensors.

    ``batch`` is a sequence of (point, target) pairs, or one pair of CSR
    rows and a (B, l) target array.  ``dropout_masks`` is a (B, l) array of
    pre-scaled mask rows or None; gradients are for the mean per-point
    distance ('mean') or the plain sum ('sum').  ``dW1``, if given, must be
    zero; it receives the W1 gradient in place of a new array.
    """
    if loss_mode not in ("mean", "sum"):
        raise ValidationError("loss_mode must be 'mean' or 'sum'")
    if len(batch) and isinstance(batch[0], SparseRows):
        x, T = batch
    else:
        x, T = SparseRows.pack([sv for sv, _ in batch]), [t for _, t in batch]
    B = len(x)
    if B == 0:
        raise ValidationError("empty batch")
    T = np.asarray(T, dtype=np.float64)
    Hpre, A, Zd, F, norms, guarded = _forward_rows(model, x, dropout_masks)

    per_point = smooth_l1(F, T).sum(axis=1)
    scale = 1.0 / B if loss_mode == "mean" else 1.0
    loss = float(per_point.sum() * scale)

    dF = np.clip(F - T, -1.0, 1.0) * scale
    # Through row normalization f = z / (|z| + eps); the second term vanishes
    # for all-zero rows because Zd is zero there.
    dot = np.einsum("ij,ij->i", Zd, dF)
    safe = np.where(norms > 0.0, norms, 1.0)
    dZd = dF / guarded[:, None] - Zd * (dot / (guarded * guarded * safe))[:, None]
    dZ = dZd * dropout_masks if dropout_masks is not None else dZd

    dW2 = A.T @ dZ
    db2 = dZ.sum(axis=0)
    dA = dZ @ model.W2.T
    dH = dA * (Hpre > 0.0)
    if dW1 is None:
        dW1 = np.zeros_like(model.W1)
    idx, val, ip = x.indices, x.values, x.indptr.tolist()
    for i, (a, b) in enumerate(zip(ip, ip[1:])):
        if a < b:
            dW1[idx[a:b]] += val[a:b, None] * dH[i]
    db1 = dH.sum(axis=0)
    return loss, Gradients(dW1=dW1, db1=db1, dW2=dW2, db2=db2)


def _momentum_rows(
    W: np.ndarray, v: np.ndarray, g: np.ndarray, mu: float, lr: float, wd: float
) -> None:
    """v <- mu*v + (g + wd*W), then W <- W - lr*v, a cache-sized row block at a time.

    Every operation is elementwise, so the bits do not depend on the block.
    """
    step = max(1, _UPDATE_BYTES // (W.shape[1] * W.itemsize))
    tmp = np.empty((min(step, W.shape[0]), W.shape[1]))
    for s in range(0, W.shape[0], step):
        Wb, vb, gb = W[s : s + step], v[s : s + step], g[s : s + step]
        t = tmp[: Wb.shape[0]]
        vb *= mu
        np.multiply(Wb, wd, out=t)
        t += gb
        vb += t
        np.multiply(vb, lr, out=t)
        Wb -= t


def sgd_step(
    model: MlpModel, state: OptimizerState, grads: Gradients, config: TrainConfig
) -> None:
    """One momentum step, in place.

    v <- momentum*v + grad + weight_decay*param for weights (no decay on
    biases), then param <- param - lr*v.  Non-finite gradients abort before
    anything is written.
    """
    for name, g in (("dW1", grads.dW1), ("db1", grads.db1), ("dW2", grads.dW2), ("db2", grads.db2)):
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient in {name}")
    mu, lr, wd = config.momentum, config.learning_rate, config.weight_decay
    _momentum_rows(model.W1, state.vW1, grads.dW1, mu, lr, wd)
    _momentum_rows(model.W2, state.vW2, grads.dW2, mu, lr, wd)
    if config.use_bias:
        state.vb1 *= mu
        state.vb1 += grads.db1
        model.b1 -= lr * state.vb1
        state.vb2 *= mu
        state.vb2 += grads.db2
        model.b2 -= lr * state.vb2


def train_embedding_net(
    xs: SparseRows | Sequence[SparseVector],
    targets: np.ndarray,
    num_features: int,
    config: TrainConfig,
    hidden_size: int,
    record_losses: list[float] | None = None,
) -> MlpModel:
    """Fit the network to precomputed targets; deterministic for a fixed seed."""
    config.validate()
    x = _as_rows(xs)
    n = len(x)
    if n == 0:
        raise ValidationError("no labeled training points")
    if targets.shape[0] != n:
        raise ValidationError("targets/points length mismatch")
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(num_features, hidden_size, targets.shape[1], rng)
    state = OptimizerState.zeros_like(model)
    dW1 = np.zeros_like(model.W1)  # one gradient buffer, zeroed after every step
    B = config.minibatch_size
    rate = config.dropout_rate
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, B):
            sel = order[start : start + B]
            masks = None
            if rate > 0.0:
                keep = rng.random((sel.size, model.output_dim)) >= rate
                masks = keep / (1.0 - rate)
            loss, grads = loss_and_gradients(
                model, (x.take(sel), targets[sel]), masks, config.loss_mode, dW1
            )
            sgd_step(model, state, grads, config)
            dW1.fill(0.0)
            total += loss * sel.size if config.loss_mode == "mean" else loss
        epoch_mean = total / n
        if record_losses is not None:
            record_losses.append(epoch_mean)
        log.info(
            "epoch %d/%d mean loss %.6f (%.2fs)",
            epoch + 1,
            config.epochs,
            epoch_mean,
            time.perf_counter() - t0,
        )
    return model


def train(
    dataset: Dataset,
    embeddings: EmbeddingMatrix,
    config: TrainConfig,
    hidden_size: int,
    normalize_targets: bool = True,
    record_losses: list[float] | None = None,
) -> MlpModel:
    """Project label targets, then fit the network on all labeled points.

    Unlabeled points are skipped with a counted warning.
    """
    targets, rows, _ = project_targets(embeddings, dataset, normalize=normalize_targets)
    return train_embedding_net(
        dataset.features.take(rows), targets, dataset.num_features, config, hidden_size, record_losses
    )


def embed_points(model: MlpModel, xs: SparseRows | Sequence[SparseVector]) -> np.ndarray:
    """Eval-mode embeddings, one row per point; row i is ``forward`` of point i, bit for bit."""
    x = _as_rows(xs)
    n = len(x)
    if n <= _EMBED_ROWS:
        return _forward_rows(model, x, None)[3]
    out = np.empty((n, model.output_dim), dtype=np.float64)
    for s in range(0, n, _EMBED_ROWS):
        out[s : s + _EMBED_ROWS] = _forward_rows(model, x, None, s, s + _EMBED_ROWS)[3]
    return out


def _as_rows(xs: SparseRows | Sequence[SparseVector]) -> SparseRows:
    return xs if isinstance(xs, SparseRows) else SparseRows.pack(xs)
