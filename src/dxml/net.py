"""Sparse-input embedding network and its trainer.

Architecture: relu(x W1 + b1) W2 + b2, dropout on the output layer at train
time, then scaling to the unit sphere.  The loss is the coordinate-wise
smooth-L1 distance between the network output and the point's label target,
minimized with minibatch SGD plus momentum and weight decay.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data_io import Dataset, SparseVector
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


def forward(
    model: MlpModel, x: SparseVector, dropout_mask: np.ndarray | None = None
) -> np.ndarray:
    """Embed one sparse point; eval mode when ``dropout_mask`` is None.

    A train-mode mask must already carry the inverted-dropout scale
    1/(1 - rate).  Output norm is epsilon-guarded, so it is 1 up to 1e-9
    whenever the pre-normalization vector is not vanishingly small.
    """
    if x.nnz and (x.indices[-1] >= model.input_dim or x.indices[0] < 0):
        raise ValidationError(
            f"feature index outside [0, {model.input_dim})"
        )
    h = model.b1.copy()
    if x.nnz:
        h += x.values @ model.W1[x.indices]
    np.maximum(h, 0.0, out=h)
    z = h @ model.W2 + model.b2
    if dropout_mask is not None:
        z = z * dropout_mask
    return z / (np.linalg.norm(z) + _NORM_EPS)


def _forward_batch(model: MlpModel, xs: Sequence[SparseVector], masks):
    # Mirrors forward() operation-for-operation per point so that a batch of
    # size one reproduces forward() bit-for-bit.
    B = len(xs)
    Hpre = np.empty((B, model.hidden_size))
    Zd = np.empty((B, model.output_dim))
    F = np.empty((B, model.output_dim))
    norms = np.empty(B)
    for i, sv in enumerate(xs):
        h = model.b1.copy()
        if sv.nnz:
            if sv.indices[-1] >= model.input_dim or sv.indices[0] < 0:
                raise ValidationError(f"feature index outside [0, {model.input_dim})")
            h += sv.values @ model.W1[sv.indices]
        Hpre[i] = h
        np.maximum(h, 0.0, out=h)
        z = h @ model.W2 + model.b2
        if masks is not None:
            z = z * masks[i]
        Zd[i] = z
        norms[i] = np.linalg.norm(z)
        F[i] = z / (norms[i] + _NORM_EPS)
    A = np.maximum(Hpre, 0.0)
    guarded = norms + _NORM_EPS
    return Hpre, A, Zd, F, norms, guarded


def loss_and_gradients(
    model: MlpModel,
    batch: Sequence[tuple[SparseVector, np.ndarray]],
    dropout_masks: np.ndarray | None = None,
    loss_mode: str = "mean",
) -> tuple[float, Gradients]:
    """Smooth-L1 batch loss and exact gradients for all four tensors.

    ``dropout_masks`` is a (B, l) array of pre-scaled mask rows or None;
    gradients are for the mean per-point distance ('mean') or the plain sum
    ('sum').
    """
    if not batch:
        raise ValidationError("empty batch")
    if loss_mode not in ("mean", "sum"):
        raise ValidationError("loss_mode must be 'mean' or 'sum'")
    xs = [x for x, _ in batch]
    T = np.stack([t for _, t in batch]).astype(np.float64)
    B = len(xs)
    Hpre, A, Zd, F, norms, guarded = _forward_batch(model, xs, dropout_masks)

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
    dW1 = np.zeros_like(model.W1)
    for i, sv in enumerate(xs):
        if sv.nnz:
            dW1[sv.indices] += sv.values[:, None] * dH[i]
    db1 = dH.sum(axis=0)
    return loss, Gradients(dW1=dW1, db1=db1, dW2=dW2, db2=db2)


def sgd_step(
    model: MlpModel, state: OptimizerState, grads: Gradients, config: TrainConfig
) -> None:
    """One momentum step, in place.

    v <- momentum*v + grad + weight_decay*param for weights (no decay on
    biases), then param <- param - lr*v.  Non-finite gradients abort.
    """
    for name, g in (("dW1", grads.dW1), ("db1", grads.db1), ("dW2", grads.dW2), ("db2", grads.db2)):
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"non-finite gradient in {name}")
    mu, lr, wd = config.momentum, config.learning_rate, config.weight_decay
    state.vW1 *= mu
    state.vW1 += grads.dW1 + wd * model.W1
    model.W1 -= lr * state.vW1
    state.vW2 *= mu
    state.vW2 += grads.dW2 + wd * model.W2
    model.W2 -= lr * state.vW2
    if config.use_bias:
        state.vb1 *= mu
        state.vb1 += grads.db1
        model.b1 -= lr * state.vb1
        state.vb2 *= mu
        state.vb2 += grads.db2
        model.b2 -= lr * state.vb2


def train_embedding_net(
    xs: Sequence[SparseVector],
    targets: np.ndarray,
    num_features: int,
    config: TrainConfig,
    hidden_size: int,
    record_losses: list[float] | None = None,
) -> MlpModel:
    """Fit the network to precomputed targets; deterministic for a fixed seed."""
    config.validate()
    n = len(xs)
    if n == 0:
        raise ValidationError("no labeled training points")
    if targets.shape[0] != n:
        raise ValidationError("targets/points length mismatch")
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(num_features, hidden_size, targets.shape[1], rng)
    state = OptimizerState.zeros_like(model)
    B = config.minibatch_size
    rate = config.dropout_rate
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, B):
            sel = order[start : start + B]
            batch = [(xs[i], targets[i]) for i in sel]
            masks = None
            if rate > 0.0:
                keep = rng.random((sel.size, model.output_dim)) >= rate
                masks = keep / (1.0 - rate)
            loss, grads = loss_and_gradients(model, batch, masks, config.loss_mode)
            sgd_step(model, state, grads, config)
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
    xs = [dataset.points[i][0] for i in rows.tolist()]
    return train_embedding_net(
        xs, targets, dataset.num_features, config, hidden_size, record_losses
    )


def embed_points(model: MlpModel, xs: Sequence[SparseVector]) -> np.ndarray:
    """Eval-mode embeddings for a sequence of points, one row each."""
    out = np.empty((len(xs), model.output_dim), dtype=np.float64)
    for i, sv in enumerate(xs):
        out[i] = forward(model, sv)
    return out
