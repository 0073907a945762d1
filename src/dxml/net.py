"""Sparse-input embedding network and its trainer.

Architecture: relu(x W1 + b1) W2 + b2, dropout on the output layer at train
time, then scaling to the unit sphere.  The loss is the coordinate-wise
smooth-L1 distance between the network output and the point's label target,
minimized with minibatch SGD plus momentum and weight decay.

Training and ``embed_points`` run one forward pass over CSR rows
(``SparseRows``); a single point is a batch of one.  Only the first layer is
per point: one BLAS vector-matrix product of the point's values with its
gathered rows of W1.  Bias, ReLU and dropout are one array operation each over the batch.
The second layer is a stacked ``np.matmul(A[:, None, :], W2)``, one
vector-matrix product per row, not a GEMM: a GEMM blocks its sums by the
batch size and the row's place in it, so a point's bits would depend on its
batch.  Each row's norm is its own dot product, as in ``np.linalg.norm``.  A
point thus embeds to the same bits alone or in any batch.

W1 and its momentum are float32, the precision the model file stores, in
training as in a loaded model; ``init_model`` draws W1 a row block at a time,
so no float64 d x H array ever exists.  ``np.matmul`` widens the gathered
rows to float64 before the product; widening is exact, so the rest of the
network runs in float64 with no float64 copy of the whole matrix.  Training
ends by rounding b1, W2 and b2 through float32, so the trained network is
the one ``load_model`` returns, bit for bit.

The W1 gradient is compact: ``loss_and_gradients`` accumulates it in float64
only for the batch's sorted distinct feature ids, one row each, in the same
per-point order as a dense scatter would, so every sum has the same bits.  No
d x H gradient exists; the trainer reuses one scratch buffer of at most as
many rows as a batch can name, and each batch zeroes only the rows it uses.

``sgd_step`` applies the exact dense momentum and decay update in row blocks
of about 128 KB per array, so each block stays in cache through all of its
operations; they are elementwise, so the bits do not depend on the block
size.  The arithmetic runs in the parameter's dtype, float32 for W1.  Each
block's dense W1 gradient is rebuilt in a float32 block scratch from the
compact rows that fall in it, rounded once there, zeros elsewhere, so adding
it gives the bits of the dense update, the sign of every zero included.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
import numpy as np

from .data_io import SparseRows
from .errors import PointError, ValidationError

__all__ = [
    "MlpModel",
    "TrainConfig",
    "OptimizerState",
    "Gradients",
    "init_model",
    "smooth_l1",
    "loss_and_gradients",
    "sgd_step",
    "train_embedding_net",
    "embed_points",
]

log = logging.getLogger(__name__)

_NORM_EPS = 1e-12
_UPDATE_BYTES = 1 << 17  # per array in one row block of the momentum step
_EMBED_BYTES = 1 << 17  # per temporary of embed_points: sets how many points embed together


@dataclass(eq=False)
class MlpModel:
    """Two fully connected layers; shapes (d,H), (H,), (H,l), (l,).

    W1 is float32, as trained and as stored, and the small b1, W2 and b2 are
    float64.  The forward pass widens the rows of W1 it gathers, exactly, so
    a float64 W1 holding the same values gives the same outputs bit for bit.
    """

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


@dataclass
class Gradients:
    """Gradients of the four tensors; the W1 gradient is compact.

    ``dW1[j]`` is the gradient of ``W1[rows[j]]``.  ``rows`` holds sorted,
    distinct feature ids; every other row of the W1 gradient is zero.
    """

    dW1: np.ndarray
    db1: np.ndarray
    dW2: np.ndarray
    db2: np.ndarray
    rows: np.ndarray


@dataclass
class OptimizerState:
    """Momentum buffers, one per parameter tensor, each of its tensor's dtype."""

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
    """He-style uniform init for weights, zero biases, seeded; W1 is float32.

    W1 is drawn a row block at a time and each block rounded to float32, so
    no float64 d x H array exists.  ``uniform`` draws one double per entry,
    so the blocks take the generator's stream of one whole draw.
    """
    if num_features < 1 or hidden_size < 1 or output_dim < 1:
        raise ValidationError("model dimensions must be >= 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    lim1 = math.sqrt(6.0 / num_features)
    lim2 = math.sqrt(6.0 / hidden_size)
    W1 = np.empty((num_features, hidden_size), dtype=np.float32)
    step = max(1, _UPDATE_BYTES // (hidden_size * 8))
    for s in range(0, num_features, step):
        block = W1[s : s + step]
        block[...] = rng.uniform(-lim1, lim1, size=block.shape)
    return MlpModel(
        W1=W1,
        b1=np.zeros(hidden_size),
        W2=rng.uniform(-lim2, lim2, size=(hidden_size, output_dim)),
        b2=np.zeros(output_dim),
    )


def smooth_l1(a, b):
    """Elementwise smooth-L1: 0.5*(a-b)^2 where |a-b| <= 1, else |a-b| - 0.5."""
    diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
    out = np.where(diff <= 1.0, 0.5 * diff * diff, diff - 0.5)
    return float(out) if out.ndim == 0 else out


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


def _check_norms(norms: np.ndarray, first: int = 0) -> None:
    """Raise ``PointError`` for the first row, numbered from ``first``, whose norm is not finite."""
    finite = np.isfinite(norms)
    if not finite.all():
        reason = "its network output's squared norm is not finite in float64"
        raise PointError(first + int(np.argmin(finite)), reason)


def loss_and_gradients(
    model: MlpModel,
    batch: tuple[SparseRows, np.ndarray],
    dropout_masks: np.ndarray | None = None,
    dW1: np.ndarray | None = None,
) -> tuple[float, Gradients]:
    """Smooth-L1 batch loss, the mean per-point distance, and its exact gradients.

    ``batch`` is a pair of CSR rows and a (B, l) target array.
    ``dropout_masks`` is a (B, l) array of pre-scaled mask rows (they carry
    the inverted-dropout scale 1/(1 - rate)) or None.  A row whose masked
    output has a squared norm that is not finite in float64 raises
    ``PointError`` naming its row in the batch; a row whose masked output is
    exactly zero passes no gradient.  The W1 gradient is compact,
    one row per distinct feature id of the batch (``Gradients.rows``).
    ``dW1``, if given, is a float64 scratch array of H columns and at least
    that many rows; its leading rows are zeroed and hold the gradient, which
    is then a view of it, in place of a new array.
    """
    x, T = batch
    B = len(x)
    if B == 0:
        raise ValidationError("empty batch")
    T = np.asarray(T, dtype=np.float64)
    Hpre, A, Zd, F, norms, guarded = _forward_rows(model, x, dropout_masks)
    _check_norms(norms)

    per_point = smooth_l1(F, T).sum(axis=1)
    scale = 1.0 / B
    loss = float(per_point.sum() * scale)

    dF = np.clip(F - T, -1.0, 1.0) * scale
    # Through row normalization f = z / (|z| + eps).  A row with z = 0 (a
    # point with no features at init, say) passes no gradient: its dF / eps
    # would be of order 1e12.
    dot = np.einsum("ij,ij->i", Zd, dF)
    safe = np.where(norms > 0.0, norms, 1.0)
    dZd = dF / guarded[:, None] - Zd * (dot / (guarded * guarded * safe))[:, None]
    dZd[norms == 0.0] = 0.0
    dZ = dZd * dropout_masks if dropout_masks is not None else dZd

    dW2 = A.T @ dZ
    db2 = dZ.sum(axis=0)
    dA = dZ @ model.W2.T
    dH = dA * (Hpre > 0.0)
    # The batch's distinct ids, sorted, and each id's row in the compact
    # gradient; the forward pass has checked that every id lies in [0, d).
    named = np.bincount(x.indices, minlength=model.input_dim) > 0
    rows = np.flatnonzero(named)
    local = (np.cumsum(named) - 1)[x.indices]
    if dW1 is None:
        dW1 = np.zeros((rows.size, model.hidden_size))
    elif dW1.shape[0] < rows.size or dW1.shape[1] != model.hidden_size:
        raise ValidationError(f"W1 gradient buffer {dW1.shape} cannot hold the batch's "
                              f"({rows.size}, {model.hidden_size})")
    else:
        dW1 = dW1[: rows.size]
        dW1.fill(0.0)
    val, ip = x.values, x.indptr.tolist()
    for i, (a, b) in enumerate(zip(ip, ip[1:])):
        if a < b:
            dW1[local[a:b]] += val[a:b, None] * dH[i]
    db1 = dH.sum(axis=0)
    return loss, Gradients(dW1=dW1, db1=db1, dW2=dW2, db2=db2, rows=rows)


def _momentum_rows(
    W: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    mu: float,
    lr: float,
    wd: float,
    rows: np.ndarray | None = None,
) -> None:
    """v <- mu*v + (g + wd*W), then W <- W - lr*v, a cache-sized row block at a time.

    ``v`` has ``W``'s dtype, and every operation runs in it.  ``g`` is the
    dense gradient, of that dtype too, or with ``rows`` the compact one, of
    any float dtype: ``g[j]`` is row ``rows[j]`` (sorted, distinct) and every
    other row is zero.  Each block's dense rows are then rebuilt in a block
    scratch of ``W``'s dtype, which rounds them once, zeros included, and
    added as a dense block would be: ``t += 0.0`` turns a -0.0 into +0.0, so
    skipping the zero rows would change bits.  Every operation is
    elementwise, so the bits do not depend on the block.
    """
    n, h = W.shape
    step = max(1, _UPDATE_BYTES // (h * W.itemsize))
    tmp = np.empty((min(step, n), h), dtype=W.dtype)
    if rows is not None:
        dense = np.empty_like(tmp)
        cuts = np.searchsorted(rows, range(0, n + step, step)).tolist()
    for k, s in enumerate(range(0, n, step)):
        Wb, vb = W[s : s + step], v[s : s + step]
        t = tmp[: Wb.shape[0]]
        if rows is None:
            gb = g[s : s + step]
        else:
            gb = dense[: Wb.shape[0]]
            gb.fill(0.0)
            gb[rows[cuts[k] : cuts[k + 1]] - s] = g[cuts[k] : cuts[k + 1]]
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
    biases), then param <- param - lr*v, in the parameter's dtype.  A
    gradient that is not finite, or lies beyond its parameter's range (a
    float64 W1 gradient past float32's largest value), aborts the step before
    anything is written.  The W1 gradient is compact (``Gradients.rows``);
    the update covers every row of W1, named or not.
    """
    for name, g, p in (("dW1", grads.dW1, model.W1), ("db1", grads.db1, model.b1),
                       ("dW2", grads.dW2, model.W2), ("db2", grads.db2, model.b2)):
        top = np.finfo(p.dtype).max  # two reductions, no temporary; NaN fails them
        if g.size and not (-top <= g.min() and g.max() <= top):
            raise ValidationError(f"gradient in {name} is not finite in {p.dtype}")
    mu, lr, wd = config.momentum, config.learning_rate, config.weight_decay
    _momentum_rows(model.W1, state.vW1, grads.dW1, mu, lr, wd, grads.rows)
    _momentum_rows(model.W2, state.vW2, grads.dW2, mu, lr, wd)
    state.vb1 *= mu
    state.vb1 += grads.db1
    model.b1 -= lr * state.vb1
    state.vb2 *= mu
    state.vb2 += grads.db2
    model.b2 -= lr * state.vb2


def train_embedding_net(
    x: SparseRows,
    targets: np.ndarray,
    num_features: int,
    config: TrainConfig,
    hidden_size: int,
    record_losses: list[float] | None = None,
) -> MlpModel:
    """Fit the network to precomputed targets; deterministic for a fixed seed.

    A point whose output overflows stops training in the first batch that
    holds it, with a ``PointError`` naming its row of ``x``.  The model comes
    back as the model file stores it: W1, trained in float32, as it is, and
    b1, W2 and b2 rounded through float32, so it embeds a point to the bits
    its ``load_model`` copy gives.
    """
    config.validate()
    n = len(x)
    if n == 0:
        raise ValidationError("no labeled training points")
    if targets.shape[0] != n:
        raise ValidationError("targets/points length mismatch")
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(num_features, hidden_size, targets.shape[1], rng)
    state = OptimizerState.zeros_like(model)
    B = config.minibatch_size
    # One compact W1 gradient buffer for the whole training.  A batch names
    # at most as many distinct rows as the B longest points hold ids; each
    # batch zeroes and uses only the leading rows it needs, so the rest of
    # the buffer is never touched.
    most = int(np.sort(np.diff(x.indptr))[-B:].sum())
    dW1 = np.empty((min(num_features, most), hidden_size))
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
            try:
                loss, grads = loss_and_gradients(model, (x.take(sel), targets[sel]), masks, dW1=dW1)
            except PointError as exc:
                raise exc.renumbered(sel) from None
            sgd_step(model, state, grads, config)
            total += loss * sel.size
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
    for name in ("b1", "W2", "b2"):
        setattr(model, name, getattr(model, name).astype(np.float32).astype(np.float64))
    return model


def embed_points(model: MlpModel, x: SparseRows) -> np.ndarray:
    """Eval-mode embeddings, one row per point; a row's bits do not depend on the batch.

    Each output row has norm 1 up to 1e-9, or is zero where the network's
    output before scaling is (the norm is epsilon-guarded).  A point whose
    output before scaling has a squared norm that is not finite in float64
    raises ``PointError``, a ``ValidationError``, naming the first such point.
    Points go through the network in chunks whose widest float64 temporary
    (H or l values per point) takes about ``_EMBED_BYTES``, 32 points at
    H = 512, so the memory beyond the output does not grow with the batch.
    """
    n = len(x)
    out = np.empty((n, model.output_dim), dtype=np.float64)
    step = max(1, _EMBED_BYTES // (8 * max(model.hidden_size, model.output_dim)))
    for s in range(0, n, step):
        F, norms = _forward_rows(model, x, None, s, s + step)[3:5]
        _check_norms(norms, s)
        out[s : s + step] = F
    return out
