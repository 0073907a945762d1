"""Embedding network: forward pass, loss, gradients, optimizer, training."""

import contextlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxml import (
    MlpModel,
    OptimizerState,
    PointError,
    SparseVector,
    TrainConfig,
    ValidationError,
    init_model,
    loss_and_gradients,
    sgd_step,
    smooth_l1,
)
from dxml import net
from dxml.net import Gradients, embed_points, train_embedding_net

from conftest import planted_dataset, rows_of, sparse


def dense_sv(values):
    return sparse(enumerate(values))


def batch_of(pairs):
    """(point, target) pairs as the (rows, targets) batch ``loss_and_gradients`` takes."""
    return rows_of([x for x, _ in pairs]), np.array([t for _, t in pairs], dtype=np.float64)


def embed_one(model, x, dropout_mask=None):
    """One point through the batched forward pass, as a batch of one.

    Eval mode goes through ``embed_points``; a train-mode mask, which carries
    the inverted-dropout scale 1/(1 - rate), through the pass the loss uses.
    """
    if dropout_mask is None:
        return embed_points(model, rows_of([x]))[0]
    return net._forward_rows(model, rows_of([x]), np.asarray(dropout_mask)[None])[3][0]


def embed_chunk(model, rows):
    """Set ``embed_points``' byte budget so that it embeds ``rows`` points at a time."""
    width = max(model.hidden_size, model.output_dim)
    return mock.patch.object(net, "_EMBED_BYTES", rows * 8 * width)


def embed_distance(fx, fy):
    """Sum of coordinate-wise smooth-L1 terms between two embeddings: one point's loss."""
    fx = np.asarray(fx, dtype=np.float64)
    fy = np.asarray(fy, dtype=np.float64)
    if fx.shape != fy.shape:
        raise ValidationError(f"shape mismatch {fx.shape} vs {fy.shape}")
    return float(np.sum(smooth_l1(fx, fy)))


def random_sparse(rng, d):
    nnz = int(rng.integers(1, d + 1))
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 0.5
    return SparseVector(idx.astype(np.int32), vals)


# ── The per-point network, kept as the bitwise reference ────────────────────
# Each point's forward pass on its own, the W1 gradient scattered one point at
# a time into a new array of W1's dtype, and the momentum step on whole arrays
# in W1's dtype.  The batched network must reproduce its bits.


def reference_forward(model, x, dropout_mask=None):
    if x.indices.size and (x.indices[-1] >= model.input_dim or x.indices[0] < 0):
        raise ValidationError(f"feature index outside [0, {model.input_dim})")
    h = model.b1.copy()
    if x.indices.size:
        h += x.values @ model.W1[x.indices]
    np.maximum(h, 0.0, out=h)
    z = h @ model.W2 + model.b2
    if dropout_mask is not None:
        z = z * dropout_mask
    return z / (np.linalg.norm(z) + 1e-12)


def reference_forward_batch(model, xs, masks):
    B = len(xs)
    Hpre = np.empty((B, model.hidden_size))
    Zd = np.empty((B, model.output_dim))
    F = np.empty((B, model.output_dim))
    norms = np.empty(B)
    for i, sv in enumerate(xs):
        h = model.b1.copy()
        if sv.indices.size:
            h += sv.values @ model.W1[sv.indices]
        Hpre[i] = h
        np.maximum(h, 0.0, out=h)
        z = h @ model.W2 + model.b2
        if masks is not None:
            z = z * masks[i]
        Zd[i] = z
        norms[i] = np.linalg.norm(z)
        F[i] = z / (norms[i] + 1e-12)
    return Hpre, np.maximum(Hpre, 0.0), Zd, F, norms, norms + 1e-12


def reference_loss_and_gradients(model, batch, masks=None):
    """The loss and dense gradients; the W1 scatter runs in W1's dtype.

    Each point's values and ``dH`` row are cast to that dtype, multiplied and
    added in it.  For a float64 W1 this is the float64 scatter of versions
    before 0.10.0.
    """
    xs = [x for x, _ in batch]
    T = np.stack([t for _, t in batch]).astype(np.float64)
    B = len(xs)
    Hpre, A, Zd, F, norms, guarded = reference_forward_batch(model, xs, masks)
    scale = 1.0 / B
    loss = float(smooth_l1(F, T).sum(axis=1).sum() * scale)
    dF = np.clip(F - T, -1.0, 1.0) * scale
    dot = np.einsum("ij,ij->i", Zd, dF)
    safe = np.where(norms > 0.0, norms, 1.0)
    dZd = dF / guarded[:, None] - Zd * (dot / (guarded * guarded * safe))[:, None]
    dZd[norms == 0.0] = 0.0  # an all-zero output passes no gradient
    dZ = dZd * masks if masks is not None else dZd
    dH = (dZ @ model.W2.T) * (Hpre > 0.0)
    dtype = model.W1.dtype
    dW1 = np.zeros(model.W1.shape, dtype=dtype)
    for i, sv in enumerate(xs):
        if sv.indices.size:
            dW1[sv.indices] += sv.values.astype(dtype)[:, None] * dH[i].astype(dtype)
    return loss, Gradients(dW1=dW1, db1=dH.sum(axis=0), dW2=A.T @ dZ, db2=dZ.sum(axis=0),
                           rows=np.arange(model.input_dim))


def dense_dW1(grads, d):
    """The compact W1 gradient as the dense (d, H) array it stands for, in its dtype."""
    out = np.zeros((d, grads.dW1.shape[1]), dtype=grads.dW1.dtype)
    out[grads.rows] = grads.dW1
    return out


def reference_sgd_step(model, state, grads, config):
    """The dense momentum step on whole arrays; W1's runs in W1's dtype.

    A dense W1 gradient of a wider dtype is rounded to W1's once, as a whole.
    """
    for g in (grads.dW1, grads.db1, grads.dW2, grads.db2):
        if not np.all(np.isfinite(g)):
            raise ValidationError("non-finite gradient")
    mu, lr, wd = config.momentum, config.learning_rate, config.weight_decay
    state.vW1 *= mu
    state.vW1 += grads.dW1.astype(model.W1.dtype) + wd * model.W1
    model.W1 -= lr * state.vW1
    state.vW2 *= mu
    state.vW2 += grads.dW2 + wd * model.W2
    model.W2 -= lr * state.vW2
    state.vb1 *= mu
    state.vb1 += grads.db1
    model.b1 -= lr * state.vb1
    state.vb2 *= mu
    state.vb2 += grads.db2
    model.b2 -= lr * state.vb2


def float64_init(num_features, hidden_size, output_dim, rng):
    """The init of float64 W1 state: W1 in one float64 draw, then W2, as version 0.3 drew them."""
    lim1, lim2 = math.sqrt(6.0 / num_features), math.sqrt(6.0 / hidden_size)
    return MlpModel(W1=rng.uniform(-lim1, lim1, size=(num_features, hidden_size)),
                    b1=np.zeros(hidden_size),
                    W2=rng.uniform(-lim2, lim2, size=(hidden_size, output_dim)),
                    b2=np.zeros(output_dim))


def as_stored(model):
    """The model as a model file stores it and ``load_model`` returns it."""
    return MlpModel(model.W1.astype(np.float32),
                    *(a.astype(np.float32).astype(np.float64) for a in (model.b1, model.W2, model.b2)))


def reference_train(xs, targets, num_features, config, hidden_size, float64_state=False):
    """The trainer on whole arrays; ``float64_state`` runs it as version 0.3 did.

    Float32 W1 state returns the model as stored, as ``train_embedding_net``
    does; float64 state returns the float64 weights.
    """
    rng = np.random.default_rng(config.rng_seed)
    init = float64_init if float64_state else init_model
    model = init(num_features, hidden_size, targets.shape[1], rng)
    state = OptimizerState.zeros_like(model)
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(xs))
        total = 0.0
        for start in range(0, len(xs), config.minibatch_size):
            sel = order[start : start + config.minibatch_size]
            masks = None
            if config.dropout_rate > 0.0:
                keep = rng.random((sel.size, model.output_dim)) >= config.dropout_rate
                masks = keep / (1.0 - config.dropout_rate)
            batch = [(xs[i], targets[i]) for i in sel]
            loss, grads = reference_loss_and_gradients(model, batch, masks)
            reference_sgd_step(model, state, grads, config)
            total += loss * sel.size
        losses.append(total / len(xs))
    return (model if float64_state else as_stored(model)), losses


def reference_embed_points(model, xs):
    out = np.empty((len(xs), model.output_dim))
    for i, x in enumerate(xs):
        out[i] = reference_forward(model, x)
    return out


def net_problem(seed, n, d, hidden, out, empty_share):
    """Random points (some with no features), unit targets and a trained-looking model."""
    rng = np.random.default_rng(seed)
    xs = []
    for _ in range(n):
        if rng.random() < empty_share:
            xs.append(SparseVector(np.empty(0, dtype=np.int32), np.empty(0)))
        else:
            xs.append(random_sparse(rng, d))
    targets = rng.standard_normal((n, out))
    targets /= np.linalg.norm(targets, axis=1, keepdims=True)
    model = init_model(d, hidden, out, rng)
    model.b1[:] = 0.1 * rng.standard_normal(hidden)
    model.b2[:] = 0.1 * rng.standard_normal(out)
    return xs, targets, model


net_problems = st.builds(
    net_problem,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    d=st.integers(1, 40),
    hidden=st.integers(1, 24),
    out=st.integers(1, 12),
    empty_share=st.sampled_from([0.0, 0.3, 1.0]),
)


def assert_same_model(got, want):
    for a, b in ((got.W1, want.W1), (got.b1, want.b1), (got.W2, want.W2), (got.b2, want.b2)):
        assert a.tobytes() == b.tobytes()


class TestMatchesPerPointReference:
    @given(
        net_problems,
        st.sampled_from(["one", "three", "n", "more"]),
        st.sampled_from([0.0, 0.5]),
        st.integers(0, 2),
        st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_train_embedding_net(self, problem, batch, dropout, epochs, block):
        xs, targets, model = problem
        n, d = len(xs), model.input_dim
        size = {"one": 1, "three": 3, "n": n, "more": n + 5}[batch]
        cfg = TrainConfig(
            learning_rate=0.05, dropout_rate=dropout, epochs=epochs, minibatch_size=size,
            rng_seed=d + n,
        )
        want, want_losses = reference_train(xs, targets, d, cfg, model.hidden_size)
        # block=None keeps the default row block; 1 and 3 rows (d need not be a
        # multiple) split even these small matrices.
        update_bytes = net._UPDATE_BYTES if block is None else block * model.hidden_size * 4
        losses = []
        with mock.patch.object(net, "_UPDATE_BYTES", update_bytes):
            got = train_embedding_net(rows_of(xs), targets, d, cfg, model.hidden_size, losses)
        assert_same_model(got, want)
        assert losses == want_losses

    @given(net_problems, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_loss_and_gradients(self, problem, dropout):
        xs, targets, model = problem
        rng = np.random.default_rng(len(xs))
        masks = (rng.random(targets.shape) >= 0.5) / 0.5 if dropout else None
        batch = list(zip(xs, targets))
        want_loss, want = reference_loss_and_gradients(model, batch, masks)
        named = np.unique(np.concatenate([x.indices for x in xs]).astype(np.int64))
        loss, got = loss_and_gradients(model, (rows_of(xs), targets), masks)
        assert loss == want_loss
        assert got.rows.tolist() == named.tolist()  # the batch's distinct ids, sorted
        assert got.dW1.shape == (named.size, model.hidden_size)
        assert got.dW1.dtype == np.float32
        for a, b in ((dense_dW1(got, model.input_dim), want.dW1), (got.db1, want.db1),
                     (got.dW2, want.dW2), (got.db2, want.db2)):
            assert a.tobytes() == b.tobytes()

    @given(net_problems, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_float64_w1_keeps_the_float64_scatter(self, problem, dropout):
        # A float64 W1 with the float32 weights' values sums its W1 gradient
        # in float64, bit for bit as versions before 0.10.0 did.
        xs, targets, model = problem
        wide = MlpModel(model.W1.astype(np.float64), model.b1, model.W2, model.b2)
        rng = np.random.default_rng(len(xs))
        masks = (rng.random(targets.shape) >= 0.5) / 0.5 if dropout else None
        want_loss, want = reference_loss_and_gradients(wide, list(zip(xs, targets)), masks)
        loss, got = loss_and_gradients(wide, (rows_of(xs), targets), masks)
        assert loss == want_loss
        assert got.dW1.dtype == np.float64
        for a, b in ((dense_dW1(got, model.input_dim), want.dW1), (got.db1, want.db1),
                     (got.dW2, want.dW2), (got.db2, want.db2)):
            assert a.tobytes() == b.tobytes()

    @given(net_problems, st.integers(0, 2**32 - 1), st.one_of(st.none(), st.integers(1, 21)))
    @settings(max_examples=200, deadline=None)
    def test_embed_points_rows_do_not_depend_on_the_batch(self, problem, seed, block):
        xs, _, model = problem
        want = reference_embed_points(model, xs)
        with contextlib.nullcontext() if block is None else embed_chunk(model, block):
            assert embed_points(model, rows_of(xs)).tobytes() == want.tobytes()
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(xs))
            shuffled = rows_of([xs[i] for i in perm])
            assert embed_points(model, shuffled).tobytes() == want[perm].tobytes()
            a, b = sorted(rng.integers(0, len(xs) + 1, size=2).tolist())
            assert embed_points(model, rows_of(xs[a:b])).tobytes() == want[a:b].tobytes()
        for x, row in zip(xs, want):
            assert embed_one(model, x).tobytes() == row.tobytes()

    @given(net_problems)
    @settings(max_examples=50, deadline=None)
    def test_forward_with_dropout_mask(self, problem):
        xs, targets, model = problem
        mask = (np.random.default_rng(len(xs)).random(model.output_dim) >= 0.5) / 0.5
        for x in xs:
            got = embed_one(model, x, dropout_mask=mask)
            assert got.tobytes() == reference_forward(model, x, mask).tobytes()

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 6),
        st.sampled_from([None, 1, 3]),
        st.sampled_from([0.0, 0.0005]),
        st.sampled_from([0.0, 0.9]),
        st.sampled_from(["none", "first", "last", "block edges", "some", "all"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_sgd_step(self, seed, d, hidden, block, wd, mu, named):
        # W1 and vW1 hold -0.0 and negative entries: with weight_decay 0 the
        # decay term of a negative weight is -0.0, and the dense update turns
        # it into +0.0 by adding the +0.0 gradient of a row the batch did not
        # name.  The momentum buffers are compared too, where that shows.
        rng = np.random.default_rng(seed)
        model = init_model(d, hidden, 3, rng)
        state = OptimizerState(*(rng.standard_normal(a.shape).astype(a.dtype) for a in
                                 (model.W1, model.b1, model.W2, model.b2)))
        model.W1[rng.random(model.W1.shape) < 0.2] = -0.0
        state.vW1[rng.random(model.W1.shape) < 0.2] = -0.0
        step = net._UPDATE_BYTES // (hidden * 4) if block is None else block
        rows = np.array({
            "none": [],
            "first": [0],
            "last": [d - 1],
            "block edges": sorted({e for s in range(0, d, step) for e in (s, min(s + step, d) - 1)}),
            "some": sorted(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False).tolist()),
            "all": range(d),
        }[named], dtype=np.int64)
        grads = Gradients(*(rng.standard_normal(shape) for shape in
                            ((rows.size, hidden), hidden, model.W2.shape, model.output_dim)),
                          rows=rows)
        grads.dW1[rng.random(grads.dW1.shape) < 0.2] = -0.0
        cfg = TrainConfig(learning_rate=0.05, momentum=mu, weight_decay=wd)
        want_model = MlpModel(*(a.copy() for a in (model.W1, model.b1, model.W2, model.b2)))
        want_state = OptimizerState(*(a.copy() for a in
                                      (state.vW1, state.vb1, state.vW2, state.vb2)))
        dense = Gradients(dense_dW1(grads, d), grads.db1, grads.dW2, grads.db2, np.arange(d))
        reference_sgd_step(want_model, want_state, dense, cfg)
        with mock.patch.object(net, "_UPDATE_BYTES", step * hidden * 4):
            sgd_step(model, state, grads, cfg)
        assert_same_model(model, want_model)
        for a, b in ((state.vW1, want_state.vW1), (state.vb1, want_state.vb1),
                     (state.vW2, want_state.vW2), (state.vb2, want_state.vb2)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("block", [None, 1, 3])
    def test_edge_rows_empty_rows_and_signed_zeros(self, block):
        # d = 13 rows: with 3-row blocks the ids 0, 2, 3, 5, 6, 11 and 12 sit
        # on block edges, and 12 is the last row; points 1 and 4 are empty.
        # weight_decay 0 with momentum 0 makes -0.0 decay terms and momenta.
        d, hidden = 13, 4
        ids = [[0, 2, 3], [], [5, 6, 12], [11, 12], [], [0, 12]]
        rng = np.random.default_rng(12)
        xs = [SparseVector(np.array(i, dtype=np.int32), rng.uniform(0.5, 1.5, len(i)))
              for i in ids]
        targets = rng.standard_normal((len(xs), 3))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        model = init_model(d, hidden, 3, rng)
        _, want = reference_loss_and_gradients(model, list(zip(xs, targets)))
        _, got = loss_and_gradients(model, (rows_of(xs), targets))
        assert got.rows.tolist() == [0, 2, 3, 5, 6, 11, 12]
        assert dense_dW1(got, d).tobytes() == want.dW1.tobytes()
        update_bytes = net._UPDATE_BYTES if block is None else block * hidden * 4
        for wd, mu, size in ((0.0, 0.0, 2), (0.0, 0.9, 4), (0.0005, 0.9, 3)):
            cfg = TrainConfig(learning_rate=0.05, momentum=mu, weight_decay=wd, epochs=3,
                              minibatch_size=size, rng_seed=size)
            want, want_losses = reference_train(xs, targets, d, cfg, hidden)
            losses = []
            with mock.patch.object(net, "_UPDATE_BYTES", update_bytes):
                got = train_embedding_net(rows_of(xs), targets, d, cfg, hidden, losses)
            assert_same_model(got, want)
            assert losses == want_losses

    def test_batch_of_empty_rows_names_no_rows(self):
        xs, targets, model = net_problem(3, n=4, d=9, hidden=5, out=3, empty_share=1.0)
        _, want = reference_loss_and_gradients(model, list(zip(xs, targets)))
        _, got = loss_and_gradients(model, (rows_of(xs), targets))
        assert got.rows.size == 0 and got.dW1.shape == (0, 5)
        assert dense_dW1(got, 9).tobytes() == want.dW1.tobytes()
        # The step still decays every row of W1.
        cfg = TrainConfig(learning_rate=0.05)
        state, want_state = OptimizerState.zeros_like(model), OptimizerState.zeros_like(model)
        want_model = MlpModel(*(a.copy() for a in (model.W1, model.b1, model.W2, model.b2)))
        reference_sgd_step(want_model, want_state, want, cfg)
        sgd_step(model, state, got, cfg)
        assert_same_model(model, want_model)
        assert state.vW1.tobytes() == want_state.vW1.tobytes()

    def test_gradient_buffer_is_reused(self):
        xs, targets, model = net_problem(4, n=6, d=30, hidden=5, out=3, empty_share=0.3)
        batch = (rows_of(xs), targets)
        _, want = loss_and_gradients(model, batch)
        # Leftovers of an earlier batch are zeroed.
        buffer = np.full((30, 5), np.nan, dtype=np.float32)
        _, got = loss_and_gradients(model, batch, dW1=buffer)
        assert np.shares_memory(got.dW1, buffer)
        assert got.dW1.tobytes() == want.dW1.tobytes()
        with pytest.raises(ValidationError, match="cannot hold"):
            loss_and_gradients(model, batch,
                               dW1=np.zeros((want.rows.size - 1, 5), dtype=np.float32))
        # A buffer of another dtype would round every sum to its own.
        with pytest.raises(ValidationError, match="buffer is float64, not W1's float32"):
            loss_and_gradients(model, batch, dW1=np.zeros((30, 5)))

    def test_wide_enough_for_several_default_blocks(self):
        # 1300 rows of 64 float32s: the default block holds 512 rows, so three
        # blocks, the last one short.
        xs, targets, model = net_problem(5, n=40, d=1300, hidden=64, out=9, empty_share=0.1)
        assert net._UPDATE_BYTES // (64 * 4) == 512
        cfg = TrainConfig(epochs=2, minibatch_size=16, rng_seed=4)
        want, _ = reference_train(xs, targets, 1300, cfg, 64)
        assert_same_model(train_embedding_net(rows_of(xs), targets, 1300, cfg, 64), want)


class TestGradientMemory:
    """A large-d model trained on batches that name few rows allocates no d x H float64 array."""

    d, hidden = 20000, 64
    dense_bytes = d * hidden * 8  # one float64 d x H array, 10.24 MB

    def problem(self):
        rng = np.random.default_rng(11)
        ids = [[0, 17, 4096], [17, 19999], [], [5, 4096, 12000]]
        xs = [SparseVector(np.array(i, dtype=np.int32), rng.uniform(0.5, 1.5, len(i)))
              for i in ids]
        targets = rng.standard_normal((len(xs), 8))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        return rows_of(xs), targets

    @staticmethod
    def peak_bytes(fn):
        """Peak traced memory above the start while ``fn`` runs, and its result."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - start, result
        finally:
            tracemalloc.stop()

    def test_step_allocates_a_fraction_of_a_dense_gradient(self):
        x, targets = self.problem()
        model = init_model(self.d, self.hidden, 8, np.random.default_rng(0))
        state = OptimizerState.zeros_like(model)
        peak, (_, grads) = self.peak_bytes(lambda: loss_and_gradients(model, (x, targets)))
        assert grads.rows.tolist() == [0, 5, 17, 4096, 12000, 19999]
        assert grads.dW1.shape == (6, self.hidden)
        assert peak < self.dense_bytes / 4
        peak, _ = self.peak_bytes(lambda: sgd_step(model, state, grads, TrainConfig()))
        assert peak < self.dense_bytes / 4

    def test_training_holds_only_w1_and_its_momentum(self):
        # W1 and vW1 in float32 take 2 d H 4 bytes.  On top of them come the
        # compact W1 gradient buffer, in W1's dtype, and a stated 1 MB of
        # slack: the init's and the update's 128 KB row blocks, the batch's
        # d-long id counts and the small tensors.  Batches of 100 points of
        # 100 ids each size the buffer at 10,000 rows, 2.56 MB in float32; in
        # float64 it would take 2.56 MB more, and a float64 W1, vW1 or whole
        # init draw would add d H 4 bytes (5.12 MB) or more.
        rng = np.random.default_rng(12)
        xs = [SparseVector(np.sort(rng.choice(self.d, 100, replace=False)).astype(np.int32),
                           rng.uniform(0.5, 1.5, 100)) for _ in range(100)]
        targets = rng.standard_normal((len(xs), 8))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        x = rows_of(xs)
        cfg = TrainConfig(epochs=2, minibatch_size=100)
        peak, model = self.peak_bytes(
            lambda: train_embedding_net(x, targets, self.d, cfg, self.hidden)
        )
        assert model.W1.dtype == np.float32
        compact = int(np.sort(np.diff(x.indptr))[-100:].sum()) * self.hidden * model.W1.itemsize
        assert compact == 10_000 * self.hidden * 4
        assert peak < 2 * self.d * self.hidden * 4 + compact + (1 << 20)


class TestSmoothL1:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (0.0, 0.0, 0.0),
            (0.5, 0.0, 0.125),
            (1.0, 0.0, 0.5),       # both branches agree at the joint
            (1.5, 0.0, 1.0),
            (-2.0, 0.0, 1.5),
            (3.0, 1.0, 1.5),
        ],
    )
    def test_values(self, a, b, expected):
        assert smooth_l1(a, b) == expected

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.standard_normal(2) * 3
            assert smooth_l1(a, b) == smooth_l1(b, a)

    def test_elementwise_on_arrays(self):
        out = smooth_l1(np.array([0.0, 2.0]), np.array([0.5, 0.0]))
        assert out.tolist() == [0.125, 1.5]


class TestEmbedDistance:
    """The one-point loss reference that ``test_single_sample_loss_is_embed_distance`` uses."""

    def test_matches_term_sum(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            a, b = rng.standard_normal((2, 7)) * 2
            manual = sum(smooth_l1(float(x), float(y)) for x, y in zip(a, b))
            assert embed_distance(a, b) == pytest.approx(manual, abs=1e-12)

    def test_zero_on_equal(self):
        v = np.random.default_rng(2).standard_normal(5)
        assert embed_distance(v, v) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            embed_distance(np.zeros(3), np.zeros(4))


class TestForward:
    def identity_model(self):
        return MlpModel(
            W1=np.eye(2), b1=np.zeros(2), W2=np.eye(2), b2=np.zeros(2)
        )

    def test_embed_points_chunk_is_sized_by_bytes(self):
        # About 128 KB per temporary: 32 points at H = 512, whatever the batch.
        rng = np.random.default_rng(32)
        model = init_model(40, 512, 300, rng)
        xs = rows_of([random_sparse(rng, 40) for _ in range(300)])
        with mock.patch.object(net, "_forward_rows", wraps=net._forward_rows) as spy:
            out = embed_points(model, xs)
        starts = range(0, 300, 32)
        assert [call.args[3:5] for call in spy.call_args_list] == [(s, s + 32) for s in starts]
        tracemalloc.start()
        try:
            embed_points(model, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * net._EMBED_BYTES

    def test_identity_weights_normalize(self):
        out = embed_one(self.identity_model(), dense_sv([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8], atol=1e-9)

    def test_unit_norm_for_random_models(self):
        # Zero biases plus an all-negative hidden layer can make the pre-norm
        # vector exactly zero; those points stay at zero, everything else
        # lands on the unit sphere.
        rng = np.random.default_rng(3)
        unit = 0
        for _ in range(100):
            d = int(rng.integers(2, 8))
            model = init_model(d, int(rng.integers(2, 6)), int(rng.integers(2, 6)), rng)
            out = embed_one(model, random_sparse(rng, d))
            norm = np.linalg.norm(out)
            if norm == 0.0:
                continue
            assert abs(norm - 1.0) < 1e-9
            unit += 1
        assert unit >= 80

    def test_zero_output_guarded(self):
        model = MlpModel(W1=np.zeros((2, 2)), b1=np.zeros(2), W2=np.zeros((2, 2)), b2=np.zeros(2))
        out = embed_one(model, dense_sv([1.0, 1.0]))
        assert np.all(out == 0.0), "epsilon guard keeps the zero vector finite"

    def test_relu_blocks_negative_hidden(self):
        model = MlpModel(
            W1=np.array([[-1.0], [-1.0]]), b1=np.zeros(1), W2=np.array([[1.0, 1.0]]), b2=np.zeros(2)
        )
        assert np.all(embed_one(model, dense_sv([1.0, 2.0])) == 0.0)

    def test_dropout_mask_applied(self):
        model = self.identity_model()
        mask = np.array([2.0, 0.0])  # rate 0.5, second unit dropped
        out = embed_one(model, dense_sv([3.0, 4.0]), dropout_mask=mask)
        assert np.allclose(out, [1.0, 0.0], atol=1e-9)

    def test_feature_index_out_of_range(self):
        with pytest.raises(ValidationError):
            embed_one(self.identity_model(), sparse([(5, 1.0)]))

    @pytest.mark.parametrize("block", [None, 2])
    def test_output_norm_outside_float64_names_the_point(self, block):
        # 1e154 squares to 1e308, still finite; 1e155 squares past float64.
        xs = [dense_sv([1.0, 0.0]), dense_sv([1e154, 0.0]), dense_sv([0.0, 2.0]),
              dense_sv([1e155, 0.0]), dense_sv([1.0, 1.0])]
        model = self.identity_model()
        with contextlib.nullcontext() if block is None else embed_chunk(model, block):
            ok = embed_points(self.identity_model(), rows_of(xs[:3]))
            assert np.allclose(ok, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-9)
            with pytest.raises(ValidationError, match="point 3: its network output's squared"):
                with np.errstate(over="ignore"):
                    embed_points(self.identity_model(), rows_of(xs))
        # The loss names the same row of its batch.
        with pytest.raises(PointError, match="point 3: its network output's squared"):
            with np.errstate(over="ignore"):
                loss_and_gradients(self.identity_model(), (rows_of(xs), np.zeros((5, 2))))

    def test_zero_loss_when_targets_match_outputs(self):
        rng = np.random.default_rng(4)
        model = init_model(6, 5, 4, rng)
        xs = [random_sparse(rng, 6) for _ in range(8)]
        batch = batch_of([(x, embed_one(model, x)) for x in xs])
        loss, grads = loss_and_gradients(model, batch)
        assert loss == 0.0
        for g in (grads.dW1, grads.db1, grads.dW2, grads.db2):
            assert np.all(g == 0.0)

    def test_single_sample_loss_is_embed_distance(self):
        rng = np.random.default_rng(5)
        model = init_model(7, 4, 3, rng)
        x = random_sparse(rng, 7)
        t = rng.standard_normal(3)
        t /= np.linalg.norm(t)
        loss, _ = loss_and_gradients(model, batch_of([(x, t)]))
        assert loss == embed_distance(embed_one(model, x), t)


def finite_difference_check(seed, step=1e-5, tolerance=1e-4):
    """Central finite differences against analytic gradients for one random config.

    The probe runs on a float64 widening of the model: float32 W1 steps by
    about 6e-8 of a weight, too coarse for a 1e-5 probe to resolve.  Biases
    get generic nonzero values: with all-zero b2 a sample whose hidden
    units are all dead sits at the normalization guard's curvature scale
    (1e-12), where a 1e-5 probe cannot resolve the true derivative.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 10))
    hidden = int(rng.integers(2, 8))
    out_dim = int(rng.integers(2, 6))
    batch_size = int(rng.integers(1, 5))
    init = init_model(d, hidden, out_dim, rng)
    model = MlpModel(init.W1.astype(np.float64), init.b1, init.W2, init.b2)
    model.b1[:] = 0.05 * rng.standard_normal(hidden)
    model.b2[:] = 0.05 * rng.standard_normal(out_dim)
    batch = []
    for _ in range(batch_size):
        t = rng.standard_normal(out_dim)
        t /= np.linalg.norm(t)
        batch.append((random_sparse(rng, d), t))
    batch = batch_of(batch)
    masks = None
    if rng.random() < 0.5:
        masks = (rng.random((batch_size, out_dim)) >= 0.3) / 0.7
    _, grads = loss_and_gradients(model, batch, masks)

    passed = total = 0
    for param, grad in (
        (model.W1, dense_dW1(grads, d)),
        (model.b1, grads.db1),
        (model.W2, grads.dW2),
        (model.b2, grads.db2),
    ):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up, _ = loss_and_gradients(model, batch, masks)
            flat_p[i] = orig - step
            down, _ = loss_and_gradients(model, batch, masks)
            flat_p[i] = orig
            numeric = (up - down) / (2 * step)
            # Central differences resolve nothing below ~eps*loss/step, about
            # 1e-11 here; the 1e-6 floor keeps sub-resolution entries (both
            # values effectively zero) from being scored as disagreements.
            denom = max(abs(numeric) + abs(flat_g[i]), 1e-6)
            rel = abs(numeric - flat_g[i]) / denom
            total += 1
            passed += rel < tolerance
    return passed, total


class TestGradients:
    def test_finite_differences_20_configs(self):
        passed = total = 0
        for seed in range(20):
            p, t = finite_difference_check(seed)
            passed += p
            total += t
        assert passed / total >= 0.99, f"{passed}/{total} entries within tolerance"

    def test_empty_batch_rejected(self):
        model = init_model(3, 3, 3)
        with pytest.raises(ValidationError):
            loss_and_gradients(model, (rows_of([]), np.empty((0, 3))))


class TestSgdStep:
    def constant_setup(self, d=2, h=2, out=2):
        model = MlpModel(
            W1=np.ones((d, h)), b1=np.zeros(h), W2=np.ones((h, out)), b2=np.zeros(out)
        )
        return model, OptimizerState.zeros_like(model)

    def grads_like(self, model, value):
        return Gradients(
            dW1=np.full_like(model.W1, value),
            db1=np.full_like(model.b1, value),
            dW2=np.full_like(model.W2, value),
            db2=np.full_like(model.b2, value),
            rows=np.arange(model.input_dim),
        )

    def test_single_step_no_momentum(self):
        model, state = self.constant_setup()
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.0)
        g = self.grads_like(model, 2.0)
        sgd_step(model, state, g, cfg)
        assert np.allclose(model.W1, 1.0 - 0.1 * 2.0, atol=1e-15)
        assert np.allclose(model.b1, -0.1 * 2.0, atol=1e-15)

    def test_two_steps_momentum_unroll(self):
        # v1 = g, v2 = 0.9 g + g, so the total displacement is -lr * 2.9 g
        model, state = self.constant_setup()
        cfg = TrainConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            sgd_step(model, state, self.grads_like(model, 1.0), cfg)
        assert np.allclose(model.W2, 1.0 - 0.1 * 2.9, atol=1e-12)

    def test_weight_decay_spares_biases(self):
        model, state = self.constant_setup()
        model.b1[:] = 3.0
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        sgd_step(model, state, self.grads_like(model, 0.0), cfg)
        assert np.allclose(model.W1, 1.0 - 0.1 * 0.01, atol=1e-15)
        assert np.all(model.b1 == 3.0)

    def test_non_finite_gradient_aborts(self):
        model, state = self.constant_setup()
        g = self.grads_like(model, 1.0)
        g.dW2[0, 0] = np.nan
        with pytest.raises(ValidationError):
            sgd_step(model, state, g, TrainConfig())

    @pytest.mark.parametrize("where", ["dW1 first row", "dW1 last row", "db2"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_writes_nothing(self, where, bad):
        self.assert_step_writes_nothing(where, bad)

    @pytest.mark.parametrize("where", ["dW1 first row", "dW1 last row"])
    @pytest.mark.parametrize("bad", [1e39, -1e39])
    def test_w1_gradient_beyond_float32_writes_nothing(self, where, bad):
        # Finite in the compact gradient's float64, but inf once rounded to W1's float32.
        self.assert_step_writes_nothing(where, bad)

    def test_hidden_gradient_beyond_float32_is_refused_without_a_warning(self):
        # Hidden units 0 and 1 carry the same activation into W2 rows of
        # +-2**996 (6.7e299), where every product is exact, so they cancel in
        # the output in any order of summation.  The forward pass and the
        # loss stay finite while dH reaches about 1e299: finite in float64,
        # inf once cast to W1's float32.  The step is refused as a
        # float64 W1 gradient past float32 was, and nothing is written.
        model = MlpModel(W1=np.ones((4, 3), dtype=np.float32), b1=np.zeros(3),
                         W2=np.array([[2.0**996, 1.0], [-2.0**996, 1.0], [0.5, -0.5]]),
                         b2=np.array([1.0, 0.0]))
        xs = [dense_sv([1.0]), dense_sv([2.0, 0.0, 1.0]), dense_sv([0.0, 0.5, 0.0, 3.0])]
        targets = np.array([[0.0, 1.0], [1.0, 0.0], [-0.6, 0.8]])
        state = OptimizerState.zeros_like(model)
        before = [a.copy() for a in (model.W1, model.b1, model.W2, model.b2,
                                     state.vW1, state.vb1, state.vW2, state.vb2)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _, grads = loss_and_gradients(model, (rows_of(xs), targets))
            assert np.isfinite(grads.db1).all() and np.abs(grads.db1).max() > 1e290
            assert not np.isfinite(grads.dW1).all()
            with pytest.raises(ValidationError, match="gradient in dW1 is not finite in float32"):
                sgd_step(model, state, grads, TrainConfig())
        assert caught == []
        after = (model.W1, model.b1, model.W2, model.b2, state.vW1, state.vb1, state.vW2, state.vb2)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()

    def assert_step_writes_nothing(self, where, bad):
        rng = np.random.default_rng(9)
        model = init_model(7, 5, 3, rng)
        state = OptimizerState(*(rng.standard_normal(a.shape).astype(a.dtype) for a in
                                 (model.W1, model.b1, model.W2, model.b2)))
        # A compact W1 gradient for rows 1, 2 and 5 of 7; its first and last
        # rows are W1's rows 1 and 5, in different one-row blocks.
        rows = np.array([1, 2, 5])
        g = Gradients(*(rng.standard_normal(a.shape) for a in
                        (model.W1[rows], model.b1, model.W2, model.b2)), rows=rows)
        {"dW1 first row": g.dW1[0], "dW1 last row": g.dW1[-1], "db2": g.db2}[where][1] = bad
        before = [a.copy() for a in (model.W1, model.b1, model.W2, model.b2,
                                     state.vW1, state.vb1, state.vW2, state.vb2)]
        # Blocks of one row: a check made block by block would already have
        # written the rows before a bad last row.
        with mock.patch.object(net, "_UPDATE_BYTES", 8), pytest.raises(ValidationError):
            sgd_step(model, state, g, TrainConfig())
        after = (model.W1, model.b1, model.W2, model.b2, state.vW1, state.vb1, state.vW2, state.vb2)
        for a, b in zip(after, before):
            assert a.tobytes() == b.tobytes()


class TestTraining:
    def small_problem(self, seed=0, n=24, d=10, out=4):
        rng = np.random.default_rng(seed)
        xs = [random_sparse(rng, d) for _ in range(n)]
        targets = rng.standard_normal((n, out))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        return xs, targets, d

    def test_zero_epochs_returns_seeded_init(self):
        xs, targets, d = self.small_problem()
        cfg = TrainConfig(epochs=0, rng_seed=42)
        model = train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=6)
        expected = init_model(d, 6, targets.shape[1], np.random.default_rng(42))
        assert model == as_stored(expected)

    def test_deterministic_for_seed(self):
        xs, targets, d = self.small_problem(1)
        cfg = TrainConfig(epochs=5, rng_seed=3)
        a = train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=6)
        b = train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=6)
        assert a == b

    def test_loss_non_increasing_at_small_lr(self):
        xs, targets, d = self.small_problem(2)
        cfg = TrainConfig(learning_rate=1e-3, dropout_rate=0.0, epochs=50, rng_seed=0)
        losses = []
        train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=8, record_losses=losses)
        assert len(losses) == 50
        for earlier, later in zip(losses, losses[1:]):
            assert later <= earlier + 1e-9

    def test_tiny_synthetic_converges(self):
        ds = planted_dataset(n=30, L=5, seed=6)
        rng = np.random.default_rng(6)
        xs = [sv for sv, _ in ds.points]
        targets = rng.standard_normal((len(xs), 4))
        targets /= np.linalg.norm(targets, axis=1, keepdims=True)
        # deterministic target per unique feature pattern keeps the task learnable
        keys = {}
        for i, sv in enumerate(xs):
            key = tuple(sv.indices.tolist())
            if key in keys:
                targets[i] = targets[keys[key]]
            else:
                keys[key] = i
        cfg = TrainConfig(dropout_rate=0.0, epochs=200, rng_seed=1)
        losses = []
        train_embedding_net(ds.features, targets, ds.num_features, cfg, hidden_size=16,
                            record_losses=losses)
        assert losses[-1] < 0.1 * losses[0], f"{losses[0]:.4f} -> {losses[-1]:.4f}"

    def test_output_overflow_stops_the_first_batch_naming_the_row(self):
        # Row 3 overflows; batches of two, so the error comes from inside a
        # batch and is renumbered to the row of x, before any epoch ends.
        xs, targets, d = self.small_problem(5, n=7)
        xs[3] = SparseVector(np.array([0, 4], dtype=np.int32), np.array([1e200, 1e200]))
        cfg = TrainConfig(epochs=3, minibatch_size=2, dropout_rate=0.0, rng_seed=1)
        losses = []
        with pytest.raises(PointError, match="point 3: its network output's squared") as info:
            with np.errstate(over="ignore", invalid="ignore"):
                train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=8,
                                    record_losses=losses)
        assert info.value.point == 3 and losses == []

    def test_no_labeled_points_rejected(self):
        with pytest.raises(ValidationError):
            train_embedding_net(rows_of([]), np.empty((0, 3)), 4, TrainConfig(), hidden_size=4)

    def test_embed_points_rows_are_unit(self):
        xs, targets, d = self.small_problem(4)
        cfg = TrainConfig(epochs=2, rng_seed=5)
        model = train_embedding_net(rows_of(xs), targets, d, cfg, hidden_size=6)
        rows = embed_points(model, rows_of(xs))
        norms = np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)


class TestFeaturelessPoints:
    def test_zero_output_passes_no_gradient(self):
        # At init b1 and b2 are zero, so a point with no features outputs 0.
        rng = np.random.default_rng(8)
        model = init_model(6, 5, 3, rng)
        targets = np.array([[1.0, 0.0, 0.0]])
        _, grads = loss_and_gradients(model, (rows_of([sparse([])]), targets))
        for g in (grads.db1, grads.dW2, grads.db2):
            assert not g.any()

    def test_a_few_featureless_points_do_not_take_over_training(self):
        # 5 of 60 points have no features.  Dividing their gradient by the
        # guarded norm 1e-12 once sent max |b2| to 7e10 and made every
        # embedding the same (mean cosine 1.0000); without those points
        # max |b2| is 0.1 and the mean cosine 0.42.
        xs, targets, _ = net_problem(21, n=60, d=80, hidden=32, out=8, empty_share=0.1)
        assert sum(sv.indices.size == 0 for sv in xs) == 5
        cfg = TrainConfig(epochs=1, learning_rate=0.05, minibatch_size=8)
        model = train_embedding_net(rows_of(xs), targets, 80, cfg, hidden_size=32)
        assert np.abs(model.b2).max() < 1.0
        rows = embed_points(model, rows_of(xs))
        cosines = (rows @ rows.T)[np.triu_indices(len(xs), 1)]
        assert cosines.mean() < 0.8


class TestFloat32State:
    """W1 and its momentum are float32; the float64-state trainer is the tolerance reference."""

    @pytest.mark.parametrize("d,hidden,block", [(1000, 8, 300), (10, 4, 3), (1300, 64, None)])
    def test_blocked_init_draws_the_stream_of_one_draw(self, d, hidden, block):
        # Blocks of 300 rows split 1000 into 300/300/300/100 and 3 split 10
        # into 3/3/3/1; the default block holds 256 float64 rows of 64.
        update_bytes = net._UPDATE_BYTES if block is None else block * hidden * 8
        got_rng, want_rng = np.random.default_rng(7), np.random.default_rng(7)
        with mock.patch.object(net, "_UPDATE_BYTES", update_bytes):
            got = init_model(d, hidden, 5, got_rng)
        want = float64_init(d, hidden, 5, want_rng)
        assert got.W1.dtype == np.float32
        assert got.W1.tobytes() == want.W1.astype(np.float32).tobytes()
        assert got.W2.tobytes() == want.W2.tobytes()
        assert got_rng.random() == want_rng.random()  # the next draw matches too

    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_three_epochs_track_float64_state(self, dropout):
        # 24 steps, each rounding W1 and vW1 to float32 (eps 1.2e-7).  Over
        # problem seeds 21-25 the largest differences measured 7.7e-7 on the
        # weights, 3.1e-6 on the embeddings and 6.1e-8 relative on the
        # losses; the bounds are 1e-5, about 80 eps, and 1e-6 relative.
        xs, targets, model = net_problem(21, n=60, d=80, hidden=32, out=8, empty_share=0.0)
        cfg = TrainConfig(learning_rate=0.05, dropout_rate=dropout, epochs=3,
                          minibatch_size=8, rng_seed=3)
        losses = []
        got = train_embedding_net(rows_of(xs), targets, 80, cfg, 32, losses)
        want, want_losses = reference_train(xs, targets, 80, cfg, 32, float64_state=True)
        assert got.W1.dtype == np.float32 and want.W1.dtype == np.float64
        assert got.W1.tobytes() != want.W1.astype(np.float32).tobytes()
        assert np.allclose(losses, want_losses, rtol=1e-6, atol=0.0)
        for a, b in ((got.W1, want.W1), (got.b1, want.b1), (got.W2, want.W2), (got.b2, want.b2)):
            assert np.abs(a - b).max() <= 1e-5
        rows = rows_of(xs)
        assert np.abs(embed_points(got, rows) - embed_points(want, rows)).max() <= 1e-5


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"weight_decay": -0.1},
            {"dropout_rate": 1.0},
            {"epochs": -1},
            {"minibatch_size": 0},
            {"dropout_rate": -0.1},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs).validate()
