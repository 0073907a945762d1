"""Embedding network: forward pass, loss, gradients, optimizer, training."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dxml import (
    MlpModel,
    OptimizerState,
    SparseVector,
    TrainConfig,
    ValidationError,
    embed_distance,
    forward,
    init_model,
    loss_and_gradients,
    sgd_step,
    smooth_l1,
)
from dxml import net
from dxml.data_io import SparseRows
from dxml.graph_embed import EmbeddingMatrix
from dxml.net import Gradients, embed_points, train, train_embedding_net

from conftest import planted_dataset, random_dataset


def dense_sv(values):
    return SparseVector.from_pairs(enumerate(values))


def random_sparse(rng, d):
    nnz = int(rng.integers(1, d + 1))
    idx = np.sort(rng.choice(d, size=nnz, replace=False))
    vals = rng.standard_normal(nnz)
    vals[vals == 0.0] = 0.5
    return SparseVector(idx.astype(np.int32), vals)


# ── The per-point network, kept as the bitwise reference ────────────────────
# Each point's forward pass on its own, the W1 gradient scattered one point at
# a time into a new array, and the momentum step on whole arrays.  The batched
# network must reproduce its bits.


def reference_forward(model, x, dropout_mask=None):
    if x.nnz and (x.indices[-1] >= model.input_dim or x.indices[0] < 0):
        raise ValidationError(f"feature index outside [0, {model.input_dim})")
    h = model.b1.copy()
    if x.nnz:
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
        if sv.nnz:
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


def reference_loss_and_gradients(model, batch, masks=None, loss_mode="mean"):
    xs = [x for x, _ in batch]
    T = np.stack([t for _, t in batch]).astype(np.float64)
    B = len(xs)
    Hpre, A, Zd, F, norms, guarded = reference_forward_batch(model, xs, masks)
    scale = 1.0 / B if loss_mode == "mean" else 1.0
    loss = float(smooth_l1(F, T).sum(axis=1).sum() * scale)
    dF = np.clip(F - T, -1.0, 1.0) * scale
    dot = np.einsum("ij,ij->i", Zd, dF)
    safe = np.where(norms > 0.0, norms, 1.0)
    dZd = dF / guarded[:, None] - Zd * (dot / (guarded * guarded * safe))[:, None]
    dZ = dZd * masks if masks is not None else dZd
    dH = (dZ @ model.W2.T) * (Hpre > 0.0)
    dW1 = np.zeros_like(model.W1)
    for i, sv in enumerate(xs):
        if sv.nnz:
            dW1[sv.indices] += sv.values[:, None] * dH[i]
    return loss, Gradients(dW1=dW1, db1=dH.sum(axis=0), dW2=A.T @ dZ, db2=dZ.sum(axis=0))


def reference_sgd_step(model, state, grads, config):
    for g in (grads.dW1, grads.db1, grads.dW2, grads.db2):
        if not np.all(np.isfinite(g)):
            raise ValidationError("non-finite gradient")
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


def reference_train(xs, targets, num_features, config, hidden_size):
    rng = np.random.default_rng(config.rng_seed)
    model = init_model(num_features, hidden_size, targets.shape[1], rng)
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
            loss, grads = reference_loss_and_gradients(model, batch, masks, config.loss_mode)
            reference_sgd_step(model, state, grads, config)
            total += loss * sel.size if config.loss_mode == "mean" else loss
        losses.append(total / len(xs))
    return model, losses


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
        st.booleans(),
        st.sampled_from(["mean", "sum"]),
        st.integers(0, 2),
        st.sampled_from([None, 1, 3]),
    )
    @settings(max_examples=200, deadline=None)
    def test_train_embedding_net(self, problem, batch, dropout, use_bias, mode, epochs, block):
        xs, targets, model = problem
        n, d = len(xs), model.input_dim
        size = {"one": 1, "three": 3, "n": n, "more": n + 5}[batch]
        cfg = TrainConfig(
            learning_rate=0.05, dropout_rate=dropout, epochs=epochs, minibatch_size=size,
            loss_mode=mode, use_bias=use_bias, rng_seed=d + n,
        )
        want, want_losses = reference_train(xs, targets, d, cfg, model.hidden_size)
        # block=None keeps the default row block; 1 and 3 rows (d need not be a
        # multiple) split even these small matrices.
        update_bytes = net._UPDATE_BYTES if block is None else block * model.hidden_size * 8
        losses = []
        with mock.patch.object(net, "_UPDATE_BYTES", update_bytes):
            got = train_embedding_net(xs, targets, d, cfg, model.hidden_size, losses)
        assert_same_model(got, want)
        assert losses == want_losses

    @given(net_problems, st.booleans(), st.sampled_from(["mean", "sum"]))
    @settings(max_examples=100, deadline=None)
    def test_loss_and_gradients(self, problem, dropout, mode):
        xs, targets, model = problem
        rng = np.random.default_rng(len(xs))
        masks = (rng.random(targets.shape) >= 0.5) / 0.5 if dropout else None
        batch = list(zip(xs, targets))
        want_loss, want = reference_loss_and_gradients(model, batch, masks, mode)
        for given_batch in (batch, (SparseRows.pack(xs), targets)):
            loss, got = loss_and_gradients(model, given_batch, masks, mode)
            assert loss == want_loss
            for a, b in ((got.dW1, want.dW1), (got.db1, want.db1), (got.dW2, want.dW2),
                         (got.db2, want.db2)):
                assert a.tobytes() == b.tobytes()

    @given(net_problems, st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 2, 5]))
    @settings(max_examples=200, deadline=None)
    def test_embed_points_rows_do_not_depend_on_the_batch(self, problem, seed, block):
        xs, _, model = problem
        want = reference_embed_points(model, xs)
        rows = net._EMBED_ROWS if block is None else block
        with mock.patch.object(net, "_EMBED_ROWS", rows):
            full = embed_points(model, xs)
            assert full.tobytes() == want.tobytes()
            assert embed_points(model, SparseRows.pack(xs)).tobytes() == want.tobytes()
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(xs))
            assert embed_points(model, [xs[i] for i in perm]).tobytes() == want[perm].tobytes()
            a, b = sorted(rng.integers(0, len(xs) + 1, size=2).tolist())
            assert embed_points(model, xs[a:b]).tobytes() == want[a:b].tobytes()
        for x, row in zip(xs, want):
            assert forward(model, x).tobytes() == row.tobytes()

    @given(net_problems)
    @settings(max_examples=50, deadline=None)
    def test_forward_with_dropout_mask(self, problem):
        xs, targets, model = problem
        mask = (np.random.default_rng(len(xs)).random(model.output_dim) >= 0.5) / 0.5
        for x in xs:
            got = forward(model, x, dropout_mask=mask)
            assert got.tobytes() == reference_forward(model, x, mask).tobytes()

    def test_wide_enough_for_several_default_blocks(self):
        # 700 rows of 64 floats: the default block holds 256 rows, so three
        # blocks, the last one short.
        xs, targets, model = net_problem(5, n=40, d=700, hidden=64, out=9, empty_share=0.1)
        assert net._UPDATE_BYTES // (64 * 8) == 256
        cfg = TrainConfig(epochs=2, minibatch_size=16, rng_seed=4)
        want, _ = reference_train(xs, targets, 700, cfg, 64)
        assert_same_model(train_embedding_net(xs, targets, 700, cfg, 64), want)


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

    def test_identity_weights_normalize(self):
        out = forward(self.identity_model(), dense_sv([3.0, 4.0]))
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
            out = forward(model, random_sparse(rng, d))
            norm = np.linalg.norm(out)
            if norm == 0.0:
                continue
            assert abs(norm - 1.0) < 1e-9
            unit += 1
        assert unit >= 80

    def test_zero_output_guarded(self):
        model = MlpModel(W1=np.zeros((2, 2)), b1=np.zeros(2), W2=np.zeros((2, 2)), b2=np.zeros(2))
        out = forward(model, dense_sv([1.0, 1.0]))
        assert np.all(out == 0.0), "epsilon guard keeps the zero vector finite"

    def test_relu_blocks_negative_hidden(self):
        model = MlpModel(
            W1=np.array([[-1.0], [-1.0]]), b1=np.zeros(1), W2=np.array([[1.0, 1.0]]), b2=np.zeros(2)
        )
        assert np.all(forward(model, dense_sv([1.0, 2.0])) == 0.0)

    def test_dropout_mask_applied(self):
        model = self.identity_model()
        mask = np.array([2.0, 0.0])  # rate 0.5, second unit dropped
        out = forward(model, dense_sv([3.0, 4.0]), dropout_mask=mask)
        assert np.allclose(out, [1.0, 0.0], atol=1e-9)

    def test_feature_index_out_of_range(self):
        with pytest.raises(ValidationError):
            forward(self.identity_model(), SparseVector.from_pairs([(5, 1.0)]))

    def test_zero_loss_when_targets_match_outputs(self):
        rng = np.random.default_rng(4)
        model = init_model(6, 5, 4, rng)
        xs = [random_sparse(rng, 6) for _ in range(8)]
        batch = [(x, forward(model, x)) for x in xs]
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
        loss, _ = loss_and_gradients(model, [(x, t)])
        assert loss == embed_distance(forward(model, x), t)


def finite_difference_check(seed, step=1e-5, tolerance=1e-4):
    """Central finite differences against analytic gradients for one random config.

    Biases get generic nonzero values: with all-zero b2 a sample whose hidden
    units are all dead sits at the normalization guard's curvature scale
    (1e-12), where a 1e-5 probe cannot resolve the true derivative.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(3, 10))
    hidden = int(rng.integers(2, 8))
    out_dim = int(rng.integers(2, 6))
    batch_size = int(rng.integers(1, 5))
    model = init_model(d, hidden, out_dim, rng)
    model.b1[:] = 0.05 * rng.standard_normal(hidden)
    model.b2[:] = 0.05 * rng.standard_normal(out_dim)
    batch = []
    for _ in range(batch_size):
        t = rng.standard_normal(out_dim)
        t /= np.linalg.norm(t)
        batch.append((random_sparse(rng, d), t))
    masks = None
    if rng.random() < 0.5:
        masks = (rng.random((batch_size, out_dim)) >= 0.3) / 0.7
    mode = "mean" if rng.random() < 0.5 else "sum"
    _, grads = loss_and_gradients(model, batch, masks, mode)

    passed = total = 0
    for param, grad in (
        (model.W1, grads.dW1),
        (model.b1, grads.db1),
        (model.W2, grads.dW2),
        (model.b2, grads.db2),
    ):
        flat_p = param.ravel()
        flat_g = grad.ravel()
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + step
            up, _ = loss_and_gradients(model, batch, masks, mode)
            flat_p[i] = orig - step
            down, _ = loss_and_gradients(model, batch, masks, mode)
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
            loss_and_gradients(model, [])

    def test_sum_mode_scales_mean_mode(self):
        rng = np.random.default_rng(7)
        model = init_model(5, 4, 3, rng)
        batch = []
        for _ in range(4):
            t = rng.standard_normal(3)
            batch.append((random_sparse(rng, 5), t / np.linalg.norm(t)))
        mean_loss, mean_g = loss_and_gradients(model, batch, None, "mean")
        sum_loss, sum_g = loss_and_gradients(model, batch, None, "sum")
        assert sum_loss == pytest.approx(4 * mean_loss, rel=1e-12)
        assert np.allclose(sum_g.dW1, 4 * mean_g.dW1, atol=1e-12)


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
        rng = np.random.default_rng(9)
        model = init_model(7, 5, 3, rng)
        state = OptimizerState(*(rng.standard_normal(a.shape) for a in
                                 (model.W1, model.b1, model.W2, model.b2)))
        g = Gradients(*(rng.standard_normal(a.shape) for a in
                        (model.W1, model.b1, model.W2, model.b2)))
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
        model = train_embedding_net(xs, targets, d, cfg, hidden_size=6)
        expected = init_model(d, 6, targets.shape[1], np.random.default_rng(42))
        assert model == expected

    def test_deterministic_for_seed(self):
        xs, targets, d = self.small_problem(1)
        cfg = TrainConfig(epochs=5, rng_seed=3)
        a = train_embedding_net(xs, targets, d, cfg, hidden_size=6)
        b = train_embedding_net(xs, targets, d, cfg, hidden_size=6)
        assert a == b

    def test_loss_non_increasing_at_small_lr(self):
        xs, targets, d = self.small_problem(2)
        cfg = TrainConfig(learning_rate=1e-3, dropout_rate=0.0, epochs=50, rng_seed=0)
        losses = []
        train_embedding_net(xs, targets, d, cfg, hidden_size=8, record_losses=losses)
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
        train_embedding_net(xs, targets, ds.num_features, cfg, hidden_size=16, record_losses=losses)
        assert losses[-1] < 0.1 * losses[0], f"{losses[0]:.4f} -> {losses[-1]:.4f}"

    def test_no_bias_stays_zero(self):
        xs, targets, d = self.small_problem(3)
        cfg = TrainConfig(epochs=3, use_bias=False, rng_seed=0)
        model = train_embedding_net(xs, targets, d, cfg, hidden_size=5)
        assert np.all(model.b1 == 0.0) and np.all(model.b2 == 0.0)

    def test_train_skips_unlabeled(self):
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n=25, allow_unlabeled=True)
        V = EmbeddingMatrix(values=rng.standard_normal((4, ds.num_labels)))
        model = train(ds, V, TrainConfig(epochs=1), hidden_size=5)
        assert model.input_dim == ds.num_features

    def test_no_labeled_points_rejected(self):
        with pytest.raises(ValidationError):
            train_embedding_net([], np.empty((0, 3)), 4, TrainConfig(), hidden_size=4)

    def test_embed_points_rows_are_unit(self):
        xs, targets, d = self.small_problem(4)
        cfg = TrainConfig(epochs=2, rng_seed=5)
        model = train_embedding_net(xs, targets, d, cfg, hidden_size=6)
        rows = embed_points(model, xs)
        norms = np.linalg.norm(rows, axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)


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
            {"loss_mode": "max"},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs).validate()
