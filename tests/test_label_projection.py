"""Label-set projection into embedding space."""

import numpy as np
import pytest

from dxml import Dataset, DegenerateTargetError, LabelSet, ValidationError
from dxml import label_projection
from dxml.graph_embed import EmbeddingMatrix
from dxml.label_projection import project_targets

from conftest import random_dataset, sparse


def matrix(cols):
    return EmbeddingMatrix(values=np.array(cols, dtype=np.float64).T)


def dataset_from_label_sets(label_sets, L):
    points = [(sparse([]), LabelSet.from_iterable(ls)) for ls in label_sets]
    return Dataset(len(points), 1, L, points)


def project_label_vector(embeddings, labels, normalize=True):
    """One label set's target on its own: the per-point reference for ``project_targets``.

    The mean of the named embedding columns, divided by its Euclidean norm
    with ``normalize``; a norm below 1e-12 is degenerate.
    """
    mean = embeddings.values[:, labels.ids].mean(axis=1)
    if not normalize:
        return mean
    nrm = float(np.linalg.norm(mean))
    if nrm < 1e-12:
        raise DegenerateTargetError(f"averaged label embedding has norm {nrm:.3e}")
    return mean / nrm


def project(embeddings, labels, normalize=True):
    """``project_targets`` of a dataset whose one point holds ``labels``."""
    ds = dataset_from_label_sets([labels], embeddings.count)
    return project_targets(embeddings, ds, normalize=normalize)[0][0]


class TestProjection:
    def test_two_column_average(self):
        V = matrix([[1.0, 0.0], [0.0, 1.0]])
        raw = project(V, LabelSet.from_iterable([0, 1]), normalize=False)
        assert raw.tolist() == [0.5, 0.5]
        unit = project(V, LabelSet.from_iterable([0, 1]))
        assert np.allclose(unit, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_singleton_is_normalized_column(self):
        V = matrix([[3.0, 4.0], [1.0, 0.0]])
        out = project(V, LabelSet.from_iterable([0]))
        assert np.allclose(out, [0.6, 0.8], atol=1e-12)

    def test_empty_label_set_rejected(self):
        ds = dataset_from_label_sets([[]], 1)
        targets, rows, skipped = project_targets(matrix([[1.0, 0.0]]), ds)
        assert targets.shape == (0, 2) and rows.size == 0 and skipped == 1

    def test_degenerate_mean_rejected(self):
        V = matrix([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateTargetError):
            project(V, LabelSet.from_iterable([0, 1]))

    def test_degenerate_ok_without_normalize(self):
        V = matrix([[1.0, 0.0], [-1.0, 0.0]])
        out = project(V, LabelSet.from_iterable([0, 1]), normalize=False)
        assert out.tolist() == [0.0, 0.0]

    def test_label_out_of_range(self):
        ds = dataset_from_label_sets([[5]], 6)
        with pytest.raises(ValidationError):
            project_targets(matrix([[1.0, 0.0]]), ds)

    def test_order_invariant(self):
        rng = np.random.default_rng(0)
        V = EmbeddingMatrix(values=rng.standard_normal((8, 10)))
        a = project(V, LabelSet.from_iterable([7, 2, 4]))
        b = project(V, LabelSet.from_iterable([4, 7, 2]))
        assert np.array_equal(a, b)

    def test_unit_norm_property(self):
        rng = np.random.default_rng(1)
        V = EmbeddingMatrix(values=rng.standard_normal((6, 12)))
        for _ in range(100):
            size = int(rng.integers(1, 5))
            labels = LabelSet.from_iterable(rng.choice(12, size=size, replace=False).tolist())
            out = project(V, labels)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-9

    def test_mean_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        V = EmbeddingMatrix(values=rng.standard_normal((5, 9)))
        labels = LabelSet.from_iterable([1, 3, 8])
        raw = project(V, labels, normalize=False)
        manual = sum(V.values[:, j] for j in [1, 3, 8]) / 3
        assert np.allclose(raw, manual, atol=1e-15)


class TestProjectTargets:
    def test_skips_unlabeled_with_count(self):
        rng = np.random.default_rng(3)
        ds = random_dataset(rng, n=30, allow_unlabeled=True)
        V = EmbeddingMatrix(values=rng.standard_normal((4, ds.num_labels)))
        targets, ids, skipped = project_targets(V, ds)
        unlabeled = sum(1 for _, ls in ds.points if len(ls) == 0)
        assert skipped == unlabeled
        assert targets.shape == (ds.num_points - unlabeled, 4)
        assert all(len(ds.points[i][1]) > 0 for i in ids)

    def test_targets_align_with_points(self):
        rng = np.random.default_rng(4)
        ds = random_dataset(rng, n=20)
        V = EmbeddingMatrix(values=rng.standard_normal((4, ds.num_labels)))
        targets, ids, _ = project_targets(V, ds)
        for row, i in zip(targets, ids):
            assert np.array_equal(row, project_label_vector(V, ds.points[i][1]))


class TestProjectTargetsBitwise:
    """The grouped gather must reproduce project_label_vector bit for bit."""

    @pytest.mark.parametrize("dim", [1, 7, 100])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_per_point(self, dim, normalize):
        rng = np.random.default_rng(dim)
        # Up to 20 labels a point: numpy's pairwise sum switches at 8 terms.
        ds = random_dataset(rng, n=120, L=24, max_labels=20, allow_unlabeled=True)
        V = EmbeddingMatrix(values=rng.standard_normal((dim, ds.num_labels)) * 10.0)
        targets, rows, skipped = project_targets(V, ds, normalize=normalize)
        want_rows = [i for i, (_, ls) in enumerate(ds.points) if len(ls)]
        assert rows.tolist() == want_rows and skipped == ds.num_points - len(want_rows)
        for row, i in zip(targets, want_rows):
            want = project_label_vector(V, ds.points[i][1], normalize=normalize)
            assert row.tobytes() == want.tobytes()

    def test_blocks_of_the_gather(self, monkeypatch):
        rng = np.random.default_rng(5)
        ds = random_dataset(rng, n=40, L=10, max_labels=6)
        V = EmbeddingMatrix(values=rng.standard_normal((3, ds.num_labels)))
        whole = project_targets(V, ds)[0]
        monkeypatch.setattr(label_projection, "_GATHER_FLOATS", 1)
        assert project_targets(V, ds)[0].tobytes() == whole.tobytes()

    def test_degenerate_and_out_of_range(self):
        V = matrix([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        ds = dataset_from_label_sets([[2], [0, 1]], 3)
        with pytest.raises(DegenerateTargetError):
            project_targets(V, ds)
        assert project_targets(V, ds, normalize=False)[0][1].tolist() == [0.0, 0.0]
        with pytest.raises(ValidationError):
            project_targets(matrix([[1.0, 0.0]]), ds)
