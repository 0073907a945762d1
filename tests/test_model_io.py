"""Binary model file round-trips and corruption handling."""

import struct

import numpy as np
import pytest

from dxml import (
    ClusterIndex,
    LabelSet,
    MlpModel,
    ModelArtifacts,
    ModelFileError,
    load_model,
    save_model,
)
from dxml.graph_embed import EmbeddingMatrix
from dxml.model_io import FORMAT_VERSION, MAGIC


def toy_artifacts(seed=0, n=6, m=2):
    rng = np.random.default_rng(seed)

    def f32(*shape):
        # float32-representable values so save -> load keeps them bit-exact
        return rng.standard_normal(shape).astype(np.float32).astype(np.float64)

    embeds = f32(n, 3)
    assignments = np.arange(n) % m
    clusters = ClusterIndex(
        centers=f32(m, 3),
        assignments=assignments.astype(np.int64),
        members=[np.flatnonzero(assignments == c) for c in range(m)],
    )
    labels = [LabelSet.from_iterable(rng.choice(9, size=rng.integers(0, 4), replace=False)) for _ in range(n)]
    return ModelArtifacts(
        label_embeddings=EmbeddingMatrix(values=f32(3, 9)),
        mlp=MlpModel(W1=f32(5, 4), b1=f32(4), W2=f32(4, 3), b2=f32(3)),
        clusters=clusters,
        train_embeds=embeds,
        train_labels=labels,
        meta={"scale": "small", "seed": 7, "threads": 1},
    )


class TestRoundTrip:
    def test_load_returns_equal_artifacts(self, tmp_path):
        arts = toy_artifacts()
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        loaded = load_model(path)
        assert loaded.label_embeddings == arts.label_embeddings
        assert loaded.mlp == arts.mlp
        assert loaded.clusters == arts.clusters
        assert np.array_equal(loaded.train_embeds, arts.train_embeds)
        assert loaded.train_labels == arts.train_labels
        for key, value in arts.meta.items():
            assert loaded.meta[key] == value

    def test_save_load_save_byte_identical(self, tmp_path):
        arts = toy_artifacts(1)
        first = str(tmp_path / "a.dxml")
        second = str(tmp_path / "b.dxml")
        save_model(arts, first)
        save_model(load_model(first), second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_float64_values_quantized_to_f32(self, tmp_path):
        arts = toy_artifacts(2)
        arts.mlp.W1[0, 0] = 0.1  # not representable in float32
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        loaded = load_model(path)
        assert loaded.mlp.W1[0, 0] == float(np.float32(0.1))
        assert loaded.mlp.W1[0, 0] != 0.1
        assert loaded.mlp.W1.dtype == np.float64

    def test_unlabeled_training_points_round_trip(self, tmp_path):
        arts = toy_artifacts(3)
        arts.train_labels = [LabelSet.empty() for _ in arts.train_labels]
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        assert all(len(ls) == 0 for ls in load_model(path).train_labels)

    def test_label_sets_are_int32_views_of_one_table(self, tmp_path):
        arts = toy_artifacts(5, n=7)
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        labels = load_model(path).train_labels
        assert labels == arts.train_labels
        table = labels[0].ids.base
        assert table is not None and table.dtype == np.int32
        assert all(ls.ids.base is table and ls.ids.dtype == np.int32 for ls in labels)

    def test_single_cluster_single_point(self, tmp_path):
        arts = toy_artifacts(4, n=1, m=1)
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        loaded = load_model(path)
        assert loaded.clusters.num_clusters == 1
        assert loaded.train_embeds.shape == (1, 3)


class TestCorruption:
    def saved(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(5), path)
        with open(path, "rb") as fh:
            return path, bytearray(fh.read())

    def test_truncated_file(self, tmp_path):
        path, blob = self.saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path)

    def test_tiny_file(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        with open(path, "wb") as fh:
            fh.write(b"DX")
        with pytest.raises(ModelFileError, match="truncated"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path, blob = self.saved(tmp_path)
        blob[:4] = b"ZZZZ"
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ModelFileError, match="magic"):
            load_model(path)

    def test_flipped_payload_byte(self, tmp_path):
        path, blob = self.saved(tmp_path)
        blob[60] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ModelFileError, match="checksum mismatch"):
            load_model(path)

    def test_future_version_rejected(self, tmp_path):
        path, blob = self.saved(tmp_path)
        struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ModelFileError, match="unsupported"):
            load_model(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path, blob = self.saved(tmp_path)
        with open(path, "wb") as fh:
            fh.write(bytes(blob) + b"extra")
        with pytest.raises(ModelFileError):
            load_model(path)

    def test_magic_constant(self):
        assert MAGIC == b"DXML" and FORMAT_VERSION == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(6), path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "model.dxml"]
        assert leftovers == []
