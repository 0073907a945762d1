"""Binary model file round-trips and corruption handling."""

import hashlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from dxml import (
    ClusterIndex,
    LabelSet,
    MlpModel,
    ModelArtifacts,
    ModelFileError,
    load_model,
    predict_batch,
    save_model,
)
from dxml.cli import _write_predictions
from dxml.model_io import _READ_CHUNK, FORMAT_VERSION, MAGIC

from conftest import rows_of, sparse


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
    )
    labels = [LabelSet.from_iterable(rng.choice(9, size=rng.integers(0, 4), replace=False)) for _ in range(n)]
    return ModelArtifacts(
        label_embeddings=f32(3, 9),
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
        assert np.array_equal(loaded.label_embeddings, arts.label_embeddings)
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
        assert float(loaded.mlp.W1[0, 0]) == float(np.float32(0.1))
        assert float(loaded.mlp.W1[0, 0]) != 0.1
        assert loaded.mlp.W1.dtype == np.float32

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

    def test_load_holds_no_copy_of_the_file(self, tmp_path):
        arts = toy_artifacts(6, n=40)
        rng = np.random.default_rng(6)
        arts.mlp.W1 = rng.standard_normal((20000, 4)).astype(np.float32).astype(np.float64)
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [
            loaded.label_embeddings, loaded.mlp.W1, loaded.mlp.b1, loaded.mlp.W2,
            loaded.mlp.b2, loaded.clusters.centers, loaded.clusters.assignments,
            loaded.train_embeds, loaded.train_labels[0].ids.base,
        ]
        # A file buffer or a float64 copy of W1 would add at least 320 KB.
        assert peak < sum(a.nbytes for a in arrays) + _READ_CHUNK
        for a in arrays + [ls.ids for ls in loaded.train_labels]:
            while a.base is not None:
                a = a.base
            assert isinstance(a, np.ndarray), "an array is a view of a file buffer"

    def test_save_holds_no_copy_of_a_float32_w1(self, tmp_path):
        # Training hands over W1 in float32, the stored precision: it is
        # written as it is.
        arts = toy_artifacts(6, n=40)
        arts.mlp.W1 = np.random.default_rng(6).standard_normal((20000, 4)).astype(np.float32)
        path = str(tmp_path / "model.dxml")
        tracemalloc.start()
        try:
            save_model(arts, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < arts.mlp.W1.nbytes / 2
        assert load_model(path).mlp.W1.tobytes() == arts.mlp.W1.tobytes()

    def test_large_arrays_stay_float32(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(8), path)
        loaded = load_model(path)
        assert loaded.mlp.W1.dtype == np.float32 and loaded.mlp.W1.flags.writeable
        assert loaded.label_embeddings.dtype == np.float32
        assert loaded.train_embeds.dtype == np.float32
        assert not loaded.train_embeds.flags.writeable
        for small in (loaded.mlp.b1, loaded.mlp.W2, loaded.mlp.b2, loaded.clusters.centers):
            assert small.dtype == np.float64

    def test_train_embeds_load_read_only(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(7), path)
        loaded = load_model(path)
        with pytest.raises(ValueError):
            loaded.train_embeds[0, 0] = 1.0
        assert loaded.mlp.W1.flags.writeable

    def test_train_keys_of_0_2_load_and_predict_the_same(self, tmp_path):
        # Version 0.2.0 wrote two more keys in the header's train object.
        train = {"learning_rate": 0.015, "epochs": 3, "rng_seed": 5}
        rng = np.random.default_rng(9)
        points = rows_of([sparse(zip(range(5), rng.standard_normal(5))) for _ in range(4)])
        seen = []
        for old_keys in ({}, {"loss_mode": "mean", "use_bias": True}):
            arts = toy_artifacts(9)
            arts.meta["train"] = {**train, **old_keys}
            path = str(tmp_path / f"model-{len(old_keys)}.dxml")
            save_model(arts, path)
            loaded = load_model(path)
            assert loaded.meta["train"] == {**train, **old_keys}
            out = io.StringIO()
            _write_predictions(predict_batch(
                loaded.mlp, loaded.clusters, loaded.train_embeds, loaded.train_labels, points,
                k=3, weighting="inverse_distance",
            ), out)
            arrays = (loaded.label_embeddings, loaded.mlp.W1, loaded.mlp.b1,
                      loaded.mlp.W2, loaded.mlp.b2, loaded.clusters.centers, loaded.train_embeds)
            seen.append(([a.tobytes() for a in arrays], out.getvalue()))
        assert seen[0] == seen[1] and seen[0][1]

    def test_single_cluster_single_point(self, tmp_path):
        arts = toy_artifacts(4, n=1, m=1)
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        loaded = load_model(path)
        assert loaded.clusters.num_clusters == 1
        assert loaded.train_embeds.shape == (1, 3)


def write_payload(path, payload, digest=None):
    """A model file around ``payload``, with its true checksum unless ``digest`` is given."""
    digest = hashlib.sha256(payload).digest() if digest is None else digest
    with open(path, "wb") as fh:
        fh.write(MAGIC + struct.pack("<IQ", FORMAT_VERSION, len(payload)) + bytes(payload) + digest)


class TestWithoutLabelVectors:
    """``load_model(path, label_vectors=False)``: what prediction reads, and the same checks."""

    def saved(self, tmp_path, arts=None):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(5) if arts is None else arts, path)
        return path

    def test_everything_but_the_label_vectors(self, tmp_path):
        path = self.saved(tmp_path)
        full, lean = load_model(path), load_model(path, label_vectors=False)
        assert lean.label_embeddings is None
        assert lean.meta["dims"]["num_labels"] == full.label_embeddings.shape[1] == 9
        lean.label_embeddings = full.label_embeddings
        assert lean == full
        assert not lean.train_embeds.flags.writeable

    def test_holds_no_label_vector_array(self, tmp_path):
        arts = toy_artifacts(6, n=40)
        vectors = np.random.default_rng(6).standard_normal((3, 40000)).astype(np.float32)
        arts.label_embeddings = vectors  # 480 KB stored
        path = self.saved(tmp_path, arts)
        tracemalloc.start()
        try:
            loaded = load_model(path, label_vectors=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [
            loaded.mlp.W1, loaded.mlp.b1, loaded.mlp.W2, loaded.mlp.b2, loaded.clusters.centers,
            loaded.clusters.assignments, loaded.train_embeds, loaded.train_labels[0].ids.base,
        ]
        assert peak < sum(a.nbytes for a in arrays) + 2 * _READ_CHUNK < vectors.nbytes / 2

    @pytest.mark.parametrize("label_vectors", [True, False])
    def test_flipped_label_vector_byte_is_a_checksum_mismatch(self, tmp_path, label_vectors):
        path = self.saved(tmp_path)
        with open(path, "rb") as fh:
            payload = bytearray(fh.read())[16:-32]
        digest = hashlib.sha256(payload).digest()
        payload[4 + struct.unpack_from("<I", payload, 0)[0] + 7] ^= 0x01  # inside 3 x 9 float32
        write_payload(path, payload, digest)
        with pytest.raises(ModelFileError, match="checksum mismatch"):
            load_model(path, label_vectors=label_vectors)

    @pytest.mark.parametrize("valid_checksum", [True, False])
    def test_payload_cut_inside_the_label_vectors(self, tmp_path, valid_checksum):
        path = self.saved(tmp_path)
        with open(path, "rb") as fh:
            payload = fh.read()[16:-32]
        cut = payload[: 4 + struct.unpack_from("<I", payload, 0)[0] + 50]  # 108 bytes stored
        write_payload(path, cut, None if valid_checksum else b"\0" * 32)
        match = "ends inside array label_embeddings" if valid_checksum else "checksum mismatch"
        with pytest.raises(ModelFileError, match=match):
            load_model(path, label_vectors=False)

    def test_truncated_file(self, tmp_path):
        path = self.saved(tmp_path)
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        with pytest.raises(ModelFileError, match="checksum"):
            load_model(path, label_vectors=False)

    def test_save_refuses_artifacts_without_label_vectors(self, tmp_path):
        lean = load_model(self.saved(tmp_path), label_vectors=False)
        out = tmp_path / "resaved.dxml"
        with pytest.raises(ModelFileError, match="without its label vectors"):
            save_model(lean, str(out))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.dxml"]


class TestCorruption:
    def saved(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(5), path)
        with open(path, "rb") as fh:
            return path, bytearray(fh.read())

    def payload(self, tmp_path):
        path, blob = self.saved(tmp_path)
        return path, blob[16:-32]

    def header_end(self, payload):
        return 4 + struct.unpack_from("<I", payload, 0)[0]

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

    def test_malformed_header_with_valid_checksum(self, tmp_path):
        path, blob = self.saved(tmp_path)
        blob[20] = 0xFF  # first header byte: not UTF-8
        blob[-32:] = hashlib.sha256(blob[16:-32]).digest()
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ModelFileError, match="malformed header"):
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
        with pytest.raises(ModelFileError, match="5 trailing bytes"):
            load_model(path)

    @pytest.mark.parametrize("where", ["W1", "label table"])
    def test_flipped_array_byte_is_a_checksum_mismatch(self, tmp_path, where):
        path, payload = self.payload(tmp_path)
        digest = hashlib.sha256(payload).digest()
        pos = self.header_end(payload) + 3 * 9 * 4 + 5 if where == "W1" else len(payload) - 1
        payload[pos] ^= 0x01  # the payload still parses
        write_payload(path, payload, digest)
        with pytest.raises(ModelFileError, match="checksum mismatch"):
            load_model(path)

    def test_header_that_is_not_an_object(self, tmp_path):
        path, payload = self.payload(tmp_path)
        header = b"[1, 2]"
        rest = payload[self.header_end(payload) :]
        write_payload(path, struct.pack("<I", len(header)) + header + rest)
        with pytest.raises(ModelFileError, match="missing integer dims"):
            load_model(path)

    @pytest.mark.parametrize("valid_checksum", [True, False])
    def test_payload_cut_inside_an_array(self, tmp_path, valid_checksum):
        path, payload = self.payload(tmp_path)
        # The 3 x 9 float32 label embeddings, then part of W1.
        cut = payload[: self.header_end(payload) + 3 * 9 * 4 + 6]
        write_payload(path, cut, None if valid_checksum else b"\0" * 32)
        match = "payload ends inside array W1" if valid_checksum else "checksum mismatch"
        with pytest.raises(ModelFileError, match=match):
            load_model(path)

    def test_assignment_outside_the_clusters(self, tmp_path):
        arts = toy_artifacts(5, n=6, m=2)
        arts.clusters.assignments[4] = 2  # a third cluster the model does not have
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        with pytest.raises(ModelFileError, match="assignment outside cluster range"):
            load_model(path)

    @pytest.mark.parametrize("ids, match", [
        ([9], "index out of range"),  # num_labels is 9
        ([-3], "index out of range"),  # stored as u4 4294967293, read back as int32 -3
        ([-(2**31)], "index out of range"),  # u4 2**31
        ([5, 2], "indices not strictly increasing"),
        ([4, 4], "indices not strictly increasing"),
    ])
    @pytest.mark.parametrize("label_vectors", [True, False])
    def test_bad_training_label_ids(self, tmp_path, ids, match, label_vectors):
        arts = toy_artifacts(5)
        arts.train_labels[3] = LabelSet(np.array(ids, dtype=np.int32))
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)  # the checksum holds
        with pytest.raises(ModelFileError, match=f"training label {match}"):
            load_model(path, label_vectors=label_vectors)

    @pytest.mark.parametrize("label_vectors", [True, False])
    def test_model_without_clusters(self, tmp_path, label_vectors):
        arts = toy_artifacts(5)
        arts.clusters = ClusterIndex(centers=np.empty((0, 3)), assignments=np.empty(0, np.int64))
        arts.train_embeds, arts.train_labels = np.empty((0, 3)), []
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)  # the checksum holds
        with pytest.raises(ModelFileError, match="model has no clusters"):
            load_model(path, label_vectors=label_vectors)

    def test_label_table_disagreeing_with_payload(self, tmp_path):
        path, payload = self.payload(tmp_path)
        write_payload(path, payload + b"\0\0\0\0")
        with pytest.raises(ModelFileError, match="disagrees with label table"):
            load_model(path)

    def test_malformed_payload_is_hashed_in_bounded_chunks(self, tmp_path):
        arts = toy_artifacts(10)
        arts.mlp.W1 = np.zeros((20000, 4))
        path = str(tmp_path / "model.dxml")
        save_model(arts, path)
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        blob[20] = 0xFF  # first header byte: not UTF-8
        write_payload(path, blob[16:-32])
        tracemalloc.start()
        try:
            with pytest.raises(ModelFileError, match="malformed header"):
                load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * _READ_CHUNK  # the payload is 320 KB

    def test_magic_constant(self):
        assert MAGIC == b"DXML" and FORMAT_VERSION == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "model.dxml")
        save_model(toy_artifacts(6), path)
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "model.dxml"]
        assert leftovers == []
