"""Binary model persistence.

Layout: the magic bytes ``DXML``, a little-endian u32 format version, a u64
payload length, the payload, and a trailing sha256 of the payload.  The
payload is a canonical JSON header (the array dims plus the caller's
``meta``, such as the seeds, configs and counts ``dxml train`` records)
followed by raw little-endian arrays in a fixed order.  Floats are stored as
32-bit, which keeps desk-scale models at a few megabytes.

Loading streams the file into one buffer per array, so its peak memory is
the returned arrays plus one read chunk.  ``W1``, the label embeddings and
``train_embeds``, which grow with d, L and n, stay float32 as stored; the
code that reads them widens the rows it uses, which is exact.  The small
``b1``, ``W2``, ``b2`` and ``centers`` are widened to float64 on load.
Prediction never reads the label embeddings, so ``load_model(path,
label_vectors=False)`` hashes their block without keeping it.  ``dxml
train`` stores the training points grouped by cluster (see ``cli``), so
each cluster's rows are one contiguous block of ``train_embeds``.  Save ->
load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Any, BinaryIO

import numpy as np

from .cluster import ClusterIndex
from .data_io import LabelSet
from .errors import ModelFileError
from .graph_embed import EmbeddingMatrix
from .net import MlpModel

__all__ = ["ModelArtifacts", "save_model", "load_model", "MAGIC", "FORMAT_VERSION"]

MAGIC = b"DXML"
FORMAT_VERSION = 1
_HASH_BYTES = 32
_READ_CHUNK = 1 << 16  # bytes per read while the rest of a malformed payload is hashed


@dataclass(eq=False)
class ModelArtifacts:
    """A trained model: label vectors, network, cluster index, training points.

    Prediction reads the network, the index, ``train_embeds`` and
    ``train_labels``; ``label_embeddings`` is None when the model was
    loaded without its label vectors, and such artifacts cannot be saved.
    """

    label_embeddings: EmbeddingMatrix | None
    mlp: MlpModel
    clusters: ClusterIndex
    train_embeds: np.ndarray
    train_labels: list[LabelSet]
    meta: dict[str, Any]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelArtifacts):
            return NotImplemented
        return (
            self.label_embeddings == other.label_embeddings
            and self.mlp == other.mlp
            and self.clusters == other.clusters
            and np.array_equal(self.train_embeds, other.train_embeds)
            and self.train_labels == other.train_labels
            and self.meta == other.meta
        )


def _array_specs(dims: dict[str, int]) -> list[tuple[str, str, tuple[int, ...]]]:
    """(name, dtype, shape) for every fixed-order payload array."""
    d, H, el, L = dims["num_features"], dims["hidden"], dims["embed_dim"], dims["num_labels"]
    m, n = dims["num_clusters"], dims["num_train"]
    return [
        ("label_embeddings", "<f4", (el, L)),
        ("W1", "<f4", (d, H)),
        ("b1", "<f4", (H,)),
        ("W2", "<f4", (H, el)),
        ("b2", "<f4", (el,)),
        ("centers", "<f4", (m, el)),
        ("assignments", "<u4", (n,)),
        ("train_embeds", "<f4", (n, el)),
        ("label_offsets", "<u8", (n + 1,)),
    ]


def _payload_parts(artifacts: ModelArtifacts) -> list:
    """The payload as buffers in file order: header length, header, arrays, label table."""
    if artifacts.label_embeddings is None:
        raise ModelFileError("cannot save a model loaded without its label vectors")
    n = artifacts.train_embeds.shape[0]
    dims = {
        "num_features": artifacts.mlp.input_dim,
        "hidden": artifacts.mlp.hidden_size,
        "embed_dim": artifacts.mlp.output_dim,
        "num_labels": artifacts.label_embeddings.count,
        "num_clusters": artifacts.clusters.num_clusters,
        "num_train": n,
    }
    header = dict(artifacts.meta)
    header["dims"] = dims
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    offsets = np.zeros(n + 1, dtype=np.uint64)
    sizes = np.array([len(ls) for ls in artifacts.train_labels], dtype=np.uint64)
    np.cumsum(sizes, out=offsets[1:])
    flat = (
        np.concatenate([ls.ids for ls in artifacts.train_labels])
        if n and offsets[-1] > 0
        else np.empty(0, dtype=np.int32)
    )

    arrays = {
        "label_embeddings": artifacts.label_embeddings.values,
        "W1": artifacts.mlp.W1,
        "b1": artifacts.mlp.b1,
        "W2": artifacts.mlp.W2,
        "b2": artifacts.mlp.b2,
        "centers": artifacts.clusters.centers,
        "assignments": artifacts.clusters.assignments,
        "train_embeds": artifacts.train_embeds,
        "label_offsets": offsets,
    }
    parts = [struct.pack("<I", len(header_bytes)), header_bytes]
    for name, dtype, shape in _array_specs(dims):
        arr = np.ascontiguousarray(arrays[name], dtype=dtype)
        if arr.shape != shape:
            raise ModelFileError(f"{name} has shape {arr.shape}, expected {shape}")
        parts.append(arr.reshape(-1).view(np.uint8))
    parts.append(np.ascontiguousarray(flat, dtype="<u4").view(np.uint8))
    return parts


def save_model(artifacts: ModelArtifacts, path: str) -> None:
    """Serialize atomically: write a sibling temp file, then rename over ``path``.

    The payload is hashed and written a part at a time, never joined, so
    saving holds no copy of the file, and a float32 copy only of the arrays
    that are not float32 already: a trained W1 is written as it is.
    """
    parts = _payload_parts(artifacts)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    payload_len = sum(len(part) for part in parts)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC + struct.pack("<I", FORMAT_VERSION) + struct.pack("<Q", payload_len))
            fh.writelines(parts)
            fh.write(digest.digest())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_model(path: str, *, label_vectors: bool = True) -> ModelArtifacts:
    """Read and verify a model file; raises ModelFileError on any corruption.

    The file is streamed: each stored array is read straight into its own
    buffer and hashed on the way, so no copy of the file is ever held.
    With ``label_vectors=False`` the dim x L label-vector block is hashed a
    bounded chunk at a time and not kept, and ``label_embeddings`` is None:
    prediction does not read it, and the checksum still covers it.
    ``W1``, the label embeddings and ``train_embeds`` stay float32, as stored;
    the small ``b1``, ``W2``, ``b2`` and ``centers`` are widened to float64.
    ``train_embeds`` comes back read-only: the predictor caches data derived
    from it (see ``predictor``), so an in-place write would make the two
    disagree.  A payload that does not parse is hashed to its end before the
    error is chosen, so a corrupt file reports a checksum mismatch, and only a
    file whose checksum holds reports what is structurally wrong with it.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < 16 + _HASH_BYTES:
            raise ModelFileError("model file truncated: checksum cannot be verified")
        prefix = fh.read(16)
        if prefix[:4] != MAGIC:
            raise ModelFileError(f"bad magic bytes {prefix[:4]!r}, not a model file")
        version, payload_len = struct.unpack_from("<IQ", prefix, 4)
        if version != FORMAT_VERSION:
            raise ModelFileError(
                f"unsupported model format version {version}, this build reads {FORMAT_VERSION}"
            )
        expected_total = 16 + payload_len + _HASH_BYTES
        if size < expected_total:
            raise ModelFileError(
                f"model file truncated: checksum over {payload_len} payload bytes "
                f"cannot be verified ({size} of {expected_total} bytes present)"
            )
        if size > expected_total:
            raise ModelFileError(
                f"model file has {size - expected_total} trailing bytes after its checksum "
                f"({size} bytes, expected {expected_total})"
            )
        reader = _PayloadReader(fh, payload_len)
        try:
            parsed = _read_payload(reader, label_vectors)
        except ModelFileError:
            reader.skip_rest()
            reader.verify()  # a corrupt file reports the checksum, not the symptom
            raise
        reader.verify()
    return _artifacts(*parsed)


class _PayloadReader:
    """Reads a payload of known length from ``fh``, hashing every byte it reads."""

    def __init__(self, fh: BinaryIO, length: int) -> None:
        self.fh = fh
        self.left = length
        self.digest = hashlib.sha256()

    def _fill(self, buf: memoryview | bytearray | np.ndarray) -> None:
        """Read ``len(buf)`` payload bytes into ``buf`` and hash them."""
        view = memoryview(buf).cast("B")
        got = 0
        while got < len(view):
            n = self.fh.readinto(view[got:])
            if not n:
                raise ModelFileError("model file truncated while it was read")
            got += n
        self.digest.update(view)
        self.left -= len(view)

    def read_bytes(self, nbytes: int, overrun: str) -> bytearray:
        """The next ``nbytes`` of the payload; ``overrun`` is the error if fewer are left."""
        if nbytes > self.left:
            raise ModelFileError(overrun)
        buf = bytearray(nbytes)
        self._fill(buf)
        return buf

    def read_array(self, dtype: str, shape: tuple[int, ...], overrun: str) -> np.ndarray:
        """The next array of the payload, in a buffer of its own."""
        if math.prod(shape) * np.dtype(dtype).itemsize > self.left:
            raise ModelFileError(overrun)
        arr = np.empty(shape, dtype=dtype)
        self._fill(arr.reshape(-1).view(np.uint8))
        return arr

    def skip(self, nbytes: int, overrun: str) -> None:
        """Hash the next ``nbytes`` of the payload a bounded chunk at a time, keeping none."""
        if nbytes > self.left:
            raise ModelFileError(overrun)
        chunk = bytearray(min(_READ_CHUNK, nbytes))
        while nbytes:
            step = min(len(chunk), nbytes)
            self._fill(memoryview(chunk)[:step])
            nbytes -= step

    def skip_rest(self) -> None:
        """Hash what is left of the payload, a bounded chunk at a time."""
        self.skip(self.left, "")

    def verify(self) -> None:
        """Compare the stored checksum with the hash of the whole payload."""
        if self.fh.read(_HASH_BYTES) != self.digest.digest():
            raise ModelFileError("checksum mismatch: model file is corrupt")


def _read_payload(
    reader: _PayloadReader, label_vectors: bool
) -> tuple[dict, dict[str, np.ndarray], np.ndarray]:
    """The header, the fixed-order arrays and the label table, as stored.

    Without ``label_vectors`` the label-vector block is hashed, not kept.
    """
    (header_len,) = struct.unpack("<I", reader.read_bytes(4, "payload too short for header"))
    header_bytes = reader.read_bytes(header_len, "declared header overruns payload")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"malformed header: {exc}") from None
    dims = header.get("dims") if isinstance(header, dict) else None
    required = ("num_features", "hidden", "embed_dim", "num_labels", "num_clusters", "num_train")
    if not isinstance(dims, dict) or any(
        not isinstance(dims.get(key), int) or dims.get(key) < 0 for key in required
    ):
        raise ModelFileError("header is missing integer dims")

    raw = {}
    for name, dtype, shape in _array_specs(dims):
        overrun = f"payload ends inside array {name}"
        if name == "label_embeddings" and not label_vectors:
            reader.skip(math.prod(shape) * np.dtype(dtype).itemsize, overrun)
        else:
            raw[name] = reader.read_array(dtype, shape, overrun)
    offsets = raw["label_offsets"].astype(np.int64)
    if offsets[0] != 0 or np.any(np.diff(offsets) < 0):
        raise ModelFileError("label offsets are not monotone from zero")
    total_labels = int(offsets[-1])
    if total_labels * 4 != reader.left:
        raise ModelFileError("payload size disagrees with label table")
    # Stored as u4 and read as int32: the values ``.astype(np.int32)`` of the u4 ids would give.
    flat = reader.read_array("<i4", (total_labels,), "payload size disagrees with label table")
    raw["label_offsets"] = offsets
    return header, raw, flat


def _artifacts(header: dict, raw: dict[str, np.ndarray], flat: np.ndarray) -> ModelArtifacts:
    """Artifacts from a verified payload, built on the arrays as read."""
    dims = header["dims"]
    offs = raw["label_offsets"].tolist()
    labels = [LabelSet(flat[a:b]) for a, b in zip(offs, offs[1:])]
    assignments = raw["assignments"].astype(np.int64)
    m = dims["num_clusters"]
    if assignments.size and (assignments.min() < 0 or assignments.max() >= m):
        raise ModelFileError("assignment outside cluster range")
    meta = {key: value for key, value in header.items() if key != "dims"}
    meta["dims"] = dims
    train_embeds = raw["train_embeds"]
    train_embeds.flags.writeable = False
    vectors = raw.get("label_embeddings")
    return ModelArtifacts(
        label_embeddings=None if vectors is None else EmbeddingMatrix(values=vectors),
        mlp=MlpModel(
            W1=raw["W1"],
            b1=raw["b1"].astype(np.float64),
            W2=raw["W2"].astype(np.float64),
            b2=raw["b2"].astype(np.float64),
        ),
        clusters=ClusterIndex(
            centers=raw["centers"].astype(np.float64),
            assignments=assignments,
        ),
        train_embeds=train_embeds,
        train_labels=labels,
        meta=meta,
    )
