"""Binary model persistence.

Layout: the magic bytes ``DXML``, a little-endian u32 format version, a u64
payload length, the payload, and a trailing sha256 of the payload.  The
payload is a canonical JSON header (dims, configs, seeds, thread count)
followed by raw little-endian arrays in a fixed order.  Floats are stored as
32-bit, which keeps desk-scale models at a few megabytes; loading upcasts to
float64, so save -> load -> save reproduces the file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import tempfile
from dataclasses import dataclass
from typing import Any

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


@dataclass(eq=False)
class ModelArtifacts:
    """Everything prediction needs: embeddings, network, index, label sets."""

    label_embeddings: EmbeddingMatrix
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
    saving holds one float32 copy of the arrays and no copy of the file.
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


def load_model(path: str) -> ModelArtifacts:
    """Read and verify a model file; raises ModelFileError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 4 + 8 + _HASH_BYTES:
        raise ModelFileError("model file truncated: checksum cannot be verified")
    if blob[:4] != MAGIC:
        raise ModelFileError(f"bad magic bytes {blob[:4]!r}, not a model file")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FORMAT_VERSION:
        raise ModelFileError(
            f"unsupported model format version {version}, this build reads {FORMAT_VERSION}"
        )
    (payload_len,) = struct.unpack_from("<Q", blob, 8)
    expected_total = 16 + payload_len + _HASH_BYTES
    if len(blob) != expected_total:
        raise ModelFileError(
            f"model file truncated: checksum over {payload_len} payload bytes "
            f"cannot be verified ({len(blob)} of {expected_total} bytes present)"
        )
    payload = blob[16 : 16 + payload_len]
    digest = blob[16 + payload_len :]
    if hashlib.sha256(payload).digest() != digest:
        raise ModelFileError("checksum mismatch: model file is corrupt")
    return _parse_payload(payload)


def _parse_payload(payload: bytes) -> ModelArtifacts:
    if len(payload) < 4:
        raise ModelFileError("payload too short for header")
    (header_len,) = struct.unpack_from("<I", payload, 0)
    if 4 + header_len > len(payload):
        raise ModelFileError("declared header overruns payload")
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFileError(f"malformed header: {exc}") from None
    dims = header.get("dims")
    required = ("num_features", "hidden", "embed_dim", "num_labels", "num_clusters", "num_train")
    if not isinstance(dims, dict) or any(
        not isinstance(dims.get(key), int) or dims.get(key) < 0 for key in required
    ):
        raise ModelFileError("header is missing integer dims")

    pos = 4 + header_len
    raw: dict[str, np.ndarray] = {}
    for name, dtype, shape in _array_specs(dims):
        count = int(np.prod(shape, dtype=np.int64))
        nbytes = count * np.dtype(dtype).itemsize
        if pos + nbytes > len(payload):
            raise ModelFileError(f"payload ends inside array {name}")
        raw[name] = np.frombuffer(payload, dtype=dtype, count=count, offset=pos).reshape(shape)
        pos += nbytes
    offsets = raw["label_offsets"].astype(np.int64)
    if offsets.size and (offsets[0] != 0 or np.any(np.diff(offsets) < 0)):
        raise ModelFileError("label offsets are not monotone from zero")
    total_labels = int(offsets[-1]) if offsets.size else 0
    nbytes = total_labels * 4
    if pos + nbytes != len(payload):
        raise ModelFileError("payload size disagrees with label table")
    flat = np.frombuffer(payload, dtype="<u4", count=total_labels, offset=pos).astype(np.int32)

    offs = offsets.tolist()
    labels = [LabelSet(flat[a:b]) for a, b in zip(offs, offs[1:])]
    assignments = raw["assignments"].astype(np.int64)
    m = dims["num_clusters"]
    if assignments.size and (assignments.min() < 0 or assignments.max() >= m):
        raise ModelFileError("assignment outside cluster range")
    members = [np.flatnonzero(assignments == c) for c in range(m)]
    meta = {key: value for key, value in header.items() if key != "dims"}
    meta["dims"] = dims
    return ModelArtifacts(
        label_embeddings=EmbeddingMatrix(values=raw["label_embeddings"].astype(np.float64)),
        mlp=MlpModel(
            W1=raw["W1"].astype(np.float64),
            b1=raw["b1"].astype(np.float64),
            W2=raw["W2"].astype(np.float64),
            b2=raw["b2"].astype(np.float64),
        ),
        clusters=ClusterIndex(
            centers=raw["centers"].astype(np.float64),
            assignments=assignments,
            members=members,
        ),
        train_embeds=raw["train_embeds"].astype(np.float64),
        train_labels=labels,
        meta=meta,
    )
