"""Byte formats for graphs, features, labels, splits, partitions, and
model weights.

Every format is little-endian: a 4-byte magic, a fixed header, then the
arrays. ``_write`` writes every artifact and ``_open`` opens every one: it
checks the magic, unpacks the header and, for the versioned formats alone
(graph, splits, weights), checks the version. Loaders validate structure,
reject trailing bytes, and report the byte offset of the first offending
record on truncated or malformed input. Splits (version 2) hold the
val/test positives and their negatives only; the training edges live in
the ``.train.graph`` that ``tma split`` writes beside them. The weight
checkpoint is both a file (``tma train --save-weights``) and the payload
of the TCP transport's weight frames, so its parser takes bytes as well
as paths; either way a malformed checkpoint raises ``ParseError``.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from .graph import EdgeSplits, Graph, GraphError, NodeLabels
from .nn import ModelConfig, ModelWeights
from .partition import Partition

GRAPH_MAGIC = b"TMAG"
FEATURES_MAGIC = b"TMAF"
LABELS_MAGIC = b"TMAL"
SPLITS_MAGIC = b"TMAS"
PARTITION_MAGIC = b"TMAP"
WEIGHTS_MAGIC = b"TMAW"
FORMAT_VERSION = 1
SPLITS_VERSION = 2  # version 1 also held a copy of the training edges
_WEIGHTS_HEADER = "<H16sI"  # version, fingerprint digest, tensor count


class ParseError(GraphError):
    pass


class _Reader:
    """Bounded reads over one artifact's bytes; ``source`` names it in errors."""

    def __init__(self, data: bytes, source):
        self.view = memoryview(data)
        self.off = 0
        self.source = source

    def take(self, n: int, what: str) -> memoryview:
        if self.off + n > len(self.view):
            raise ParseError(f"{self.source}: truncated at byte {self.off} while reading {what}")
        chunk = self.view[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        return np.frombuffer(self.take(np.dtype(dtype).itemsize * count, what), dtype=dtype)

    def expect_end(self):
        if self.off != len(self.view):
            raise ParseError(f"{self.source}: {len(self.view) - self.off} trailing bytes at {self.off}")


def _write(path, magic: bytes, header: bytes, *parts) -> None:
    """Write one artifact: ``magic``, the packed ``header``, then each part
    (bytes, or a C-contiguous array in its on-disk dtype) in turn."""
    with open(path, "wb") as f:
        for part in (magic, header, *parts):
            f.write(part)


def _open(path, magic: bytes, header_fmt: str, version=None, *, data=None, source=None):
    """The reader past the header of one artifact, and the header fields.

    The bytes are ``data``, or else the file at ``path``; ``source``
    (default ``path``) names the artifact in errors. A versioned format's
    first field must equal ``version`` and is dropped from the fields.
    """
    if data is None:
        with open(path, "rb") as f:
            data = f.read()
    r = _Reader(data, path if source is None else source)
    got = bytes(r.take(4, "magic"))
    if got != magic:
        raise ParseError(f"{r.source}: bad magic {got!r}, expected {magic!r}")
    fields = r.unpack(header_fmt, "header")
    if version is not None and fields[0] != version:
        raise ParseError(f"{r.source}: unsupported version {fields[0]}")
    return r, fields if version is None else fields[1:]


def _reject(path, bad: np.ndarray, what: str) -> None:
    """Raise at the first record that ``bad`` flags, if any."""
    if bad.any():
        raise ParseError(f"{path}: {what} in record {int(np.argmax(bad))}")


# --- graph ("TMAG") -------------------------------------------------------


def save_graph(g: Graph, path) -> None:
    header = struct.pack("<HQQ", FORMAT_VERSION, g.num_nodes, len(g.indices))
    _write(path, GRAPH_MAGIC, header, g.indptr.astype("<u8"), g.indices.astype("<u4"))


def load_graph(path) -> Graph:
    r, (n, nnz) = _open(path, GRAPH_MAGIC, "<HQQ", FORMAT_VERSION)
    indptr = r.array("<u8", n + 1, "offsets").astype(np.int64)
    indices = r.array("<u4", nnz, "neighbors").astype(np.int32)
    r.expect_end()
    g = Graph(indptr=indptr, indices=indices)
    try:
        g.validate()
    except GraphError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return g


# --- features ("TMAF") ----------------------------------------------------


def save_features(x: np.ndarray, path) -> None:
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ParseError("features must be a 2-d matrix with at least one column")
    _write(path, FEATURES_MAGIC, struct.pack("<QI", *x.shape), np.ascontiguousarray(x, "<f4"))


def load_features(path) -> np.ndarray:
    r, (n, dim) = _open(path, FEATURES_MAGIC, "<QI")
    if dim == 0:
        raise ParseError(f"{path}: feature dimension 0")
    x = r.array("<f4", n * dim, "feature rows").reshape(n, dim)
    r.expect_end()
    _reject(path, ~np.isfinite(x).ravel(), "non-finite feature value")
    return x.astype(np.float32)


# --- labels ("TMAL") ------------------------------------------------------


def save_labels(y: NodeLabels, path) -> None:
    header = struct.pack("<QH", len(y.labels), y.num_classes)
    _write(path, LABELS_MAGIC, header, y.labels.astype("<u2"))


def load_labels(path) -> NodeLabels:
    r, (n, k) = _open(path, LABELS_MAGIC, "<QH")
    labels = r.array("<u2", n, "labels").astype(np.int16)
    r.expect_end()
    _reject(path, labels >= k, "label out of range")
    return NodeLabels(labels=labels, num_classes=k)


# --- splits ("TMAS") ------------------------------------------------------


def save_splits(splits: EdgeSplits, path) -> None:
    val, test, neg = splits.val_edges, splits.test_edges, splits.neg_tails
    header = struct.pack("<HQQI", SPLITS_VERSION, len(val), len(test), splits.num_negatives)
    _write(path, SPLITS_MAGIC, header, *(a.astype("<u4") for a in (val, test, neg)))


def load_splits(path) -> EdgeSplits:
    r, (n_val, n_test, k) = _open(path, SPLITS_MAGIC, "<HQQI", SPLITS_VERSION)
    val = r.array("<u4", 2 * n_val, "val edges").reshape(-1, 2).astype(np.int32)
    test = r.array("<u4", 2 * n_test, "test edges").reshape(-1, 2).astype(np.int32)
    # (n_val + n_test, k), not (-1, k): a file with k = 0 negatives is valid
    neg = r.array("<u4", (n_val + n_test) * k, "negatives").reshape(n_val + n_test, k)
    r.expect_end()
    return EdgeSplits(val_edges=val, test_edges=test, neg_tails=neg.astype(np.int32))


# --- partition ("TMAP") ---------------------------------------------------


def save_partition(p: Partition, path) -> None:
    header = struct.pack("<QH", p.num_nodes, p.num_trainers)
    _write(path, PARTITION_MAGIC, header, p.assignment.astype("<u2"))


def load_partition(path) -> Partition:
    r, (n, m) = _open(path, PARTITION_MAGIC, "<QH")
    if m == 0:
        raise ParseError(f"{path}: partition into 0 trainers")
    assignment = r.array("<u2", n, "assignment").astype(np.int32)
    r.expect_end()
    _reject(path, assignment >= m, "trainer id out of range")
    return Partition(assignment=assignment, num_trainers=m)


# --- weight checkpoint ("TMAW") -------------------------------------------


def _fingerprint_digest(fingerprint: str) -> bytes:
    return hashlib.blake2b(fingerprint.encode(), digest_size=16).digest()


def _weights_parts(w: ModelWeights) -> list:
    """The header, then each tensor's name, shape and float32 values."""
    digest = _fingerprint_digest(w.fingerprint)
    parts = [struct.pack(_WEIGHTS_HEADER, FORMAT_VERSION, digest, len(w.tensors))]
    for name, tensor in w.items():
        enc = name.encode()
        parts.append(struct.pack(f"<H{len(enc)}sB{tensor.ndim}Q", len(enc), enc, tensor.ndim, *tensor.shape))
        parts.append(np.ascontiguousarray(tensor, "<f4"))
    return parts


def weights_to_bytes(w: ModelWeights) -> bytes:
    return b"".join([WEIGHTS_MAGIC, *_weights_parts(w)])


def save_weights(w: ModelWeights, path) -> None:
    _write(path, WEIGHTS_MAGIC, *_weights_parts(w))


def weights_from_bytes(data: bytes, cfg: ModelConfig, source="weight checkpoint") -> ModelWeights:
    """Parse a checkpoint of ``cfg``'s model: its fingerprint digest and every
    tensor's name and shape must match the model's. Tensors come back float32,
    as stored, so float32 weights round-trip bit for bit."""
    return _parse_weights(cfg, None, data, source)


def load_weights(path, cfg: ModelConfig) -> ModelWeights:
    return _parse_weights(cfg, path, None, f"weight checkpoint {path}")


def _parse_weights(cfg: ModelConfig, path, data, source) -> ModelWeights:
    r, (digest, count) = _open(path, WEIGHTS_MAGIC, _WEIGHTS_HEADER, FORMAT_VERSION, data=data, source=source)
    fingerprint = cfg.fingerprint()
    if digest != _fingerprint_digest(fingerprint):
        raise ParseError(f"{source}: fingerprint does not match the model config")
    layout = cfg.layout()
    if count != len(layout):
        raise ParseError(f"{source}: {count} tensors, the model has {len(layout)}")
    tensors: dict[str, np.ndarray] = {}
    for want in layout:
        (name_len,) = r.unpack("<H", "name length")
        name = bytes(r.take(name_len, "name")).decode(errors="replace")
        (rank,) = r.unpack("<B", "rank")
        shape = r.unpack(f"<{rank}Q", "shape")
        if (name, shape) != want:
            raise ParseError(f"{source}: tensor {name[:64]!r} {shape[:8]} is not the model's {want}")
        raw = r.array("<f4", int(np.prod(shape)), f"tensor {name}")
        tensors[name] = raw.astype(np.float32).reshape(shape)
    r.expect_end()
    return ModelWeights(fingerprint=fingerprint, tensors=tensors)
