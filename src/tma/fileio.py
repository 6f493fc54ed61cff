"""Byte formats for graphs, features, labels, splits, partitions, and
model weights.

All formats are little-endian with a 4-byte magic. Loaders validate
structure on the way in, reject trailing bytes, and report the byte offset
of the first offending record on truncated or malformed input. Splits
(version 2) hold the val/test positives and their negatives only; the
training edges live in the ``.train.graph`` that ``tma split`` writes
beside them. The weight checkpoint is both a file (``tma train
--save-weights``) and the payload of the TCP transport's weight frames, so
its parser takes bytes as well as paths; either way a malformed checkpoint
raises ``ParseError``.
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
            raise ParseError(
                f"{self.source}: truncated at byte {self.off} while reading {what}"
            )
        chunk = self.view[self.off : self.off + n]
        self.off += n
        return chunk

    def unpack(self, fmt: str, what: str):
        n = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(n, what))

    def array(self, dtype: str, count: int, what: str) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        raw = self.take(itemsize * count, what)
        return np.frombuffer(raw, dtype=dtype)

    def expect_magic(self, magic: bytes):
        got = bytes(self.take(4, "magic"))
        if got != magic:
            raise ParseError(f"{self.source}: bad magic {got!r}, expected {magic!r}")

    def expect_end(self):
        if self.off != len(self.view):
            raise ParseError(f"{self.source}: {len(self.view) - self.off} trailing bytes at {self.off}")


def _read(path) -> bytes:
    with open(path, "rb") as f:
        return f.read()


# --- graph ("TMAG") -------------------------------------------------------


def save_graph(g: Graph, path) -> None:
    with open(path, "wb") as f:
        f.write(GRAPH_MAGIC)
        f.write(struct.pack("<HQQ", FORMAT_VERSION, g.num_nodes, len(g.indices)))
        f.write(g.indptr.astype("<u8").tobytes())
        f.write(g.indices.astype("<u4").tobytes())


def load_graph(path) -> Graph:
    r = _Reader(_read(path), path)
    r.expect_magic(GRAPH_MAGIC)
    version, n, nnz = r.unpack("<HQQ", "header")
    if version != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
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
    if x.ndim != 2:
        raise ParseError("features must be a 2-d matrix")
    with open(path, "wb") as f:
        f.write(FEATURES_MAGIC)
        f.write(struct.pack("<QI", x.shape[0], x.shape[1]))
        f.write(x.astype("<f4").tobytes())


def load_features(path) -> np.ndarray:
    r = _Reader(_read(path), path)
    r.expect_magic(FEATURES_MAGIC)
    n, dim = r.unpack("<QI", "header")
    x = r.array("<f4", n * dim, "feature rows").reshape(n, dim)
    r.expect_end()
    if not np.isfinite(x).all():
        bad = int(np.nonzero(~np.isfinite(x).ravel())[0][0])
        raise ParseError(f"{path}: non-finite feature value in record {bad}")
    return x.astype(np.float32)


# --- labels ("TMAL") ------------------------------------------------------


def save_labels(y: NodeLabels, path) -> None:
    with open(path, "wb") as f:
        f.write(LABELS_MAGIC)
        f.write(struct.pack("<QH", len(y.labels), y.num_classes))
        f.write(y.labels.astype("<u2").tobytes())


def load_labels(path) -> NodeLabels:
    r = _Reader(_read(path), path)
    r.expect_magic(LABELS_MAGIC)
    n, k = r.unpack("<QH", "header")
    labels = r.array("<u2", n, "labels").astype(np.int16)
    r.expect_end()
    if len(labels) and labels.max() >= k:
        bad = int(np.argmax(labels >= k))
        raise ParseError(f"{path}: label out of range in record {bad}")
    return NodeLabels(labels=labels, num_classes=k)


# --- splits ("TMAS") ------------------------------------------------------


def save_splits(splits: EdgeSplits, path) -> None:
    with open(path, "wb") as f:
        f.write(SPLITS_MAGIC)
        f.write(
            struct.pack(
                "<HQQI",
                SPLITS_VERSION,
                len(splits.val_edges),
                len(splits.test_edges),
                splits.num_negatives,
            )
        )
        for arr in (splits.val_edges, splits.test_edges, splits.neg_tails):
            f.write(arr.astype("<u4").tobytes())


def load_splits(path) -> EdgeSplits:
    r = _Reader(_read(path), path)
    r.expect_magic(SPLITS_MAGIC)
    version, n_val, n_test, k = r.unpack("<HQQI", "header")
    if version != SPLITS_VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    val = r.array("<u4", 2 * n_val, "val edges").reshape(-1, 2).astype(np.int32)
    test = r.array("<u4", 2 * n_test, "test edges").reshape(-1, 2).astype(np.int32)
    neg = r.array("<u4", (n_val + n_test) * k, "negatives").reshape(-1, k).astype(np.int32)
    r.expect_end()
    return EdgeSplits(val_edges=val, test_edges=test, neg_tails=neg)


# --- partition ("TMAP") ---------------------------------------------------


def save_partition(p: Partition, path) -> None:
    with open(path, "wb") as f:
        f.write(PARTITION_MAGIC)
        f.write(struct.pack("<QH", p.num_nodes, p.num_trainers))
        f.write(p.assignment.astype("<u2").tobytes())


def load_partition(path) -> Partition:
    r = _Reader(_read(path), path)
    r.expect_magic(PARTITION_MAGIC)
    n, m = r.unpack("<QH", "header")
    assignment = r.array("<u2", n, "assignment").astype(np.int32)
    r.expect_end()
    if len(assignment) and assignment.max() >= m:
        bad = int(np.argmax(assignment >= m))
        raise ParseError(f"{path}: trainer id out of range in record {bad}")
    return Partition(assignment=assignment, num_trainers=m)


# --- weight checkpoint ("TMAW") -------------------------------------------


def _fingerprint_digest(fingerprint: str) -> bytes:
    return hashlib.blake2b(fingerprint.encode(), digest_size=16).digest()


def weights_to_bytes(w: ModelWeights) -> bytes:
    digest = _fingerprint_digest(w.fingerprint)
    parts = [WEIGHTS_MAGIC, struct.pack("<H16sI", FORMAT_VERSION, digest, len(w.names))]
    for name, tensor in w.items():
        enc = name.encode()
        header = f"<H{len(enc)}sB{tensor.ndim}Q"
        parts.append(struct.pack(header, len(enc), enc, tensor.ndim, *tensor.shape))
        parts.append(tensor.astype("<f4").tobytes())
    return b"".join(parts)


def weights_from_bytes(data: bytes, cfg: ModelConfig, source="weight checkpoint") -> ModelWeights:
    """Parse a checkpoint of ``cfg``'s model: its fingerprint digest and every
    tensor's name and shape must match the model's."""
    r = _Reader(data, source)
    r.expect_magic(WEIGHTS_MAGIC)
    version, digest, count = r.unpack("<H16sI", "header")
    if version != FORMAT_VERSION:
        raise ParseError(f"{source}: unsupported version {version}")
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
        tensors[name] = raw.astype(np.float64).reshape(shape)
    r.expect_end()
    return ModelWeights(fingerprint=fingerprint, names=list(tensors), tensors=tensors)


def save_weights(w: ModelWeights, path) -> None:
    with open(path, "wb") as f:
        f.write(weights_to_bytes(w))


def load_weights(path, cfg: ModelConfig) -> ModelWeights:
    return weights_from_bytes(_read(path), cfg, f"weight checkpoint {path}")
