import hashlib
import itertools
import struct

import numpy as np
import pytest

from tma import fileio
from tma.fileio import (
    ParseError,
    load_features,
    load_graph,
    load_labels,
    load_partition,
    load_splits,
    save_features,
    save_graph,
    save_labels,
    save_partition,
    save_splits,
)
from tma.graph import Graph, build_splits, generate_synthetic
from tma.partition import partition_random_node


@pytest.fixture
def artifacts():
    g, x, y = generate_synthetic(200, 6.0, 0.8, seed=0)
    train, splits = build_splits(g, 0.05, 0.05, 15, seed=1)
    return g, x, y, train, splits


class TestGraphRoundtrip:
    def test_identity(self, artifacts, tmp_path):
        g = artifacts[0]
        path = tmp_path / "g.tmag"
        save_graph(g, path)
        g2 = load_graph(path)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)

    def test_empty_edge_set(self, tmp_path):
        g = Graph.from_edges(7, np.empty((0, 2)))
        path = tmp_path / "empty.tmag"
        save_graph(g, path)
        g2 = load_graph(path)
        assert g2.num_nodes == 7
        assert g2.num_edges == 0

    def test_truncated_reports_offset(self, artifacts, tmp_path):
        g = artifacts[0]
        path = tmp_path / "g.tmag"
        save_graph(g, path)
        data = path.read_bytes()
        short = tmp_path / "short.tmag"
        short.write_bytes(data[: len(data) - 7])
        with pytest.raises(ParseError, match="byte"):
            load_graph(short)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tmag"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ParseError, match="magic"):
            load_graph(path)

    def test_unsorted_neighbors_rejected(self, tmp_path):
        g = Graph.from_edges(3, np.array([[0, 1], [0, 2]]))
        path = tmp_path / "g.tmag"
        save_graph(g, path)
        data = bytearray(path.read_bytes())
        # swap node 0's two neighbor entries (first u32s of the neighbor array)
        start = 4 + 2 + 8 + 8 + 8 * 4
        data[start : start + 4], data[start + 4 : start + 8] = (
            data[start + 4 : start + 8],
            data[start : start + 4],
        )
        bad = tmp_path / "bad.tmag"
        bad.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="node 0"):
            load_graph(bad)

    def test_asymmetry_rejected(self, tmp_path):
        g = Graph.from_edges(4, np.array([[0, 1], [2, 3]]))
        path = tmp_path / "g.tmag"
        save_graph(g, path)
        data = bytearray(path.read_bytes())
        # retarget node 0's neighbor from 1 to 3: 0->3 present, 3->0 missing
        start = 4 + 2 + 8 + 8 + 8 * 5
        data[start : start + 4] = (3).to_bytes(4, "little")
        bad = tmp_path / "bad.tmag"
        bad.write_bytes(bytes(data))
        with pytest.raises(ParseError, match="symmetric"):
            load_graph(bad)


class TestFeatureAndLabelRoundtrip:
    def test_features(self, artifacts, tmp_path):
        x = artifacts[1]
        path = tmp_path / "x.tmaf"
        save_features(x, path)
        x2 = load_features(path)
        assert x2.dtype == np.float32
        assert np.array_equal(x, x2)

    def test_nonfinite_rejected(self, tmp_path):
        x = np.ones((3, 2), dtype=np.float32)
        x[1, 0] = np.inf
        path = tmp_path / "x.tmaf"
        save_features(x, path)
        with pytest.raises(ParseError, match="record"):
            load_features(path)

    def test_zero_columns_refused_on_save(self, tmp_path):
        # load_features refuses dim = 0, so save_features must not write it
        with pytest.raises(ParseError, match="at least one column"):
            save_features(np.ones((3, 0), dtype=np.float32), tmp_path / "x.tmaf")

    def test_labels(self, artifacts, tmp_path):
        y = artifacts[2]
        path = tmp_path / "y.tmal"
        save_labels(y, path)
        y2 = load_labels(path)
        assert y2.num_classes == y.num_classes
        assert np.array_equal(y.labels, y2.labels)

    def test_label_out_of_range(self, artifacts, tmp_path):
        y = artifacts[2]
        path = tmp_path / "y.tmal"
        save_labels(y, path)
        data = bytearray(path.read_bytes())
        data[-2:] = (999).to_bytes(2, "little")  # corrupt the last label
        bad = tmp_path / "bad.tmal"
        bad.write_bytes(bytes(data))
        with pytest.raises(ParseError):
            load_labels(bad)


class TestSplitsRoundtrip:
    def test_identity(self, artifacts, tmp_path):
        splits = artifacts[4]
        path = tmp_path / "s.tmas"
        save_splits(splits, path)
        s2 = load_splits(path)
        for name in ("val_edges", "test_edges", "neg_tails"):
            assert np.array_equal(getattr(splits, name), getattr(s2, name))

    def test_version_1_rejected(self, artifacts, tmp_path):
        # version 1 also carried the training edges, between the header and the val edges
        train, splits = artifacts[3], artifacts[4]
        train_edges = train.edge_array()
        header = struct.pack("<HQQQI", 1, len(train_edges), len(splits.val_edges),
                             len(splits.test_edges), splits.num_negatives)
        body = [train_edges, splits.val_edges, splits.test_edges, splits.neg_tails]
        path = tmp_path / "v1.tmas"
        path.write_bytes(
            fileio.SPLITS_MAGIC + header + b"".join(a.astype("<u4").tobytes() for a in body)
        )
        with pytest.raises(ParseError, match="unsupported version 1"):
            load_splits(path)

    def test_zero_negatives(self, artifacts, tmp_path):
        _, splits = build_splits(artifacts[0], 0.05, 0.05, 0, seed=1)
        path = tmp_path / "s.tmas"
        save_splits(splits, path)
        s2 = load_splits(path)
        assert s2.neg_tails.shape == (len(splits.val_edges) + len(splits.test_edges), 0)
        assert np.array_equal(splits.val_edges, s2.val_edges)
        assert np.array_equal(splits.test_edges, s2.test_edges)

    def test_truncation(self, artifacts, tmp_path):
        splits = artifacts[4]
        path = tmp_path / "s.tmas"
        save_splits(splits, path)
        bad = tmp_path / "bad.tmas"
        bad.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ParseError, match="byte"):
            load_splits(bad)


class TestPartitionRoundtrip:
    def test_identity(self, artifacts, tmp_path):
        g = artifacts[0]
        p = partition_random_node(g, 5, seed=3)
        path = tmp_path / "p.tmap"
        save_partition(p, path)
        p2 = load_partition(path)
        assert p2.num_trainers == 5
        assert np.array_equal(p.assignment, p2.assignment)

    def test_trailing_garbage_rejected(self, artifacts, tmp_path):
        g = artifacts[0]
        p = partition_random_node(g, 2, seed=0)
        path = tmp_path / "p.tmap"
        save_partition(p, path)
        bad = tmp_path / "bad.tmap"
        bad.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            load_partition(bad)



# --- every format -----------------------------------------------------------

# kind -> (saver, loader, header format after the magic)
FORMATS = {
    "graph": (save_graph, load_graph, "<HQQ"),
    "features": (save_features, load_features, "<QI"),
    "labels": (save_labels, load_labels, "<QH"),
    "splits": (save_splits, load_splits, "<HQQI"),
    "partition": (save_partition, load_partition, "<QH"),
}


def _artifact(kind, artifacts):
    g, x, y, train, splits = artifacts
    return {"graph": train, "features": x, "labels": y, "splits": splits,
            "partition": partition_random_node(train, 3, seed=2)}[kind]


# sha256 of each artifact of the fixture's seeded 200-node graph; the weight
# checkpoint's pin is test_nn.py's TestCheckpoint.test_bytes_are_pinned
PINNED = {
    "graph": "962223c29cc88eec463716333a84cb50aa73a48a56b2056196bb6db8b3c025fc",
    "features": "d1807479f6d0b1f8bd19d5d1c08fd650b39fd19f5520160a304f358a16e94473",
    "labels": "4762593e94ca85d1f832b3350f54b0a43999dbd39181015dda11d7d0dbd35ea4",
    "splits": "c9725df06dcaf2e2af990e26e9c323e97409cc5caefd66480bffc9ba352599b0",
    "partition": "8b74b01cdbb48312f00c052af4ac69af38a601de02b958adfb19b55597e3693a",
}


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_bytes_are_pinned(kind, artifacts, tmp_path):
    save = FORMATS[kind][0]
    path = tmp_path / kind
    save(_artifact(kind, artifacts), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[kind]


def _header_cases():
    for kind, (_, _, fmt) in FORMATS.items():
        for field, code in enumerate(fmt[1:]):
            top = 2 ** (8 * struct.calcsize("<" + code)) - 1
            for value in (0, 1, top):
                yield pytest.param(kind, field, value, id=f"{kind}-field{field}-{value}")


def _saved(kind, artifacts, path):
    """The header fields and the bytes of the fixture's ``kind`` artifact."""
    FORMATS[kind][0](_artifact(kind, artifacts), path)
    data = path.read_bytes()
    return list(struct.unpack_from(FORMATS[kind][2], data, 4)), data


def _load_with_header(kind, path, data, header):
    """Write ``data`` with its header fields replaced by ``header`` and load
    it: the loader returns or raises ParseError, nothing else."""
    data = bytearray(data)
    struct.pack_into(FORMATS[kind][2], data, 4, *header)
    path.write_bytes(bytes(data))
    try:
        FORMATS[kind][1](path)
    except ParseError:
        pass


@pytest.mark.parametrize("kind,field,value", list(_header_cases()))
def test_any_header_value_loads_or_raises_parse_error(kind, field, value, artifacts, tmp_path):
    header, data = _saved(kind, artifacts, tmp_path / kind)
    header[field] = value
    _load_with_header(kind, tmp_path / kind, data, header)


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_every_header_combination_loads_or_raises_parse_error(kind, artifacts, tmp_path):
    fmt = FORMATS[kind][2]
    saved, data = _saved(kind, artifacts, tmp_path / kind)
    # a version field keeps its saved value: any other is refused before the
    # fields after it are read, as the one-field cases show
    kept = 1 if kind in ("graph", "splits") else 0
    extremes = [(0, 1, 2 ** (8 * struct.calcsize("<" + code)) - 1) for code in fmt[1 + kept :]]
    header_only = data[: 4 + struct.calcsize(fmt)]
    for values in itertools.product(*extremes):
        # the saved body, and none, which zero counts describe exactly
        for body in (data, header_only):
            _load_with_header(kind, tmp_path / kind, body, saved[:kept] + list(values))
