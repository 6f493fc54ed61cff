import numpy as np
import pytest

from tma.graph import (
    CompatibilityMatrix,
    EdgeSplits,
    Graph,
    GraphError,
    build_splits,
    generate_synthetic,
    pair_probability_scale,
)


def same_class_edge_fraction(g, y):
    """Measured homophily: the fraction of edges whose endpoints share a class."""
    e = g.edge_array()
    return float(np.mean(y.labels[e[:, 0]] == y.labels[e[:, 1]]))


def triangle():
    return Graph.from_edges(3, np.array([[0, 1], [1, 2], [0, 2]]))


def path3():
    return Graph.from_edges(3, np.array([[0, 1], [1, 2]]))


class TestGraph:
    def test_csr_shape(self):
        g = triangle()
        assert g.num_nodes == 3
        assert g.num_edges == 3
        assert len(g.indices) == 2 * g.num_edges
        assert list(g.neighbors(1)) == [0, 2]
        g.validate()

    def test_from_edges_canonicalizes_orientation(self):
        a = Graph.from_edges(4, np.array([[2, 0], [3, 1]]))
        b = Graph.from_edges(4, np.array([[0, 2], [1, 3]]))
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_rejects_self_loop_and_duplicates(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.array([[1, 1]]))
        with pytest.raises(GraphError):
            Graph.from_edges(3, np.array([[0, 1], [1, 0]]))

    def test_empty_graph(self):
        g = Graph.from_edges(5, np.empty((0, 2)))
        assert g.num_edges == 0
        g.validate()

    def test_validate_catches_unsorted_row(self):
        g = triangle()
        broken = Graph(indptr=g.indptr.copy(), indices=g.indices.copy())
        idx = broken.indices.copy()
        idx.setflags(write=True)
        idx[0] = 2  # node 0 now lists 2 twice, node 1 loses its back edge
        object.__setattr__(broken, "indices", idx)
        with pytest.raises(GraphError, match="neighbor list of node 0 not sorted at record 0"):
            broken.validate()

    def test_validate_catches_asymmetry(self):
        # sorted rows, no self-loops: 0 lists 1, but 1 does not list 0
        broken = Graph(indptr=np.array([0, 2, 3, 5]), indices=np.array([1, 2, 2, 0, 1]))
        with pytest.raises(GraphError, match=r"adjacency not symmetric near edge \(0, 1\)"):
            broken.validate()

    def test_edge_array_sorted_unique(self):
        g, _, _ = generate_synthetic(200, 6.0, 0.7, seed=3)
        e = g.edge_array()
        assert np.all(e[:, 0] < e[:, 1])
        keys = e[:, 0].astype(np.int64) * g.num_nodes + e[:, 1]
        assert len(np.unique(keys)) == len(keys)


def lexsort_csr(num_nodes, edges):
    """The two-key lexsort construction ``Graph.from_edges`` once used, as
    the reference its one-sort build must match byte for byte."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return indptr, dst.astype(np.int32)


class TestFromEdgesReference:
    @staticmethod
    def edge_lists():
        g, _, _ = generate_synthetic(600, 8.0, 0.8, seed=5)
        e = g.edge_array()
        rng = np.random.default_rng(0)
        flips = rng.random(len(e)) < 0.5
        mixed = np.where(flips[:, None], e[:, ::-1], e)
        return {
            "sorted": (600, e),
            "shuffled": (600, e[rng.permutation(len(e))]),
            "reversed": (600, e[::-1]),
            "reversed orientation": (600, e[:, ::-1]),
            "shuffled, mixed orientation": (600, mixed[rng.permutation(len(e))]),
            "empty": (5, np.empty((0, 2), dtype=np.int64)),
            "empty, no nodes": (0, np.empty((0, 2), dtype=np.int64)),
            "one edge": (4, np.array([[3, 1]])),
        }

    def test_byte_equal_to_lexsort(self):
        for name, (n, edges) in self.edge_lists().items():
            g = Graph.from_edges(n, edges)
            indptr, indices = lexsort_csr(n, edges)
            assert g.indptr.dtype == indptr.dtype and g.indices.dtype == indices.dtype, name
            assert g.indptr.tobytes() == indptr.tobytes(), name
            assert g.indices.tobytes() == indices.tobytes(), name
            g.validate()

    @pytest.mark.parametrize(
        "edges", [[[0, 1], [1, 0]], [[0, 1], [0, 1]], [[2, 3], [0, 1], [3, 2]]]
    )
    def test_repeated_edge_in_either_orientation(self, edges):
        with pytest.raises(GraphError, match="duplicate edge in input"):
            Graph.from_edges(4, np.array(edges))

    def test_checks_run_range_then_self_loop_then_duplicate(self):
        with pytest.raises(GraphError, match="edge endpoint out of range"):
            Graph.from_edges(3, np.array([[1, 1], [0, 1], [0, 1], [0, 3]]))
        with pytest.raises(GraphError, match="edge endpoint out of range"):
            Graph.from_edges(3, np.array([[1, 1], [-1, 2]]))
        with pytest.raises(GraphError, match="self-loop in edge record 2"):
            Graph.from_edges(3, np.array([[0, 1], [1, 0], [2, 2]]))


class TestGenerator:
    def test_pure_homophily_has_no_cross_edges(self):
        g, _, y = generate_synthetic(1000, 10.0, 1.0, seed=0)
        assert same_class_edge_fraction(g, y) == 1.0

    def test_h_half_is_classless(self):
        vals = []
        for seed in range(20):
            g, _, y = generate_synthetic(1000, 10.0, 0.5, seed=seed)
            vals.append(same_class_edge_fraction(g, y))
        assert abs(np.mean(vals) - 0.5) < 0.03

    def test_determinism(self):
        a = generate_synthetic(1000, 10.0, 0.8, seed=7)[0]
        b = generate_synthetic(1000, 10.0, 0.8, seed=7)[0]
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)
        assert a.edge_array().tobytes() == b.edge_array().tobytes()

    def test_measured_homophily_tracks_h(self):
        vals = [
            same_class_edge_fraction(*_graph_and_labels(seed)) for seed in range(20)
        ]
        assert abs(np.mean(vals) - 0.8) < 0.02

    def test_mean_degree_calibration(self):
        degs = []
        for seed in range(10):
            g, _, _ = generate_synthetic(2000, 12.0, 0.9, seed=seed)
            degs.append(2 * g.num_edges / g.num_nodes)
        assert abs(np.mean(degs) - 12.0) < 0.4

    def test_class_balance_and_features(self):
        g, x, y = generate_synthetic(400, 5.0, 0.6, k=4, seed=1)
        counts = np.bincount(y.labels, minlength=4)
        assert np.all(counts == 100)
        assert x.shape == (400, 4)
        assert np.array_equal(x.argmax(axis=1), y.labels)
        assert np.all(x.sum(axis=1) == 1.0)
        g.validate()

    def test_structural_invariants(self):
        g, _, _ = generate_synthetic(600, 8.0, 0.75, seed=11)
        g.validate()

    def test_rejects_infeasible_density(self):
        # n=20, k=2: q = d / (10 - h); with h=1 pair probability q*h > 1
        with pytest.raises(ValueError):
            generate_synthetic(20, 9.5, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(100, 5.0, 0.5, k=1, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(101, 5.0, 0.5, seed=0)

    def test_pair_probability_scale(self):
        q = pair_probability_scale(1000, 10.0, 0.8, 2)
        assert q == pytest.approx(10.0 / (500 - 0.8))


def _graph_and_labels(seed):
    g, _, y = generate_synthetic(1000, 10.0, 0.8, seed=seed)
    return g, y


class TestCompatibilityMatrix:
    def test_entries(self):
        cm = CompatibilityMatrix(h=0.8, k=2)
        assert cm.entry(0, 0) == 0.8
        assert cm.entry(0, 1) == pytest.approx(0.2)
        assert cm.entry(1, 1) == 0.8
        assert cm.max_entry == 0.8
        many = CompatibilityMatrix(h=0.1, k=4)
        assert many.entry(2, 3) == pytest.approx(0.3)
        assert many.max_entry == pytest.approx(0.3)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            CompatibilityMatrix(h=1.5, k=2)
        with pytest.raises(ValueError):
            CompatibilityMatrix(h=0.5, k=1)


class TestSplits:
    def _sized_graph(self, seed=0):
        g, _, _ = generate_synthetic(500, 8.0, 0.8, seed=seed)
        return g

    def test_split_counts(self):
        g = self._sized_graph()
        m = g.num_edges
        train, splits = build_splits(g, 0.05, 0.05, 20, seed=1)
        n_val = round(0.05 * m)
        n_test = round(0.05 * m)
        assert len(splits.val_edges) == n_val
        assert len(splits.test_edges) == n_test
        assert train.num_edges == m - n_val - n_test

    def test_partition_of_edges(self):
        g = self._sized_graph(3)
        train, splits = build_splits(g, 0.04, 0.06, 10, seed=5)
        n = g.num_nodes

        def keyset(e):
            return set((e[:, 0].astype(np.int64) * n + e[:, 1]).tolist())

        full = keyset(g.edge_array())
        tr, va, te = keyset(train.edge_array()), keyset(splits.val_edges), keyset(splits.test_edges)
        assert tr | va | te == full
        assert not (tr & va) and not (tr & te) and not (va & te)

    def test_degree_guard(self):
        g = self._sized_graph(7)
        train, splits = build_splits(g, 0.05, 0.05, 10, seed=2)
        deg = train.degrees()
        for u, v in np.concatenate([splits.val_edges, splits.test_edges]):
            assert deg[u] >= 1 and deg[v] >= 1
            assert v not in train.neighbors(u)

    def test_negatives_distinct_and_exclude_endpoints(self):
        g = self._sized_graph(9)
        _, splits = build_splits(g, 0.05, 0.05, 100, seed=4)
        eval_edges = np.concatenate([splits.val_edges, splits.test_edges])
        assert splits.neg_tails.shape == (len(eval_edges), 100)
        for row, (u, v) in zip(splits.neg_tails, eval_edges):
            assert len(np.unique(row)) == 100
            assert u not in row and v not in row

    def test_determinism(self):
        g = self._sized_graph(11)
        a = build_splits(g, 0.05, 0.05, 50, seed=13)
        b = build_splits(g, 0.05, 0.05, 50, seed=13)
        assert np.array_equal(a[1].neg_tails, b[1].neg_tails)
        assert np.array_equal(a[1].val_edges, b[1].val_edges)
        assert np.array_equal(a[0].indices, b[0].indices)

    def test_rejects_oversized_fractions(self):
        g = self._sized_graph()
        with pytest.raises(ValueError):
            build_splits(g, 0.3, 0.3, 10)

    def test_too_small_graph_errors(self):
        g = path3()
        with pytest.raises(GraphError):
            build_splits(g, 0.4, 0.0, 1, seed=0)

    def test_splits_row_bookkeeping(self):
        with pytest.raises(GraphError):
            EdgeSplits(
                val_edges=np.array([[0, 1]]),
                test_edges=np.empty((0, 2)),
                neg_tails=np.empty((0, 5)),
            )
