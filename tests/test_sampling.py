import numpy as np
import pytest

from tma.graph import Graph, generate_synthetic
from tma.nn import Block, ModelConfig, encode, encode_with_tape, init_weights
from tma.sampling import Mfg, SamplingError, _segment_order, build_mfg, sample_minibatch


def path_graph(n=6):
    return Graph.from_edges(n, np.array([[i, i + 1] for i in range(n - 1)]))


def medium_graph(seed=0):
    g, x, _ = generate_synthetic(60, 5.0, 0.7, seed=seed)
    return g, x


class TestBuildMfg:
    def test_fanout_zero_keeps_seeds_only(self):
        g = path_graph()
        mfg = build_mfg(g, np.array([2, 3]), [0, 0], np.random.default_rng(0))
        assert np.array_equal(mfg.output_nodes, [2, 3])
        assert np.array_equal(mfg.input_nodes, [2, 3])
        for block in mfg.blocks:
            assert len(block.nbr) == 0

    def test_fanout_one_on_path_pulls_single_neighbor(self):
        g = path_graph()
        mfg = build_mfg(g, np.array([3]), [1], np.random.default_rng(1))
        block = mfg.blocks[0]
        assert np.diff(block.indptr).tolist() == [1]
        sampled = mfg.input_nodes[block.nbr]
        assert sampled[0] in (2, 4)

    def test_dedup_shared_neighbor_stored_once(self):
        # 0-2 and 1-2: node 2 reachable from both seeds, appears once
        g = Graph.from_edges(3, np.array([[0, 2], [1, 2]]))
        mfg = build_mfg(g, np.array([0, 1]), [None], np.random.default_rng(0))
        assert np.array_equal(mfg.input_nodes, [0, 1, 2])

    def test_sampled_are_true_neighbors_and_capped(self):
        g, _ = medium_graph()
        rng = np.random.default_rng(7)
        fanouts = [3, 2]
        mfg = build_mfg(g, np.arange(10), fanouts, rng)
        # blocks are input-most first; hop order from the seeds is reversed
        for block, fanout in zip(mfg.blocks, fanouts[::-1]):
            counts = np.diff(block.indptr)
            assert np.all(counts <= fanout)
        # final block destinations are the seeds
        last = mfg.blocks[-1]
        dst_nodes = mfg.output_nodes
        src_nodes = None
        frontier_nodes = [mfg.input_nodes]
        # walk forward: each block's sources are the previous frontier
        src = mfg.input_nodes
        for block in mfg.blocks:
            dst = src[block.self_idx]
            for d in range(block.num_dst):
                nbrs = src[block.nbr[block.indptr[d] : block.indptr[d + 1]]]
                true = g.neighbors(dst[d])
                assert set(nbrs.tolist()) <= set(true.tolist())
                assert len(set(nbrs.tolist())) == len(nbrs)
            src = dst
        assert np.array_equal(src, dst_nodes)

    def test_destinations_subset_of_frontier(self):
        g, _ = medium_graph(seed=2)
        mfg = build_mfg(g, np.arange(8), [2, 2], np.random.default_rng(3))
        src = mfg.input_nodes
        for block in mfg.blocks:
            dst = src[block.self_idx]
            assert set(dst.tolist()) <= set(src.tolist())
            src = dst

    def test_deterministic_under_rng_state(self):
        g, _ = medium_graph(seed=4)
        a = build_mfg(g, np.arange(12), [2, 3], np.random.default_rng(42))
        b = build_mfg(g, np.arange(12), [2, 3], np.random.default_rng(42))
        assert np.array_equal(a.input_nodes, b.input_nodes)
        for ba, bb in zip(a.blocks, b.blocks):
            assert np.array_equal(ba.nbr, bb.nbr)
            assert np.array_equal(ba.indptr, bb.indptr)

    @pytest.mark.parametrize("seed", [-1, 6, -6])
    def test_seed_outside_graph_rejected(self, seed):
        # a negative id must not wrap around into the node mask
        with pytest.raises(SamplingError, match="seed node outside the local graph"):
            build_mfg(path_graph(6), np.array([seed]), [2], np.random.default_rng(0))


def test_output_positions_rejects_node_above_every_output():
    mfg = Mfg(blocks=[], input_nodes=np.array([1, 2, 3]), output_nodes=np.array([1, 2, 3]))
    assert mfg.output_positions(np.array([3, 1])).tolist() == [2, 0]
    with pytest.raises(SamplingError, match="node missing from output layer"):
        mfg.output_positions(np.array([5]))
    with pytest.raises(SamplingError, match="node missing from output layer"):
        mfg.output_positions(np.array([0]))


def reference_build_mfg(g, seed_nodes, fanouts, rng):
    """The sampler as first written, with sorts and binary searches."""
    seeds = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    frontier = seeds
    hops = []
    for fanout in fanouts:
        counts = (g.indptr[frontier + 1] - g.indptr[frontier]).astype(np.int64)
        flat = np.concatenate(
            [np.arange(g.indptr[u], g.indptr[u + 1]) for u in frontier] + [np.empty(0, np.int64)]
        )
        nbrs = g.indices[flat].astype(np.int64)
        seg = np.repeat(np.arange(len(frontier)), counts)
        if fanout is not None and len(nbrs) and np.any(counts > fanout):
            keys = rng.random(len(nbrs))
            order = np.lexsort((keys, seg))
            starts = np.cumsum(counts) - counts
            within = np.arange(len(nbrs)) - np.repeat(starts, counts)
            mask = within < fanout
            nbrs, seg, counts = nbrs[order][mask], seg[order][mask], np.minimum(counts, fanout)
        hops.append((frontier, nbrs, seg))
        frontier = np.unique(np.concatenate([frontier, nbrs]))
    blocks = []
    src = frontier
    for dst, nbrs, seg in reversed(hops):
        indptr = np.zeros(len(dst) + 1, dtype=np.int64)
        np.add.at(indptr, seg + 1, 1)
        np.cumsum(indptr, out=indptr)
        blocks.append(
            Block(
                num_src=len(src),
                indptr=indptr,
                nbr=np.searchsorted(src, nbrs),
                self_idx=np.searchsorted(src, dst),
            )
        )
        src = dst
    return Mfg(blocks=blocks, input_nodes=frontier, output_nodes=seeds)


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert np.array_equal(a, b)


@pytest.mark.parametrize("fanouts", [(10, 5), (2, 2), (None, 3), (0, 4), (25, 25), (3,)])
@pytest.mark.parametrize("num_seeds", [0, 7, 40])
def test_build_mfg_matches_reference(fanouts, num_seeds):
    g, _, _ = generate_synthetic(300, 8.0, 0.7, seed=11)
    seeds = np.random.default_rng(num_seeds).integers(0, g.num_nodes, size=num_seeds)
    rng_ref, rng = np.random.default_rng(5), np.random.default_rng(5)
    want = reference_build_mfg(g, seeds, list(fanouts), rng_ref)
    got = build_mfg(g, seeds, list(fanouts), rng)
    assert_same_array(got.input_nodes, want.input_nodes)
    assert_same_array(got.output_nodes, want.output_nodes)
    assert len(got.blocks) == len(want.blocks) == len(fanouts)
    for b_got, b_want in zip(got.blocks, want.blocks):
        assert b_got.num_src == b_want.num_src
        assert_same_array(b_got.indptr, b_want.indptr)
        assert_same_array(b_got.nbr, b_want.nbr)
        assert_same_array(b_got.self_idx, b_want.self_idx)
    assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize(
    "seg, keys, want",
    [
        # both sums round to 4096.5
        ([4096, 4096], [0.5 + 2**-45, 0.5], [1, 0]),
        # both sums round to 4096.0
        ([4095, 4096], [1 - 2**-53, 0.0], [0, 1]),
    ],
)
def test_segment_order_falls_back_to_lexsort_on_tied_sums(monkeypatch, seg, keys, want):
    seg, keys = np.array(seg, dtype=np.int64), np.array(keys)
    calls = []
    lexsort = np.lexsort

    def spy(k):
        calls.append(k)
        return lexsort(k)

    monkeypatch.setattr(np, "lexsort", spy)
    assert _segment_order(seg, keys).tolist() == want == lexsort((keys, seg)).tolist()
    assert len(calls) == 1


@pytest.mark.parametrize("encoder", ["gcn", "sage", "mlp"])
def test_full_fanout_mfg_equals_full_graph_encode(encoder):
    g, x = medium_graph(seed=5)
    cfg = ModelConfig(in_dim=x.shape[1], encoder=encoder, layers=2, hidden_dim=8, seed=6)
    w = init_weights(cfg)
    seeds = np.array([1, 5, 9, 30, 31])
    mfg = build_mfg(g, seeds, [None, None], np.random.default_rng(0))
    emb_mfg = encode_with_tape(cfg, w, mfg.blocks, x[mfg.input_nodes])[0]
    emb_full = encode(cfg, w, g, x)
    assert np.allclose(emb_mfg, emb_full[mfg.output_nodes], atol=1e-6)


def test_large_finite_fanout_is_exact_too():
    g, x = medium_graph(seed=6)
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=8, seed=1)
    w = init_weights(cfg)
    max_deg = int(g.degrees().max())
    mfg = build_mfg(g, np.arange(6), [max_deg, max_deg], np.random.default_rng(0))
    emb_mfg = encode_with_tape(cfg, w, mfg.blocks, x[mfg.input_nodes])[0]
    emb_full = encode(cfg, w, g, x)
    assert np.allclose(emb_mfg, emb_full[mfg.output_nodes], atol=1e-6)


class TestSampleMinibatch:
    def test_every_edge_once_when_batch_covers(self):
        g, _ = medium_graph(seed=8)
        edges = g.edge_array()
        batch = sample_minibatch(g, edges, len(edges) + 10, [2], np.random.default_rng(0))
        keys = sorted((u * g.num_nodes + v) for u, v in batch.positives.tolist())
        ref = sorted((u * g.num_nodes + v) for u, v in edges.tolist())
        assert keys == ref

    def test_negative_tails_valid(self):
        g, _ = medium_graph(seed=9)
        edges = g.edge_array()
        batch = sample_minibatch(g, edges, 16, [2], np.random.default_rng(1))
        assert len(batch.negatives) == len(batch.positives)
        assert np.array_equal(batch.negatives[:, 0], batch.positives[:, 0])
        assert np.all(batch.negatives[:, 1] != batch.positives[:, 1])
        assert np.all(batch.negatives[:, 1] < g.num_nodes)

    def test_int32_edges_give_the_int64_batch(self):
        g, _ = medium_graph(seed=9)
        edges = g.edge_array()
        assert edges.dtype == np.int32
        a = sample_minibatch(g, edges, 16, [2], np.random.default_rng(4))
        b = sample_minibatch(g, edges.astype(np.int64), 16, [2], np.random.default_rng(4))
        assert a.positives.dtype == a.negatives.dtype == np.int64
        assert np.array_equal(a.positives, b.positives)
        assert np.array_equal(a.negatives, b.negatives)
        assert np.array_equal(a.mfg.input_nodes, b.mfg.input_nodes)

    def test_edgeless_subgraph_rejected(self):
        g = Graph.from_edges(4, np.empty((0, 2)))
        with pytest.raises(SamplingError, match="no local edges"):
            sample_minibatch(g, np.empty((0, 2)), 4, [2], np.random.default_rng(0))

    def test_endpoints_in_output_layer(self):
        g, x = medium_graph(seed=10)
        edges = g.edge_array()
        batch = sample_minibatch(g, edges, 8, [2, 2], np.random.default_rng(2))
        u, v, labels = batch.pair_indices()
        out = batch.mfg.output_nodes
        assert np.array_equal(out[u[: len(batch.positives)]], batch.positives[:, 0])
        assert np.array_equal(out[v[len(batch.positives) :]], batch.negatives[:, 1])
        assert labels.sum() == len(batch.positives)

    def test_corrupted_tail_frequencies_uniform(self):
        # 5-node ring; per positive, each of the 4 eligible tails is equally likely
        g = Graph.from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))
        edges = g.edge_array()
        n_edges = len(edges)
        rng = np.random.default_rng(3)
        rounds = 2000
        counts = np.zeros((n_edges, 5))
        edge_key = {(u, v): i for i, (u, v) in enumerate(edges.tolist())}
        for _ in range(rounds):
            batch = sample_minibatch(g, edges, n_edges, [0], rng)
            for (u, v), (_, t) in zip(batch.positives.tolist(), batch.negatives.tolist()):
                counts[edge_key[(u, v)], t] += 1
        sigma = np.sqrt(rounds * (1 / 4) * (3 / 4))
        for i, (u, v) in enumerate(edges.tolist()):
            assert counts[i, v] == 0
            eligible = [t for t in range(5) if t != v]
            assert np.all(np.abs(counts[i, eligible] - rounds / 4) < 4 * sigma)
