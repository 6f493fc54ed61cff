import itertools

import numpy as np
import pytest

from tma.graph import Graph, NodeLabels, build_splits, generate_synthetic
from tma.partition import (
    Partition,
    PartitionError,
    cluster,
    induce_subgraphs,
    partition_min_cut,
    partition_random_node,
    partition_stats,
    partition_super_node,
)


def two_cliques_bridge(size=10):
    """Two complete graphs joined by a single bridge edge."""
    edges = []
    for block in (0, size):
        edges.extend((block + i, block + j) for i in range(size) for j in range(i + 1, size))
    edges.append((0, size))
    return Graph.from_edges(2 * size, np.array(edges))


def cut_size(g, labels):
    e = g.edge_array()
    return int(np.sum(labels[e[:, 0]] != labels[e[:, 1]]))


def synthetic(n=2000, h=0.9, seed=0):
    g, x, y = generate_synthetic(n, 10.0, h, seed=seed)
    return g, x, y


class TestRandomNode:
    def test_single_trainer_keeps_everything(self):
        g, x, y = synthetic(400)
        p = partition_random_node(g, 1, seed=0)
        stats = partition_stats(g, y, p)
        assert stats.edge_ratio == 1.0

    def test_ratio_near_one_over_m(self):
        ratios = []
        for seed in range(12):
            g, _, y = synthetic(1000, seed=seed)
            p = partition_random_node(g, 3, seed=seed)
            ratios.append(partition_stats(g, y, p).edge_ratio)
        m = np.mean(ratios)
        # each edge survives w.p. 1/3; binomial noise over ~5000 edges per seed
        sigma = np.sqrt((1 / 3) * (2 / 3) / (5000 * len(ratios)))
        assert abs(m - 1 / 3) < 3 * sigma

    def test_m_equals_n_drops_almost_all_edges(self):
        g, _, y = synthetic(500, seed=3)
        p = partition_random_node(g, g.num_nodes, seed=1)
        stats = partition_stats(g, y, p)
        assert stats.edge_ratio < 0.02

    def test_deterministic(self):
        g, _, _ = synthetic(300, seed=5)
        a = partition_random_node(g, 4, seed=9).assignment
        b = partition_random_node(g, 4, seed=9).assignment
        assert np.array_equal(a, b)


class TestCluster:
    def test_single_cluster(self):
        g, _, _ = synthetic(200, seed=1)
        labels = cluster(g, 1, seed=0)
        assert np.all(labels == 0)
        assert cut_size(g, labels) == 0

    def test_singleton_clusters(self):
        g, _, _ = synthetic(200, seed=2)
        labels = cluster(g, g.num_nodes, seed=0)
        assert len(np.unique(labels)) == g.num_nodes
        assert cut_size(g, labels) == g.num_edges

    def test_two_clique_bridge_optimum(self):
        g = two_cliques_bridge(10)
        # brute force over balanced 2-partitions is infeasible here, but the
        # optimum is clearly 1: any balanced split not aligned with the
        # cliques cuts >= 9 clique edges
        for seed in range(5):
            labels = cluster(g, 2, seed=seed)
            assert cut_size(g, labels) == 1, f"seed {seed}"

    def test_two_clique_small_brute_force(self):
        g = two_cliques_bridge(4)
        nodes = range(8)
        best = min(
            cut_size(g, np.array([1 if i in pick else 0 for i in nodes]))
            for pick in itertools.combinations(nodes, 4)
        )
        assert best == 1
        labels = cluster(g, 2, seed=0)
        assert cut_size(g, labels) == best

    def test_sizes_within_twice_fair_share(self):
        for seed in range(4):
            g, _, _ = synthetic(1000, seed=seed)
            for n_clusters in (3, 16, 64):
                labels = cluster(g, n_clusters, seed=seed)
                sizes = np.bincount(labels, minlength=n_clusters)
                assert sizes.min() >= 1
                assert sizes.max() <= 2 * int(np.ceil(1000 / n_clusters))

    def test_disconnected_graph(self):
        # two separate triangles plus two isolated nodes
        g = Graph.from_edges(
            8, np.array([[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5]])
        )
        labels = cluster(g, 4, seed=0)
        sizes = np.bincount(labels, minlength=4)
        assert sizes.min() >= 1

    def test_deterministic(self):
        g, _, _ = synthetic(600, seed=7)
        assert np.array_equal(cluster(g, 8, seed=3), cluster(g, 8, seed=3))

    def test_bad_counts(self):
        g, _, _ = synthetic(100, seed=0)
        with pytest.raises(PartitionError):
            cluster(g, 0)
        with pytest.raises(PartitionError):
            cluster(g, 101)


class TestMinCut:
    def test_m1_keeps_all(self):
        g, _, y = synthetic(300, seed=2)
        p = partition_min_cut(g, 1, seed=0)
        assert partition_stats(g, y, p).edge_ratio == 1.0

    def test_two_clique_each_side(self):
        g = two_cliques_bridge(10)
        p = partition_min_cut(g, 2, seed=1)
        y = NodeLabels(labels=np.zeros(20), num_classes=1)
        stats = partition_stats(g, y, p)
        assert stats.edge_ratio == pytest.approx(90 / 91)

    def test_balance_slack(self):
        for seed in range(4):
            g, _, _ = synthetic(1000, h=0.95, seed=seed)
            p = partition_min_cut(g, 3, seed=seed)
            sizes = p.sizes()
            share = 1000 / 3
            assert sizes.max() <= np.ceil(1.05 * share)
            assert sizes.min() >= np.floor(0.95 * share)

    def test_pure_homophily_separates_classes(self):
        g, _, y = synthetic(1000, h=1.0, seed=4)
        p = partition_min_cut(g, 2, seed=0)
        stats = partition_stats(g, y, p)
        assert stats.max_histogram_distance == pytest.approx(np.sqrt(2), abs=1e-9)

    def test_strong_homophily_high_disparity(self):
        g, _, y = synthetic(2000, h=0.95, seed=5)
        p = partition_min_cut(g, 2, seed=0)
        stats = partition_stats(g, y, p)
        assert stats.max_histogram_distance > 1.0


class TestSuperNode:
    def test_n_equals_m_matches_min_cut_up_to_relabel(self):
        g, _, _ = synthetic(900, seed=6)
        sup = partition_super_node(g, 3, 3, seed=11)
        base = partition_min_cut(g, 3, seed=11)
        # same blocks, possibly renamed
        mapping = {}
        for s, b in zip(sup.assignment, base.assignment):
            mapping.setdefault(int(b), int(s))
            assert mapping[int(b)] == int(s)
        assert len(set(mapping.values())) == 3

    def test_n_equal_v_ratio_near_random(self):
        g, _, y = synthetic(1000, seed=8)
        ratios = []
        for seed in range(8):
            p = partition_super_node(g, 3, g.num_nodes, seed=seed)
            ratios.append(partition_stats(g, y, p).edge_ratio)
        sigma = np.sqrt((1 / 3) * (2 / 3) / (5000 * len(ratios)))
        assert abs(np.mean(ratios) - 1 / 3) < 4 * sigma

    def test_ratio_ordering_on_homophilic_graph(self):
        wins = 0
        for seed in range(10):
            g, _, y = synthetic(2000, h=0.9, seed=seed)
            r_rand = partition_stats(g, y, partition_random_node(g, 3, seed)).edge_ratio
            r_super = partition_stats(g, y, partition_super_node(g, 3, 64, seed)).edge_ratio
            r_cut = partition_stats(g, y, partition_min_cut(g, 3, seed)).edge_ratio
            if r_cut > r_super > r_rand:
                wins += 1
        assert wins == 10

    def test_partition_sizes_balanced(self):
        g, _, _ = synthetic(2000, seed=9)
        p = partition_super_node(g, 3, 64, seed=2)
        sizes = p.sizes()
        share = 2000 / 3
        assert sizes.max() <= 1.08 * share
        assert sizes.min() >= 0.92 * share

    def test_rejects_n_less_than_m(self):
        g, _, _ = synthetic(100, seed=0)
        with pytest.raises(PartitionError):
            partition_super_node(g, 4, 3, seed=0)


class TestInduceSubgraphs:
    def test_single_trainer_is_whole_graph(self):
        g, x, y = synthetic(400, seed=1)
        p = Partition(assignment=np.zeros(400), num_trainers=1)
        subs = induce_subgraphs(g, x, p)
        assert len(subs) == 1
        assert subs[0].num_edges == g.num_edges
        assert np.array_equal(subs[0].global_ids, np.arange(400))

    def test_edge_sum_matches_ratio(self):
        g, x, y = synthetic(800, seed=2)
        p = partition_random_node(g, 3, seed=4)
        subs = induce_subgraphs(g, x, p)
        stats = partition_stats(g, y, p)
        assert sum(s.num_edges for s in subs) == stats.edge_counts.sum()
        assert sum(s.num_edges for s in subs) / g.num_edges == stats.edge_ratio

    def test_path_split(self):
        g = Graph.from_edges(3, np.array([[0, 1], [1, 2]]))
        p = Partition(assignment=np.array([0, 1, 0]), num_trainers=2)
        x = np.eye(3, dtype=np.float32)
        subs = induce_subgraphs(g, x, p)
        assert np.array_equal(subs[0].global_ids, [0, 2])
        assert subs[0].num_edges == 0
        assert np.array_equal(subs[1].global_ids, [1])
        assert subs[1].num_edges == 0

    def test_local_ids_and_features_aligned(self):
        g, x, _ = synthetic(600, seed=3)
        p = partition_random_node(g, 3, seed=1)
        for sub in induce_subgraphs(g, x, p):
            assert np.array_equal(sub.features, x[sub.global_ids])
            e_local = sub.local_graph.edge_array()
            e_global = sub.global_ids[e_local]
            for u, v in e_global[:20]:
                assert v in g.neighbors(u)

    def test_eval_edges_never_leak(self):
        g, x, _ = synthetic(600, seed=4)
        train, splits = build_splits(g, 0.05, 0.05, 10, seed=0)
        p = partition_random_node(train, 3, seed=2)
        induce_subgraphs(train, x, p, splits=splits)  # should not raise


class TestPartitionStats:
    def test_random_node_histograms_converge(self):
        g, _, y = synthetic(10_000, h=0.8, seed=0)
        p = partition_random_node(g, 3, seed=0)
        stats = partition_stats(g, y, p)
        assert stats.max_histogram_distance < 0.05

    def test_single_class_graph_uniform(self):
        g, _, _ = synthetic(400, seed=5)
        y = NodeLabels(labels=np.zeros(400), num_classes=1)
        for maker in (partition_random_node, partition_min_cut):
            stats = partition_stats(g, y, maker(g, 2, 0))
            assert stats.max_histogram_distance == 0.0

    def test_disparity_ordering_reversed_vs_ratio(self):
        wins = 0
        for seed in range(10):
            g, _, y = synthetic(2000, h=0.9, seed=100 + seed)
            d_rand = partition_stats(g, y, partition_random_node(g, 3, seed)).max_histogram_distance
            d_super = partition_stats(g, y, partition_super_node(g, 3, 64, seed)).max_histogram_distance
            d_cut = partition_stats(g, y, partition_min_cut(g, 3, seed)).max_histogram_distance
            if d_cut > d_super > d_rand:
                wins += 1
        assert wins >= 9


def test_partition_validation():
    with pytest.raises(PartitionError):
        Partition(assignment=np.array([0, 3]), num_trainers=2)
    with pytest.raises(PartitionError):
        Partition(assignment=np.array([0]), num_trainers=0)
