"""Partition schemes and induced subgraphs.

Three ways to map nodes to trainers: independent uniform assignment per
node, uniform assignment of clustered super-nodes, and a min-cut proxy
(seeded BFS region growing with size caps plus a boundary-refinement
sweep). Clustering quality only needs to be good enough to reproduce the
cut/disparity trade-off, not optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, NodeLabels

BALANCE_SLACK = 0.05


class PartitionError(ValueError):
    pass


@dataclass(frozen=True)
class Partition:
    """Per-node trainer assignment in {0..num_trainers-1}."""

    assignment: np.ndarray
    num_trainers: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.assignment, dtype=np.int32))
        arr.setflags(write=False)
        object.__setattr__(self, "assignment", arr)
        if self.num_trainers < 1:
            raise PartitionError("need at least one trainer")
        if len(arr) and (arr.min() < 0 or arr.max() >= self.num_trainers):
            raise PartitionError("trainer id out of range")

    @property
    def num_nodes(self) -> int:
        return len(self.assignment)

    def members(self, trainer: int) -> np.ndarray:
        return np.nonzero(self.assignment == trainer)[0]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_trainers)


@dataclass(frozen=True)
class Subgraph:
    """Node-induced local view handed to one trainer.

    ``local_graph`` keeps exactly the train edges with both endpoints on
    this trainer; ``global_ids`` maps local ids back to the parent graph.
    """

    local_graph: Graph
    features: np.ndarray
    global_ids: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.local_graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.local_graph.num_edges


@dataclass(frozen=True)
class PartitionStats:
    edge_ratio: float
    node_counts: np.ndarray
    edge_counts: np.ndarray
    label_histograms: np.ndarray  # (M, k) per-partition class fractions

    def pairwise_histogram_distances(self) -> np.ndarray:
        h = self.label_histograms
        return np.linalg.norm(h[:, None, :] - h[None, :, :], axis=2)

    @property
    def max_histogram_distance(self) -> float:
        return float(self.pairwise_histogram_distances().max())


def partition_random_node(g: Graph, num_trainers: int, seed: int = 0) -> Partition:
    """Each node assigned to a trainer independently and uniformly."""
    if num_trainers < 1:
        raise PartitionError("need at least one trainer")
    rng = np.random.default_rng(seed)
    return Partition(
        assignment=rng.integers(0, num_trainers, size=g.num_nodes),
        num_trainers=num_trainers,
    )


def cluster(g: Graph, num_clusters: int, seed: int = 0, slack: float | None = None) -> np.ndarray:
    """Group nodes into ``num_clusters`` non-empty clusters with low edge cut.

    Seeded BFS region growing under a size cap, then one boundary
    refinement sweep in node-id order (equal gains resolved toward the
    lower cluster id). Without ``slack`` sizes stay within 2x of the even
    share; with it they are forced into ``(1 +/- slack) * n / N``.
    Disconnected graphs are handled by restarting the growth per component;
    isolated nodes are dealt round-robin.
    """
    n = g.num_nodes
    if not 1 <= num_clusters <= n:
        raise PartitionError("cluster count must be within [1, |V|]")
    rng = np.random.default_rng(seed)
    cap = math.ceil(n / num_clusters)
    labels = np.full(n, -1, dtype=np.int64)
    degrees = g.degrees()
    members: list[list[int]] = []

    # region growing over non-isolated nodes, rng only picks the start nodes
    start_order = rng.permutation(n)
    for start in start_order:
        if labels[start] != -1 or degrees[start] == 0:
            continue
        cid = len(members)
        queue = [int(start)]
        labels[start] = cid
        grown = [int(start)]
        qi = 0
        while qi < len(queue) and len(grown) < cap:
            v = queue[qi]
            qi += 1
            for u in g.neighbors(v):
                if labels[u] == -1 and len(grown) < cap:
                    labels[u] = cid
                    grown.append(int(u))
                    queue.append(int(u))
        members.append(grown)

    # merge smallest clusters while there are too many
    while len(members) > num_clusters:
        order = sorted(range(len(members)), key=lambda c: (len(members[c]), c))
        a, b = order[0], order[1]
        members[a].extend(members[b])
        del members[b]

    # split largest clusters (BFS-order tail) while there are too few;
    # leftover isolated nodes fill remaining slots as singletons
    isolated = [int(v) for v in np.nonzero(degrees == 0)[0]]
    while len(members) < num_clusters:
        big = max(range(len(members)), key=lambda c: (len(members[c]), -c))
        if len(members[big]) >= 2:
            keep = len(members[big]) // 2
            members.append(members[big][keep:])
            members[big] = members[big][:keep]
        elif isolated:
            members.append([isolated.pop(0)])
        else:
            raise PartitionError("cannot form that many non-empty clusters")

    # round-robin the remaining isolated nodes to preserve balance
    for j, v in enumerate(isolated):
        members[j % num_clusters].append(v)

    labels = np.full(n, -1, dtype=np.int64)
    for cid, nodes in enumerate(members):
        labels[np.asarray(nodes, dtype=np.int64)] = cid
    sizes = np.bincount(labels, minlength=num_clusters)

    if slack is None:
        min_size, max_size = 1, 2 * cap
    else:
        share = n / num_clusters
        min_size = max(1, math.floor((1.0 - slack) * share))
        max_size = math.ceil((1.0 + slack) * share)
        _force_balance(g, labels, sizes, min_size, max_size)

    _refine_sweep(g, labels, sizes, min_size, max_size)
    return labels


def _edge_counts_to_clusters(g: Graph, labels: np.ndarray, v: int, num: int) -> np.ndarray:
    nbr_labels = labels[g.neighbors(v)]
    return np.bincount(nbr_labels, minlength=num)


def _refine_sweep(g: Graph, labels: np.ndarray, sizes: np.ndarray, min_size: int, max_size: int):
    """One pass of greedy gain moves for boundary nodes, node-id order."""
    num = len(sizes)
    if num == 1:
        return
    for v in range(g.num_nodes):
        if g.degree(v) == 0:
            continue
        c = labels[v]
        counts = _edge_counts_to_clusters(g, labels, v, num)
        best = int(np.argmax(counts))  # argmax takes the lowest id on ties
        gain = counts[best] - counts[c]
        if best == c or gain <= 0:
            continue
        if sizes[c] - 1 < min_size or sizes[best] + 1 > max_size:
            continue
        labels[v] = best
        sizes[c] -= 1
        sizes[best] += 1


def _force_balance(g: Graph, labels: np.ndarray, sizes: np.ndarray, min_size: int, max_size: int):
    """Move least-attached nodes until every cluster size fits the window."""
    num = len(sizes)
    guard = 4 * g.num_nodes
    while guard > 0 and (sizes.max() > max_size or sizes.min() < min_size):
        guard -= 1
        src = int(np.argmax(sizes))
        dst = int(np.argmin(sizes))
        move = _best_move_candidate(g, labels, src, dst)
        labels[move] = dst
        sizes[src] -= 1
        sizes[dst] += 1
    if sizes.max() > max_size or sizes.min() < min_size:
        raise PartitionError("could not balance clusters within the slack window")


def _best_move_candidate(g: Graph, labels: np.ndarray, src: int, dst: int) -> int:
    nodes = np.nonzero(labels == src)[0]
    best_node, best_gain = int(nodes[0]), -(1 << 30)
    for v in nodes:
        nbr_labels = labels[g.neighbors(v)]
        gain = int(np.sum(nbr_labels == dst)) - int(np.sum(nbr_labels == src))
        if gain > best_gain:
            best_node, best_gain = int(v), gain
    return best_node


def partition_min_cut(g: Graph, num_trainers: int, seed: int = 0) -> Partition:
    """Low-cut balanced partition: one cluster per trainer, identity mapping."""
    labels = cluster(g, num_trainers, seed=seed, slack=BALANCE_SLACK)
    return Partition(assignment=labels, num_trainers=num_trainers)


def partition_super_node(
    g: Graph, num_trainers: int, num_clusters: int, seed: int = 0
) -> Partition:
    """Cluster first, then deal the clusters to trainers at random.

    The deal is a balanced random assignment (shuffled round-robin), which
    keeps partition node counts close to even. With ``num_clusters ==
    num_trainers`` the clustering runs under the partition-level balance
    slack, so the result equals the min-cut scheme up to trainer
    relabeling.
    """
    if num_clusters < num_trainers:
        raise PartitionError("need at least as many clusters as trainers")
    if num_clusters > g.num_nodes:
        raise PartitionError("more clusters than nodes")
    cluster_slack = BALANCE_SLACK if num_clusters == num_trainers else None
    labels = cluster(g, num_clusters, seed=seed, slack=cluster_slack)
    rng = np.random.default_rng(seed)
    order = rng.permutation(num_clusters)
    cluster_to_trainer = np.empty(num_clusters, dtype=np.int64)
    cluster_to_trainer[order] = np.arange(num_clusters) % num_trainers
    return Partition(assignment=cluster_to_trainer[labels], num_trainers=num_trainers)


def induce_subgraphs(
    train_graph: Graph,
    features: np.ndarray,
    partition: Partition,
    splits=None,
) -> list[Subgraph]:
    """Node-induced local subgraphs over the train graph, one per trainer.

    Cross-partition train edges are dropped. When ``splits`` is given, the
    exclusion of val/test positives is asserted as a cheap sanity check.
    """
    if partition.num_nodes != train_graph.num_nodes:
        raise PartitionError("partition does not cover the graph")
    assignment = partition.assignment
    edges = train_graph.edge_array()
    out = []
    for i in range(partition.num_trainers):
        nodes = partition.members(i)
        mask = (assignment[edges[:, 0]] == i) & (assignment[edges[:, 1]] == i)
        sub_edges = edges[mask]
        local_graph = Graph.from_edges(len(nodes), np.searchsorted(nodes, sub_edges))
        out.append(Subgraph(local_graph=local_graph, features=features[nodes], global_ids=nodes))
    if splits is not None:
        held_out = np.concatenate([splits.val_edges, splits.test_edges])
        n = train_graph.num_nodes
        held_keys = held_out[:, 0].astype(np.int64) * n + held_out[:, 1]
        for sub in out:
            e = sub.global_ids[sub.local_graph.edge_array()].astype(np.int64)
            keys = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])
            if np.isin(keys, held_keys).any():
                raise PartitionError("evaluation edge leaked into a local subgraph")
    return out


def partition_stats(train_graph: Graph, y: NodeLabels, partition: Partition) -> PartitionStats:
    """Edge retention ratio r, per-partition sizes, and label distributions."""
    assignment = partition.assignment
    edges = train_graph.edge_array()
    m = len(edges)
    same = assignment[edges[:, 0]] == assignment[edges[:, 1]]
    edge_counts = np.bincount(
        assignment[edges[same, 0]], minlength=partition.num_trainers
    )
    node_counts = partition.sizes()
    hist = np.zeros((partition.num_trainers, y.num_classes))
    for i in range(partition.num_trainers):
        nodes = partition.members(i)
        if len(nodes):
            hist[i] = np.bincount(y.labels[nodes], minlength=y.num_classes) / len(nodes)
    ratio = float(edge_counts.sum() / m) if m else 1.0
    return PartitionStats(
        edge_ratio=ratio,
        node_counts=node_counts,
        edge_counts=edge_counts,
        label_histograms=hist,
    )
