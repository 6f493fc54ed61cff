"""Mini-batch construction on a local subgraph.

Positive edges are drawn uniformly without replacement within a batch, each
paired with one corrupted tail drawn from the local node set, and a layered
neighbor-sampled structure is built over all endpoints for the encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph
from .nn import Block


class SamplingError(ValueError):
    pass


@dataclass(frozen=True)
class Mfg:
    """Layered sampled computation structure for one batch.

    ``blocks`` are ordered input-most first, ready for the encoder;
    ``input_nodes`` are the rows of the feature matrix to feed in, and
    ``output_nodes`` (sorted, deduplicated) are the nodes whose embeddings
    come out. Frontiers grow monotonically, so every destination of a block
    also appears among its sources.
    """

    blocks: list[Block]
    input_nodes: np.ndarray
    output_nodes: np.ndarray

    def output_positions(self, nodes: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.output_nodes, nodes)
        if np.any(pos == len(self.output_nodes)) or np.any(self.output_nodes[pos] != nodes):
            raise SamplingError("node missing from output layer")
        return pos


@dataclass(frozen=True)
class Minibatch:
    positives: np.ndarray  # (B, 2) local edges
    negatives: np.ndarray  # (B, 2) corrupted (u, v')
    mfg: Mfg

    def pair_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(u_rows, v_rows, labels) into the mfg output embeddings, positives first."""
        u = self.mfg.output_positions(
            np.concatenate([self.positives[:, 0], self.negatives[:, 0]])
        )
        v = self.mfg.output_positions(
            np.concatenate([self.positives[:, 1], self.negatives[:, 1]])
        )
        labels = np.concatenate(
            [np.ones(len(self.positives)), np.zeros(len(self.negatives))]
        )
        return u, v, labels


def _gather_adjacency(g: Graph, frontier: np.ndarray):
    """All adjacency entries of the frontier nodes, grouped by node.

    Returns the neighbour ids, each entry's rank within its node's group,
    and the per-node counts.
    """
    counts = (g.indptr[frontier + 1] - g.indptr[frontier]).astype(np.int64)
    intra = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    flat = np.repeat(g.indptr[frontier], counts) + intra
    return g.indices[flat].astype(np.int64), intra, counts


def _segment_order(seg: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.lexsort((keys, seg))`` for integer ``seg`` and ``keys`` in [0, 1).

    The exact sums ``seg + keys`` order the entries by segment and then by
    key, and rounding them to floats never reverses two of them. So when the
    sorted float sums strictly increase, one float sort gives the
    lexicographic order; a tie falls back to ``np.lexsort``.
    """
    sums = seg + keys
    order = np.argsort(sums)
    sums = sums[order]
    if np.all(sums[1:] > sums[:-1]):
        return order
    return np.lexsort((keys, seg))


def build_mfg(g: Graph, seed_nodes: np.ndarray, fanouts, rng: np.random.Generator) -> Mfg:
    """Layered neighbor sampling outward from the seeds.

    ``fanouts[i]`` caps the neighbors drawn on hop i+1 from the batch nodes
    (used by encoder layer ``L - i``); ``None`` means no cap. Sampling is
    without replacement per node. Apart from the per-hop sort of the
    sampled keys, the work is linear in the nodes and the adjacency
    entries of the frontier, and the result is bit-equal for a given rng
    state.
    """
    seed_nodes = np.asarray(seed_nodes, dtype=np.int64)
    if seed_nodes.size and (seed_nodes.min() < 0 or seed_nodes.max() >= g.num_nodes):
        raise SamplingError("seed node outside the local graph")
    # frontiers grow monotonically: each is the sorted set of nodes seen so far
    seen = np.zeros(g.num_nodes, dtype=bool)
    seen[seed_nodes] = True
    seeds = frontier = np.flatnonzero(seen)
    hops = []  # (dst_frontier, kept neighbor ids, kept counts)
    for fanout in fanouts:
        if fanout is not None and fanout < 0:
            raise SamplingError("fanout must be >= 0 or None")
        nbrs, intra, counts = _gather_adjacency(g, frontier)
        if fanout is not None and len(nbrs) and np.any(counts > fanout):
            keys = rng.random(len(nbrs))
            seg = np.repeat(np.arange(len(frontier)), counts)
            # sorting keeps each segment in its slots, so ``intra`` ranks the sorted entries
            order = _segment_order(seg, keys)[intra < fanout]
            nbrs, counts = nbrs[order], np.minimum(counts, fanout)
        hops.append((frontier, nbrs, counts))
        seen[nbrs] = True
        frontier = np.flatnonzero(seen)

    input_nodes = frontier
    blocks: list[Block] = []
    position = np.empty(g.num_nodes, dtype=np.int64)
    # deepest hop becomes the first encoder block
    src = input_nodes
    for dst, nbrs, counts in reversed(hops):
        position[src] = np.arange(len(src))
        indptr = np.zeros(len(dst) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        blocks.append(
            Block(
                num_src=len(src),
                indptr=indptr,
                nbr=position[nbrs],
                self_idx=position[dst],
            )
        )
        src = dst
    return Mfg(blocks=blocks, input_nodes=input_nodes, output_nodes=seeds)


def sample_minibatch(
    local_graph: Graph,
    train_edges: np.ndarray,
    batch_size: int,
    fanouts,
    rng: np.random.Generator,
) -> Minibatch:
    """Uniform positive edges without replacement plus one corrupted tail each."""
    m = len(train_edges)
    if m == 0:
        raise SamplingError("trainer has no local edges")
    n = local_graph.num_nodes
    if n < 2:
        raise SamplingError("cannot corrupt tails with fewer than 2 local nodes")
    take = min(batch_size, m)
    sel = rng.permutation(m)[:take]
    pos = np.asarray(train_edges)[sel].astype(np.int64)
    tails = rng.integers(0, n, size=take)
    for _ in range(64):
        clash = tails == pos[:, 1]
        if not clash.any():
            break
        tails[clash] = rng.integers(0, n, size=int(clash.sum()))
    else:
        raise SamplingError("failed to draw distinct corrupted tails")
    neg = np.column_stack([pos[:, 0], tails])
    seeds = np.concatenate([pos.ravel(), tails])
    mfg = build_mfg(local_graph, seeds, fanouts, rng)
    return Minibatch(positives=pos, negatives=neg, mfg=mfg)
