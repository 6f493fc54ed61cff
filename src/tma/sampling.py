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
        if np.any(self.output_nodes[pos] != nodes):
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
    """All adjacency entries of the frontier nodes, with segment ids."""
    counts = (g.indptr[frontier + 1] - g.indptr[frontier]).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64), counts
    seg_starts = np.cumsum(counts) - counts
    offsets = np.repeat(seg_starts, counts)
    intra = np.arange(total) - offsets
    flat = np.repeat(g.indptr[frontier], counts) + intra
    nbrs = g.indices[flat].astype(np.int64)
    seg = np.repeat(np.arange(len(frontier)), counts)
    return nbrs, seg, counts


def build_mfg(g: Graph, seed_nodes: np.ndarray, fanouts, rng: np.random.Generator) -> Mfg:
    """Layered neighbor sampling outward from the seeds.

    ``fanouts[i]`` caps the neighbors drawn on hop i+1 from the batch nodes
    (used by encoder layer ``L - i``); ``None`` means no cap. Sampling is
    without replacement per node and deterministic given the rng state.
    """
    seeds = np.unique(np.asarray(seed_nodes, dtype=np.int64))
    if len(seeds) and (seeds[0] < 0 or seeds[-1] >= g.num_nodes):
        raise SamplingError("seed node outside the local graph")
    frontier = seeds
    hops = []  # (dst_frontier, kept neighbor ids, kept segment ids, kept counts)
    for fanout in fanouts:
        if fanout is not None and fanout < 0:
            raise SamplingError("fanout must be >= 0 or None")
        nbrs, seg, counts = _gather_adjacency(g, frontier)
        if fanout is not None and len(nbrs) and np.any(counts > fanout):
            keys = rng.random(len(nbrs))
            order = np.lexsort((keys, seg))
            seg_sorted = seg[order]
            kept_counts = np.minimum(counts, fanout)
            starts = np.cumsum(counts) - counts
            within = np.arange(len(nbrs)) - np.repeat(starts, counts)
            mask = within < fanout
            nbrs, seg, counts = nbrs[order][mask], seg_sorted[mask], kept_counts
        hops.append((frontier, nbrs, seg, counts))
        frontier = np.unique(np.concatenate([frontier, nbrs]))

    input_nodes = frontier
    blocks: list[Block] = []
    # deepest hop becomes the first encoder block
    src = input_nodes
    for dst, nbrs, seg, counts in reversed(hops):
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
    pos = np.asarray(train_edges, dtype=np.int64)[sel]
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
