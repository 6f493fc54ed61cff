"""Graph storage, synthetic homophilic graph generation, and edge splits.

Graphs are undirected simple graphs held in compressed sparse adjacency
form with both edge directions materialized, so out-neighbor scans (mean
aggregation) are a single contiguous slice per node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# shuffled sweeps build_splits makes over the edges before it gives up
SPLIT_PASSES = 5


class GraphError(ValueError):
    """Structural violation in a graph or derived artifact."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in CSR form.

    ``indptr`` has length ``num_nodes + 1``; ``indices`` holds the sorted
    neighbor list of every node, both directions stored, so
    ``len(indices) == 2 * num_edges``. Immutable after construction: safe
    for unsynchronized shared reads across threads and processes.
    """

    indptr: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indptr", _frozen(np.asarray(self.indptr, dtype=np.int64)))
        object.__setattr__(self, "indices", _frozen(np.asarray(self.indices, dtype=np.int32)))

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_array(self) -> np.ndarray:
        """Undirected edges as an (m, 2) int32 array with u < v, sorted."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int32), self.degrees())
        dst = self.indices
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def validate(self) -> None:
        """Check all structural invariants; raise GraphError on the first failure."""
        n = self.num_nodes
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise GraphError("indptr does not cover the neighbor array")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphError("indptr not monotone")
        if len(self.indices) == 0:
            return
        if self.indices.min() < 0 or self.indices.max() >= n:
            bad = int(np.nonzero((self.indices < 0) | (self.indices >= n))[0][0])
            raise GraphError(f"neighbor id out of range at record {bad}")
        src = np.repeat(np.arange(n, dtype=np.int64), self.degrees())
        dst = self.indices.astype(np.int64)
        loops = np.nonzero(src == dst)[0]
        if len(loops):
            raise GraphError(f"self-loop at node {int(src[loops[0]])}")
        # Strictly increasing within each row: diffs may only be <= 0 at row breaks.
        nondec = np.nonzero(np.diff(dst) <= 0)[0]
        row_break = np.isin(nondec + 1, self.indptr[1:-1])
        if np.any(~row_break):
            bad = int(nondec[~row_break][0])
            raise GraphError(
                f"neighbor list of node {int(src[bad])} not sorted at record {bad}"
            )
        # Symmetry: the multiset of (u, v) equals the multiset of (v, u).
        fwd = np.sort(src * n + dst)
        rev = np.sort(dst * n + src)
        if not np.array_equal(fwd, rev):
            bad = int(np.nonzero(fwd != rev)[0][0])
            u, v = divmod(int(fwd[bad]), n)
            raise GraphError(f"adjacency not symmetric near edge ({u}, {v})")

    @classmethod
    def from_edges(cls, num_nodes: int, edges: np.ndarray) -> "Graph":
        """Build a graph from an (m, 2) array of undirected edges.

        Edges may be in any order/orientation; duplicates and self-loops
        are rejected.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if len(edges):
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise GraphError("edge endpoint out of range")
            if np.any(edges[:, 0] == edges[:, 1]):
                bad = int(np.nonzero(edges[:, 0] == edges[:, 1])[0][0])
                raise GraphError(f"self-loop in edge record {bad}")
            lo = np.minimum(edges[:, 0], edges[:, 1])
            hi = np.maximum(edges[:, 0], edges[:, 1])
            keys = lo * num_nodes + hi
            if len(np.unique(keys)) != len(keys):
                raise GraphError("duplicate edge in input")
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr=indptr, indices=dst.astype(np.int32))


@dataclass(frozen=True)
class NodeLabels:
    """Per-node class ids in {0..num_classes-1}."""

    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "labels", _frozen(np.asarray(self.labels, dtype=np.int16)))
        if len(self.labels) and int(self.labels.max()) >= self.num_classes:
            raise GraphError("label out of range")
        if len(self.labels) and int(self.labels.min()) < 0:
            raise GraphError("negative label")


@dataclass(frozen=True)
class CompatibilityMatrix:
    """Class-pair link propensity: ``h`` on the diagonal, ``(1-h)/(k-1)`` off it."""

    h: float
    k: int

    def __post_init__(self):
        if not 0.0 <= self.h <= 1.0:
            raise ValueError("h must be in [0, 1]")
        if self.k < 2:
            raise ValueError("need at least 2 classes")

    def entry(self, a: int, b: int) -> float:
        return self.h if a == b else (1.0 - self.h) / (self.k - 1)

    def matrix(self) -> np.ndarray:
        off = (1.0 - self.h) / (self.k - 1)
        m = np.full((self.k, self.k), off)
        np.fill_diagonal(m, self.h)
        return m

    @property
    def max_entry(self) -> float:
        return max(self.h, (1.0 - self.h) / (self.k - 1))


@dataclass(frozen=True)
class EdgeSplits:
    """Train/val/test positives plus fixed corrupted-tail candidates.

    ``neg_tails`` has one row of ``num_negatives`` distinct tails per
    evaluation positive, validation rows first, then test rows. The rows
    are fixed at split time so repeated evaluations rank against the
    identical candidate sets.
    """

    train_edges: np.ndarray
    val_edges: np.ndarray
    test_edges: np.ndarray
    neg_tails: np.ndarray

    def __post_init__(self):
        for name in ("train_edges", "val_edges", "test_edges"):
            arr = np.asarray(getattr(self, name), dtype=np.int32).reshape(-1, 2)
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(
            self, "neg_tails", _frozen(np.asarray(self.neg_tails, dtype=np.int32))
        )
        if len(self.neg_tails) != len(self.val_edges) + len(self.test_edges):
            raise GraphError("one negative row required per val/test positive")

    @property
    def num_negatives(self) -> int:
        return self.neg_tails.shape[1] if self.neg_tails.ndim == 2 else 0

    @property
    def val_negatives(self) -> np.ndarray:
        return self.neg_tails[: len(self.val_edges)]

    @property
    def test_negatives(self) -> np.ndarray:
        return self.neg_tails[len(self.val_edges) :]


def pair_probability_scale(num_nodes: int, mean_degree: float, h: float, k: int) -> float:
    """Per-pair Bernoulli scale q so that q * H(y_i, y_j) yields the target mean degree.

    Every node sees class-pair weights summing to ``num_nodes/k - h``
    under exactly equal class sizes, hence q = mean_degree / (n/k - h).
    """
    return mean_degree / (num_nodes / k - h)


def generate_synthetic(
    num_nodes: int,
    mean_degree: float,
    h: float,
    k: int = 2,
    seed: int = 0,
) -> tuple[Graph, np.ndarray, NodeLabels]:
    """Sample a homophilic graph from the class compatibility model.

    Classes are exactly equal-sized (label of node i is ``i % k``) and each
    unordered pair (i, j) is included independently with probability
    ``q * H(y_i, y_j)``. Features are one-hot labels (float32).
    """
    compat = CompatibilityMatrix(h=h, k=k)
    if num_nodes % 2 or num_nodes % k:
        raise ValueError("num_nodes must be even and divisible by k")
    if mean_degree <= 0 or mean_degree * num_nodes > num_nodes**2 / 4:
        raise ValueError("mean_degree out of range for this graph size")
    q = pair_probability_scale(num_nodes, mean_degree, h, k)
    if q * compat.max_entry > 1.0:
        raise ValueError(f"mean_degree {mean_degree} too large for h={h}: pair probability exceeds 1")

    rng = np.random.default_rng(seed)
    c = num_nodes // k
    chunks = []
    for a in range(k):
        for b in range(a, k):
            p = q * compat.entry(a, b)
            if p <= 0.0:
                continue
            if a == b:
                n_pairs = c * (c - 1) // 2
                m = int(rng.binomial(n_pairs, p))
                idx = _sample_distinct(rng, n_pairs, m)
                i, j = _triangular_decode(idx, c)
            else:
                n_pairs = c * c
                m = int(rng.binomial(n_pairs, p))
                idx = _sample_distinct(rng, n_pairs, m)
                i, j = idx // c, idx % c
            # class a's nodes are a, a+k, a+2k, ... (interleaved layout)
            chunks.append(np.column_stack([a + i * k, b + j * k]))
    edges = np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    g = Graph.from_edges(num_nodes, edges)
    labels = NodeLabels(labels=np.arange(num_nodes) % k, num_classes=k)
    features = np.zeros((num_nodes, k), dtype=np.float32)
    features[np.arange(num_nodes), labels.labels] = 1.0
    return g, features, labels


def _sample_distinct(rng: np.random.Generator, n_total: int, m: int) -> np.ndarray:
    """m distinct integers uniform over [0, n_total), sorted.

    Draws i.i.d. and keeps the first m distinct values in draw order,
    which is uniform over m-subsets without materializing [0, n_total).
    """
    if m > n_total:
        raise ValueError("cannot sample more distinct values than exist")
    if m == 0:
        return np.empty(0, dtype=np.int64)
    draws = rng.integers(0, n_total, size=m + m // 4 + 16)
    while True:
        uniq, first = np.unique(draws, return_index=True)
        if len(uniq) >= m:
            sel = uniq[np.argsort(first)[:m]]
            return np.sort(sel)
        extra = rng.integers(0, n_total, size=2 * (m - len(uniq)) + 16)
        draws = np.concatenate([draws, extra])


def _triangular_decode(t: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Map linear indices of {(i, j): 0 <= i < j < c} back to (i, j)."""
    t = t.astype(np.int64)
    tw = 2 * c - 1
    i = np.floor((tw - np.sqrt(tw * tw - 8.0 * t)) / 2.0).astype(np.int64)
    # float sqrt can land one row off; nudge until C(i) <= t < C(i+1)
    def cum(r):
        return r * (c - 1) - r * (r - 1) // 2

    for _ in range(3):
        too_high = t < cum(i)
        too_low = t >= cum(i + 1)
        if not (too_high.any() or too_low.any()):
            break
        i = i - too_high.astype(np.int64) + too_low.astype(np.int64)
    j = i + 1 + (t - cum(i))
    return i, j


def measure_homophily(g: Graph, y: NodeLabels) -> float:
    """Fraction of undirected edges whose endpoints share a class label."""
    if len(y.labels) != g.num_nodes:
        raise GraphError("labels do not cover all nodes")
    if g.num_edges == 0:
        raise GraphError("undefined homophily: empty edge set")
    e = g.edge_array()
    same = y.labels[e[:, 0]] == y.labels[e[:, 1]]
    return float(np.mean(same))


def build_splits(
    g: Graph,
    val_frac: float,
    test_frac: float,
    k_negatives: int,
    seed: int = 0,
) -> tuple[Graph, EdgeSplits]:
    """Carve val/test positives out of g and freeze negative candidate sets.

    Positives are sampled uniformly without replacement, rejecting any edge
    whose removal would leave an endpoint with degree 0 in the training
    graph. Deterministic under seed.
    """
    if val_frac < 0 or test_frac < 0 or val_frac + test_frac >= 0.5:
        raise ValueError("val_frac + test_frac must be < 0.5")
    m = g.num_edges
    n = g.num_nodes
    n_val = int(round(val_frac * m))
    n_test = int(round(test_frac * m))
    want = n_val + n_test
    if k_negatives < 0 or k_negatives > n - 2:
        raise ValueError("k_negatives must fit among the non-endpoint nodes")

    rng = np.random.default_rng(seed)
    edges = g.edge_array()
    deg = g.degrees().copy()
    chosen: list[int] = []
    taken = np.zeros(m, dtype=bool)
    for _ in range(SPLIT_PASSES):
        if len(chosen) >= want:
            break
        order = rng.permutation(m)
        for ei in order:
            if len(chosen) >= want:
                break
            if taken[ei]:
                continue
            u, v = edges[ei]
            if deg[u] > 1 and deg[v] > 1:
                taken[ei] = True
                chosen.append(int(ei))
                deg[u] -= 1
                deg[v] -= 1
    if len(chosen) < want:
        raise GraphError(
            f"graph too small to remove {want} eval edges under the degree guard"
        )
    chosen_arr = np.array(chosen[:want], dtype=np.int64)
    val_edges = edges[chosen_arr[:n_val]]
    test_edges = edges[chosen_arr[n_val:]]
    train_mask = np.ones(m, dtype=bool)
    train_mask[chosen_arr] = False
    train_edges = edges[train_mask]
    train_graph = Graph.from_edges(n, train_edges)

    eval_edges = np.concatenate([val_edges, test_edges]) if want else np.empty((0, 2), np.int32)
    neg = np.empty((want, k_negatives), dtype=np.int32)
    for row, (u, v) in enumerate(eval_edges):
        cand = rng.choice(n, size=min(n, k_negatives + 2), replace=False)
        cand = cand[(cand != u) & (cand != v)][:k_negatives]
        neg[row] = cand
    return train_graph, EdgeSplits(
        train_edges=train_edges, val_edges=val_edges, test_edges=test_edges, neg_tails=neg
    )
