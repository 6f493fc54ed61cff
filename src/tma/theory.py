"""Closed-form analysis for two-class homophilic graphs.

Setting: |V| = 2*eta nodes, two equal classes, one-hot features, and two
equal-size partitions where a ``beta`` fraction of partition 1 is class 0
(so the partition label histograms are [beta, 1-beta] and [1-beta, beta]).
The model under analysis is the 1-layer linear GCN with sigmoid output and
L2 loss, evaluated at zero weights for the gradient statements.

Every closed form here is paired with a Monte Carlo binder that measures
the same quantity on generated graphs through the real aggregation and
backprop code, which is what ties the analysis to the running system. The
binders take labels only and derive the one-hot features from them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .graph import Graph, NodeLabels, pair_probability_scale
from .partition import Partition

_SINGULAR_EPS = 1e-12


class TheoryError(ValueError):
    pass


@dataclass(frozen=True)
class TwoClassSetup:
    """Two equal classes, two equal partitions, class-0 fraction beta on partition 1.

    The link model's normalization constant equals eta under equal class
    sizes. The per-pair Bernoulli generator maps onto it via the pair
    probability scale q: an expected cut of lambda in these units
    corresponds to q * eta * lambda generated edges.
    """

    beta: float
    h: float
    eta: int

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise TheoryError("beta must be in [0, 1]")
        if not 0.0 <= self.h <= 1.0:
            raise TheoryError("h must be in [0, 1]")
        if self.eta < 1:
            raise TheoryError("eta must be positive")

    @property
    def num_nodes(self) -> int:
        return 2 * self.eta


def expected_edge_cut(s: TwoClassSetup) -> float:
    """Expected cross-partition edge count, in link-model units."""
    b, h = s.beta, s.h
    return (1.0 - 2.0 * (1.0 - b) * b - (2.0 * b - 1.0) ** 2 * h) * s.eta


def argmin_edge_cut_beta(h: float) -> float:
    """Grid-minimize the expected cut over beta in [0.5, 1], in steps of 0.01."""
    betas = np.linspace(0.5, 1.0, 51)
    cuts = [expected_edge_cut(TwoClassSetup(beta=float(b), h=h, eta=100)) for b in betas]
    return float(betas[int(np.argmin(cuts))])


def _denominators(s: TwoClassSetup) -> tuple[float, float]:
    b, h = s.beta, s.h
    den1 = (1.0 - h) * b + h * (1.0 - b)
    den2 = (1.0 - h) * (1.0 - b) + h * b
    return den1, den2


def _require(value: float, what: str) -> float:
    if abs(value) < _SINGULAR_EPS:
        raise TheoryError(f"singular configuration: {what} vanishes")
    return value


def expected_initial_gradients(s: TwoClassSetup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected zero-weight gradients for a class-1 node: global, partition 1, partition 2."""
    b, h = s.beta, s.h
    den1, den2 = _denominators(s)
    _require(den1, "partition-1 effective degree")
    _require(den2, "partition-2 effective degree")
    g_global = -np.array([1.0 - h, h]) / 8.0
    g_local1 = -np.array([(1.0 - h) * b, h * (1.0 - b)]) / (8.0 * den1)
    g_local2 = -np.array([(1.0 - h) * (1.0 - b), h * b]) / (8.0 * den2)
    return g_global, g_local1, g_local2


def gradient_discrepancies(s: TwoClassSetup) -> tuple[float, float, float]:
    """Closed-form l2 gaps: (global vs local1, global vs local2, local1 vs local2)."""
    b, h = s.beta, s.h
    den1, den2 = _denominators(s)
    _require(den1, "partition-1 effective degree")
    _require(den2, "partition-2 effective degree")
    root2 = math.sqrt(2.0)
    d_g1 = (root2 / 8.0) * abs((1.0 - 2.0 * b) * (h - 1.0) * h / (b - 2.0 * b * h + h))
    d_g2 = (root2 / 8.0) * abs(
        (2.0 * b - 1.0) * (h - 1.0) * h / (1.0 - b + (2.0 * b - 1.0) * h)
    )
    d_12 = abs(
        ((2.0 * b - 1.0) * (h - 1.0) * h / (4.0 * root2))
        / ((b - 2.0 * b * h + h - 1.0) * (b - 2.0 * b * h + h))
    )
    return d_g1, d_g2, d_12


def expected_local_loss(s: TwoClassSetup, w0: float, w1: float, instance: int) -> float:
    """Expected L2 loss of a class-1 node on one partition, arbitrary weights."""
    b, h = s.beta, s.h
    if instance == 1:
        den = _require((2.0 * b - 1.0) * h - b, "partition-1 loss denominator")
        x = (b * (h - 1.0) * w0 + (b - 1.0) * h * w1) / den
    elif instance == 2:
        den = _require(-b + (2.0 * b - 1.0) * h + 1.0, "partition-2 loss denominator")
        x = ((b - 1.0) * (h - 1.0) * w0 + b * h * w1) / den
    else:
        raise TheoryError("instance must be 1 or 2")
    return float((1.0 + math.exp(x)) ** -2)


# ---------------------------------------------------------------------------
# Monte Carlo binders against generated graphs and the nn code


def label_aligned_partition(y: NodeLabels, beta: float) -> Partition:
    """Deterministic two-way partition with a beta fraction of class 0 on side 1.

    Built directly from labels (lowest ids first) so the closed forms are
    exercised independently of clusterer quality.
    """
    if y.num_classes != 2:
        raise TheoryError("label-aligned partitions are defined for two classes")
    n = len(y.labels)
    eta = n // 2
    class0 = np.nonzero(y.labels == 0)[0]
    class1 = np.nonzero(y.labels == 1)[0]
    if len(class0) != eta or len(class1) != eta:
        raise TheoryError("classes must be exactly equal-sized")
    take0 = int(round(beta * eta))
    assignment = np.ones(n, dtype=np.int32)
    assignment[class0[:take0]] = 0
    assignment[class1[: eta - take0]] = 0
    return Partition(assignment=assignment, num_trainers=2)


def predicted_generator_cut(s: TwoClassSetup, mean_degree: float) -> float:
    """Expected cross-partition edges of the Bernoulli generator for this setup."""
    q = pair_probability_scale(s.num_nodes, mean_degree, s.h, 2)
    return expected_edge_cut(s) * q * s.eta


def partition_neighbor_view(g: Graph, member_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjacency restricted to neighbors inside one partition.

    Every node keeps a row (hypothetical placement), so expected local
    gradients can be measured for nodes of either class even when the
    partition contains none of them.
    """
    keep = member_mask[g.indices]
    new_indices = g.indices[keep]
    counts = np.concatenate([[0], np.cumsum(keep)])
    new_indptr = counts[g.indptr]
    return new_indptr.astype(np.int64), new_indices


def _class1_gradient(
    y: NodeLabels, view: tuple[np.ndarray, np.ndarray], candidates: np.ndarray
) -> np.ndarray | None:
    """Zero-weight mean gradient over the class-1 ``candidates`` that have a
    neighbor in ``view``, or None when there are none.

    Runs the actual linear-model backprop on one-hot features of ``y``.
    """
    indptr, indices = view
    rows = np.nonzero(candidates & (y.labels == 1) & (np.diff(indptr) > 0))[0]
    if len(rows) == 0:
        return None
    x = np.eye(y.num_classes)[y.labels]
    w = np.zeros((y.num_classes, 1))
    _, grad = nn.theory_mean_gradient(w, indptr, indices, x, y.labels, rows)
    return grad[:, 0]


def empirical_initial_gradients(
    g: Graph, y: NodeLabels, p: Partition
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measured zero-weight mean gradients of class-1 nodes: global, side 1, side 2.

    Nodes with no in-scope neighbors are skipped (their neighbor mean is
    undefined in the analysis).
    """
    everyone = np.ones(g.num_nodes, dtype=bool)
    views = [
        (g.indptr, g.indices),
        partition_neighbor_view(g, p.assignment == 0),
        partition_neighbor_view(g, p.assignment == 1),
    ]
    out = [_class1_gradient(y, view, everyone) for view in views]
    if any(grad is None for grad in out):
        raise TheoryError("no eligible class-1 nodes for gradient measurement")
    return out[0], out[1], out[2]


def trainer_gradient_spread(g: Graph, y: NodeLabels, p: Partition) -> float:
    """Max pairwise gap of per-trainer mean initial gradients (class-1 nodes).

    Each trainer sees only its own members and their neighbors among them.
    Trainers whose local view offers no eligible class-1 node are skipped.
    """
    grads = []
    for i in range(p.num_trainers):
        members = p.assignment == i
        grad = _class1_gradient(y, partition_neighbor_view(g, members), members)
        if grad is not None:
            grads.append(grad)
    return max(
        (float(np.linalg.norm(a - b)) for a, b in itertools.combinations(grads, 2)),
        default=0.0,
    )
