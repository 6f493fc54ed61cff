"""Ranking evaluation: MRR of each positive against its fixed negative tails.

Embeddings are always computed on the full (training) graph without
neighbor sampling, so repeated evaluations of the same weights are
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import EdgeSplits, Graph
from .nn import ModelConfig, ModelWeights, decode, encode

# positives whose negatives are decoded in one call; bounds the gathered
# embedding rows to DECODE_CHUNK * k. With the broadcast decode, a desk10k
# val evaluation took 26 ms at 64 against 29 ms at 128 or 256 and 37 ms at 512
DECODE_CHUNK = 64


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class EvalResult:
    mrr: float
    reciprocal_ranks: np.ndarray
    split: str
    round: int = -1


def ranks_of(positive_scores: np.ndarray, negative_scores: np.ndarray) -> np.ndarray:
    """Average-rank position of each positive among its row of negatives.

    rank = 1 + #{neg > pos} + #{neg == pos} / 2.
    """
    pos = np.asarray(positive_scores, dtype=np.float64)[:, None]
    neg = np.asarray(negative_scores, dtype=np.float64)
    return 1.0 + np.sum(neg > pos, axis=1) + np.sum(neg == pos, axis=1) / 2.0


def evaluate(
    w: ModelWeights,
    cfg: ModelConfig,
    full_graph: Graph,
    features: np.ndarray,
    splits: EdgeSplits,
    split: str,
    round: int = -1,
) -> EvalResult:
    """MRR over the fixed negative candidate sets of the chosen split."""
    if split == "val":
        edges, negs = splits.val_edges, splits.val_negatives
    elif split == "test":
        edges, negs = splits.test_edges, splits.test_negatives
    else:
        raise EvalError(f"unknown split {split!r}")
    if len(edges) == 0:
        raise EvalError(f"{split} split is empty")
    if negs.shape[0] != len(edges) or negs.shape[1] == 0:
        raise EvalError("missing negatives for evaluation positives")
    if w.fingerprint != cfg.fingerprint():
        raise EvalError("weights do not match the model config")

    emb = encode(cfg, w, full_graph, features)
    n_pos, k = negs.shape
    # ``take`` gathers rows several times faster than fancy indexing does
    pos_scores = decode(cfg, w, emb.take(edges[:, 0], axis=0), emb.take(edges[:, 1], axis=0))
    neg_scores = np.empty((n_pos, k))
    for lo in range(0, n_pos, DECODE_CHUNK):
        rows = slice(lo, lo + DECODE_CHUNK)
        # each head row broadcasts against its k negatives' rows
        heads = emb.take(edges[rows, 0], axis=0)[:, None, :]
        neg_scores[rows] = decode(cfg, w, heads, emb.take(negs[rows], axis=0)).reshape(-1, k)
    rr = 1.0 / ranks_of(pos_scores, neg_scores)
    return EvalResult(mrr=float(rr.mean()), reciprocal_ranks=rr, split=split, round=round)
