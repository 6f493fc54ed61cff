import numpy as np
import pytest

import tma.evaluate as evaluate_module
from tma.evaluate import DECODE_CHUNK, EvalError, evaluate, ranks_of
from tma.graph import build_splits, generate_synthetic
from tma.nn import ModelConfig, decode, encode, init_weights


class TestRankOf:
    """The average rank of a single positive, as a one-row ranks_of call."""

    def test_positive_on_top(self):
        assert ranks_of(np.array([5.0]), np.array([[1.0, 2.0, 3.0]])).tolist() == [1.0]

    def test_positive_at_bottom(self):
        k = 10
        assert ranks_of(np.array([-1.0]), np.arange(k, dtype=float)[None, :]).tolist() == [k + 1]

    def test_all_tied(self):
        k = 10
        assert ranks_of(np.array([0.5]), np.full((1, k), 0.5)).tolist() == [(k + 2) / 2]

    def test_single_tie_above_rest(self):
        # ties with exactly one negative, all others strictly below
        (rank,) = ranks_of(np.array([2.0]), np.array([[2.0, 1.0, 0.0, -1.0]]))
        assert rank == 1.5
        assert 1.0 / rank == pytest.approx(2 / 3)


class TestMrrProperties:
    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=20)
        neg = rng.normal(size=(20, 50))
        base = ranks_of(pos, neg)
        warped = ranks_of(np.exp(pos) + 3, np.exp(neg) + 3)
        assert np.array_equal(base, warped)

    def test_duplicated_candidates_keep_mrr(self):
        rng = np.random.default_rng(1)
        pos = rng.normal(size=10)
        neg = rng.normal(size=(10, 30))
        rr = 1.0 / ranks_of(pos, neg)
        rr_dup = 1.0 / ranks_of(np.concatenate([pos, pos]), np.vstack([neg, neg]))
        assert np.mean(rr) == pytest.approx(np.mean(rr_dup))

    def test_random_scores_match_uniform_rank_expectation(self):
        k = 1000
        expected = np.mean(1.0 / np.arange(1, k + 2))  # uniform rank in [1, k+1]
        rng = np.random.default_rng(2)
        n = 4000
        pos = rng.normal(size=n)
        neg = rng.normal(size=(n, k))
        mrr = np.mean(1.0 / ranks_of(pos, neg))
        # per-sample variance of 1/rank
        var = np.mean((1.0 / np.arange(1, k + 2)) ** 2) - expected**2
        sigma = np.sqrt(var / n)
        assert abs(mrr - expected) < 3 * sigma
        assert expected == pytest.approx(0.0074, abs=5e-4)


class TestEvaluate:
    def setup_method(self):
        g, self.x, _ = generate_synthetic(300, 6.0, 0.8, seed=0)
        self.train, self.splits = build_splits(g, 0.05, 0.05, 20, seed=1)
        self.cfg = ModelConfig(in_dim=self.x.shape[1], encoder="gcn", layers=2, hidden_dim=8, seed=2)
        self.w = init_weights(self.cfg)

    def test_deterministic(self):
        a = evaluate(self.w, self.cfg, self.train, self.x, self.splits, "val")
        b = evaluate(self.w, self.cfg, self.train, self.x, self.splits, "val")
        assert a.mrr == b.mrr
        assert np.array_equal(a.reciprocal_ranks, b.reciprocal_ranks)

    def test_result_shape_and_bounds(self):
        res = evaluate(self.w, self.cfg, self.train, self.x, self.splits, "test", round=4)
        assert res.split == "test"
        assert res.round == 4
        assert 0.0 < res.mrr <= 1.0
        assert len(res.reciprocal_ranks) == len(self.splits.test_edges)
        assert res.mrr == pytest.approx(res.reciprocal_ranks.mean())
        k = self.splits.num_negatives
        assert np.all(res.reciprocal_ranks >= 1.0 / (k + 1))

    def test_unknown_split_rejected(self):
        with pytest.raises(EvalError):
            evaluate(self.w, self.cfg, self.train, self.x, self.splits, "train")

    def test_fingerprint_checked(self):
        other = ModelConfig(in_dim=self.x.shape[1], encoder="mlp", layers=1, hidden_dim=8)
        with pytest.raises(EvalError):
            evaluate(self.w, other, self.train, self.x, self.splits, "val")


def test_chunked_decode_matches_one_call_decode():
    g, x, _ = generate_synthetic(1000, 12.0, 0.8, seed=3)
    train, splits = build_splits(g, 0.05, 0.05, 20, seed=4)
    edges, negs = splits.val_edges, splits.val_negatives
    n_pos, k = negs.shape
    assert n_pos > DECODE_CHUNK and n_pos % DECODE_CHUNK != 0
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=32, seed=5)
    w = init_weights(cfg)

    emb = encode(cfg, w, train, x)
    pos = decode(cfg, w, emb[edges[:, 0]], emb[edges[:, 1]])
    neg = decode(cfg, w, emb[np.repeat(edges[:, 0], k)], emb[negs.ravel()]).reshape(n_pos, k)
    expected = 1.0 / ranks_of(pos, neg)

    res = evaluate(w, cfg, train, x, splits, "val")
    assert np.array_equal(res.reciprocal_ranks, expected)


def test_one_evaluate_scores_every_pair_once(monkeypatch):
    # the traced benchmark counts ``len(scores)`` of each decode call as pairs scored
    g, x, _ = generate_synthetic(400, 8.0, 0.8, seed=5)
    train, splits = build_splits(g, 0.05, 0.05, 20, seed=6)
    n_pos, k = splits.val_negatives.shape
    assert n_pos > DECODE_CHUNK
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=8, seed=7)
    scored = []

    def counted(*args, fn=evaluate_module.decode):
        scores = fn(*args)
        scored.append(len(scores))
        return scores

    monkeypatch.setattr(evaluate_module, "decode", counted)
    evaluate(init_weights(cfg), cfg, train, x, splits, "val")
    assert sum(scored) == n_pos * (k + 1)
