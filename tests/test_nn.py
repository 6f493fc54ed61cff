import hashlib
import struct

import numpy as np
import pytest

from tma import nn
from tma.fileio import ParseError, weights_from_bytes, weights_to_bytes
from tma.graph import Graph, generate_synthetic
from tma.nn import (
    AdamState,
    ModelConfig,
    ModelWeights,
    adam_step,
    aggregate_average,
    decode,
    encode,
    full_graph_blocks,
    init_weights,
    link_loss_and_grads,
    loss_bce,
    loss_l2,
    zero_grads,
)
from tma.sampling import build_mfg


def star_graph(leaves=4):
    edges = np.array([[0, i] for i in range(1, leaves + 1)])
    return Graph.from_edges(leaves + 1, edges)


def random_graph(n=12, seed=0):
    g, x, _ = generate_synthetic(n, 2.5, 0.7, seed=seed)
    return g, x


def dense_encode_oracle(cfg, w, g, x):
    """Brute-force dense forward with explicit row-normalized matrices."""
    n = g.num_nodes
    a = np.zeros((n, n))
    for v in range(n):
        a[v, g.neighbors(v)] = 1.0
    h = np.asarray(x, dtype=np.float64)
    for i in range(cfg.layers):
        if cfg.encoder == "gcn":
            ahat = a + np.eye(n)
            ahat /= ahat.sum(axis=1, keepdims=True)
            agg = ahat @ h
        elif cfg.encoder == "sage":
            norm = a / np.maximum(a.sum(axis=1, keepdims=True), 1.0)
            agg = np.concatenate([h, norm @ h], axis=1)
        else:
            agg = h
        pre = agg @ w[f"enc{i}.weight"]
        mu = pre.mean(axis=1, keepdims=True)
        var = pre.var(axis=1, keepdims=True)
        xhat = (pre - mu) / np.sqrt(var + nn.LN_EPS)
        out = xhat * w[f"enc{i}.ln.gain"] + w[f"enc{i}.ln.bias"]
        slope = w[f"enc{i}.prelu"][0]
        h = np.where(out > 0, out, slope * out)
    return h


@pytest.mark.parametrize("encoder", ["gcn", "sage", "mlp"])
def test_encode_matches_dense_oracle(encoder):
    g, x = random_graph(seed=3)
    cfg = ModelConfig(in_dim=x.shape[1], encoder=encoder, layers=2, hidden_dim=7, seed=5)
    w = init_weights(cfg)
    emb = encode(cfg, w, g, x)
    ref = dense_encode_oracle(cfg, w, g, x)
    assert np.allclose(emb, ref, atol=1e-6)


def test_gcn_star_hand_computable():
    g = star_graph(3)
    x = np.eye(4, dtype=np.float64)
    cfg = ModelConfig(in_dim=4, encoder="gcn", layers=1, hidden_dim=4, seed=0)
    w = init_weights(cfg)
    emb = encode(cfg, w, g, x)
    ref = dense_encode_oracle(cfg, w, g, x)
    assert np.allclose(emb, ref, atol=1e-6)


def test_mlp_is_graph_agnostic():
    g, x = random_graph(seed=1)
    empty = Graph.from_edges(g.num_nodes, np.empty((0, 2)))
    cfg = ModelConfig(in_dim=x.shape[1], encoder="mlp", layers=2, hidden_dim=6, seed=2)
    w = init_weights(cfg)
    assert np.array_equal(encode(cfg, w, g, x), encode(cfg, w, empty, x))


def theory_row_loss(weight, g, x, row):
    """The theory model's L2 loss on one node against target 0: 0.5 * output**2."""
    rows = np.array([row])
    loss, _ = nn.theory_mean_gradient(weight, g.indptr, g.indices, x, np.zeros(g.num_nodes), rows)
    return loss


def test_theory_mode_zero_weights_outputs_half():
    g, x = random_graph(seed=2)
    rows = np.arange(g.num_nodes)
    # every output is sigmoid(0) = 0.5, so the loss against target 0.5 is exactly 0
    loss, grad = nn.theory_mean_gradient(
        np.zeros((x.shape[1], 1)), g.indptr, g.indices, x, np.full(g.num_nodes, 0.5), rows
    )
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_theory_forward_is_plain_neighbor_mean():
    cases = [
        # center 0 averages two [0,1] leaves -> -1; leaves 1, 2 see [1,0] -> 2
        (
            star_graph(2),
            np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]),
            np.array([[2.0], [-1.0]]),
            [-1.0, 2.0, 2.0],
        ),
        # unit rows after huge ones keep their own mean (no prefix-sum cancellation)
        (
            Graph.from_edges(4, np.array([[0, 1], [2, 3]])),
            np.array([[1e17], [1e17], [1.0], [1.0]]),
            np.array([[1.0]]),
            [1e17, 1e17, 1.0, 1.0],
        ),
    ]
    for g, x, weight, pre in cases:
        for row, p in enumerate(pre):
            out = 1.0 / (1.0 + np.exp(-p))
            assert theory_row_loss(weight, g, x, row) == pytest.approx(0.5 * out**2, rel=1e-12)


class TestDecoder:
    def setup_method(self):
        self.cfg = ModelConfig(in_dim=3, encoder="mlp", layers=1, hidden_dim=5, seed=9)
        self.w = init_weights(self.cfg)
        rng = np.random.default_rng(0)
        self.r_u = rng.normal(size=(6, 5))
        self.r_v = rng.normal(size=(6, 5))

    def test_symmetric_in_uv(self):
        a = decode(self.cfg, self.w, self.r_u, self.r_v)
        b = decode(self.cfg, self.w, self.r_v, self.r_u)
        assert np.array_equal(a, b)

    def test_zero_embedding_scores_zero(self):
        zero = np.zeros_like(self.r_u)
        assert np.all(decode(self.cfg, self.w, zero, self.r_v) == 0.0)

    def test_dim_mismatch(self):
        with pytest.raises(nn.NnError):
            decode(self.cfg, self.w, self.r_u[:, :3], self.r_v[:, :3])


class TestLosses:
    def test_bce_known_values(self):
        loss, _ = loss_bce(np.array([0.0]), np.array([1.0]))
        assert loss == pytest.approx(np.log(2))
        loss_big, _ = loss_bce(np.array([40.0]), np.array([1.0]))
        assert loss_big < 1e-12

    def test_bce_gradient_finite_difference(self):
        rng = np.random.default_rng(4)
        s = rng.normal(size=8)
        y = rng.integers(0, 2, size=8).astype(float)
        _, grad = loss_bce(s, y)
        num = np.empty_like(s)
        eps = 1e-6
        for i in range(len(s)):
            sp, sm = s.copy(), s.copy()
            sp[i] += eps
            sm[i] -= eps
            num[i] = (loss_bce(sp, y)[0] - loss_bce(sm, y)[0]) / (2 * eps)
        assert np.allclose(grad, num, atol=1e-6)

    def test_l2_known_values(self):
        assert loss_l2(np.array([1.0]), np.array([1.0]))[0] == 0.0
        assert loss_l2(np.array([0.0]), np.array([1.0]))[0] == 0.5
        z = np.array([0.3, -0.2])
        y = np.array([1.0, 0.0])
        _, grad = loss_l2(z, y)
        assert np.allclose(grad, (z - y) / 2)


def float64_weights(w):
    return ModelWeights(w.fingerprint, {n: t.astype(np.float64) for n, t in w.items()})


def relative_gap(a, b):
    denom = max(np.linalg.norm(b), 1e-12)
    return np.linalg.norm(a - b) / denom


@pytest.mark.parametrize(
    "encoder, sampled",
    [
        pytest.param(e, sampled, id=e + ("-mfg" if sampled else ""))
        for sampled in (False, True)
        for e in ("gcn", "sage", "mlp")
    ],
)
@pytest.mark.parametrize("decoder_layers", [1, 2])
def test_full_model_gradients_match_finite_differences(encoder, decoder_layers, sampled):
    g, x = random_graph(n=10, seed=6)
    cfg = ModelConfig(
        in_dim=x.shape[1],
        encoder=encoder,
        layers=2,
        hidden_dim=4,
        decoder_layers=decoder_layers,
        seed=3,
    )
    # float64, so that central differences resolve the 1e-3 tolerance
    w = float64_weights(init_weights(cfg))
    rng = np.random.default_rng(1)
    u = rng.integers(0, g.num_nodes, size=5)
    v = rng.integers(0, g.num_nodes, size=5)
    labels = rng.integers(0, 2, size=5).astype(float)
    if sampled:
        # sources differ from destinations, so the transposed operators are exercised
        mfg = build_mfg(g, np.concatenate([u, v]), (2, 2), np.random.default_rng(0))
        blocks, x = mfg.blocks, x[mfg.input_nodes]
        u, v = mfg.output_positions(u), mfg.output_positions(v)
    else:
        blocks = full_graph_blocks(g, cfg.layers)

    _, grads = link_loss_and_grads(cfg, w, blocks, x, u, v, labels)

    eps = 1e-4
    for name, tensor in w.items():
        num = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp, _ = link_loss_and_grads(cfg, w, blocks, x, u, v, labels)
            flat[i] = orig - eps
            lm, _ = link_loss_and_grads(cfg, w, blocks, x, u, v, labels)
            flat[i] = orig
            num.reshape(-1)[i] = (lp - lm) / (2 * eps)
        assert relative_gap(grads[name], num) < 1e-3, name


def _dtypes(tree):
    """dtype of every array (dense or sparse) nested in tuples and lists."""
    if isinstance(tree, (tuple, list)):
        return [d for item in tree for d in _dtypes(item)]
    return [tree.dtype] if hasattr(tree, "dtype") else []


@pytest.mark.parametrize("encoder", ["gcn", "sage", "mlp"])
def test_float32_step_stays_float32(encoder, monkeypatch):
    # a silent upcast to float64 would pass every other test and undo the speed;
    # gradients accumulate in place, so the backward passes' inputs are checked too
    g, x = random_graph(n=30, seed=6)
    x = x.astype(np.float32)
    cfg = ModelConfig(in_dim=x.shape[1], encoder=encoder, layers=2, hidden_dim=4, decoder_layers=2)
    w = init_weights(cfg)
    u, v = np.arange(0, 10), np.arange(10, 20)
    labels = (np.arange(10) % 2).astype(float)
    mfg = build_mfg(g, np.concatenate([u, v]), (2, 2), np.random.default_rng(0))
    blocks, x_in = mfg.blocks, x[mfg.input_nodes]
    u, v = mfg.output_positions(u), mfg.output_positions(v)

    seen = []
    for name in ("encode_with_tape", "encode_backward", "decode_with_tape", "decode_backward"):
        def recorded(*args, fn=getattr(nn, name)):
            out = fn(*args)
            seen.append((args[2:], out))
            return out

        monkeypatch.setattr(nn, name, recorded)
    opt = AdamState()
    nn.link_step(cfg, w, opt, blocks, x_in, u, v, labels)
    _, grads = link_loss_and_grads(cfg, w, blocks, x_in, u, v, labels)

    found = _dtypes(seen) + _dtypes(list(grads.values()))
    found += _dtypes([list(w.tensors.values()), list(opt.m.values()), list(opt.v.values())])
    assert len(seen) == 8 and len(opt.m) == len(opt.v) == len(w.tensors)
    assert set(found) == {np.dtype(np.float32)}


def test_theory_gradient_matches_finite_differences():
    g, x = random_graph(n=10, seed=8)
    w = np.random.default_rng(2).normal(size=(x.shape[1], 1))
    targets = (np.arange(g.num_nodes) % 2).astype(float)
    rows = np.arange(g.num_nodes)

    def loss_at(weight):
        return nn.theory_mean_gradient(weight, g.indptr, g.indices, x, targets, rows)[0]

    _, grad = nn.theory_mean_gradient(w, g.indptr, g.indices, x, targets, rows)

    eps = 1e-5
    num = np.zeros_like(grad)
    for i in range(grad.size):
        orig = w.reshape(-1)[i]
        w.reshape(-1)[i] = orig + eps
        lp = loss_at(w)
        w.reshape(-1)[i] = orig - eps
        lm = loss_at(w)
        w.reshape(-1)[i] = orig
        num.reshape(-1)[i] = (lp - lm) / (2 * eps)
    assert relative_gap(grad, num) < 1e-5


def test_layernorm_normalizes_rows_pre_affine():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 16)) * 3 + 1
    out, (xhat, _, _) = nn._layernorm_fwd(z, np.ones(16), np.zeros(16))
    assert np.allclose(xhat.mean(axis=1), 0.0, atol=1e-5)
    assert np.allclose(xhat.var(axis=1), 1.0, atol=1e-3)
    assert np.array_equal(out, xhat)


class TestAdam:
    def _weights(self):
        cfg = ModelConfig(in_dim=2, encoder="mlp", layers=1, hidden_dim=3, seed=0)
        return cfg, init_weights(cfg)

    def test_zero_grad_is_noop(self):
        cfg, w = self._weights()
        before = w.copy()
        adam_step(AdamState(), w, zero_grads(w), lr=0.1)
        assert w.equal_bits(before)

    def test_quadratic_convergence(self):
        w = ModelWeights("q", {"x": np.array([5.0])})
        state = AdamState()
        target = 1.7
        for _ in range(500):
            grads = {"x": w["x"] - target}  # d/dx of 0.5 (x - target)^2
            adam_step(state, w, grads, lr=0.05)
        assert abs(w["x"][0] - target) < 1e-3

    def test_deterministic(self):
        cfg, w1 = self._weights()
        _, w2 = self._weights()
        g = {n: np.full_like(t, 0.1) for n, t in w1.items()}
        adam_step(AdamState(), w1, g, lr=0.01)
        adam_step(AdamState(), w2, g, lr=0.01)
        assert w1.equal_bits(w2)


class TestAggregateAverage:
    def _mw(self, vals):
        return ModelWeights("f", {"a": np.array(vals, dtype=np.float64)})

    def test_single_input_identity(self):
        w = self._mw([1.0, 2.0])
        assert aggregate_average([w]).equal_bits(w)

    def test_simple_mean(self):
        out = aggregate_average([self._mw([1.0, 3.0]), self._mw([3.0, 5.0])])
        assert np.array_equal(out["a"], [2.0, 4.0])

    @pytest.mark.parametrize("copies", [2, 3, 5, 7])
    def test_identical_inputs_bit_exact(self, copies):
        w = self._mw([0.1, -0.7, 3.3e-7])
        out = aggregate_average([w.copy() for _ in range(copies)])
        assert out.equal_bits(w)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        ws = [self._mw(rng.normal(size=4)) for _ in range(5)]
        a = aggregate_average(ws)
        b = aggregate_average(ws[::-1])
        assert np.allclose(a["a"], b["a"], atol=1e-12)
        again = aggregate_average(ws)
        assert a.equal_bits(again)

    def test_fingerprint_mismatch(self):
        w1 = self._mw([1.0])
        w2 = ModelWeights("other", {"a": np.array([1.0])})
        with pytest.raises(nn.NnError):
            aggregate_average([w1, w2])

    def test_empty_rejected(self):
        with pytest.raises(nn.NnError):
            aggregate_average([])


class TestCheckpoint:
    """The weight checkpoint format of ``fileio``, round-tripping this module's weights."""

    CFG = ModelConfig(in_dim=3, encoder="gcn", layers=1, hidden_dim=4, seed=1)

    def test_roundtrip_to_f32(self):
        cfg = ModelConfig(in_dim=3, encoder="gcn", layers=2, hidden_dim=4, seed=1)
        w = init_weights(cfg)
        out = weights_from_bytes(weights_to_bytes(w), cfg)
        assert list(out.tensors) == list(w.tensors)
        assert out.equal_bits(w)
        assert all(t.dtype == np.float32 for _, t in out.items())

    def test_bytes_are_pinned(self):
        # checkpoints written before the format moved into fileio must still load
        cfg = ModelConfig(in_dim=3, encoder="sage", layers=2, hidden_dim=4, decoder_layers=2, seed=1)
        data = weights_to_bytes(init_weights(cfg))
        assert len(data) == 681
        assert data[:6] == b"TMAW\x01\x00"
        assert hashlib.sha256(data).hexdigest() == (
            "f73c682138babb49af94b1e0cfce5874e49876502594992650f454af7ff3bff8"
        )

    def test_truncated_raises_with_offset(self):
        data = weights_to_bytes(init_weights(self.CFG))
        with pytest.raises(ParseError, match="byte"):
            weights_from_bytes(data[: len(data) - 5], self.CFG)

    def test_trailing_bytes_rejected(self):
        data = weights_to_bytes(init_weights(self.CFG))
        with pytest.raises(ParseError, match="4000 trailing bytes"):
            weights_from_bytes(data + b"junk" * 1000, self.CFG)

    def test_bad_magic_rejected(self):
        data = weights_to_bytes(init_weights(self.CFG))
        with pytest.raises(ParseError, match="magic"):
            weights_from_bytes(b"TMAG" + data[4:], self.CFG)

    def test_unknown_version_rejected(self):
        data = weights_to_bytes(init_weights(self.CFG))
        with pytest.raises(ParseError, match="unsupported version 2"):
            weights_from_bytes(data[:4] + struct.pack("<H", 2) + data[6:], self.CFG)

    def test_fingerprint_mismatch_rejected(self):
        data = weights_to_bytes(init_weights(self.CFG))
        other = ModelConfig(in_dim=3, encoder="sage", layers=1, hidden_dim=4, seed=1)
        with pytest.raises(ParseError, match="fingerprint"):
            weights_from_bytes(data, other)

    @pytest.mark.parametrize("edit", ["missing-tensor", "reshaped-tensor", "non-utf8-name"])
    def test_tensor_layout_mismatch_rejected(self, edit):
        w = init_weights(self.CFG)
        if edit == "missing-tensor":
            del w.tensors["enc0.ln.gain"]
        elif edit == "reshaped-tensor":
            w.tensors["enc0.ln.gain"] = w.tensors["enc0.ln.gain"].reshape(2, -1)
        data = weights_to_bytes(w)
        if edit == "non-utf8-name":
            data = data.replace(b"enc0.ln.gain", b"enc0.ln.\xff\xffin")
        with pytest.raises(ParseError, match="tensor"):
            weights_from_bytes(data, self.CFG)


def test_nan_input_raises_with_layer_context():
    g, x = random_graph(seed=4)
    x = np.asarray(x, dtype=np.float64).copy()
    x[0, 0] = np.nan
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=4, seed=0)
    w = init_weights(cfg)
    with pytest.raises(nn.NnError, match="encoder layer 0"):
        encode(cfg, w, g, x)


def test_config_validation():
    with pytest.raises(nn.NnError):
        ModelConfig(in_dim=2, encoder="transformer")
    with pytest.raises(nn.NnError):
        ModelConfig(in_dim=2, layers=0)


# ---------------------------------------------------------------------------
# the kernels' earlier forms, kept as references: the fast forms must give
# the same bits


def reference_prelu_fwd(z, slope):
    scale = np.where(z > 0, z.dtype.type(1), slope)
    return z * scale, (scale, np.minimum(z, 0))


def reference_aggregation_operators(encoder, block, dtype, fast=nn._aggregation_operators):
    if encoder != "gcn":
        return fast(encoder, block, dtype)
    deg = np.diff(block.indptr)
    indices = np.insert(block.nbr, block.indptr[1:], block.self_idx)
    data = np.repeat((1.0 / (deg + 1)).astype(dtype), deg + 1)
    return [nn._csr(data, indices, block.indptr + np.arange(block.num_dst + 1), block.num_src)]


def reference_layernorm_fwd(z, gain, bias):
    xc = z - nn._row_mean(z)
    inv = 1.0 / np.sqrt(nn._row_mean(xc * xc) + nn.LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, gain)


def reference_layernorm_bwd(grad, cache):
    xhat, inv, gain = cache
    dgain = nn._col_sum(grad * xhat)
    dbias = nn._col_sum(grad)
    dxhat = grad * gain
    dz = dxhat - nn._row_mean(dxhat)
    dz -= xhat * nn._row_mean(dxhat * xhat)
    dz *= inv
    return dz, dgain, dbias


def reference_decode(cfg, w, r_u, r_v, monkeypatch):
    """Scores of the rows repeated out to one pair per row, through the tape."""
    monkeypatch.setattr(nn, "_prelu_fwd", reference_prelu_fwd)
    r_u, r_v = np.broadcast_arrays(np.atleast_2d(r_u), np.atleast_2d(r_v))
    r_u, r_v = (np.ascontiguousarray(r.reshape(-1, r.shape[-1])) for r in (r_u, r_v))
    scores, _ = nn.decode_with_tape(cfg, w, r_u, r_v)
    monkeypatch.undo()
    return scores


def reference_adam_step(state, w, grads, lr):
    state.t += 1
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for name, _ in w.items():
        g = grads[name]
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(g), np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        w.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + nn.ADAM_EPS)
    return w


def mixed_sign(shape, dtype, seed=0):
    """Normal entries with exact zeros and negative zeros mixed in."""
    z = np.random.default_rng(seed).normal(size=shape).astype(dtype)
    z.reshape(-1)[::7] = 0.0
    z.reshape(-1)[3::11] = -0.0
    return z


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("slope", [-0.3, 0.0, 0.25, 1.0, 1.7])
def test_prelu_matches_where_reference(slope, dtype):
    z = mixed_sign((40, 9), dtype)
    s = np.array([slope], dtype)
    out, (scale, neg) = nn._prelu_fwd(z, s)
    ref_out, (ref_scale, ref_neg) = reference_prelu_fwd(z, s)
    assert out.dtype == scale.dtype == neg.dtype == dtype
    assert np.array_equal(out, ref_out)
    assert np.array_equal(scale, ref_scale)
    assert np.array_equal(neg, ref_neg)
    grad = mixed_sign(z.shape, dtype, seed=1)
    for got, want in zip(nn._prelu_bwd(grad, (scale, neg)), nn._prelu_bwd(grad, (ref_scale, ref_neg))):
        assert np.array_equal(got, want)


def test_nan_prelu_slope_raises():
    g, x = random_graph(seed=4)
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=2, hidden_dim=4, seed=0)
    w = init_weights(cfg)
    w.tensors["enc1.prelu"][0] = np.nan
    with pytest.raises(nn.NnError, match="encoder layer 1"):
        encode(cfg, w, g, x)


def test_gcn_operator_matches_insert_reference():
    g, x = random_graph(n=30, seed=2)
    mfg = build_mfg(g, np.arange(8), (2, 3), np.random.default_rng(0))
    for block in [*mfg.blocks, *full_graph_blocks(g, 1)]:
        for dtype in (np.float32, np.float64):
            (got,) = nn._aggregation_operators("gcn", block, dtype)
            (want,) = reference_aggregation_operators("gcn", block, dtype)
            assert got.shape == want.shape and got.dtype == want.dtype
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), part


def test_full_graph_encode_builds_one_operator(monkeypatch):
    g, x = random_graph(n=30, seed=2)
    cfg = ModelConfig(in_dim=x.shape[1], encoder="gcn", layers=3, hidden_dim=4, seed=0)
    w = init_weights(cfg)
    calls = []

    def counted(*args, fn=nn._aggregation_operators):
        calls.append(args[1])
        return fn(*args)

    monkeypatch.setattr(nn, "_aggregation_operators", counted)
    encode(cfg, w, g, x)
    assert len(calls) == 1
    # sampled blocks differ per layer, so each gets its own operator
    mfg = build_mfg(g, np.arange(8), (2, 2, 2), np.random.default_rng(0))
    nn.encode_with_tape(cfg, w, mfg.blocks, x[mfg.input_nodes])
    assert calls[1:] == mfg.blocks


class TestBroadcastDecode:
    def setup_method(self):
        self.cfg = ModelConfig(in_dim=3, encoder="mlp", layers=1, hidden_dim=6, decoder_layers=3, seed=4)
        self.w = init_weights(self.cfg)
        self.heads = mixed_sign((5, 1, 6), np.float32, seed=2)
        self.tails = mixed_sign((5, 7, 6), np.float32, seed=3)

    @pytest.mark.parametrize("slopes", [(0.25, 0.25), (-0.3, 1.7), (1.0, 0.0)])
    def test_matches_repeated_rows_bytewise(self, slopes, monkeypatch):
        for k, s in enumerate(slopes):
            self.w.tensors[f"dec{k}.prelu"][0] = s
        got = decode(self.cfg, self.w, self.heads, self.tails)
        want = reference_decode(self.cfg, self.w, self.heads, self.tails, monkeypatch)
        assert got.shape == (5 * 7,) and got.dtype == np.float32
        assert got.tobytes() == want.tobytes()
        repeated = np.repeat(self.heads[:, 0], 7, axis=0)
        assert decode(self.cfg, self.w, repeated, self.tails.reshape(-1, 6)).tobytes() == got.tobytes()

    def test_one_dimensional_pair_scores(self, monkeypatch):
        u, v = self.heads[0, 0], self.tails[0, 0]
        got = decode(self.cfg, self.w, u, v)
        assert got.shape == (1,)
        assert got.tobytes() == reference_decode(self.cfg, self.w, u, v, monkeypatch).tobytes()

    def test_shapes_that_do_not_broadcast_raise(self):
        with pytest.raises(nn.NnError, match="broadcast"):
            decode(self.cfg, self.w, self.heads[:3], self.tails)
        with pytest.raises(nn.NnError, match="broadcast"):
            decode(self.cfg, self.w, self.tails[:, :6], self.tails[:, :4])


def test_flat_adam_matches_per_tensor_reference():
    cfg = ModelConfig(in_dim=3, encoder="sage", layers=2, hidden_dim=4, seed=1)
    w, ref = init_weights(cfg), init_weights(cfg)
    state, ref_state = AdamState(), AdamState()
    rng = np.random.default_rng(0)
    for _ in range(5):
        grads = {n: rng.normal(size=t.shape).astype(t.dtype) for n, t in w.items()}
        adam_step(state, w, grads, lr=0.01)
        reference_adam_step(ref_state, ref, grads, lr=0.01)
    assert w.equal_bits(ref)
    for name in w.tensors:
        assert state.m[name].tobytes() == ref_state.m[name].tobytes()
        assert state.v[name].tobytes() == ref_state.v[name].tobytes()


@pytest.mark.parametrize("encoder", ["gcn", "sage", "mlp"])
def test_twenty_steps_match_reference_kernels_bytewise(encoder, monkeypatch):
    g, x = random_graph(n=60, seed=5)
    x = x.astype(np.float32)
    cfg = ModelConfig(in_dim=x.shape[1], encoder=encoder, layers=2, hidden_dim=8, seed=2)
    rng = np.random.default_rng(3)
    batches = []
    for _ in range(20):
        u, v = rng.integers(0, g.num_nodes, size=(2, 12))
        mfg = build_mfg(g, np.concatenate([u, v]), (3, 2), rng)
        labels = (np.arange(12) % 2).astype(float)
        batches.append((mfg.blocks, x[mfg.input_nodes], mfg.output_positions(u), mfg.output_positions(v), labels))

    def train():
        w, opt = init_weights(cfg), AdamState()
        for batch in batches:
            nn.link_step(cfg, w, opt, *batch)
        return w

    fast = train()
    for name, ref in [
        ("_prelu_fwd", reference_prelu_fwd),
        ("_aggregation_operators", reference_aggregation_operators),
        ("_layernorm_fwd", reference_layernorm_fwd),
        ("_layernorm_bwd", reference_layernorm_bwd),
        ("adam_step", reference_adam_step),
    ]:
        monkeypatch.setattr(nn, name, ref)
    slow = train()
    assert list(fast.tensors) == list(slow.tensors)
    assert all(fast[n].tobytes() == slow[n].tobytes() for n in fast.tensors)
    assert not fast.equal_bits(init_weights(cfg))
