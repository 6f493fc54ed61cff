"""Model math: GNN encoders, MLP decoder, losses, manual gradients, Adam.

Everything is numpy with hand-written reverse-mode gradients, so the whole
training stack is deterministic given seeds and checkable against finite
differences. Neighborhood aggregation is a sparse linear operator from
source rows to destination rows (``scipy.sparse`` CSR), so its backward
pass is the product with its transpose.

Compute follows the weights' dtype: ``init_weights`` makes float32 tensors,
as the checkpoint (``fileio.weights_to_bytes``) stores them, and inputs and
operators are cast to match, so a training step runs in float32. float64
weights compute in float64; the gradient checks and ``theory`` use that.
The step is not FLOP-bound (rows are ``hidden_dim`` wide), so the layer
primitives are written to make few numpy calls: row means are matvecs,
column sums are ``ones @ z``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .graph import Graph

LN_EPS = 1e-5
ENCODERS = ("gcn", "sage", "mlp")


class NnError(ValueError):
    """Model misconfiguration or numeric failure (NaN/Inf)."""


@dataclass
class ModelConfig:
    """Architecture and optimizer settings shared by all trainers."""

    in_dim: int
    encoder: str = "gcn"
    layers: int = 2
    hidden_dim: int = 64
    decoder_layers: int = 2
    lr: float = 0.001
    seed: int = 0

    def __post_init__(self):
        if self.encoder not in ENCODERS:
            raise NnError(f"unknown encoder {self.encoder!r}")
        if self.layers < 1 or self.decoder_layers < 1:
            raise NnError("layers and decoder_layers must be >= 1")

    def fingerprint(self) -> str:
        dims = [self.in_dim] + [self.hidden_dim] * self.layers
        enc = "->".join(map(str, dims))
        dec = "->".join([str(self.hidden_dim)] * self.decoder_layers + ["1"])
        return f"{self.encoder}[{enc}];dec[{dec}]"

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        """Name and shape of every weight tensor, in checkpoint order."""
        out = []
        d_in = self.in_dim
        for i in range(self.layers):
            fan_in = 2 * d_in if self.encoder == "sage" else d_in
            out += [
                (f"enc{i}.weight", (fan_in, self.hidden_dim)),
                (f"enc{i}.ln.gain", (self.hidden_dim,)),
                (f"enc{i}.ln.bias", (self.hidden_dim,)),
                (f"enc{i}.prelu", (1,)),
            ]
            d_in = self.hidden_dim
        for k in range(self.decoder_layers):
            last = k == self.decoder_layers - 1
            out.append((f"dec{k}.weight", (self.hidden_dim, 1 if last else self.hidden_dim)))
            if not last:
                out.append((f"dec{k}.prelu", (1,)))
        return out


@dataclass
class ModelWeights:
    """Named parameter tensors; the unit shipped between workers. The order
    of ``tensors`` is the checkpoint order.

    Two ModelWeights are aggregable iff their fingerprints match.
    """

    fingerprint: str
    tensors: dict[str, np.ndarray]

    def copy(self) -> "ModelWeights":
        return ModelWeights(self.fingerprint, {k: v.copy() for k, v in self.tensors.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def items(self):
        return self.tensors.items()

    def equal_bits(self, other: "ModelWeights") -> bool:
        return self.fingerprint == other.fingerprint and all(
            np.array_equal(t, other.tensors[n]) for n, t in self.items()
        )


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)


def init_weights(cfg: ModelConfig) -> ModelWeights:
    """Seeded Glorot-uniform init; PReLU slopes 0.25, LayerNorm affine identity.
    Every tensor is float32."""
    rng = np.random.default_rng(cfg.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in cfg.layout():
        kind = name.split(".", 1)[1]
        if kind == "weight":
            tensors[name] = _glorot(rng, *shape)
        elif kind == "ln.gain":
            tensors[name] = np.ones(shape, np.float32)
        elif kind == "ln.bias":
            tensors[name] = np.zeros(shape, np.float32)
        else:
            tensors[name] = np.full(shape, 0.25, np.float32)
    return ModelWeights(cfg.fingerprint(), tensors)


def zero_grads(w: ModelWeights) -> dict[str, np.ndarray]:
    return {n: np.zeros_like(t) for n, t in w.items()}


# ---------------------------------------------------------------------------
# message-flow blocks


@dataclass(frozen=True)
class Block:
    """One layer of neighborhood structure.

    Destination row d aggregates source rows ``nbr[indptr[d]:indptr[d+1]]``;
    its own features sit at source row ``self_idx[d]``.
    """

    num_src: int
    indptr: np.ndarray
    nbr: np.ndarray
    self_idx: np.ndarray

    @property
    def num_dst(self) -> int:
        return len(self.indptr) - 1


def full_graph_blocks(g: Graph, layers: int) -> list[Block]:
    """Identity blocks covering every node: the unsampled evaluation path."""
    block = Block(
        num_src=g.num_nodes,
        indptr=g.indptr,
        nbr=g.indices,
        self_idx=np.arange(g.num_nodes),
    )
    return [block] * layers


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, num_src: int) -> sp.csr_array:
    return sp.csr_array((data, indices, indptr), shape=(len(indptr) - 1, num_src))


def _pick(index: np.ndarray, num_src: int, dtype) -> sp.csr_array:
    """The (len(index), num_src) operator whose row i is source row ``index[i]``."""
    rows = np.arange(len(index) + 1)
    return _csr(np.ones(len(index), dtype), index, rows, num_src)


def _neighbor_mean(indptr: np.ndarray, nbr: np.ndarray, num_src: int, dtype=np.float64) -> sp.csr_array:
    """Mean over each destination's neighbors; rows with none aggregate to zero."""
    deg = np.diff(indptr)
    weights = (1.0 / np.maximum(deg, 1)).astype(dtype)
    return _csr(np.repeat(weights, deg), nbr, indptr, num_src)


def _aggregation_operators(encoder: str, block: Block, dtype) -> list[sp.csr_array]:
    """The (num_dst, num_src) operators, in ``dtype``, whose products, side by
    side, feed a layer.

    mlp reads each node's own row, sage its own row and its neighbor mean,
    gcn the mean over its neighbors and itself.
    """
    if encoder == "mlp":
        return [_pick(block.self_idx, block.num_src, dtype)]
    if encoder == "sage":
        return [
            _pick(block.self_idx, block.num_src, dtype),
            _neighbor_mean(block.indptr, block.nbr, block.num_src, dtype),
        ]
    deg = np.diff(block.indptr)
    # each destination's own source row follows its neighbors
    indices = np.insert(block.nbr, block.indptr[1:], block.self_idx)
    data = np.repeat((1.0 / (deg + 1)).astype(dtype), deg + 1)
    return [_csr(data, indices, block.indptr + np.arange(block.num_dst + 1), block.num_src)]


def _check_finite(arr: np.ndarray, where: str) -> None:
    if not np.isfinite(arr).all():
        raise NnError(f"non-finite values in {where}")


# ---------------------------------------------------------------------------
# layer primitives (forward returns a cache consumed by the backward pass)


def _row_mean(z):
    """Mean of each row as one matvec; ``z.mean(axis=1)`` is several times slower."""
    return (z @ np.full(z.shape[1], 1.0 / z.shape[1], z.dtype))[:, None]


def _col_sum(z):
    return np.ones(z.shape[0], z.dtype) @ z


def _layernorm_fwd(z, gain, bias):
    xc = z - _row_mean(z)
    inv = 1.0 / np.sqrt(_row_mean(xc * xc) + LN_EPS)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv, gain)


def _layernorm_bwd(grad, cache):
    xhat, inv, gain = cache
    dgain = _col_sum(grad * xhat)
    dbias = _col_sum(grad)
    dxhat = grad * gain
    dz = dxhat - _row_mean(dxhat)
    dz -= xhat * _row_mean(dxhat * xhat)
    dz *= inv
    return dz, dgain, dbias


def _prelu_fwd(z, slope):
    """Returns the activation and its cache: the slope at each entry, and the
    entries where the slope parameter acts (``min(z, 0)``)."""
    scale = np.where(z > 0, z.dtype.type(1), slope)
    return z * scale, (scale, np.minimum(z, 0))


def _prelu_bwd(grad, cache):
    scale, neg = cache
    return grad * scale, np.array([np.vdot(grad, neg)])


# ---------------------------------------------------------------------------
# encoder


def encode_with_tape(cfg: ModelConfig, w: ModelWeights, blocks: list[Block], x: np.ndarray):
    """Forward pass; returns (embeddings, tape) with tape feeding encode_backward."""
    if len(blocks) != cfg.layers:
        raise NnError(f"need {cfg.layers} blocks, got {len(blocks)}")
    if blocks[0].num_src != x.shape[0]:
        raise NnError("feature rows do not match the input frontier")
    dtype = w["enc0.weight"].dtype
    h = np.asarray(x, dtype=dtype)
    tape = []
    for i, block in enumerate(blocks):
        ops = _aggregation_operators(cfg.encoder, block, dtype)
        agg = np.hstack([op @ h for op in ops])
        pre = agg @ w[f"enc{i}.weight"]
        out_ln, ln_cache = _layernorm_fwd(pre, w[f"enc{i}.ln.gain"], w[f"enc{i}.ln.bias"])
        out, act_cache = _prelu_fwd(out_ln, w[f"enc{i}.prelu"])
        _check_finite(out, f"encoder layer {i}")
        tape.append((ops, agg, ln_cache, act_cache))
        h = out
    return h, tape


def encode_backward(cfg: ModelConfig, w: ModelWeights, tape, grad_emb: np.ndarray, grads: dict) -> None:
    """Accumulate parameter gradients for a previous encode_with_tape call.
    The gradient with respect to the input features is not computed."""
    grad = grad_emb
    for i in reversed(range(len(tape))):
        ops, agg, ln_cache, act_cache = tape[i]
        grad, da = _prelu_bwd(grad, act_cache)
        grads[f"enc{i}.prelu"] += da
        grad, dgain, dbias = _layernorm_bwd(grad, ln_cache)
        grads[f"enc{i}.ln.gain"] += dgain
        grads[f"enc{i}.ln.bias"] += dbias
        grads[f"enc{i}.weight"] += agg.T @ grad
        if i > 0:
            d_agg = grad @ w[f"enc{i}.weight"].T
            grad = sum(op.T @ part for op, part in zip(ops, np.split(d_agg, len(ops), axis=1)))


def encode(cfg: ModelConfig, w: ModelWeights, g: Graph, x: np.ndarray) -> np.ndarray:
    """Embeddings of every node of a full graph."""
    emb, _ = encode_with_tape(cfg, w, full_graph_blocks(g, cfg.layers), x)
    return emb


# ---------------------------------------------------------------------------
# decoder


def decode_with_tape(cfg: ModelConfig, w: ModelWeights, r_u: np.ndarray, r_v: np.ndarray):
    if r_u.shape != r_v.shape or r_u.shape[1] != cfg.hidden_dim:
        raise NnError("embedding shape does not match decoder input dim")
    e = r_u * r_v
    tape = [("prod", r_u, r_v)]
    for k in range(cfg.decoder_layers):
        weight = w[f"dec{k}.weight"]
        pre = e @ weight
        if k == cfg.decoder_layers - 1:
            tape.append(("linear", e))
            e = pre
        else:
            out, act_cache = _prelu_fwd(pre, w[f"dec{k}.prelu"])
            tape.append(("act", e, act_cache))
            e = out
    scores = e[:, 0]
    _check_finite(scores, "decoder output")
    return scores, tape


def decode_backward(cfg: ModelConfig, w: ModelWeights, tape, grad_scores: np.ndarray, grads: dict):
    grad = grad_scores[:, None]
    for k in reversed(range(cfg.decoder_layers)):
        entry = tape[k + 1]
        if entry[0] == "linear":
            e_in = entry[1]
        else:
            _, e_in, act_cache = entry
            grad, da = _prelu_bwd(grad, act_cache)
            grads[f"dec{k}.prelu"] += da
        grads[f"dec{k}.weight"] += e_in.T @ grad
        grad = grad @ w[f"dec{k}.weight"].T
    _, r_u, r_v = tape[0]
    return grad * r_v, grad * r_u


def decode(cfg: ModelConfig, w: ModelWeights, r_u: np.ndarray, r_v: np.ndarray) -> np.ndarray:
    """Pair scores; symmetric in (u, v) because the input is an elementwise product."""
    scores, _ = decode_with_tape(cfg, w, np.atleast_2d(r_u), np.atleast_2d(r_v))
    return scores


# ---------------------------------------------------------------------------
# losses


def loss_bce(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy on logits; gradient is (sigmoid(s) - y) / batch."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    # log(1 + e^-|s|) + max(s, 0) - s*y, stable for large |s|
    loss = float(np.mean(np.log1p(np.exp(-np.abs(s))) + np.maximum(s, 0.0) - s * y))
    grad = (_sigmoid(s) - y) / len(s)
    return loss, grad


def loss_l2(z: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean of per-sample 0.5 * (y - z)^2; gradient w.r.t. z is (z - y) / batch."""
    z = np.asarray(z, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    diff = z - y
    return float(np.mean(0.5 * diff * diff)), diff / diff.size


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# theory model: 1-layer linear GCN, plain neighbor mean, sigmoid output


def theory_mean_gradient(
    weight: np.ndarray,
    indptr: np.ndarray,
    nbr: np.ndarray,
    x: np.ndarray,
    targets: np.ndarray,
    rows: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean L2 loss over ``rows`` and its gradient w.r.t. the weight vector.

    The model output is sigmoid(mean-neighbor-features @ weight), with
    ``weight`` of shape (in_dim, 1). The adjacency view may be asymmetric
    (used for hypothetical partition placements); rows with no neighbors
    aggregate to zero. The mean per-node gradient equals one backward pass
    of the batch-mean loss, because the loss is additive over nodes.
    """
    agg = _neighbor_mean(indptr, nbr, x.shape[0])[rows] @ np.asarray(x, dtype=np.float64)
    z = _sigmoid(agg @ weight)[:, 0]
    loss, dz = loss_l2(z, np.asarray(targets, dtype=np.float64)[rows])
    dpre = dz * z * (1.0 - z)
    grad = agg.T @ dpre[:, None]
    return loss, grad


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, w: ModelWeights, grads: dict, lr: float) -> ModelWeights:
    """One Adam update, in place on w (also returned)."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
        w.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    return w


# ---------------------------------------------------------------------------
# aggregation operator


def aggregate_average(weight_sets: list[ModelWeights]) -> ModelWeights:
    """Elementwise mean in fixed left-to-right order.

    Computed as a running mean so that averaging identical inputs returns
    them bit-exactly for any count.
    """
    if not weight_sets:
        raise NnError("nothing to aggregate")
    first = weight_sets[0]
    for other in weight_sets[1:]:
        if other.fingerprint != first.fingerprint:
            raise NnError(
                f"fingerprint mismatch: {other.fingerprint!r} vs {first.fingerprint!r}"
            )
    out = first.copy()
    for k, other in enumerate(weight_sets[1:], start=2):
        for name, t in out.items():
            t += (other.tensors[name] - t) / k
    return out


# ---------------------------------------------------------------------------
# one training step on a mini-batch


def link_loss_and_grads(
    cfg: ModelConfig,
    w: ModelWeights,
    blocks: list[Block],
    x_input: np.ndarray,
    pos_u: np.ndarray,
    pos_v: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict]:
    """BCE loss and parameter gradients for one batch of scored pairs.

    The gradients have the weights' dtype: the loss is taken in float64 and
    its gradient cast back to the scores' dtype.
    """
    emb, tape = encode_with_tape(cfg, w, blocks, x_input)
    r_u, r_v = emb[pos_u], emb[pos_v]
    scores, dec_tape = decode_with_tape(cfg, w, r_u, r_v)
    loss, dscores = loss_bce(scores, labels)
    grads = zero_grads(w)
    d_ru, d_rv = decode_backward(cfg, w, dec_tape, dscores.astype(scores.dtype), grads)
    # scatter-add of both endpoints' gradients into their embedding rows
    pick = _pick(np.concatenate([pos_u, pos_v]), len(emb), emb.dtype)
    d_emb = pick.T @ np.concatenate([d_ru, d_rv])
    encode_backward(cfg, w, tape, d_emb, grads)
    return loss, grads


def link_step(
    cfg: ModelConfig,
    w: ModelWeights,
    opt: AdamState,
    blocks: list[Block],
    x_input: np.ndarray,
    pos_u: np.ndarray,
    pos_v: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Forward + backward + Adam on one batch; index arrays select output rows."""
    loss, grads = link_loss_and_grads(cfg, w, blocks, x_input, pos_u, pos_v, labels)
    adam_step(opt, w, grads, cfg.lr)
    return loss
