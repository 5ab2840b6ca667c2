"""Parameterized neural building blocks: linear/MLP chains (one tape node
each), multi-head attention, and post-norm Transformer encoder/decoder blocks.

Parameter records are plain dataclasses of leaf tensors; they stay immutable
during a forward/backward pass, so they are safe to share read-only across
concurrent evaluation workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor


@dataclass
class LinearParams:
    weight: Tensor  # (out, in)
    bias: Tensor  # (out,)

    @property
    def in_dim(self):
        return self.weight.shape[1]

    @property
    def out_dim(self):
        return self.weight.shape[0]


@dataclass
class LayerNormParams:
    gain: Tensor  # (d,)
    bias: Tensor  # (d,)


@dataclass
class AttentionParams:
    """Stacked q/k/v projections plus a shared output projection.

    Row block h of each q/k/v projection is head h's, d_k = q_proj.out_dim //
    heads rows. Queries may live in a different dimension than the key/value
    source; the heads' total width must equal the query-side model dimension.
    """

    heads: int
    q_proj: LinearParams  # (heads * d_k, q_dim)
    k_proj: LinearParams  # (heads * d_k, kv_dim)
    v_proj: LinearParams  # (heads * d_k, kv_dim)
    out_proj: LinearParams  # (q_dim, heads * d_k)

    def __post_init__(self):
        if self.q_proj.out_dim % self.heads or self.q_proj.out_dim != self.out_proj.in_dim:
            raise ShapeError(
                f"attention: {self.q_proj.out_dim} projected query columns do not split into "
                f"{self.heads} heads feeding output projection input {self.out_proj.in_dim}"
            )


@dataclass
class EncoderBlockParams:
    self_attn: AttentionParams
    ln1: LayerNormParams
    ff1: LinearParams
    ff2: LinearParams
    ln2: LayerNormParams


@dataclass
class DecoderBlockParams:
    self_attn: AttentionParams
    ln1: LayerNormParams
    cross_attn: AttentionParams
    ln2: LayerNormParams
    ff1: LinearParams
    ff2: LinearParams
    ln3: LayerNormParams


def linear_forward(p: LinearParams, x: Tensor) -> Tensor:
    """x (n, in) -> x @ weight.T + bias."""
    return T.mlp(x, [(p.weight, p.bias)])


def mlp_forward(layers: Sequence[LinearParams], x: Tensor) -> Tensor:
    """Chain of linear layers with ReLU between them, none after the last; one tape node."""
    return T.mlp(x, [(layer.weight, layer.bias) for layer in layers])


def layer_norm(p: LayerNormParams, x: Tensor, residual=None) -> Tensor:
    return T.layer_norm(x, p.gain, p.bias, residual)


def multi_head_attention(p: AttentionParams, q_in: Tensor, kv_in: Tensor, q_offsets=None, kv_offsets=None) -> Tensor:
    """Scaled dot-product attention: per head softmax(Q K^T / sqrt(d_k)) V,
    heads concatenated and output-projected back to the query dimension.
    The row offsets cut queries and keys into scenes that attend only within
    themselves (``tensor.attention``)."""
    q, k, v = p.q_proj, p.k_proj, p.v_proj
    heads_out = T.attention(q_in, kv_in, q.weight, q.bias, k.weight, k.bias, v.weight, v.bias, p.heads,
                            q_offsets, kv_offsets)
    return linear_forward(p.out_proj, heads_out)


def encoder_block(p: EncoderBlockParams, x: Tensor, offsets=None) -> Tensor:
    """Post-norm residual order: x' = LN(x + SelfAttn(x)); out = LN(x' + FF(x')),
    each LN taking x as its residual. Self-attention stays within each scene
    of the row ``offsets``."""
    x = layer_norm(p.ln1, multi_head_attention(p.self_attn, x, x, offsets, offsets), x)
    return layer_norm(p.ln2, mlp_forward((p.ff1, p.ff2), x), x)


def decoder_block(
    p: DecoderBlockParams,
    queries: Tensor,
    memory: Tensor,
    query_offsets=None,
    memory_offsets=None,
) -> Tensor:
    """Self-attention over the queries, cross-attention into the memory set,
    then feed-forward; each sub-layer wrapped in a post-norm residual. With
    row offsets, scene s's queries attend to scene s's queries and memory."""
    q = layer_norm(p.ln1, multi_head_attention(p.self_attn, queries, queries, query_offsets, query_offsets),
                   queries)
    q = layer_norm(p.ln2, multi_head_attention(p.cross_attn, q, memory, query_offsets, memory_offsets), q)
    return layer_norm(p.ln3, mlp_forward((p.ff1, p.ff2), q), q)


# -- initialization ----------------------------------------------------------


def fan_in_uniform(rng: np.random.Generator, rows: int, in_dim: int, heads: int = 1,
                   bias: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """A (rows, in_dim) weight and a (rows,) bias (empty without ``bias``), C-contiguous
    views of one buffer, uniform on [-b, b) with b = 1/sqrt(in_dim). The stream fills
    ``heads`` row blocks in turn, weight rows then bias rows: one (rows // heads)-row
    layer per head, the order seeded models and the benchmark's canary depend on.
    ``random`` fills mapped onto [-b, b) in place equal ``rng.uniform(-b, b, shape)``
    bit for bit, since it computes low + (high - low) * u from the same draws."""
    bound = 1.0 / math.sqrt(in_dim)
    buf = np.empty(rows * (in_dim + bias))
    weight, bias_row = buf[:rows * in_dim].reshape(rows, in_dim), buf[rows * in_dim:]
    step = rows // heads
    for h in range(heads):
        block = slice(h * step, (h + 1) * step)
        rng.random(out=weight[block])
        if bias:
            rng.random(out=bias_row[block])
    buf *= bound - (-bound)
    buf += -bound
    return weight, bias_row


def init_linear(rng: np.random.Generator, out_dim: int, in_dim: int, heads: int = 1) -> LinearParams:
    """With ``heads``, the stacked rows of one (out_dim // heads)-row layer per head."""
    weight, bias = fan_in_uniform(rng, out_dim, in_dim, heads)
    return LinearParams(weight=Tensor(weight, requires_grad=True), bias=Tensor(bias, requires_grad=True))


def init_layer_norm(dim: int) -> LayerNormParams:
    return LayerNormParams(
        gain=Tensor(np.ones(dim), requires_grad=True),
        bias=Tensor(np.zeros(dim), requires_grad=True),
    )


def init_attention(rng: np.random.Generator, heads: int, model_dim: int, kv_dim: int | None = None) -> AttentionParams:
    if heads < 1 or model_dim % heads != 0:
        raise ContractError(f"attention: model dim {model_dim} not divisible by {heads} heads")
    if kv_dim is None:
        kv_dim = model_dim
    return AttentionParams(
        heads=heads,
        q_proj=init_linear(rng, model_dim, model_dim, heads),
        k_proj=init_linear(rng, model_dim, kv_dim, heads),
        v_proj=init_linear(rng, model_dim, kv_dim, heads),
        out_proj=init_linear(rng, model_dim, model_dim),
    )


def init_encoder_block(rng: np.random.Generator, heads: int, model_dim: int) -> EncoderBlockParams:
    return EncoderBlockParams(
        self_attn=init_attention(rng, heads, model_dim),
        ln1=init_layer_norm(model_dim),
        ff1=init_linear(rng, 2 * model_dim, model_dim),
        ff2=init_linear(rng, model_dim, 2 * model_dim),
        ln2=init_layer_norm(model_dim),
    )


def init_decoder_block(rng: np.random.Generator, heads: int, model_dim: int, kv_dim: int) -> DecoderBlockParams:
    return DecoderBlockParams(
        self_attn=init_attention(rng, heads, model_dim),
        ln1=init_layer_norm(model_dim),
        cross_attn=init_attention(rng, heads, model_dim, kv_dim),
        ln2=init_layer_norm(model_dim),
        ff1=init_linear(rng, 2 * model_dim, model_dim),
        ff2=init_linear(rng, model_dim, 2 * model_dim),
        ln3=init_layer_norm(model_dim),
    )


def init_mlp(rng: np.random.Generator, dims: Sequence[int]) -> list[LinearParams]:
    """dims = [in, hidden..., out]; returns len(dims)-1 linear layers."""
    if len(dims) < 2:
        raise ContractError("init_mlp: need at least input and output dims")
    return [init_linear(rng, dims[i + 1], dims[i]) for i in range(len(dims) - 1)]


# -- parameter traversal ------------------------------------------------------


def named_parameters(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Flatten any nesting of dataclasses / lists / dicts of Tensors into
    (dotted-name, tensor) pairs, in declaration order."""
    out: list[tuple[str, Tensor]] = []
    if isinstance(obj, Tensor):
        out.append((prefix.rstrip("."), obj))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            out.extend(named_parameters(item, f"{prefix}{i}."))
    elif isinstance(obj, dict):
        for key, item in obj.items():
            out.extend(named_parameters(item, f"{prefix}{key}."))
    elif hasattr(obj, "__dataclass_fields__"):
        for name in obj.__dataclass_fields__:
            value = getattr(obj, name)
            if isinstance(value, (Tensor, list, tuple, dict)) or hasattr(value, "__dataclass_fields__"):
                out.extend(named_parameters(value, f"{prefix}{name}."))
    return out
