"""Soft mixture-of-experts routing and the transformer blocks built on it.

The routing stage turns slot/token similarities into two softmax weight
tables: dispatch weights (a distribution over tokens per slot, temperature
scaled) that form each slot as a weighted token average, and combine
weights (a distribution over slots per token, temperature 1) that mix the
expert outputs back into token space. Slot ``s`` is processed by expert
``s % num_experts`` alone, so a layer performs ``num_slots`` expert calls
no matter how many tokens arrive. An expert is the same two-layer GELU
``feed_forward`` that the plain decoder blocks use.

Token sequences are [T, d], or [..., T, d] with leading batch axes; every
function here runs a whole batch in one pass. Routing tables are then
[..., S, T], and slot ``s`` of every batch element goes through its expert
in the same single call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .numerics import (
    Tensor,
    concat_rows,
    gelu,
    layer_norm,
    matmul,
    mul,
    reshape,
    softmax,
    take_rows,
    transpose,
)

LN_EPS = 1e-6


@dataclass
class FeedForwardParams:
    """Two-layer GELU feed-forward: a Soft MoE expert or a decoder FFN."""

    w1: Tensor  # [dim, hidden]
    b1: Tensor  # [hidden]
    w2: Tensor  # [hidden, dim]
    b2: Tensor  # [dim]


@dataclass
class SoftMoELayerParams:
    slot_embeddings: Tensor  # [num_slots, dim]
    experts: list  # of FeedForwardParams; slot s uses experts[s % len(experts)]
    temperature: float = 1.0


@dataclass
class RoutingTensors:
    """Dispatch/combine weight tables and the slots they produce."""

    dispatch: Tensor  # [..., num_slots, num_tokens], rows sum to 1
    combine: Tensor  # [..., num_slots, num_tokens], columns sum to 1
    slots: Tensor  # [..., num_slots, dim]


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    # no key bias: softmax over keys is invariant to per-query constant
    # shifts, so a key bias cannot affect the output
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    heads: int


@dataclass
class MoeBlockParams:
    """Pre-norm residual block: self-attention then Soft MoE."""

    attention: AttentionParams
    norm1: LayerNormParams
    norm2: LayerNormParams
    moe: SoftMoELayerParams


@dataclass
class PlainBlockParams:
    """Pre-norm residual block: self-attention then a dense feed-forward."""

    attention: AttentionParams
    norm1: LayerNormParams
    norm2: LayerNormParams
    ffn: FeedForwardParams


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------


def route(z: Tensor, params: SoftMoELayerParams) -> RoutingTensors:
    """Slot/token similarity logits -> dispatch and combine weights, then the
    slots as dispatch-weighted token averages."""
    if z.shape[-1] != params.slot_embeddings.shape[1]:
        raise DimensionError(
            f"token width {z.shape[-1]} does not match slot width "
            f"{params.slot_embeddings.shape[1]}"
        )
    logits = matmul(params.slot_embeddings, transpose(z))  # [..., S, T]
    dispatch = softmax(logits, axis=-1, temperature=params.temperature)
    combine = softmax(logits, axis=-2)
    slots = matmul(dispatch, z)
    return RoutingTensors(dispatch=dispatch, combine=combine, slots=slots)


def feed_forward(x: Tensor, params: FeedForwardParams) -> Tensor:
    """GELU(x W1 + b1) W2 + b2, applied to each row of x."""
    return matmul(gelu(matmul(x, params.w1) + params.b1), params.w2) + params.b2


def moe_forward(z: Tensor, params: SoftMoELayerParams, routing_sink: list = None) -> Tensor:
    """One Soft MoE layer: route, run each slot through its expert, combine.

    Exactly ``num_slots`` ``feed_forward`` calls happen regardless of the
    token count and the batch size; slot ``s`` of every batch element goes
    to ``experts[s % len(experts)]`` in one call.
    """
    routing = route(z, params)
    if routing_sink is not None:
        routing_sink.append(routing)
    experts = params.experts
    expert_out = concat_rows([
        feed_forward(take_rows(routing.slots, [s]), experts[s % len(experts)])
        for s in range(routing.slots.shape[-2])
    ])  # [..., S, dim]
    return matmul(transpose(routing.combine), expert_out)  # [..., T, dim]


def attention_forward(z: Tensor, params: AttentionParams) -> Tensor:
    """Standard multi-head scaled dot-product self-attention over all tokens.

    Head ``h`` owns columns ``[h * d/H, (h + 1) * d/H)`` of q, k and v; all
    heads run as one batch along a head axis placed after the batch axes.
    """
    *lead, tokens, dim = z.shape
    heads = params.heads
    if dim % heads:
        raise DimensionError(f"width {dim} not divisible by {heads} heads")
    head_dim = dim // heads
    n = len(lead)
    swap = (*range(n), n + 1, n, n + 2)  # [..., T, H, d/H] <-> [..., H, T, d/H]

    def split(x):  # [..., T, d] -> [..., H, T, d/H]
        return transpose(reshape(x, (*lead, tokens, heads, head_dim)), swap)

    q = split(matmul(z, params.wq) + params.bq)
    k = split(matmul(z, params.wk))
    v = split(matmul(z, params.wv) + params.bv)
    scores = mul(matmul(q, transpose(k)), 1.0 / np.sqrt(head_dim))  # [..., H, T, T]
    weights = softmax(scores, axis=-1)
    merged = reshape(transpose(matmul(weights, v), swap), (*lead, tokens, dim))
    return matmul(merged, params.wo) + params.bo


def block_forward(z: Tensor, params: MoeBlockParams, routing_sink: list = None) -> Tensor:
    """z + Attn(LN(z)), then + MoE(LN(.))."""
    attn = attention_forward(layer_norm(z, params.norm1.gain, params.norm1.bias, LN_EPS), params.attention)
    z = z + attn
    moe = moe_forward(layer_norm(z, params.norm2.gain, params.norm2.bias, LN_EPS), params.moe, routing_sink)
    return z + moe


def plain_block_forward(z: Tensor, params: PlainBlockParams) -> Tensor:
    """z + Attn(LN(z)), then + FFN(LN(.)); no expert machinery."""
    attn = attention_forward(layer_norm(z, params.norm1.gain, params.norm1.bias, LN_EPS), params.attention)
    z = z + attn
    return z + feed_forward(layer_norm(z, params.norm2.gain, params.norm2.bias, LN_EPS), params.ffn)
