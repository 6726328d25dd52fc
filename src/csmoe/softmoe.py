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

Attention and feed-forward are fused ``numerics`` ops, one tape node each:
``attention_core`` plus the output ``linear``, and ``gelu_ffn``. The experts
are ``gelu_ffn``'s stacked form, the only op that takes stacked weights
(``linear`` takes 2-D weights only): it sends slot s to expert s % E, so the
slots reach it as they are and a Soft MoE layer records 8 tape nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionError
from .numerics import (
    Tensor,
    attention_core,
    gelu_ffn,
    layer_norm,
    linear,
    matmul,
    softmax,
    transpose,
)


@dataclass
class FeedForwardParams:
    """Two-layer GELU feed-forward: a decoder FFN, or a Soft MoE layer's E
    experts stacked on a leading [E] axis of every tensor."""

    w1: Tensor  # [(E,) dim, hidden]
    b1: Tensor  # [(E,) hidden]
    w2: Tensor  # [(E,) hidden, dim]
    b2: Tensor  # [(E,) dim]


@dataclass
class SoftMoELayerParams:
    slot_embeddings: Tensor  # [num_slots, dim]
    experts: FeedForwardParams  # stacked; slot s uses expert s % E
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
    wqvk: Tensor  # [dim, 3 dim]: the q, v and k projections side by side
    # no key bias: softmax over keys is invariant to per-query constant
    # shifts, so a key bias cannot affect the output
    bqv: Tensor  # [2 dim]: the q and v biases
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
    """GELU(x W1 + b1) W2 + b2, applied to each row of x; with stacked
    [E, ...] weights, row s of x [..., S, d] goes to expert s % E."""
    return gelu_ffn(x, params.w1, params.b1, params.w2, params.b2)


def moe_forward(z: Tensor, params: SoftMoELayerParams, routing_sink: list = None) -> Tensor:
    """One Soft MoE layer: route, run each slot through its expert, combine.

    One ``feed_forward`` call takes the S slots of every batch element as
    they are, slot s going to expert s % E, so expert work is S rows per
    sample whatever the token count.
    """
    routing = route(z, params)
    if routing_sink is not None:
        routing_sink.append(routing)
    return matmul(transpose(routing.combine), feed_forward(routing.slots, params.experts))  # [..., T, dim]


def attention_forward(z: Tensor, params: AttentionParams) -> Tensor:
    """Standard multi-head scaled dot-product self-attention over all tokens.

    Head ``h`` owns columns ``[h * d/H, (h + 1) * d/H)`` of q, k and v; one
    ``attention_core`` runs every head from the q/v/k projection to the
    merged heads, then the output ``linear``.
    """
    return linear(attention_core(z, params.wqvk, params.bqv, params.heads), params.wo, params.bo)


def block_forward(z: Tensor, params: MoeBlockParams, routing_sink: list = None) -> Tensor:
    """z + Attn(LN(z)), then + MoE(LN(.))."""
    attn = attention_forward(layer_norm(z, params.norm1.gain, params.norm1.bias), params.attention)
    z = z + attn
    moe = moe_forward(layer_norm(z, params.norm2.gain, params.norm2.bias), params.moe, routing_sink)
    return z + moe


def plain_block_forward(z: Tensor, params: PlainBlockParams) -> Tensor:
    """z + Attn(LN(z)), then + FFN(LN(.)); no expert machinery."""
    attn = attention_forward(layer_norm(z, params.norm1.gain, params.norm1.bias), params.attention)
    z = z + attn
    return z + feed_forward(layer_norm(z, params.norm2.gain, params.norm2.bias), params.ffn)
