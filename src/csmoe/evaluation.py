"""Retrieval scoring and parameter/FLOP/capacity accounting.

FLOP convention (documented in every profile): 2 ops per multiply-accumulate
with bias adds counted once per output element, 5 ops per softmax or
layer-norm element, 10 per GELU element, data movement free. Counts cover
one paired two-modality forward at the configured mask ratio. The analytic
walk below enumerates exactly the ops the real forward executes, so it can
be cross-checked against an instrumented run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, ParameterError
from .model import MODALITIES, CsmoeConfig, parameter_manifest
from .numerics import (
    elementwise_flops,
    gelu_flops,
    layer_norm_flops,
    matmul_flops,
    softmax_flops,
)
from .tokenizer import masked_count

FLOP_CONVENTION = (
    "2 ops per multiply-accumulate (bias adds 1/element), softmax and "
    "layer-norm 5/element, GELU 10/element, data movement free; one paired "
    "two-modality forward at the configured mask ratio"
)


# ---------------------------------------------------------------------------
# Retrieval
# ---------------------------------------------------------------------------


#: queries ranked per pass: one block's [rows, N] similarities and partition
#: indices bound the memory of a call whatever the number of queries
_QUERY_ROWS = 128


def retrieve(query_emb: np.ndarray, gallery_emb: np.ndarray, k: int,
             query_ids=None, gallery_ids=None):
    """Cosine-ranked gallery indices per query, best first.

    The gallery is never normalised: each call reads it once for its [N]
    inverse row norms, and a block of at most ``_QUERY_ROWS`` unit-length
    queries is multiplied with it as given, one GEMM whose [rows, N] result
    is scaled by those inverse norms in place. Ties break toward the lower
    gallery index; a gallery item sharing a query's id is never returned for
    that query. Only the head of each ranking is sorted: a partition cuts
    every row at k plus the largest number of gallery items sharing a
    query's id, and every item tied with the cut joins the sort, so the
    result equals a full stable sort's.
    """
    q = np.asarray(query_emb, dtype=np.float64)
    g = np.asarray(gallery_emb, dtype=np.float64)
    if q.ndim != 2 or g.ndim != 2 or q.shape[1] != g.shape[1]:
        raise DimensionError(f"embedding widths differ: {q.shape} vs {g.shape}")
    if g.shape[0] == 0:
        raise DimensionError("gallery is empty")
    if k < 1:
        raise ParameterError(f"retrieval depth must be >= 1, got {k}")
    qn = q / np.maximum(np.linalg.norm(q, axis=1, keepdims=True), 1e-300)
    # einsum reduces each row without an [N, d] temporary of squares
    neg_inv = -1.0 / np.maximum(np.sqrt(np.einsum("ij,ij->i", g, g)), 1e-300)
    if query_ids is None or gallery_ids is None:
        query_ids = gallery_ids = None
        cut = min(g.shape[0], k)
    else:
        counts = Counter(gallery_ids)
        cut = min(g.shape[0], k + max((counts[i] for i in query_ids), default=0))
        gallery_ids = np.asarray(gallery_ids, dtype=object)
    ranked = []
    for lo in range(0, q.shape[0], _QUERY_ROWS):
        neg = qn[lo:lo + _QUERY_ROWS] @ g.T
        np.multiply(neg, neg_inv, out=neg)
        ids = None if query_ids is None else query_ids[lo:lo + _QUERY_ROWS]
        ranked += _rank_rows(neg, cut, k, ids, gallery_ids)
    return ranked


def _rank_rows(neg, cut: int, k: int, query_ids, gallery_ids):
    """``retrieve``'s ranking of each row of negated similarities [rows, N];
    a call of its own, so a block's arrays are freed before the next one's."""
    part = np.argpartition(neg, cut - 1, axis=1)
    bound = np.take_along_axis(neg, part[:, cut - 1:cut], axis=1)[:, 0]
    ranked = []
    for i, row in enumerate(neg):
        head = np.flatnonzero(~(row > bound[i]))  # NaN similarities join and sort last
        head = head[np.lexsort((head, row[head]))]
        if gallery_ids is not None:  # object arrays compare ids with Python's !=, as a per-item check would
            head = head[gallery_ids[head] != query_ids[i]]
        ranked.append(head[:k].tolist())
    return ranked


def pairwise_label_f1(a, b) -> float:
    """2|A n B| / (|A| + |B|) over two label sets."""
    a, b = set(a), set(b)
    if not a or not b:
        raise ParameterError("label sets must be non-empty")
    return 2.0 * len(a & b) / (len(a) + len(b))


def retrieval_f1(query_labels, retrieved_labels, k: int) -> float:
    """Mean pairwise label F1 over the top-k retrieved items, in [0, 1]."""
    if k > len(retrieved_labels):
        raise ParameterError(f"k={k} exceeds {len(retrieved_labels)} retrieved items")
    scores = [pairwise_label_f1(query_labels, r) for r in retrieved_labels[:k]]
    return float(np.mean(scores))


def dataset_retrieval_f1(query_label_list, retrieved_label_lists, k: int) -> float:
    """Mean of per-query scores, reported in percent."""
    scores = [
        retrieval_f1(ql, rl, k) for ql, rl in zip(query_label_list, retrieved_label_lists)
    ]
    return 100.0 * float(np.mean(scores))


# ---------------------------------------------------------------------------
# Compute profile
# ---------------------------------------------------------------------------


@dataclass
class ComputeProfile:
    params: int
    flops: int
    c2c: float
    convention: str = FLOP_CONVENTION
    breakdown: list = field(default_factory=list)  # {"component", "params", "flops"}


def c2c_ratio(params: int, flops: int) -> float:
    """Capacity-to-compute: parameters in millions per forward gigaflop."""
    return (params / 1e6) / (flops / 1e9)


def _attention_flops(t: int, d: int, heads: int) -> int:
    f = 3 * matmul_flops(t, d, d) + 2 * elementwise_flops(t * d)  # k has no bias
    hd = d // heads
    f += heads * (
        matmul_flops(t, hd, t)
        + elementwise_flops(t * t)  # scale
        + softmax_flops(t * t)
        + matmul_flops(t, t, hd)
    )
    f += matmul_flops(t, d, d) + elementwise_flops(t * d)
    return f


def _ffn_flops(t: int, d: int, hidden: int) -> int:
    return (
        matmul_flops(t, d, hidden) + elementwise_flops(t * hidden)
        + gelu_flops(t * hidden)
        + matmul_flops(t, hidden, d) + elementwise_flops(t * d)
    )


def _moe_layer_flops(t: int, d: int, num_slots: int, hidden: int) -> int:
    f = matmul_flops(num_slots, d, t)  # slot/token logits
    f += 2 * softmax_flops(num_slots * t)  # dispatch + combine
    f += matmul_flops(num_slots, t, d)  # slots
    f += num_slots * _ffn_flops(1, d, hidden)  # one expert call per slot
    f += matmul_flops(t, num_slots, d)  # combine mix
    return f


def _block_flops(t: int, d: int, heads: int, mix: int) -> int:
    """One pre-norm residual block over t tokens of width d: attention, then
    the token mixer whose count is ``mix`` (a Soft MoE layer or an FFN)."""
    return (
        layer_norm_flops(t * d)
        + _attention_flops(t, d, heads)
        + elementwise_flops(t * d)  # residual
        + layer_norm_flops(t * d)
        + mix
        + elementwise_flops(t * d)  # residual
    )


def forward_flops(cfg: CsmoeConfig):
    """Analytic op count of one paired forward; returns (total, per-component)."""
    p = cfg.num_patches
    t = (p - masked_count(p, cfg.mask_ratio)) + 1  # unmasked tokens + CLS
    enc_block = _block_flops(t, cfg.enc_dim, cfg.heads,
                             _moe_layer_flops(t, cfg.enc_dim, cfg.num_slots, cfg.expert_hidden))
    dec_block = _block_flops(p, cfg.dec_dim, cfg.dec_heads, _ffn_flops(p, cfg.dec_dim, cfg.dec_hidden))
    comp = {}
    for m in MODALITIES:
        comp[f"embed_{m}"] = matmul_flops(p, cfg.token_dim(m), cfg.enc_dim) + elementwise_flops(p * cfg.enc_dim)
        comp[f"enc_{m}"] = cfg.enc_layers_modality * enc_block
    comp["enc_shared"] = 2 * cfg.enc_layers_shared * enc_block  # both paths
    comp["proj"] = 2 * (matmul_flops(1, cfg.enc_dim, cfg.proj_dim) + elementwise_flops(cfg.proj_dim))
    for target in MODALITIES:
        dec = 0
        for _source in MODALITIES:
            dec += matmul_flops(t, cfg.enc_dim, cfg.dec_dim) + elementwise_flops(t * cfg.dec_dim)
            dec += elementwise_flops(p * cfg.dec_dim)  # decoder positions
            dec += cfg.dec_layers * dec_block
            dec += matmul_flops(p, cfg.dec_dim, cfg.token_dim(target)) + elementwise_flops(p * cfg.token_dim(target))
        comp[f"dec_{target}"] = dec
    return sum(comp.values()), comp


def _component(name: str) -> str:
    """The ``forward_flops`` component whose ops use parameter ``name``: a
    CLS token joins its modality's embedding, and the decoder embedding,
    mask token and heads of a target join that target's decoder."""
    group = name.split(".")[0]
    for prefix, owner in (("cls_", "embed_"), ("dec_embed_", "dec_"), ("mask_token_", "dec_"),
                          ("head_", "dec_")):  # head_<target>_from_<source>
        if group.startswith(prefix):
            return owner + group[len(prefix):].split("_")[0]
    return group


def profile(cfg: CsmoeConfig) -> ComputeProfile:
    """Exact parameter enumeration plus the analytic forward op count, both
    broken down by the same components."""
    param_groups = {}
    for name, shape, _ in parameter_manifest(cfg):
        group = _component(name)
        param_groups[group] = param_groups.get(group, 0) + int(np.prod(shape))
    total_params = sum(param_groups.values())
    total_flops, flop_groups = forward_flops(cfg)
    components = sorted(set(param_groups) | set(flop_groups))
    breakdown = [
        {
            "component": name,
            "params": param_groups.get(name, 0),
            "flops": flop_groups.get(name, 0),
        }
        for name in components
    ]
    return ComputeProfile(
        params=total_params,
        flops=total_flops,
        c2c=c2c_ratio(total_params, total_flops),
        breakdown=breakdown,
    )
