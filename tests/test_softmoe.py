import math

import numpy as np
import pytest
from scipy.special import erf

import csmoe.softmoe as softmoe
from csmoe.errors import DimensionError
from csmoe.numerics import Tensor, backward, parameter
from csmoe.softmoe import (
    FeedForwardParams,
    SoftMoELayerParams,
    attention_forward,
    block_forward,
    moe_forward,
    plain_block_forward,
    route,
)

from util import decoder_block, finite_difference, moe_block, rel_err, weighted_sum


def make_layer(seed, dim=4, hidden=4, num_slots=2, temperature=1.0):
    """A Soft MoE layer as ``init_model`` builds it, one expert per slot."""
    return moe_block(seed, enc_dim=dim, expert_hidden=hidden, num_slots=num_slots,
                     route_temperature=temperature).moe


def np_softmax(v, axis):
    e = np.exp(v - v.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def np_gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def reference_moe(z, slot_embeddings, experts, slot_experts, temperature=1.0):
    """Plain numpy Soft MoE; slot s goes through expert ``slot_experts[s]``
    of the stacked ``experts``."""
    logits = slot_embeddings @ z.T
    dispatch = np_softmax(logits / temperature, axis=1)
    combine = np_softmax(logits, axis=0)
    slot_vals = dispatch @ z
    w1, b1, w2, b2 = (t.data for t in (experts.w1, experts.b1, experts.w2, experts.b2))
    expert_out = np.stack([
        np_gelu(slot_vals[s] @ w1[e] + b1[e]) @ w2[e] + b2[e]
        for s, e in enumerate(slot_experts)
    ])
    return combine.T @ expert_out


def count_feed_forward_calls(monkeypatch):
    calls = []
    real = softmoe.feed_forward

    def counting(x, params):
        calls.append(math.prod(x.shape[:-1]))  # rows that reach the experts
        return real(x, params)

    monkeypatch.setattr(softmoe, "feed_forward", counting)
    return calls


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


def test_route_identical_tokens_give_uniform_dispatch():
    rng = np.random.default_rng(0)
    layer = make_layer(0, dim=4, num_slots=3)
    z = Tensor(np.tile(rng.uniform(-1, 1, (1, 4)), (5, 1)))
    routing = route(z, layer)
    assert np.allclose(routing.dispatch.data, 0.2, atol=1e-12)


def test_route_single_slot_combine_all_ones():
    rng = np.random.default_rng(1)
    layer = make_layer(1, dim=4, num_slots=1)
    routing = route(Tensor(rng.uniform(-1, 1, (6, 4))), layer)
    assert np.allclose(routing.combine.data, 1.0, atol=0)


def test_route_matches_direct_softmax_evaluation():
    # hand-chosen integer logits: slots are unit axes, tokens one-hot scaled
    slots = parameter(np.array([[1.0, 0.0], [0.0, 2.0]]))
    layer = SoftMoELayerParams(slot_embeddings=slots, experts=[None, None], temperature=1.0)
    z = Tensor(np.array([[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    routing = route(z, layer)
    logits = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 2.0]])  # slots @ z.T

    def softmax(v):
        e = np.exp(v - v.max())
        return e / e.sum()

    expected_dispatch = np.stack([softmax(row) for row in logits])
    expected_combine = np.stack([softmax(col) for col in logits.T], axis=1)
    assert rel_err(routing.dispatch.data, expected_dispatch) < 1e-12
    assert rel_err(routing.combine.data, expected_combine) < 1e-12
    assert rel_err(routing.slots.data, expected_dispatch @ z.data) < 1e-12


def test_route_rejects_width_mismatch():
    layer = make_layer(2, dim=4)
    with pytest.raises(DimensionError):
        route(Tensor(np.zeros((3, 5))), layer)


def test_dispatch_and_combine_are_probability_tables():
    rng = np.random.default_rng(3)
    for num_slots in (1, 2, 8):
        layer = make_layer(3, dim=8, num_slots=num_slots, temperature=0.7)
        for num_tokens in (1, 4, 49):
            routing = route(Tensor(rng.uniform(-2, 2, (num_tokens, 8))), layer)
            assert np.abs(routing.dispatch.data.sum(axis=1) - 1.0).max() <= 1e-9
            assert np.abs(routing.combine.data.sum(axis=0) - 1.0).max() <= 1e-9
            for t in (routing.dispatch, routing.combine):
                assert (t.data >= 0).all() and (t.data <= 1).all()


def test_low_temperature_sharpens_dispatch():
    rng = np.random.default_rng(4)
    layer = make_layer(4, dim=8, num_slots=4)
    # generic O(1) logits rather than the tiny train-time init scale
    layer.slot_embeddings.data = rng.uniform(-1, 1, (4, 8))
    z = Tensor(rng.uniform(-1, 1, (10, 8)))
    peaks = []
    for temperature in (1.0, 0.1, 0.01):
        layer.temperature = temperature
        peaks.append(route(z, layer).dispatch.data.max(axis=1))
    assert (np.diff(peaks, axis=0) >= 0).all()  # every slot sharpens as the temperature falls
    # a top logit 0.07 clear of the rest leaves the other 9 tokens < 9 e^-7 < 0.01 at 0.01
    logits = np.sort(layer.slot_embeddings.data @ z.data.T, axis=1)
    clear = logits[:, -1] - logits[:, -2] >= 0.07
    assert clear.any() and (peaks[-1][clear] >= 0.99).all()


# ---------------------------------------------------------------------------
# expert application
# ---------------------------------------------------------------------------


def test_identity_experts_reduce_to_combine_weighted_slots():
    rng = np.random.default_rng(5)
    dim = 4
    layer = make_layer(5, dim=dim, hidden=dim, num_slots=2)
    layer.experts.w1.data = np.stack([np.eye(dim)] * 2)
    layer.experts.b1.data = np.zeros((2, dim))
    layer.experts.w2.data = np.stack([np.eye(dim)] * 2)
    layer.experts.b2.data = np.zeros((2, dim))
    z = Tensor(rng.uniform(-1, 1, (5, dim)))
    routing = route(z, layer)
    out = moe_forward(z, layer)
    expected = routing.combine.data.T @ np_gelu(routing.slots.data)
    assert rel_err(out.data, expected) < 1e-12


def test_expert_call_count_is_slot_count(monkeypatch):
    rng = np.random.default_rng(6)
    layer = make_layer(6, dim=4, num_slots=3)
    calls = count_feed_forward_calls(monkeypatch)
    for num_tokens in (16, 49, 196):
        calls.clear()
        moe_forward(Tensor(rng.uniform(-1, 1, (num_tokens, 4))), layer)
        assert calls == [3]  # one call with one row per slot, independent of the token count


def test_moe_forward_records_eight_tape_nodes():
    # route's five ops, then the combine transpose, one feed_forward and the
    # combine matmul: the slots reach their experts with no layout op
    layer = moe_block(6, enc_dim=4, num_slots=4, num_experts=2).moe
    z = parameter(np.random.default_rng(6).uniform(-1, 1, (2, 5, 4)))
    seen, todo, ops = set(), [moe_forward(z, layer)], 0
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops += t._backward is not None
            todo.extend(t._parents)
    assert ops == 8


def test_moe_forward_matches_step_by_step_oracle():
    # tiny integer-ish parameters, evaluated independently with plain numpy
    dim = 2
    slots = parameter(np.array([[1.0, 0.0], [0.0, 1.0]]))
    experts = FeedForwardParams(
        w1=parameter(np.array([[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [1.0, 1.0]]])),
        b1=parameter(np.array([[0.5, 0.0], [0.0, 0.25]])),
        w2=parameter(np.array([[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]])),
        b2=parameter(np.array([[0.0, -1.0], [1.0, 0.0]])),
    )
    layer = SoftMoELayerParams(slot_embeddings=slots, experts=experts, temperature=1.0)
    z_data = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = moe_forward(Tensor(z_data), layer)
    assert rel_err(out.data, reference_moe(z_data, slots.data, experts, [0, 1])) < 1e-12


def test_extra_slots_wrap_around_to_the_first_experts():
    rng = np.random.default_rng(12)
    layer = moe_block(12, enc_dim=4, expert_hidden=5, num_slots=4, num_experts=2,
                      route_temperature=0.5).moe
    # O(1) weights so that every slot and expert leaves a distinct mark
    e = layer.experts
    for t in (e.w1, e.b1, e.w2, e.b2):
        t.data = rng.standard_normal(t.shape)
    layer.slot_embeddings.data = rng.standard_normal((4, 4))
    z = rng.standard_normal((6, 4))
    out = moe_forward(Tensor(z), layer).data
    slots = layer.slot_embeddings.data
    assert rel_err(out, reference_moe(z, slots, e, [0, 1, 0, 1], 0.5)) < 1e-12
    assert rel_err(out, reference_moe(z, slots, e, [0, 0, 1, 1], 0.5)) > 1e-3


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_block_with_zeroed_output_branches_is_identity():
    rng = np.random.default_rng(7)
    block = moe_block(7, enc_dim=4, expert_hidden=4, num_slots=2)
    block.attention.wo.data = np.zeros((4, 4))
    block.attention.bo.data = np.zeros(4)
    block.moe.experts.w2.data = np.zeros((2, 4, 4))
    block.moe.experts.b2.data = np.zeros((2, 4))
    z = rng.uniform(-1, 1, (5, 4))
    out = block_forward(Tensor(z), block)
    assert np.array_equal(out.data, z)


def reference_attention(z, p):
    """Plain numpy, one head at a time; head h owns column block h of q, k, v."""
    d = z.shape[1]
    q = z @ p.wqvk.data[:, :d] + p.bqv.data[:d]
    v = z @ p.wqvk.data[:, d:2 * d] + p.bqv.data[d:]
    k = z @ p.wqvk.data[:, 2 * d:]
    hd = d // p.heads
    outs = []
    for h in range(p.heads):
        cols = slice(h * hd, (h + 1) * hd)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(hd)
        w = np.exp(scores - scores.max(axis=1, keepdims=True))
        outs.append((w / w.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(outs, axis=1) @ p.wo.data + p.bo.data


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("tokens", [1, 2, 7])
def test_attention_matches_per_head_reference(heads, tokens):
    rng = np.random.default_rng(11)
    params = moe_block(11, enc_dim=8, heads=heads).attention
    # weights large enough that every head attends sharply and differently
    for t in (params.wqvk, params.bqv, params.wo, params.bo):
        t.data = rng.standard_normal(t.shape)
    z = rng.standard_normal((tokens, 8))
    out = attention_forward(Tensor(z), params)
    assert rel_err(out.data, reference_attention(z, params)) <= 1e-12


def test_block_single_token_is_finite():
    rng = np.random.default_rng(8)
    block = moe_block(8, enc_dim=4, expert_hidden=4, num_slots=2)
    out = block_forward(Tensor(rng.uniform(-1, 1, (1, 4))), block)
    assert out.shape == (1, 4)
    assert np.isfinite(out.data).all()


def test_block_token_permutation_equivariance():
    rng = np.random.default_rng(9)
    block = moe_block(9, enc_dim=8, expert_hidden=8, num_slots=3)
    z = rng.uniform(-1, 1, (7, 8))
    perm = rng.permutation(7)
    out = block_forward(Tensor(z), block)
    out_perm = block_forward(Tensor(z[perm]), block)
    assert rel_err(out.data[perm], out_perm.data) < 1e-10


def test_moe_block_gradient_check():
    rng = np.random.default_rng(10)
    block = moe_block(10, enc_dim=4, expert_hidden=4, num_slots=2)
    # healthier conditioning than train-time init for finite differences
    params = {}

    def collect(prefix, obj):
        from dataclasses import fields as dc_fields
        for f in dc_fields(obj):
            v = getattr(obj, f.name)
            if isinstance(v, Tensor):
                v.data = rng.uniform(-0.5, 0.5, v.shape)
                params[f"{prefix}.{f.name}"] = v

    collect("attn", block.attention)
    collect("norm1", block.norm1)
    collect("norm2", block.norm2)
    params["slots"] = block.moe.slot_embeddings
    block.moe.slot_embeddings.data = rng.uniform(-0.5, 0.5, (2, 4))
    collect("experts", block.moe.experts)
    block.norm1.gain.data = np.ones(4)
    block.norm2.gain.data = np.ones(4)

    z_in = parameter(rng.uniform(-1, 1, (3, 4)))
    params["z"] = z_in
    w = rng.uniform(-1, 1, (3, 4))

    def run():
        return weighted_sum(block_forward(z_in, block), w).item()

    loss = weighted_sum(block_forward(z_in, block), w)
    backward(loss)
    for name, t in params.items():
        (numeric,) = finite_difference(run, [t])
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert rel_err(analytic, numeric) <= 1e-4, name


def test_plain_block_forward_shapes_and_gradients():
    rng = np.random.default_rng(11)
    block = decoder_block(11, dec_dim=4, dec_heads=2, dec_hidden=6)
    z = parameter(rng.uniform(-1, 1, (3, 4)))
    w = rng.uniform(-1, 1, (3, 4))
    out = plain_block_forward(z, block)
    assert out.shape == (3, 4)
    loss = weighted_sum(out, w)
    backward(loss)
    (numeric,) = finite_difference(
        lambda: weighted_sum(plain_block_forward(z, block), w).item(), [z]
    )
    assert rel_err(z.grad, numeric) <= 1e-4
