import functools
import gc
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import csmoe.numerics as numerics
from csmoe.errors import DimensionError, EvaluationError, FormatError, ParameterError
from csmoe.fileio import atomic_write, load_tnsr, read_blocks, read_tnsr, save_tnsr, write_blocks, write_tnsr
from csmoe.numerics import (
    FlopCounter,
    Tensor,
    attention_core,
    backward,
    check_gradients,
    concat_rows,
    contrastive_ce,
    entropy,
    gelu_ffn,
    gelu_flops,
    layer_norm,
    linear,
    masked_mse,
    matmul,
    mul,
    parameter,
    reshape,
    scatter_rows,
    slot_repulsion,
    softmax,
    stack,
    take,
    take_rows,
    transpose,
)

from csmoe.losses import loss_total
from csmoe.model import forward, init_model, truncated_normal
from csmoe.sampler import load_grid
from csmoe.trainer import TrainerConfig, run_pretraining

from util import finite_difference, mini_config, rel_err, weighted_sum


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), a)
    assert np.array_equal(out.data, a.data)


def test_matmul_projector():
    p = Tensor([[1.0, 0.0], [0.0, 0.0]])
    v = Tensor([[5.0], [7.0]])
    assert np.array_equal(matmul(p, v).data, [[5.0], [0.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_rejects_mismatched_batch_axes():
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4, 5))))
    with pytest.raises(DimensionError):  # a 2-D weight broadcasts, but k must still agree
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((5, 6))))
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((3, 5))), Tensor(np.zeros((2, 4, 6))))
    with pytest.raises(DimensionError):
        matmul(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros(4)))


def test_row_ops_reject_indices_that_do_not_fit_the_batch():
    a = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError):
        take_rows(a, [[0], [1], [2]])  # three index rows for a batch of two
    with pytest.raises(IndexError):  # element 0 has no row 3; it must not read element 1's row 0
        take_rows(a, [[0], [3]])
    with pytest.raises(DimensionError):
        scatter_rows(a, [[0, 1, 2]] * 3, Tensor(np.zeros(4)), 5)
    with pytest.raises(DimensionError):
        scatter_rows(a, [0, 1], Tensor(np.zeros(4)), 5)  # three rows, two positions


def test_matmul_gradient_of_sum_is_column_sums():
    rng = np.random.default_rng(0)
    a = parameter(rng.uniform(-1, 1, (3, 3)))
    b = Tensor(rng.uniform(-1, 1, (3, 3)))
    loss = weighted_sum(matmul(a, b), np.ones((3, 3)))
    backward(loss)
    # d/da sum(a @ b) broadcasts the column sums of b across rows of a
    expected = np.tile(b.data.sum(axis=1), (3, 1))
    assert rel_err(a.grad, expected) < 1e-12
    (numeric,) = finite_difference(lambda: weighted_sum(matmul(a, b), np.ones((3, 3))).item(), [a])
    assert rel_err(a.grad, numeric) < 1e-5


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_uniform_input():
    out = softmax(Tensor([[0.0, 0.0, 0.0]]), axis=1)
    assert np.allclose(out.data, 1.0 / 3.0, atol=1e-15)


def test_softmax_hand_value():
    out = softmax(Tensor([[np.log(2.0), 0.0]]), axis=1)
    assert rel_err(out.data, [[2.0 / 3.0, 1.0 / 3.0]]) < 1e-12


def test_softmax_temperature_identity_bitwise():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, (4, 6))
    half = softmax(Tensor(x), axis=1, temperature=0.5)
    doubled = softmax(Tensor(2.0 * x), axis=1, temperature=1.0)
    assert np.array_equal(half.data, doubled.data)


def test_softmax_rows_are_probability_vectors():
    rng = np.random.default_rng(2)
    for axis in (0, 1):
        x = Tensor(rng.uniform(-50, 50, (5, 7)))
        y = softmax(x, axis=axis, temperature=0.7)
        assert (y.data >= 0).all()
        assert np.abs(y.data.sum(axis=axis) - 1.0).max() <= 1e-12


def test_softmax_rejects_nonpositive_temperature():
    with pytest.raises(ParameterError):
        softmax(Tensor([[1.0]]), axis=1, temperature=0.0)


# ---------------------------------------------------------------------------
# layer_norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_row_collapses_to_bias():
    out = layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-12)
    assert np.abs(out.data).max() < 1e-5


def test_layer_norm_two_point_row():
    out = layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=1e-12)
    assert abs(out.data.var() - 1.0) < 1e-6
    assert rel_err(out.data, [[1.0, -1.0]]) < 1e-6
    assert abs(out.data.mean()) < 1e-9


def test_layer_norm_rejects_bad_eps():
    with pytest.raises(ParameterError):
        layer_norm(Tensor([[1.0, 2.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)


def test_layer_norm_gradient():
    rng = np.random.default_rng(3)
    x = parameter(rng.uniform(-1, 1, (2, 4)))
    gain = parameter(rng.uniform(0.5, 1.5, 4))
    bias = parameter(rng.uniform(-0.5, 0.5, 4))

    def run():
        return weighted_sum(layer_norm(x, gain, bias, 1e-6), weights).item()

    weights = rng.uniform(-1, 1, (2, 4))
    loss = weighted_sum(layer_norm(x, gain, bias, 1e-6), weights)
    backward(loss)
    for t in (x, gain, bias):
        (numeric,) = finite_difference(run, [t])
        assert rel_err(t.grad, numeric) < 1e-5


# ---------------------------------------------------------------------------
# every differentiable op against central differences
# ---------------------------------------------------------------------------


def test_op_gradients_against_finite_differences():
    rng = np.random.default_rng(4)

    def weighted(out):
        w = Tensor(rng.uniform(-1, 1, out.shape))
        return weighted_sum(out, w), w

    cases = []

    a = parameter(rng.uniform(-1, 1, (3, 4)))
    b = parameter(rng.uniform(-1, 1, (3, 4)))
    cases.append((lambda: a + b, [a, b]))
    cases.append((lambda: mul(a, b), [a, b]))
    cases.append((lambda: transpose(a), [a]))
    m1 = parameter(rng.uniform(-1, 1, (3, 4)))
    m2 = parameter(rng.uniform(-1, 1, (4, 2)))
    cases.append((lambda: matmul(m1, m2), [m1, m2]))
    f1, f2 = parameter(rng.uniform(-1, 1, (4, 5))), parameter(rng.uniform(-1, 1, (5, 2)))
    fb1, fb2 = parameter(rng.uniform(-1, 1, 5)), parameter(rng.uniform(-1, 1, 2))
    cases.append((lambda: gelu_ffn(a, f1, fb1, f2, fb2), [a, f1, fb1, f2, fb2]))
    cases.append((lambda: softmax(a, axis=1, temperature=0.6), [a]))
    cases.append((lambda: take_rows(a, [2, 0, 0]), [a]))
    cases.append((lambda: concat_rows([a, b]), [a, b]))
    h1 = parameter(rng.uniform(-1, 1, (2, 3, 4)))
    h2 = parameter(rng.uniform(-1, 1, (2, 4, 2)))
    cases.append((lambda: matmul(h1, h2), [h1, h2]))
    cases.append((lambda: transpose(h1, (1, 0, 2)), [h1]))
    cases.append((lambda: transpose(h1), [h1]))
    fill = parameter(rng.uniform(-1, 1, (1, 4)))
    cases.append((lambda: scatter_rows(take_rows(a, [0, 1, 2]), [4, 0, 2], fill, 5), [a, fill]))
    # leading batch axes: a 2-D weight on either side, per-sample row indices
    cases.append((lambda: matmul(h1, m2), [h1, m2]))
    cases.append((lambda: matmul(m1, h2), [m1, h2]))
    per_sample = [[2, 0], [1, 1]]
    cases.append((lambda: take_rows(h1, per_sample), [h1]))
    cases.append((lambda: concat_rows([fill, h1]), [fill, h1]))
    cases.append((lambda: scatter_rows(take_rows(h1, per_sample), [[3, 0], [1, 4]], fill, 5), [h1, fill]))
    cases.append((lambda: take_rows(h1, [[2, 0], [1, 0]]), [h1]))  # distinct rows: scattered by assignment
    # linear: a 2-D weight over batch axes, a bias narrower than the output
    bias2 = parameter(rng.uniform(-1, 1, 2))
    cases.append((lambda: linear(h1, m2, bias2), [h1, m2, bias2]))
    w6 = parameter(rng.uniform(-1, 1, (4, 6)))
    cases.append((lambda: linear(a, w6, bias2), [a, w6, bias2]))
    cases.append((lambda: linear(a, w6), [a, w6]))
    cases.append((lambda: stack([a, b, a]), [a, b]))
    cases.append((lambda: take(h1, 1), [h1]))
    # the fused ops: 2 stacked experts taking rows s % 2 of [3, 2, 4] and of [2, 4, 4],
    # and attention over a batch with a narrow q/v bias
    e1, e2 = parameter(rng.uniform(-1, 1, (2, 4, 5))), parameter(rng.uniform(-1, 1, (2, 5, 3)))
    eb1, eb2 = parameter(rng.uniform(-1, 1, (2, 5))), parameter(rng.uniform(-1, 1, (2, 3)))
    cases.append((lambda: gelu_ffn(transpose(h1, (1, 0, 2)), e1, eb1, e2, eb2), [h1, e1, eb1, e2, eb2]))
    cases.append((lambda: gelu_ffn(concat_rows([fill, h1]), e1, eb1, e2, eb2), [fill, h1, e1, eb1, e2, eb2]))
    wqvk = parameter(rng.uniform(-1, 1, (4, 12)))
    bqv = parameter(rng.uniform(-1, 1, 8))
    cases.append((lambda: attention_core(h1, wqvk, bqv, 2), [h1, wqvk, bqv]))
    # the loss ops: shared, per-sample and repeated rows; both contrastive denominators
    target = rng.uniform(-1, 1, (2, 3, 4))
    cases.append((lambda: masked_mse(h1, target, [2, 0]), [h1]))
    cases.append((lambda: masked_mse(h1, target, per_sample), [h1]))
    cases.append((lambda: masked_mse(a, target[0], [2, 0, 0]), [a]))
    cases.append((lambda: contrastive_ce(a, b, 0.6), [a, b]))
    cases.append((lambda: contrastive_ce(a, b, 0.6, include_positive=True), [a, b]))
    cases.append((lambda: slot_repulsion(h1), [h1]))
    cases.append((lambda: entropy(a + 2.0, 1e-6), [a]))

    for fn, params in cases:
        for p in params:
            p.grad = None
        out, w = weighted(fn())
        backward(out)
        for p in params:
            (numeric,) = finite_difference(lambda: weighted_sum(fn(), w).item(), [p])
            assert rel_err(p.grad, numeric) <= 1e-4, f"{fn}"


def test_ops_are_pure_and_deterministic():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, (4, 4))
    g = rng.uniform(0.5, 1.5, 4)
    b = rng.uniform(-0.5, 0.5, 4)
    r1 = layer_norm(softmax(Tensor(x), axis=1, temperature=0.3), Tensor(g), Tensor(b), 1e-6)
    r2 = layer_norm(softmax(Tensor(x), axis=1, temperature=0.3), Tensor(g), Tensor(b), 1e-6)
    assert np.array_equal(r1.data, r2.data)


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        backward(Tensor([1.0, 2.0]))


def test_backward_visits_shared_nodes_once():
    # diamond graph: y = (x + x) summed; each path contributes once
    x = parameter([1.0, 2.0])
    s = x + x
    loss = weighted_sum(s, s)  # d/dx 4 x^2 = 8x
    backward(loss)
    assert rel_err(x.grad, [8.0, 16.0]) < 1e-12


def test_backward_keeps_leaf_gradients_and_frees_interior_ones():
    model = init_model(mini_config())
    rng = np.random.default_rng(2)
    art = forward(model, rng.standard_normal((2, 2, 16, 16)), rng.standard_normal((2, 3, 16, 16)), seed=[1, 2])
    loss = loss_total(model, art).total_tensor
    nodes, todo = {}, [loss]
    while todo:
        node = todo.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            todo.extend(node._parents)
    interior = [n for n in nodes.values() if n._backward is not None]
    leaves = [n for n in nodes.values() if n._backward is None and n.requires_grad]
    parents = [n._parents for n in interior]
    assert len(interior) > 100 and len(leaves) == len(model.params)
    backward(loss)
    assert all(n.grad is not None for n in leaves)
    assert all(n.grad is None for n in interior)
    # each closure, with the arrays it saved, is released once it has run;
    # the parent links stay, so a swept graph can still be walked
    assert all(n._backward is None for n in interior)
    assert all(n._parents is p for n, p in zip(interior, parents))


def test_swept_graph_refuses_a_second_sweep():
    x = parameter([1.0, 2.0])
    s = x + x
    loss = weighted_sum(s, s)
    backward(loss)
    first = x.grad.copy()
    for root in (loss, weighted_sum(s, x)):  # the swept root, or a new root over a swept node
        with pytest.raises(EvaluationError, match="graph already swept; run the forward again"):
            backward(root)
        assert np.array_equal(x.grad, first)  # refused before any gradient moved
    backward(weighted_sum(x + x, x + x))  # a fresh forward sweeps again
    assert rel_err(x.grad, 2 * first) < 1e-12


@pytest.fixture
def frozen_gradients(monkeypatch):
    """Every gradient ``_accumulate`` stores is read-only: a closure or a
    later accumulation that writes into a gradient handed on raises."""
    accumulate = numerics._accumulate

    def frozen(t, g):
        accumulate(t, g)
        if isinstance(t.grad, np.ndarray):  # an array scalar cannot be written anyway
            t.grad.flags.writeable = False

    monkeypatch.setattr(numerics, "_accumulate", frozen)


def _mini_step_gradients():
    model = init_model(mini_config())
    rng = np.random.default_rng(2)
    art = forward(model, rng.standard_normal((2, 2, 16, 16)), rng.standard_normal((2, 3, 16, 16)), seed=[1, 2])
    backward(loss_total(model, art).total_tensor)
    return {name: p.grad for name, p in model.params.items()}


def test_no_gradient_is_written_once_handed_on(monkeypatch, frozen_gradients):
    # a batched training step: residuals, shared weights, sibling takes and
    # stacks all hand some node a second gradient
    frozen = _mini_step_gradients()
    monkeypatch.undo()
    writable = _mini_step_gradients()
    assert all(np.array_equal(frozen[name], g) for name, g in writable.items())


def test_check_gradients_of_fused_and_structural_ops_writes_no_gradient(frozen_gradients):
    rng = np.random.default_rng(21)
    shapes = {"x": (2, 3, 4), "wqvk": (4, 12), "bqv": (8,), "w1": (2, 4, 5), "b1": (2, 5),
              "w2": (2, 5, 4), "b2": (2, 4), "fill": (1, 4), "a": (4, 3), "b": (4, 3)}
    params = {name: parameter(rng.uniform(-1, 1, shape)) for name, shape in shapes.items()}
    target = rng.uniform(-1, 1, (3, 2, 4))

    def loss_fn(p):
        h = attention_core(p["x"], p["wqvk"], p["bqv"], 2) + p["x"]
        h = layer_norm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        h = gelu_ffn(transpose(h, (1, 0, 2)), p["w1"], p["b1"], p["w2"], p["b2"])  # [3, 2, 4]
        s = stack([h, transpose(p["x"], (1, 0, 2))])
        both = reshape(mul(take(s, 0), take(s, 1)), (6, 4))
        rows = concat_rows([p["fill"], scatter_rows(take_rows(both, [0, 2, 5]), [1, 3, 4], p["fill"], 6)])
        return (weighted_sum(rows, rows) + masked_mse(h, target, [1, 0]) + slot_repulsion(h)
                + entropy(softmax(rows, axis=1), 1e-6) + contrastive_ce(p["a"], p["b"], 0.5))

    report = check_gradients(loss_fn, params)
    assert report.checked_elements == sum(t.size for t in params.values())
    assert report.passed(1e-6), report.per_parameter_errors


def test_a_held_gradient_keeps_its_value_across_a_second_backward():
    # each leaf gets one gradient per sweep (the takes' rows do not overlap),
    # so the second sweep's sum is exactly held + its own gradient
    rng = np.random.default_rng(8)
    x, a = parameter(rng.uniform(-1, 1, (3, 4))), parameter(rng.uniform(-1, 1, (2, 3, 4)))
    w = rng.uniform(-1, 1, (3, 4))

    def loss_of(x, a, scale):
        s = mul(mul(x, take(a, 0)), take(a, 1))
        return weighted_sum(s + s, w * scale)

    backward(loss_of(x, a, 1.0))
    held = {"x": x.grad, "a": a.grad}
    kept = {name: g.copy() for name, g in held.items()}
    backward(loss_of(x, a, 3.0))  # no zero_grads: the sweep adds onto the held gradients
    fresh_x, fresh_a = parameter(x.data), parameter(a.data)
    backward(loss_of(fresh_x, fresh_a, 3.0))
    for name, t, fresh in (("x", x, fresh_x), ("a", a, fresh_a)):
        assert np.array_equal(held[name], kept[name])
        assert np.array_equal(t.grad, kept[name] + fresh.grad)


def test_gradients_of_a_node_used_twice_and_of_sibling_takes(frozen_gradients):
    x = parameter([1.0, -2.0, 3.0])
    backward(weighted_sum(x + x, np.array([1.0, 2.0, -3.0])))
    assert np.array_equal(x.grad, [2.0, 4.0, -6.0])
    # the stack also feeds a reshape, swept before its two takes
    a, b = parameter(np.zeros((2, 3))), parameter(np.zeros((2, 3)))
    w0, w1, w2 = np.arange(6.0).reshape(2, 3), -np.arange(6.0).reshape(2, 3), np.arange(12.0).reshape(2, 2, 3)
    s = stack([a, b])
    backward(weighted_sum(s, w2) + weighted_sum(take(s, 0), w0) + weighted_sum(take(s, 1), w1))
    assert np.array_equal(a.grad, w2[0] + w0) and np.array_equal(b.grad, w2[1] + w1)


def test_dropped_graph_leaves_no_cyclic_garbage():
    # backward closures never capture their own output, so reference
    # counting alone frees a dropped graph
    model = init_model(mini_config())
    rng = np.random.default_rng(6)
    images = (rng.standard_normal((2, 2, 16, 16)), rng.standard_normal((2, 3, 16, 16)))
    gc.collect()
    gc.disable()
    try:
        art = forward(model, *images, seed=[0, 1])
        breakdown = loss_total(model, art)
        backward(breakdown.total_tensor)
        del art, breakdown
        assert gc.collect() == 0
    finally:
        gc.enable()


def _bytes_kept_beyond_output(op):
    """Traced bytes still allocated after ``op()`` returns, less its output's
    array: what the op's tape node keeps alive for its backward."""
    op()  # first-call allocations (the erf import, numpy caches) stay out of the count
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op()
        return tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()


def test_ops_keep_only_what_their_backward_cannot_rebuild():
    # each closure keeps what its backward needs and cannot rebuild exactly
    # from its parents' data plus per-row statistics; slack covers the
    # Tensor, closure and index objects, far below any saved array
    rng = np.random.default_rng(23)
    rows, width, hidden, slack = 512, 16, 64, 8192
    x = parameter(rng.standard_normal((rows, width)))
    w1, b1 = parameter(rng.standard_normal((width, hidden))), parameter(rng.standard_normal(hidden))
    w2, b2 = parameter(rng.standard_normal((hidden, width))), parameter(rng.standard_normal(width))
    # gelu_ffn: the pre-activations and their erf values, not the activations too
    kept = _bytes_kept_beyond_output(lambda: gelu_ffn(x, w1, b1, w2, b2))
    assert 2 * rows * hidden * 8 <= kept < 2 * rows * hidden * 8 + slack
    # layer_norm: the per-row mean and inverse deviation, not an x-sized xhat
    wide = parameter(rng.standard_normal((rows, hidden)))
    gain, bias = parameter(np.ones(hidden)), parameter(np.zeros(hidden))
    kept = _bytes_kept_beyond_output(lambda: layer_norm(wide, gain, bias))
    assert 2 * rows * 8 <= kept < 2 * rows * 8 + slack
    # masked_mse: its target and index by reference, no difference array
    pred = parameter(rng.standard_normal((4, rows // 4, hidden)))
    target = rng.standard_normal(pred.shape)
    idx = np.stack([rng.permutation(rows // 4)[: rows // 8] for _ in range(4)])
    kept = _bytes_kept_beyond_output(lambda: masked_mse(pred, target, idx))
    assert kept < slack < idx.size * hidden * 8


# ---------------------------------------------------------------------------
# check_gradients
# ---------------------------------------------------------------------------


def test_check_gradients_quadratic():
    x = parameter([1.0, 2.0])

    def loss_fn(params):
        return weighted_sum(params["x"], params["x"])

    report = check_gradients(loss_fn, {"x": x})
    x.grad = None
    backward(loss_fn({"x": x}))
    assert rel_err(x.grad, [2.0, 4.0]) < 1e-12
    assert report.max_relative_error < 1e-8


def test_check_gradients_softmax_cross_entropy_toy():
    rng = np.random.default_rng(6)
    w = parameter(rng.uniform(-1, 1, (3, 4)))
    x = Tensor(rng.uniform(-1, 1, (5, 3)))

    def loss_fn(params):  # each row's softmax against itself: the mean of -p log p
        return entropy(softmax(matmul(x, params["w"]), axis=1), 0.0)

    report = check_gradients(loss_fn, {"w": w})
    assert report.max_relative_error < 1e-5
    assert report.checked_elements == w.size


def test_check_gradients_drops_the_analytic_graph_before_differencing():
    # the central differences run with only their own graph alive
    x = parameter([1.0, 2.0])
    outputs = []

    def loss_fn(params):
        out = weighted_sum(params["x"], params["x"])
        outputs.append(weakref.ref(out.data))
        assert len(outputs) == 1 or outputs[0]() is None
        return out

    assert check_gradients(loss_fn, {"x": x}).passed()


def test_check_gradients_samples_large_parameter_sets():
    big = parameter(np.random.default_rng(7).uniform(-1, 1, (120, 100)))

    def loss_fn(params):
        return weighted_sum(params["big"], params["big"])

    report = check_gradients(loss_fn, {"big": big}, max_checked=500, sample_seed=1)
    assert report.checked_elements == 500
    # the 12k-element sum raises the loss scale, so the noise floor sits higher
    assert report.max_relative_error < 1e-5


def test_check_gradients_honours_max_checked_above_ten_thousand():
    # |gradient| >= 1 everywhere, far above the 15k-element sum's rounding noise
    big = parameter(np.random.default_rng(8).uniform(0.5, 1.5, 15_000))

    def loss_fn(params):
        return weighted_sum(params["big"], params["big"])

    report = check_gradients(loss_fn, {"big": big}, max_checked=12_000, sample_seed=2)
    assert report.checked_elements == 12_000
    assert report.max_relative_error < 1e-5


def test_check_gradients_judges_unresolvable_gradients_by_absolute_error():
    # d/dy = 1e-9 sits below what central differences resolve at a loss of 9:
    # the numeric value is 6% off, but only 7e-11 in absolute terms, which
    # is small next to the 1e-5 step that floors the denominator
    x, y = parameter([3.0]), parameter([0.5])
    report = check_gradients(lambda p: weighted_sum(p["x"], p["x"]) + weighted_sum(p["y"], [1e-9]), {"x": x, "y": y})
    assert report.passed() and report.per_parameter_errors["y"] < 1e-5

    def skewed(params):  # the tape's gradient is 0.1% larger than the value's
        out = weighted_sum(params["x"], params["x"])
        out.data = np.asarray(0.999 * float((params["x"].data ** 2).sum()))
        return out

    assert not check_gradients(skewed, {"x": x}).passed()


def test_check_gradients_rejects_nonfinite_loss():
    x = parameter([1.0])

    def loss_fn(params):
        with np.errstate(invalid="ignore"):
            return entropy(params["x"] + -10.0, 0.0)  # log of a negative number

    with pytest.raises(EvaluationError):
        check_gradients(loss_fn, {"x": x})


# ---------------------------------------------------------------------------
# misc plumbing
# ---------------------------------------------------------------------------


def test_truncated_normal_bounds_and_determinism():
    a = truncated_normal(np.random.default_rng(8), (50, 50), 0.02)
    b = truncated_normal(np.random.default_rng(8), (50, 50), 0.02)
    assert np.array_equal(a, b)
    assert np.abs(a).max() <= 0.04


def test_flop_counter_counts_matmul():
    with FlopCounter() as fc:
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((4, 5))))
    assert fc.total == 2 * 3 * 4 * 5
    with FlopCounter() as fc:
        matmul(Tensor(np.zeros((6, 3, 4))), Tensor(np.zeros((6, 4, 5))))
    assert fc.total == 6 * 2 * 3 * 4 * 5
    with FlopCounter() as fc:  # a 2-D weight applied to a [2, 6] batch
        matmul(Tensor(np.zeros((2, 6, 3, 4))), Tensor(np.zeros((4, 5))))
    assert fc.total == 12 * 2 * 3 * 4 * 5


def test_flop_counter_counts_linear_as_matmul_plus_bias_adds():
    x = Tensor(np.zeros((2, 6, 3, 4)))  # 36 rows
    for w, b, want in [
        (np.zeros((4, 5)), None, 2 * 36 * 4 * 5),
        (np.zeros((4, 5)), np.zeros(5), 2 * 36 * 4 * 5 + 36 * 5),
        (np.zeros((4, 5)), np.zeros(3), 2 * 36 * 4 * 5 + 36 * 3),  # bias on the first 3 columns
    ]:
        with FlopCounter() as fc:
            linear(x, Tensor(w), None if b is None else Tensor(b))
        assert fc.total == want
    with FlopCounter() as fc:  # 3 stacked experts, 12 of the 36 rows each
        gelu_ffn(x, *(Tensor(np.zeros(s)) for s in [(3, 4, 5), (3, 5), (3, 5, 2), (3, 2)]))
    assert fc.total == 3 * (2 * 12 * 4 * 5 + 12 * 5 + 2 * 12 * 5 * 2 + 12 * 2) + 10 * 36 * 5
    with FlopCounter() as fc:
        take(stack([x, x]), 1)
    assert fc.total == 0


def test_linear_matches_matmul_plus_bias_and_rejects_misfits():
    rng = np.random.default_rng(10)
    x, w, b = rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 5)), rng.standard_normal(3)
    out = linear(Tensor(x), Tensor(w), Tensor(b)).data
    want = x @ w
    want[..., :3] += b
    assert np.array_equal(out, want)
    assert np.array_equal(linear(Tensor(x), Tensor(w)).data, x @ w)
    # stacked weights are gelu_ffn's alone: linear rejects a 3-D weight
    for xs, ws, bs in [((2, 3, 4), (5, 6), None), ((2, 3, 4), (2, 4, 5), None), ((2, 3, 4), (2, 4, 5), (2, 5)),
                       ((2, 3, 4), (4, 5), (6,)), ((2, 3, 4), (4, 5), (2, 5)), ((4,), (4,), None)]:
        with pytest.raises(DimensionError):
            linear(Tensor(np.zeros(xs)), Tensor(np.zeros(ws)), None if bs is None else Tensor(np.zeros(bs)))
    with pytest.raises(DimensionError):
        stack([Tensor(np.zeros(2)), Tensor(np.zeros(3))])


# ---------------------------------------------------------------------------
# fused ops against the chains of single ops they replace
# ---------------------------------------------------------------------------


def reference_gelu(a: Tensor) -> Tensor:
    """The single GELU op ``gelu_ffn`` absorbed: 0.5 x (1 + erf(x / sqrt 2))."""
    x = a.data
    e = erf(x * numerics._INV_SQRT2)
    out = Tensor(0.5 * x * (1.0 + e))
    numerics._count(gelu_flops(out.size))

    def back(g):
        numerics._accumulate(a, g * (0.5 * (1.0 + e) + x * np.exp(-0.5 * x * x) * numerics._INV_SQRT2PI))

    return numerics._attach(out, (a,), back)


def chain_attention_core(z, wqvk, bqv, heads):
    """Projection, head split, scores, softmax, weights @ v and head merge
    as 13 single ops."""
    *lead, tokens, dim = z.shape
    head_dim, n = dim // heads, len(lead)
    qvk = reshape(linear(z, wqvk, bqv), (*lead, tokens, 3, heads, head_dim))
    q, v, k = (take(transpose(qvk, (n + 1, *range(n), n + 2, n, n + 3)), i) for i in range(3))
    weights = softmax(mul(matmul(q, transpose(k)), 1.0 / np.sqrt(head_dim)), axis=-1)
    return reshape(transpose(matmul(weights, v), (*range(n), n + 1, n, n + 2)), (*lead, tokens, dim))


def chain_gelu_ffn(x, w1, b1, w2, b2):
    """With 2-D weights, two linears around the GELU. With E stacked experts,
    row s = p E + e of x [..., S, k] goes to expert e: a reshape and a
    transpose to [E, ..., S/E, k], then per expert ``take``, 2-D ``linear``
    and GELU, then ``stack`` and the layout back."""
    if w1.ndim == 2:
        return linear(reference_gelu(linear(x, w1, b1)), w2, b2)
    *outer, slots, _ = x.shape
    experts, n = w1.shape[0], len(outer)
    by_expert = transpose(reshape(x, (*outer, slots // experts, experts, x.shape[-1])), (n + 1, *range(n + 1), n + 2))
    out = stack([linear(reference_gelu(linear(take(by_expert, e), take(w1, e), take(b1, e))), take(w2, e), take(b2, e))
                 for e in range(experts)])
    return reshape(transpose(out, (*range(1, n + 2), 0, n + 2)), (*outer, slots, w2.shape[-1]))


def run_op(fn, inputs, seed):
    """Output, FLOP count and input gradients of a random weighted sum of fn()."""
    for t in inputs:
        t.grad = None
    with FlopCounter() as fc:
        out = fn()
    backward(weighted_sum(out, np.random.default_rng(seed).standard_normal(out.shape)))
    return out, fc.total, [t.grad for t in inputs]


def assert_same_op(fused, chain, inputs, seed=0):
    out, flops, grads = run_op(fused, inputs, seed)
    want, want_flops, want_grads = run_op(chain, inputs, seed)
    assert out._parents == tuple(inputs)  # one tape node, straight from the inputs
    assert np.array_equal(out.data, want.data)
    assert flops == want_flops
    for got, ref in zip(grads, want_grads):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["unbatched", "B", "E-B"])
def test_attention_core_equals_the_chain_it_fuses(lead, heads):
    rng = np.random.default_rng(heads)
    z = parameter(rng.standard_normal((*lead, 5, 8)))
    wqvk = parameter(rng.standard_normal((8, 24)) / 2)
    bqv = parameter(rng.standard_normal(16))  # q and v only: narrower than the 24 outputs
    assert_same_op(lambda: attention_core(z, wqvk, bqv, heads),
                   lambda: chain_attention_core(z, wqvk, bqv, heads), [z, wqvk, bqv])


@pytest.mark.parametrize("batch, leads", [((), [()]), ((3,), [()]), ((), [(1,), (2,), (4,)]),
                                          ((3,), [(1,), (2,), (4,)])],
                         ids=["unbatched", "B", "E", "E-B"])
def test_gelu_ffn_equals_the_chain_it_fuses(batch, leads):
    # x [..., 8, 4]: plain weights (lead ()), or E stacked experts (lead (E,)) each taking rows s % E
    rng = np.random.default_rng(len(batch))
    for lead in leads:
        x = parameter(rng.standard_normal((*batch, 8, 4)))
        w1, b1 = parameter(rng.standard_normal((*lead, 4, 6))), parameter(rng.standard_normal((*lead, 6)))
        w2, b2 = parameter(rng.standard_normal((*lead, 6, 3))), parameter(rng.standard_normal((*lead, 3)))
        assert_same_op(lambda: gelu_ffn(x, w1, b1, w2, b2), lambda: chain_gelu_ffn(x, w1, b1, w2, b2),
                       [x, w1, b1, w2, b2])


def test_fused_ops_pass_check_gradients():
    rng = np.random.default_rng(13)
    att = {"z": parameter(rng.uniform(-1, 1, (2, 3, 4))), "wqvk": parameter(rng.uniform(-1, 1, (4, 12))),
           "bqv": parameter(rng.uniform(-1, 1, 8))}
    ffn = {"x": parameter(rng.uniform(-1, 1, (2, 3, 4))), "w1": parameter(rng.uniform(-1, 1, (2, 4, 5))),
           "b1": parameter(rng.uniform(-1, 1, (2, 5))), "w2": parameter(rng.uniform(-1, 1, (2, 5, 4))),
           "b2": parameter(rng.uniform(-1, 1, (2, 4)))}
    w = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
    pair = {"a": parameter(rng.uniform(-1, 1, (4, 3))), "b": parameter(rng.uniform(-1, 1, (4, 3)))}
    rows = {"x": parameter(rng.uniform(-1, 1, (2, 3, 4)))}
    target = rng.uniform(-1, 1, (2, 3, 4))
    # the 2 stacked experts take x as [3, 2, 4]: rows s % 2 of every batch element
    for params, fn in [(att, lambda p: weighted_sum(attention_core(p["z"], p["wqvk"], p["bqv"], 2), w)),
                       (ffn, lambda p: weighted_sum(gelu_ffn(transpose(p["x"], (1, 0, 2)), p["w1"], p["b1"],
                                                             p["w2"], p["b2"]), transpose(w, (1, 0, 2)))),
                       (pair, lambda p: contrastive_ce(p["a"], p["b"], 0.3)),
                       (pair, lambda p: contrastive_ce(p["a"], p["b"], 0.3, include_positive=True)),
                       (rows, lambda p: masked_mse(p["x"], target, [[2, 0], [1, 2]])),
                       (rows, lambda p: slot_repulsion(p["x"]))]:
        report = check_gradients(fn, params)
        assert report.checked_elements == sum(t.size for t in params.values())
        assert report.passed(1e-6), report.per_parameter_errors


def test_fused_ops_reject_misfits():
    for *shapes, heads in [((3, 4), (4, 12), (8,), 3), ((3, 4), (4, 8), (8,), 2),
                           ((3, 4), (4, 12), (12,), 2), ((4,), (4, 12), (8,), 2)]:
        with pytest.raises(DimensionError):
            attention_core(*(Tensor(np.zeros(s)) for s in shapes), heads)
    for shapes in [((3, 4), (5, 6), (6,), (6, 4), (4,)), ((3, 4), (4, 6), (5,), (6, 4), (4,)),
                   ((3, 4), (4, 6), (6,), (5, 4), (4,)), ((3, 4), (4, 6), (6,), (6, 4), (3,)),
                   ((3, 3, 4), (2, 4, 6), (2, 6), (2, 6, 4), (2, 4)),  # 3 rows for 2 experts
                   ((2, 6, 4), (4, 4, 6), (4, 6), (4, 6, 4), (4, 4)), ((4,), (2, 4, 6), (2, 6), (2, 6, 4), (2, 4))]:
        with pytest.raises(DimensionError):
            gelu_ffn(*(Tensor(np.zeros(s)) for s in shapes))


def test_training_step_tape_stays_within_budget():
    # pretrain_small's geometry at batch 8: the ops recorded on the tape that
    # the loss reaches, i.e. the backward closures one step runs
    cfg = mini_config(patch_size=8, image_side=32, channels_y=10, enc_dim=64, dec_dim=32,
                      enc_layers_modality=2, dec_layers=2, num_slots=4, heads=4, dec_heads=4,
                      proj_dim=32)
    model = init_model(cfg)
    rng = np.random.default_rng(11)
    art = forward(model, rng.standard_normal((8, 2, 32, 32)), rng.standard_normal((8, 10, 32, 32)),
                  seed=list(range(8)))
    loss = loss_total(model, art).total_tensor
    seen, todo, ops = set(), [loss], 0
    while todo:
        t = todo.pop()
        if id(t) not in seen:
            seen.add(id(t))
            ops += t._backward is not None
            todo.extend(t._parents)
    # each attention is one attention_core and one linear, each feed-forward one
    # gelu_ffn, each Soft MoE layer 8 ops, and each loss term one op
    assert ops == 161, ops


def test_op_census_counts_only_tape_ops(tmp_path, monkeypatch):
    # the benchmark's op census wraps every public function numerics defines,
    # less cost formulas, the sweep and parameter set-up, under each name a
    # csmoe module binds it to: a run that also writes its checkpoint and .opt
    # calls the 161 tape ops of each step, and nothing else
    cfg = mini_config(patch_size=8, image_side=32, channels_y=10, enc_dim=64, dec_dim=32,
                      enc_layers_modality=2, dec_layers=2, num_slots=4, heads=4, dec_heads=4,
                      proj_dim=32)
    model = init_model(cfg)
    calls = []

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(numerics).items()):
        if (name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != numerics.__name__
                or name.endswith("_flops") or name in {"backward", "zero_grads", "check_gradients", "parameter"}):
            continue
        wrapper = counted(name, fn)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("csmoe."):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapper)
    rng = np.random.default_rng(11)
    pairs = [(f"p{i}", rng.standard_normal((2, 32, 32)), rng.standard_normal((10, 32, 32))) for i in range(8)]
    steps = 2
    run_pretraining(model, pairs, TrainerConfig(epochs=steps, batch_size=8, val_fraction=0.0), 1,
                    tmp_path / "m.ckpt", tmp_path / "log.jsonl")
    assert (tmp_path / "m.ckpt").exists() and (tmp_path / "m.ckpt.opt").exists()
    assert len(calls) == 161 * steps, sorted(set(calls))


def test_tnsr_roundtrip(tmp_path):
    arr = np.random.default_rng(9).standard_normal((3, 5, 2))
    path = tmp_path / "a.tnsr"
    save_tnsr(path, arr)
    again = load_tnsr(path)
    assert again.shape == arr.shape
    assert np.array_equal(again, arr)


@pytest.mark.parametrize("arr", [np.array(-2.5), np.zeros((0,)), np.zeros((3, 0, 2)),
                                 np.arange(12.0).reshape(3, 4).T, np.arange(4, dtype=np.int32)],
                         ids=["0-d", "empty", "zero-size", "transposed", "int32"])
def test_tnsr_block_bytes_and_roundtrip(arr):
    # header, then the row-major little-endian float64 payload
    buf = io.BytesIO()
    write_tnsr(buf, arr)
    dims = b"".join(int(d).to_bytes(4, "little") for d in arr.shape)
    assert buf.getvalue() == b"TNSR" + bytes([1, arr.ndim]) + dims + arr.astype("<f8").tobytes()
    buf.write(b"next")
    buf.seek(0)
    again = read_tnsr(buf)
    assert again.shape == arr.shape and again.dtype == np.float64 and np.array_equal(again, arr)
    assert again.flags.writeable and again.flags.c_contiguous
    assert buf.read() == b"next"  # the reader takes exactly its block


def test_tnsr_truncation_and_bad_magic(tmp_path):
    arr = np.ones((4, 4))
    path = tmp_path / "b.tnsr"
    save_tnsr(path, arr)
    raw = path.read_bytes()
    (tmp_path / "cut.tnsr").write_bytes(raw[: len(raw) - 9])
    with pytest.raises(FormatError):
        load_tnsr(tmp_path / "cut.tnsr")
    (tmp_path / "bad.tnsr").write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(FormatError):
        load_tnsr(tmp_path / "bad.tnsr")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fmt=st.sampled_from(["tnsr", "grid"]), payload=st.integers(0, 64), cut=st.integers(0, 200),
       dims=st.lists(st.sampled_from([0, 2, 2**32 - 1]) | st.integers(0, 2**32 - 1), max_size=3),
       edits=st.lists(st.tuples(st.integers(0, 199), st.integers(0, 255)), max_size=3))
def test_readers_let_only_format_error_escape(tmp_path_factory, fmt, dims, payload, cut, edits):
    # a header may claim any size; the readers must neither trust nor allocate it
    if fmt == "tnsr":
        blob = b"TNSR" + bytes([1, len(dims)]) + b"".join(d.to_bytes(4, "little") for d in dims)
    else:
        rows, cols = (*dims, 1, 1)[:2]
        blob = json.dumps({"lat_max": 1.0, "lon_min": 0.0, "dlat": 0.5, "dlon": 0.5, "rows": rows,
                           "cols": cols, "nodata": 0}).encode() + b"\n"
    blob = bytearray(blob + bytes(range(payload)))
    del blob[max(cut, 1):]
    for at, value in edits:
        blob[at % len(blob)] = value
    path = tmp_path_factory.getbasetemp() / f"fuzz.{fmt}"
    path.write_bytes(bytes(blob))
    try:
        (load_tnsr if fmt == "tnsr" else load_grid)(path)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")


def test_tnsr_stream_concatenation():
    buf = io.BytesIO()
    a, b = np.arange(6.0).reshape(2, 3), np.ones(4)
    write_tnsr(buf, a)
    write_tnsr(buf, b)
    buf.seek(0)
    assert np.array_equal(read_tnsr(buf), a)
    assert np.array_equal(read_tnsr(buf), b)


def test_block_file_roundtrip_and_labelled_errors(tmp_path):
    path = tmp_path / "f.blk"
    arrays = [np.arange(6.0).reshape(2, 3), np.ones(4)]
    write_blocks(path, {"format": "F", "version": 1, "n": 2}, arrays)
    raw = path.read_bytes()
    assert raw.startswith(b'{"format": "F", "n": 2, "version": 1}\n')  # sorted keys
    labelled = lambda header: [("a", (2, 3)), ("b", (4,))]
    header, got = read_blocks(path, "F", (1,), labelled)
    assert header["n"] == 2 and all(np.array_equal(x, y) for x, y in zip(got, arrays))
    assert read_blocks(path, "F", (1, 2), labelled)[0] == header  # any listed version reads
    cases = [
        (raw, "G", (1,), labelled, "not a G file"),
        (raw, "F", (2, 3), labelled, "unsupported F version 1"),
        (raw.replace(b'"version": 1', b'"version": true'), "F", (1,), labelled, "unsupported F version True"),
        (raw, "F", (1,), lambda h: [("a", (3, 2)), ("b", (4,))], "block a has shape"),
        (raw[:-8], "F", (1,), labelled, "block b: truncated"),
        (raw + b"\0", "F", (1,), labelled, "trailing bytes after b"),
        (raw.split(b"\n")[0], "F", (1,), labelled, "missing F header line"),
        (b"[1]\n", "F", (1,), labelled, "F header is not a JSON object"),
    ]
    for data, fmt, versions, expect, message in cases:
        path.write_bytes(data)
        with pytest.raises(FormatError, match=f"^{path}: {message}"):
            read_blocks(path, fmt, versions, expect)


def test_softmax_extreme_logits_stay_normalized():
    x = Tensor([[1e4, -1e4, 0.0], [-1e4, -1e4, -1e4]])
    y = softmax(x, axis=1)
    assert np.isfinite(y.data).all()
    assert np.abs(y.data.sum(axis=1) - 1.0).max() <= 1e-12


def test_import_cli_leaves_scipy_special_unloaded():
    # scipy.special is most of the package's import time and only gelu_ffn uses it;
    # process machinery is only for a sampling run with strata to evolve in workers
    code = ("import sys, csmoe.cli; "
            "print([m for m in ('scipy.special', 'multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_fileio_and_sampler_leaves_numerics_unloaded():
    # the file formats, the sampler and the tokenizer need no autodiff core
    code = "import sys, csmoe.fileio, csmoe.sampler, csmoe.tokenizer; print('csmoe.numerics' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_atomic_write_names_its_destination_when_it_cannot_open(tmp_path):
    path = tmp_path / "missing" / "out.bin"
    with pytest.raises(FileNotFoundError) as caught:
        with atomic_write(path):
            pass
    assert caught.value.filename == str(path) and ".tmp" not in str(caught.value)
