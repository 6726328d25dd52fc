"""Dense float64 tensors with reverse-mode automatic differentiation.

Everything is 64-bit and row-major. The operation graph built during a
forward pass doubles as the differentiation tape: each op links its output
to its parents together with a backward closure, and ``backward`` calls the
closures in reverse topological order, visiting every node exactly once and
passing each closure its output's gradient. A closure holds its parents and
the arrays it saved, never its own output, so a graph has no reference
cycles and is freed by reference counting as soon as it is dropped. It saves
only what its backward cannot rebuild exactly, by the forward's own
expressions, from its parents' data plus per-row statistics. The
sweep also drops each closure, and the arrays it saved, as soon as it has
run: after ``backward`` a graph holds only its nodes' outputs and parent
links, and a swept graph cannot be swept again.

Gradients are values that nobody writes once they are handed on: a closure
treats its incoming gradient and every array it saved as read-only, and
hands its parents views of them or fresh arrays. A second gradient makes a
new sum, so one array may be the gradient of several nodes.

Every op reports a deterministic operation count to every active
``FlopCounter`` (2 ops per multiply-accumulate, 5 per softmax/norm element,
10 per GELU element, 1 per plain elementwise op, 0 for data movement).

Leading batch axes, numpy style: every op accepts any number of leading axes
in front of the shapes it documents, so one code path serves one sample and
a batch. ``matmul`` and ``linear`` apply a 2-D matrix to every batch
element, the row ops (``take_rows``, ``scatter_rows``, ``concat_rows``) work
along axis -2, ``stack`` and ``take`` along a leading axis, and a batched op
counts exactly batch size x the unbatched cost.

The fused ops ``attention_core`` and ``gelu_ffn`` record one tape node each
for a chain every transformer block runs; they count, and differentiate, bit
for bit as that chain of single ops would. Each training loss term is one op
too (``masked_mse``, ``contrastive_ce``, ``slot_repulsion``, ``entropy``),
with a hand-written backward.

Every weight product (``linear``, both layers of ``gelu_ffn`` and the q/v/k
projection of ``attention_core``) runs through one private affine kernel,
``_affine`` with its backward ``_affine_back``. ``linear`` takes 2-D weights
only; ``gelu_ffn`` alone takes stacked expert weights, sending row s of
x [..., S, k] to expert s % E.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, EvaluationError, FormatError, ParameterError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


# ---------------------------------------------------------------------------
# FLOP accounting
# ---------------------------------------------------------------------------

_flop_counters = []  # the active FlopCounters, outermost first


class FlopCounter:
    """Accumulates the cost of every tensor op executed inside the context."""

    def __init__(self):
        self.total = 0

    def __enter__(self):
        _flop_counters.append(self)
        return self

    def __exit__(self, *exc):
        _flop_counters.pop()
        return False


def _count(n: int):
    for counter in _flop_counters:
        counter.total += n


# Cost formulas, shared with the analytic profiler so both sides can never
# disagree on conventions.
def matmul_flops(m: int, k: int, n: int) -> int:
    return 2 * m * k * n


def elementwise_flops(n: int) -> int:
    return n


def softmax_flops(n: int) -> int:
    return 5 * n


def layer_norm_flops(n: int) -> int:
    return 5 * n


def gelu_flops(n: int) -> int:
    return 10 * n


# ---------------------------------------------------------------------------
# Tensor
# ---------------------------------------------------------------------------


class Tensor:
    """A float64 array plus an optional gradient and tape linkage."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    # -- introspection ------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)


def parameter(data) -> Tensor:
    """A leaf tensor that accumulates gradients."""
    return Tensor(data, requires_grad=True)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _accumulate(t: Tensor, g: np.ndarray):
    t.grad = g if t.grad is None else t.grad + g


def _attach(out: Tensor, parents, backward_fn):
    """Record the op on the tape iff some parent wants gradients."""
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def backward(loss: Tensor):
    """Reverse-mode sweep from a scalar; gradients land on leaf tensors.

    A leaf's gradient adds onto the one it holds as a new array, never in
    place, so a held gradient keeps its value. An interior node's closure,
    with the arrays it saved, and its gradient are dropped once the closure
    has passed the gradient on, so the sweep frees the graph's activations
    as it goes; ``_parents`` stay. A graph that holds a swept node raises
    EvaluationError before any gradient moves: that node's closure is gone,
    so it cannot pass a gradient on.
    """
    if loss.data.size != 1:
        raise DimensionError(f"backward() needs a scalar loss, got shape {loss.shape}")
    # iterative topological sort over recorded parents
    order = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._parents and node._backward is None:
            raise EvaluationError("graph already swept; run the forward again")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None:
            node._backward(node.grad)
            node._backward = node.grad = None


def zero_grads(params: dict):
    """Drop the gradients of a name -> tensor map."""
    for p in params.values():
        p.grad = None


# ---------------------------------------------------------------------------
# Arithmetic ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data)
    _count(elementwise_flops(out.size))

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _attach(out, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data * b.data)
    _count(elementwise_flops(out.size))

    def back(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _attach(out, (a, b), back)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """[..., m, k] @ [..., k, n]: both operands share their leading batch
    axes, or one is a 2-D matrix applied to every batch element of the other
    (``linear`` applies a 2-D weight as one GEMM). Counts batch size x
    ``matmul_flops(m, k, n)``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or (a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2])):
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    _count(math.prod(out.shape[:-2]) * matmul_flops(a.shape[-2], a.shape[-1], b.shape[-1]))

    def back(g):  # captures only a and b: every captured name is a cell the collector tracks
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            _accumulate(a, ga.reshape(-1, *a.shape).sum(axis=0) if a.ndim == 2 else ga)
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            _accumulate(b, gb.reshape(-1, *b.shape).sum(axis=0) if b.ndim == 2 else gb)

    return _attach(out, (a, b), back)


def linear(x: Tensor, w: Tensor, b: Tensor = None) -> Tensor:
    """x W + b as one op: the 2-D weight [k, n] applies to every row of x
    [..., k]. The bias may be narrower than the output (n' <= n): it is
    added to the first n' columns only. Counts the matmul plus one op per
    bias element added."""
    x, w = _as_tensor(x), _as_tensor(w)
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    k, n = w.shape
    if b is not None:
        b = _as_tensor(b)
        if b.ndim != 1 or b.shape[0] > n:
            raise DimensionError(f"linear: bias {b.shape} does not fit weight {w.shape}")
    out = Tensor(_affine(x.data.reshape(-1, k), w, b).reshape(*x.shape[:-1], n))

    def back(g):
        gx = _affine_back(g.reshape(-1, n), x.data.reshape(-1, k), w, b, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx.reshape(x.shape))

    return _attach(out, (x, w) if b is None else (x, w, b), back)


def _affine(xs: np.ndarray, w: Tensor, b) -> np.ndarray:
    """``xs W + b``, the product under every weighted op: xs [rows, k] with W
    [k, n] and b [n'], or stacked experts, xs [E, rows, k] with W [E, k, n]
    and b [E, n']. The bias (None for none) may be narrower than the output
    (n' <= n) and is added to the first n' columns only. Counts the product
    plus one op per bias element added."""
    y = xs @ w.data
    width = 0
    if b is not None:
        width = b.shape[-1]
        y[..., :width] += b.data[..., None, :]
    _count(math.prod(w.shape[:-2]) * (matmul_flops(xs.shape[-2], *w.shape[-2:])
                                      + elementwise_flops(xs.shape[-2] * width)))
    return y


def _affine_back(g: np.ndarray, xs: np.ndarray, w: Tensor, b, want_x: bool):
    """The backward of ``_affine`` for the output gradient ``g``: adds the
    weight and bias gradients into W and b, and returns the gradient of xs
    when ``want_x`` (None otherwise)."""
    if w.requires_grad:
        _accumulate(w, np.swapaxes(xs, -1, -2) @ g)
    if b is not None and b.requires_grad:
        _accumulate(b, g[..., :b.shape[-1]].sum(axis=-2))
    return g @ np.swapaxes(w.data, -1, -2) if want_x else None


def transpose(a: Tensor, axes=None) -> Tensor:
    """Permute axes; the default swaps the last two."""
    if axes is None:
        axes = (*range(a.ndim - 2), a.ndim - 1, a.ndim - 2)
    out = Tensor(a.data.transpose(axes))
    inverse = np.argsort(axes)

    def back(g):
        _accumulate(a, g.transpose(inverse))

    return _attach(out, (a,), back)


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape))

    def back(g):
        _accumulate(a, g.reshape(a.shape))

    return _attach(out, (a,), back)


def softmax(x: Tensor, axis: int, temperature: float = 1.0) -> Tensor:
    """exp((x - max)/t) normalized along ``axis``; rows sum to 1."""
    if temperature <= 0:
        raise ParameterError(f"softmax temperature must be > 0, got {temperature}")
    y = _shifted_exp(x.data / temperature, axis)[1]
    out = Tensor(y)
    _count(softmax_flops(out.size))

    def back(g):
        _accumulate(x, _softmax_grad(g, y, axis, temperature))

    return _attach(out, (x,), back)


def _shifted_exp(scaled: np.ndarray, axis: int):
    """(log-sum-exp, softmax) of ``scaled`` along ``axis``, both shifted by
    the maximum there; entries of -inf drop out of both."""
    top = scaled.max(axis=axis, keepdims=True)
    e = np.exp(scaled - top)
    total = e.sum(axis=axis, keepdims=True)
    return top + np.log(total), e / total


def _softmax_grad(g: np.ndarray, y: np.ndarray, axis: int, temperature: float) -> np.ndarray:
    dot = (g * y).sum(axis=axis, keepdims=True)
    return y * (g - dot) / temperature


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize along the last axis to zero mean and unit variance, then affine."""
    if eps <= 0:
        raise ParameterError(f"layer_norm eps must be > 0, got {eps}")
    gain, bias = _as_tensor(gain), _as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match last dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    _count(layer_norm_flops(out.size))

    def back(g):
        xhat = (x.data - mu) * inv
        if gain.requires_grad:
            _accumulate(gain, (g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accumulate(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            u = g * gain.data
            du = u.mean(axis=-1, keepdims=True)
            duh = (u * xhat).mean(axis=-1, keepdims=True)
            _accumulate(x, (u - du - xhat * duh) * inv)

    return _attach(out, (x, gain, bias), back)


# ---------------------------------------------------------------------------
# Fused ops
# ---------------------------------------------------------------------------


def attention_core(x: Tensor, wqvk: Tensor, bqv: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention up to its output projection, as one op:
    ``[q | v | k] = x W + b`` (b covers q and v), head h owning columns
    ``[h d/H, (h + 1) d/H)`` of each, then ``softmax(q k^T / sqrt(d/H)) v``
    per head, heads side by side again as [..., T, d]. The backward repeats
    the arithmetic of the ``linear``, ``matmul``, ``mul`` and ``softmax``
    chain on arrays of the same layout, so gradients match it bit for bit."""
    x, wqvk, bqv = _as_tensor(x), _as_tensor(wqvk), _as_tensor(bqv)
    dim = x.shape[-1]
    if x.ndim < 2 or wqvk.shape != (dim, 3 * dim) or bqv.shape != (2 * dim,):
        raise DimensionError(f"attention_core: x {x.shape}, wqvk {wqvk.shape} and bqv {bqv.shape} do not fit")
    if heads < 1 or dim % heads:
        raise DimensionError(f"width {dim} not divisible by {heads} heads")
    *lead, tokens, _ = x.shape
    n, head_dim = len(lead), dim // heads
    xs = x.data.reshape(-1, dim)
    qvk = _affine(xs, wqvk, bqv)
    split = (n + 1, *range(n), n + 2, n, n + 3)  # [..., T, 3, H, d/H] -> [3, ..., H, T, d/H]
    merge = (*range(n), n + 1, n, n + 2)  # [..., H, T, d/H] <-> [..., T, H, d/H]
    q, v, k = qvk.reshape(*lead, tokens, 3, heads, head_dim).transpose(split)
    scale = 1.0 / np.sqrt(head_dim)
    weights = _shifted_exp((q @ np.swapaxes(k, -1, -2)) * scale, -1)[1]
    out = Tensor((weights @ v).transpose(merge).reshape(x.shape))
    _count(math.prod(lead) * heads * (matmul_flops(tokens, head_dim, tokens) + elementwise_flops(tokens * tokens)
                                      + softmax_flops(tokens * tokens) + matmul_flops(tokens, tokens, head_dim)))

    def back(g):
        g = g.reshape(*lead, tokens, heads, head_dim).transpose(merge)
        scores = _softmax_grad(g @ np.swapaxes(v, -1, -2), weights, -1, 1.0) * scale
        gqvk = np.stack([scores @ k, np.swapaxes(weights, -1, -2) @ g,
                         np.swapaxes(np.swapaxes(q, -1, -2) @ scores, -1, -2)])
        gx = _affine_back(gqvk.transpose(np.argsort(split)).reshape(-1, 3 * dim), xs, wqvk, bqv, x.requires_grad)
        if gx is not None:
            _accumulate(x, gx.reshape(x.shape))

    return _attach(out, (x, wqvk, bqv), back)


def gelu_ffn(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``GELU(x W1 + b1) W2 + b2`` as one op, with the exact erf GELU
    ``0.5 u (1 + erf(u / sqrt 2))``. 2-D weights apply to every row of x
    [..., k]. Stacked experts, [E, k, h] / [E, h, k'] weights with [E, h] /
    [E, k'] biases, take x [..., S, k] with S a multiple of E and send row s
    to expert s % E: every batch element's rows for one expert go through
    one GEMM per layer."""
    from scipy.special import erf  # imported on first use: it is most of the package's import time

    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    lead = w1.shape[:-2]
    if not (w1.ndim in (2, 3) and x.ndim > len(lead) and x.shape[-1] == w1.shape[-2]
            and b1.shape == (*lead, w1.shape[-1]) and w2.shape[:-1] == b1.shape
            and b2.shape == (*lead, w2.shape[-1]) and (not lead or x.shape[-2] % lead[0] == 0)):
        raise DimensionError(f"gelu_ffn: x {x.shape} does not fit weights {w1.shape}, {w2.shape} "
                             f"and biases {b1.shape}, {b2.shape}")
    xs = _expert_rows(x.data, lead)
    pre = _affine(xs, w1, b1)
    e = erf(pre * _INV_SQRT2)
    act = 0.5 * pre * (1.0 + e)
    out = Tensor(_from_expert_rows(_affine(act, w2, b2), x.shape[:-1]))
    _count(gelu_flops(pre.size))

    def back(g):
        act = 0.5 * pre * (1.0 + e)
        gact = _affine_back(_expert_rows(g, lead), act, w2, b2, True)
        gpre = gact * (0.5 * (1.0 + e) + pre * np.exp(-0.5 * pre * pre) * _INV_SQRT2PI)
        gx = _affine_back(gpre, xs, w1, b1, x.requires_grad)
        if gx is not None:
            _accumulate(x, _from_expert_rows(gx, x.shape[:-1]))

    return _attach(out, (x, w1, b1, w2, b2), back)


def _expert_rows(a: np.ndarray, lead) -> np.ndarray:
    """[..., S, c] as the rows the weights meet: [rows, c] for plain weights
    (lead ()), or one contiguous [E, rows, c] copy for E stacked experts
    (lead (E,)), row s of every batch element under expert s % E."""
    if not lead:
        return a.reshape(-1, a.shape[-1])
    return np.moveaxis(a.reshape(*a.shape[:-2], -1, *lead, a.shape[-1]), -2, 0).reshape(*lead, -1, a.shape[-1])


def _from_expert_rows(a: np.ndarray, rows_shape) -> np.ndarray:
    """The inverse of ``_expert_rows``: [(E,) rows, c] -> [*rows_shape, c]."""
    if a.ndim == 3:
        a = np.moveaxis(a.reshape(a.shape[0], *rows_shape[:-1], -1, a.shape[-1]), 0, -2)
    return a.reshape(*rows_shape, a.shape[-1])


# ---------------------------------------------------------------------------
# Loss terms: one op each
# ---------------------------------------------------------------------------


def masked_mse(pred: Tensor, target, idx) -> Tensor:
    """Mean squared error between rows ``idx`` of ``pred`` and of the
    constant ``target``, over every selected element. ``idx`` indexes axis
    -2 as in ``take_rows``: one [M] vector, or per-element [..., M]."""
    pred, target = _as_tensor(pred), _as_tensor(target).data
    at = _row_index(idx, pred.shape[:-2])
    diff = pred.data[at] - target[at]
    out = Tensor((diff * diff).mean())
    _count(3 * diff.size + 1)

    def back(g):  # rebuilds the index and the difference rather than keep them alive with the graph
        at = _row_index(idx, pred.shape[:-2])
        diff = pred.data[at] - target[at]
        _accumulate(pred, _rows_grad(pred.shape, idx, diff * (2.0 * g / diff.size)))

    return _attach(out, (pred,), back)


def contrastive_ce(a: Tensor, b: Tensor, temperature: float, include_positive: bool = False) -> Tensor:
    """Symmetric temperature-scaled cross-entropy between paired rows of a
    and b [B, d], as one op. With ``s = a_n b_n^T / t`` over the unit rows,
    it is the mean over the B rows and the B columns of ``-log(exp(s_ii) /
    sum_q exp(s_iq))``; the sum skips ``q = i`` unless ``include_positive``.
    The skipped entries are -inf before ``exp``, and each log-sum-exp is
    shifted by the largest entry it sums, so no temperature > 0 overflows.
    Zero rows produce NaN; callers that must reject them check beforehand."""
    a, b = _as_tensor(a), _as_tensor(b)
    batch, dim = a.shape
    an, a_norm = _unit_rows(a.data)
    bn, b_norm = _unit_rows(b.data)
    s = (an @ bn.T) / temperature
    summed = s.copy()
    if not include_positive:
        np.fill_diagonal(summed, -np.inf)
    lse_row, p_row = _shifted_exp(summed, 1)
    lse_col, p_col = _shifted_exp(summed, 0)
    out = Tensor((lse_row.sum() + lse_col.sum() - 2.0 * np.trace(s)) / (2.0 * batch))
    _count(2 * layer_norm_flops(a.size) + matmul_flops(batch, dim, batch) + 2 * softmax_flops(s.size))

    def back(g):
        gs = (p_row + p_col - 2.0 * np.eye(batch)) * (g / (2.0 * batch * temperature))
        if a.requires_grad:
            _accumulate(a, _unit_rows_grad(gs @ bn, an, a_norm))
        if b.requires_grad:
            _accumulate(b, _unit_rows_grad(gs.T @ an, bn, b_norm))

    return _attach(out, (a, b), back)


def slot_repulsion(x: Tensor) -> Tensor:
    """``-(1/n)`` times the sum of squares of the n entries of the Gram
    matrices ``x_n x_n^T`` of the unit rows of x [..., S, d], as one op.
    Zero rows produce NaN; callers that must reject them check beforehand."""
    x = _as_tensor(x)
    xn, norm = _unit_rows(x.data)
    gram = xn @ np.swapaxes(xn, -1, -2)
    scale = -1.0 / gram.size
    out = Tensor((gram * gram).sum() * scale)
    *lead, slots, dim = x.shape
    _count(layer_norm_flops(x.size) + math.prod(lead) * matmul_flops(slots, dim, slots) + 2 * gram.size)

    def back(g):
        _accumulate(x, _unit_rows_grad((4.0 * scale * g) * (gram @ xn), xn, norm))

    return _attach(out, (x,), back)


def entropy(a: Tensor, shift: float) -> Tensor:
    """``-(1/n)`` times the sum of ``x log(x + shift)`` over the n elements
    of ``a``, a term taken as 0 where x == 0: that keeps the sum defined in
    the shift -> 0 limit."""
    x = a.data
    nz = x != 0.0
    vals = np.zeros_like(x)
    vals[nz] = x[nz] * np.log(x[nz] + shift)
    out = Tensor(vals.sum() * (-1.0 / x.size))
    _count(3 * x.size + 1)

    def back(g):
        d = np.zeros_like(x)
        d[nz] = np.log(x[nz] + shift) + x[nz] / (x[nz] + shift)
        _accumulate(a, (g * (-1.0 / x.size)) * d)

    return _attach(out, (a,), back)


def _unit_rows(x: np.ndarray):
    """(rows of x scaled to unit length, their norms [..., 1])."""
    norm = np.sqrt((x * x).sum(axis=-1, keepdims=True))
    return x / norm, norm


def _unit_rows_grad(g: np.ndarray, xn: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """The gradient of x from ``g``, that of its unit rows ``xn``."""
    return (g - xn * (g * xn).sum(axis=-1, keepdims=True)) / norm


# ---------------------------------------------------------------------------
# Structural ops (data movement, zero cost)
# ---------------------------------------------------------------------------


def _row_index(idx, lead) -> tuple:
    """Index tuple for rows ``idx`` along axis -2 of a [*lead, n, d] array:
    one [r] vector shared by every batch element, or per-element [*lead, r]
    indices."""
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim == 0 or idx.shape[:-1] not in ((), tuple(lead)):
        raise DimensionError(f"row indices of shape {idx.shape} do not fit leading axes {tuple(lead)}")
    if idx.ndim == 1:
        return (Ellipsis, idx, slice(None))
    return (*(grid[..., None] for grid in np.indices(lead, sparse=True)), idx, slice(None))


def take_rows(a: Tensor, idx) -> Tensor:
    """Rows ``idx`` along axis -2 (one [r] vector, or per-element [..., r])."""
    idx = np.asarray(idx, dtype=np.int64)
    out = Tensor(a.data[_row_index(idx, a.shape[:-2])])

    def back(g):  # rebuilds the index rather than keep a tracked tuple alive with the graph
        _accumulate(a, _rows_grad(a.shape, idx, g))

    return _attach(out, (a,), back)


def _rows_grad(shape, idx, g: np.ndarray) -> np.ndarray:
    """A zero array of ``shape`` with ``g`` added at rows ``idx``: distinct
    rows (every model call site) by assignment, since only repeated rows
    need the much slower unbuffered np.add.at."""
    idx = np.asarray(idx, dtype=np.int64)
    full = np.zeros(shape)
    rows = np.sort(idx % max(shape[-2], 1), axis=-1)
    if (rows[..., 1:] != rows[..., :-1]).all():
        full[_row_index(idx, shape[:-2])] = g
    else:
        np.add.at(full, _row_index(idx, shape[:-2]), g)
    return full


def stack(parts) -> Tensor:
    """k tensors of one shape -> [k, ...], on a new leading axis."""
    parts = [_as_tensor(p) for p in parts]
    if len({p.shape for p in parts}) != 1:
        raise DimensionError(f"stack: parts have shapes {sorted({p.shape for p in parts})}")
    out = Tensor(np.stack([p.data for p in parts]))

    def back(g):
        for p, gi in zip(parts, g):
            if p.requires_grad:
                _accumulate(p, gi)

    return _attach(out, tuple(parts), back)


def take(a: Tensor, i: int) -> Tensor:
    """Element ``i`` of the leading axis of ``a``."""
    out = Tensor(a.data[i])

    def back(g):
        full = np.zeros(a.shape)
        full[i] = g
        _accumulate(a, full)

    return _attach(out, (a,), back)


def concat_rows(parts) -> Tensor:
    """Join along axis -2; a part without the others' leading batch axes,
    such as one [n, d] matrix, is shared by every batch element."""
    parts = [_as_tensor(p) for p in parts]
    arrays = [p.data for p in parts]
    lead = max((x.shape[:-2] for x in arrays), key=len)
    out = Tensor(np.concatenate([
        x if x.shape[:-2] == lead else np.broadcast_to(x, lead + x.shape[-2:]) for x in arrays
    ], axis=-2))
    offsets = np.cumsum([0] + [x.shape[-2] for x in arrays])

    def back(g):
        for p, s, e in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                _accumulate(p, _unbroadcast(g[..., s:e, :], p.shape))

    return _attach(out, tuple(parts), back)


def scatter_rows(rows: Tensor, idx, fill: Tensor, total: int) -> Tensor:
    """Place ``rows`` [..., r, d] at positions ``idx`` along axis -2 (one [r]
    vector, or per-element [..., r]) of a [..., total, d] output; every other
    row is a copy of ``fill`` (a [d] or [1, d] tensor)."""
    *lead, r, d = rows.shape
    if np.shape(idx)[-1:] != (r,):
        raise DimensionError(f"scatter_rows: {r} rows vs indices of shape {np.shape(idx)}")
    at = _row_index(idx, lead)
    filled = np.broadcast_to(fill.data.reshape(d), (*lead, total, d)).copy()
    filled[at] = rows.data
    out = Tensor(filled)
    hole = np.ones((*lead, total), dtype=bool)
    hole[at[:-1]] = False

    def back(g):
        if rows.requires_grad:
            _accumulate(rows, g[at])
        if fill.requires_grad:
            _accumulate(fill, g[hole].sum(axis=0).reshape(fill.shape))

    return _attach(out, (rows, fill), back)


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------


@dataclass
class GradCheckReport:
    """Result of comparing tape gradients against central differences."""

    max_relative_error: float
    per_parameter_errors: dict = field(default_factory=dict)
    step_size: float = 1e-5
    checked_elements: int = 0

    def passed(self, tolerance: float = 1e-4) -> bool:
        return self.max_relative_error <= tolerance


def _rel_err(a: float, n: float, step: float) -> float:
    """|a - n| relative to the larger magnitude, floored at the step size:
    central differences cannot resolve a gradient much smaller than the
    step, so such an element is judged by its absolute error instead."""
    return abs(a - n) / max(abs(a), abs(n), step)


def check_gradients(
    loss_fn,
    params: dict,
    step: float = 1e-5,
    max_checked: int = 10_000,
    sample_seed: int = 0,
) -> GradCheckReport:
    """Compare tape gradients of ``loss_fn(params)`` against central
    differences.

    Every element is checked unless the parameter set exceeds
    ``max_checked`` elements, in which case a seeded uniform sample of
    ``max_checked`` elements is checked instead. ``loss_fn`` must be
    deterministic in ``params``.
    """
    if not (math.isfinite(step) and step > 0):
        raise ParameterError(f"step must be finite and > 0, got {step}")
    if max_checked < 1:
        raise ParameterError(f"max_checked must be >= 1, got {max_checked}")
    zero_grads(params)
    loss = loss_fn(params)
    value = loss.item()
    if not np.isfinite(value):
        raise EvaluationError(f"loss is not finite: {value}")
    backward(loss)
    del loss  # the swept graph: no central difference runs while it is alive
    analytic = {name: np.zeros_like(p.data) if p.grad is None else p.grad for name, p in params.items()}

    names = list(params.keys())
    sizes = np.array([params[n].size for n in names])
    total = int(sizes.sum())
    if total > max_checked:
        rng = np.random.default_rng(sample_seed)
        flat = np.sort(rng.choice(total, size=max_checked, replace=False))
    else:
        flat = np.arange(total)
    bounds = np.cumsum(sizes)

    per_param = {name: 0.0 for name in names}
    for gidx in flat:
        pi = int(np.searchsorted(bounds, gidx, side="right"))
        local = int(gidx - (bounds[pi - 1] if pi > 0 else 0))
        p = params[names[pi]]
        center = p.data.flat[local]
        p.data.flat[local] = center + step
        up = loss_fn(params).item()
        p.data.flat[local] = center - step
        down = loss_fn(params).item()
        p.data.flat[local] = center
        if not (np.isfinite(up) and np.isfinite(down)):
            raise EvaluationError("perturbed loss is not finite")
        numeric = (up - down) / (2.0 * step)
        err = _rel_err(float(analytic[names[pi]].flat[local]), numeric, step)
        if err > per_param[names[pi]]:
            per_param[names[pi]] = err

    return GradCheckReport(
        max_relative_error=max(per_param.values()) if per_param else 0.0,
        per_parameter_errors=per_param,
        step_size=step,
        checked_elements=int(flat.size),
    )


# ---------------------------------------------------------------------------
# Initialization
# ---------------------------------------------------------------------------


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with resampling outside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2.0 * std
        if not bad.any():
            return x
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))


# ---------------------------------------------------------------------------
# TNSR1 binary tensor files
# ---------------------------------------------------------------------------

_TNSR_MAGIC = b"TNSR"
_TNSR_VERSION = 1


def write_tnsr(fh, array: np.ndarray):
    """magic 'TNSR', version u8, rank u8, rank x u32 LE dims, f64 LE payload."""
    arr = np.asarray(array, dtype=np.float64)
    if arr.ndim > 255:
        raise FormatError(f"TNSR1 rank limit is 255, got {arr.ndim}")
    fh.write(_TNSR_MAGIC)
    fh.write(struct.pack("<BB", _TNSR_VERSION, arr.ndim))
    for dim in arr.shape:
        fh.write(struct.pack("<I", dim))
    fh.write(np.ascontiguousarray(arr, dtype="<f8").reshape(-1))  # the array's own buffer if it is one


def read_tnsr(fh) -> np.ndarray:
    head = fh.read(6)
    if len(head) < 6 or head[:4] != _TNSR_MAGIC:
        raise FormatError("not a TNSR1 block (bad magic)")
    version, rank = head[4], head[5]
    if version != _TNSR_VERSION:
        raise FormatError(f"unsupported TNSR version {version}")
    dims = tuple(read_array(fh, (rank,), "<u4", "TNSR1 header").tolist())  # ints: math.prod cannot wrap
    return read_array(fh, dims, "<f8", "TNSR1 payload").astype(np.float64, copy=False)


def read_array(fh, shape, dtype, what: str) -> np.ndarray:
    """The next array of ``shape`` and ``dtype`` in the seekable ``fh``,
    read straight into the array returned. FormatError ("truncated
    ``what``") unless its bytes remain, checked before anything is
    allocated, so a header that claims any size never allocates it."""
    itemsize = np.dtype(dtype).itemsize
    here = fh.tell()
    if itemsize * math.prod(shape) > fh.seek(0, os.SEEK_END) - here:
        raise FormatError(f"truncated {what}")
    fh.seek(here)
    if itemsize * math.prod(max(d, 1) for d in shape) > np.iinfo(np.intp).max:  # empty, yet too large to shape
        raise FormatError(f"{what} shape {tuple(shape)} is too large")
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
        raise FormatError(f"truncated {what}")
    return out


def save_tnsr(path, array: np.ndarray):
    with atomic_write(path) as fh:
        write_tnsr(fh, array)


def load_tnsr(path) -> np.ndarray:
    with open(path, "rb") as fh:
        try:
            return read_tnsr(fh)
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Block files: one JSON header line, then TNSR1 blocks (checkpoints, .opt)
# ---------------------------------------------------------------------------


def read_header(fh, path, kind: str) -> dict:
    """The JSON object on the first line of ``fh``; FormatError names ``path``."""
    line = fh.readline()
    if not line.endswith(b"\n"):
        raise FormatError(f"{path}: missing {kind} header line")
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable {kind} header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: {kind} header is not a JSON object")
    return header


@contextlib.contextmanager
def atomic_write(path, mode: str = "wb", **open_kwargs):
    """Open ``<path>.tmp`` for writing and rename it over ``path`` when the
    block ends: a killed writer never leaves a torn file, only the previous
    one (there is no fsync, so this does not guard against power loss)."""
    tmp = f"{path}.tmp"
    try:
        fh = open(tmp, mode, **open_kwargs)
    except OSError as exc:  # name the file the caller asked for, not its temp twin
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_blocks(path, header: dict, arrays):
    """Write the header line and one TNSR1 block per array, atomically."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays:
            write_tnsr(fh, array)


def read_blocks(path, fmt: str, versions, expect):
    """Read a file written by ``write_blocks``; returns (header, arrays).

    The header must be a JSON object with ``format`` ``fmt`` and an int
    ``version`` in ``versions``; ``expect(header)`` then returns the
    (label, shape) of every block in order. Each block must have its shape
    and nothing may follow the last; every FormatError names the file and
    the block's label.
    """
    with open(path, "rb") as fh:
        header = read_header(fh, path, fmt)
        if header.get("format") != fmt:
            raise FormatError(f"{path}: not a {fmt} file")
        version = header.get("version")
        if type(version) is not int or version not in versions:
            raise FormatError(f"{path}: unsupported {fmt} version {version!r}")
        arrays, label = [], "the header"
        for label, shape in expect(header):
            try:
                arr = read_tnsr(fh)
            except FormatError as exc:
                raise FormatError(f"{path}: block {label}: {exc}") from exc
            if arr.shape != tuple(shape):
                raise FormatError(f"{path}: block {label} has shape {arr.shape}, expected {tuple(shape)}")
            arrays.append(arr)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {label}")
    return header, arrays
