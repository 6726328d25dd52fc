"""Outside-in tracing of csmoe's public functions.

The tracer edits no source file. It wraps a public function and rebinds the
wrapper under every name that refers to the original in any loaded
``csmoe`` module, so ``from .numerics import matmul`` call sites are traced
too. A function that no longer exists is recorded as absent and skipped.

Spans (name, start, end, parent, op, flops at start/end, tag) are kept in
memory and written out when the run ends. A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: the csmoe modules whose spans and self times are reported
LAYERS = ("numerics", "tokenizer", "softmoe", "model", "losses", "trainer", "evaluation", "sampler", "cli")

# span record fields
NAME, START, END, PARENT, OP, FLOPS0, FLOPS1, TAG = range(8)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = -1  # index of the workload op in progress
        self.flop_counter = None  # a live csmoe FlopCounter, if any
        self.traces = []  # return-value records kept by on_return hooks
        self.absent = []
        self._patches = []

    # -- wrappers -----------------------------------------------------------

    def _flops(self):
        fc = self.flop_counter
        return fc.total if fc is not None else 0

    def _span_wrapper(self, name, fn, group=None, tagger=None, on_return=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if group:
                counts[group] += 1
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, self._flops(), 0,
                   tagger(args, kwargs) if tagger else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                rec[FLOPS1] = self._flops()
                stack.pop()
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    def _count_wrapper(self, name, fn, group=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if group:
                counts[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, spec):
        """Wrap every entry of ``spec``.

        Each entry is ``(module, attribute, kind, options)``: ``kind`` is
        "span" or "count", ``attribute`` may be ``Class.method``, and
        ``options`` holds ``name``, ``group``, ``tagger`` and ``on_return``.
        """
        for module_name, attr, kind, opts in spec:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, _, leaf = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            original = getattr(holder, leaf, None) if holder is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            name = opts.get("name") or f"{module_name.rpartition('.')[2]}.{leaf}"
            if kind == "span":
                wrapper = self._span_wrapper(name, original, opts.get("group"),
                                             opts.get("tagger"), opts.get("on_return"))
            else:
                wrapper = self._count_wrapper(name, original, opts.get("group"))
            if owner:
                self._patch(holder, leaf, wrapper)
            else:
                self._rebind(original, wrapper)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "csmoe" and not mod_name.startswith("csmoe."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def uninstall(self):
        for obj, attr, value in reversed(self._patches):
            setattr(obj, attr, value)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def numerics_op_spec(timed=("matmul", "backward")):
    """Every public tensor op of ``csmoe.numerics``, counted under the group
    ``numerics.op_calls``; the ``timed`` ones also record spans.

    Found by inspection, so ops added later are counted too. Functions that
    build no tensor (IO, init, gradient checking, cost formulas) and the
    composite ``l2_normalize_rows``, whose parts are counted, are left out.
    """
    try:
        numerics = importlib.import_module("csmoe.numerics")
    except ImportError:
        return []
    not_ops = {"backward", "zero_grads", "check_gradients", "truncated_normal", "parameter",
               "l2_normalize_rows", "write_tnsr", "read_tnsr", "save_tnsr", "load_tnsr"}
    spec = []
    for name, obj in vars(numerics).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != numerics.__name__ or name.endswith("_flops"):
            continue
        if name in timed:
            continue
        if name not in not_ops:
            spec.append(("csmoe.numerics", name, "count", {"group": "numerics.op_calls"}))
    for name in timed:
        group = None if name in not_ops else "numerics.op_calls"
        spec.append(("csmoe.numerics", name, "span", {"group": group}))
    return spec


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span. ``spans`` are (start, end, parent)."""
    children = defaultdict(list)
    for start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out


def summarize(spans):
    """Per span name: calls, inclusive ns, self ns; per layer (the name's
    prefix before the first dot): self ns."""
    selfs = self_times([(r[START], r[END], r[PARENT]) for r in spans])
    by_name = defaultdict(lambda: {"calls": 0, "incl_ns": 0, "self_ns": 0})
    by_layer = Counter()
    for rec, own in zip(spans, selfs):
        entry = by_name[rec[NAME]]
        entry["calls"] += 1
        entry["incl_ns"] += rec[END] - rec[START]
        entry["self_ns"] += own
        by_layer[rec[NAME].split(".", 1)[0]] += own
    return dict(by_name), dict(by_layer)


def enclosing(spans, index, name):
    """Index of the nearest ancestor of span ``index`` called ``name``, or -1."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return parent
        parent = spans[parent][PARENT]
    return -1
