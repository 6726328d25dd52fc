import csv
import functools
import io
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csmoe.fileio as fileio
import csmoe.trainer as trainer
from csmoe.cli import main
from csmoe.errors import CsmoeError, DataError, EvaluationError, FormatError
from csmoe.fileio import save_tnsr
from csmoe.losses import loss_total
from csmoe.model import forward, init_model, load_checkpoint, save_checkpoint
from csmoe.numerics import Tensor, backward, parameter
from csmoe.sampler import ClassRaster, save_grid
from csmoe.trainer import (
    AdamW,
    TrainerConfig,
    cosine_lr,
    load_optimizer_state,
    load_pairs,
    save_optimizer_state,
    split_validation,
    synthesize_pairs,
    train,
)

from util import mini_config, rel_err, write_sampling_inputs


def test_cosine_lr_shape():
    total, warmup, base = 100, 5, 1e-3
    lrs = [cosine_lr(t, total, base, warmup) for t in range(total)]
    assert lrs[0] == base / warmup
    assert lrs[warmup - 1] == base
    assert abs(lrs[warmup] - base) < 1e-4
    assert all(a >= b for a, b in zip(lrs[warmup:], lrs[warmup + 1:]))
    assert lrs[-1] < 0.01 * base


def test_adamw_matches_reference_step():
    # one step from zero moments has a closed form: update = lr * g/(|g| + eps)
    p = parameter(np.array([1.0, -2.0]))
    p.grad = np.array([0.5, -0.25])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.0)
    opt.step()
    expected = np.array([1.0, -2.0]) - 0.1 * np.array([0.5, -0.25]) / (np.array([0.5, 0.25]) + 1e-8)
    assert rel_err(p.data, expected) < 1e-9


def test_adamw_decoupled_weight_decay():
    p = parameter(np.array([2.0]))
    p.grad = np.array([0.0])
    opt = AdamW({"p": p}, lr=0.1, weight_decay=0.5)
    opt.step()
    # zero gradient: the only change is the decay term lr * wd * p
    assert abs(p.data[0] - (2.0 - 0.1 * 0.5 * 2.0)) < 1e-12


def test_adamw_updates_in_place_bit_identically_to_the_plain_expression():
    rng = np.random.default_rng(2)
    p = parameter(rng.standard_normal((3, 4)))
    data = p.data
    opt = AdamW({"p": p}, lr=1e-2, weight_decay=0.1)
    ref, m, v = p.data.copy(), np.zeros((3, 4)), np.zeros((3, 4))
    for t in range(1, 6):
        g = p.grad = rng.standard_normal((3, 4))
        lr = 1e-2 / t
        opt.step(lr=lr)
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        update = (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        ref = ref - lr * (update + 0.1 * ref)
        assert np.array_equal(p.data, ref) and np.array_equal(opt.m["p"], m) and np.array_equal(opt.v["p"], v)
    assert p.data is data  # no new parameter array per step


def test_split_validation_fraction():
    ids = [f"p{i}" for i in range(40)]
    train_ids, val_ids = split_validation(ids, 0.05, seed=0)
    assert len(val_ids) == 2
    assert sorted(train_ids + val_ids) == sorted(ids)
    t2, v2 = split_validation(ids, 0.05, seed=0)
    assert t2 == train_ids and v2 == val_ids
    # tiny sets round down to no holdout
    assert split_validation(ids[:8], 0.05, seed=0)[1] == []


def test_synthesize_and_load_pairs(tmp_path):
    cfg = mini_config()
    synthesize_pairs(tmp_path, 3, cfg, seed=0)
    pairs = load_pairs(tmp_path, cfg)
    assert [p[0] for p in pairs] == ["synt0000", "synt0001", "synt0002"]
    assert pairs[0][1].shape == (cfg.channels_x, 16, 16)
    assert pairs[0][2].shape == (cfg.channels_y, 16, 16)
    # regeneration is deterministic
    synthesize_pairs(tmp_path, 3, cfg, seed=0)
    again = load_pairs(tmp_path, cfg)
    assert np.array_equal(pairs[1][1], again[1][1])


def test_load_pairs_rejects_unpaired(tmp_path):
    save_tnsr(tmp_path / "a_x.tnsr", np.zeros((2, 4, 4)))
    save_tnsr(tmp_path / "a_y.tnsr", np.zeros((3, 4, 4)))
    save_tnsr(tmp_path / "b_x.tnsr", np.zeros((2, 4, 4)))
    with pytest.raises(DataError, match="b"):
        load_pairs(tmp_path, mini_config())


def test_train_records_and_determinism(tmp_path):
    cfg = mini_config()
    synthesize_pairs(tmp_path, 4, cfg, seed=1)
    pairs = load_pairs(tmp_path, cfg)
    tcfg = TrainerConfig(epochs=2, batch_size=2, lr=1e-3, val_fraction=0.0)

    def run():
        model = init_model(cfg)
        _, records = train(model, pairs, tcfg, seed=0)
        return model, records

    m1, r1 = run()
    m2, r2 = run()
    assert [r["total"] for r in r1] == [r["total"] for r in r2]
    for name in m1.params:
        assert np.array_equal(m1.params[name].data, m2.params[name].data)
    assert all(set(r) >= {"step", "umr", "cmr", "mi", "rep", "ent", "total"} for r in r1)


def test_train_makes_one_forward_per_step_and_per_validation(tmp_path, monkeypatch):
    cfg = mini_config()
    synthesize_pairs(tmp_path, 6, cfg, seed=1)
    pairs = load_pairs(tmp_path, cfg)
    # 2 of 6 pairs held out: 4 training pairs make 2 steps of 2 per epoch
    tcfg = TrainerConfig(epochs=2, batch_size=2, lr=1e-3, val_fraction=0.34)
    batches = []
    real_forward = trainer.forward

    def counting_forward(model, xs, ys, seed):
        batches.append((xs.shape[0], ys.shape[0], len(seed)))
        return real_forward(model, xs, ys, seed=seed)

    monkeypatch.setattr(trainer, "forward", counting_forward)
    _, records = train(init_model(cfg), pairs, tcfg, seed=0)
    steps = [r for r in records if "step" in r]
    vals = [r for r in records if "val_total" in r]
    assert len(steps) == 4 and len(vals) == 2
    assert batches == [(2, 2, 2)] * 6


def test_train_holds_one_graph_at_a_time():
    # a step's graph (activations plus saved arrays) is dropped before the
    # next forward, so more steps, or validation passes between them, leave
    # the traced peak where one step puts it; keeping the previous graph
    # alive raised it by 35-60% at this size
    cfg = mini_config()
    rng = np.random.default_rng(0)
    pairs = [(f"p{i:02d}", rng.standard_normal((2, 16, 16)), rng.standard_normal((3, 16, 16)))
             for i in range(24)]

    def traced_peak(n_pairs, epochs, val_fraction):
        model = init_model(cfg)
        tcfg = TrainerConfig(epochs=epochs, batch_size=8, val_fraction=val_fraction)
        tracemalloc.start()
        try:
            train(model, pairs[:n_pairs], tcfg, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(8, 1, 0.0)  # first-call allocations stay out of the comparison
    one_step = traced_peak(8, 1, 0.0)
    assert traced_peak(24, 1, 0.0) < 1.2 * one_step  # three steps
    one_step_and_val = traced_peak(16, 1, 0.5)
    assert traced_peak(16, 2, 0.5) < 1.2 * one_step_and_val  # step, val, step, val


def test_train_rejects_non_finite_gradient_norm(tmp_path, monkeypatch):
    cfg = mini_config()
    synthesize_pairs(tmp_path, 4, cfg, seed=1)
    pairs = load_pairs(tmp_path, cfg)
    model = init_model(cfg)
    real_backward = trainer.backward
    sweeps = []

    def overflowing_backward(loss):  # the second step's gradient overflows
        real_backward(loss)
        sweeps.append(loss)
        if len(sweeps) == 2:
            model.params["embed_x.weight"].grad[0, 0] = np.inf

    monkeypatch.setattr(trainer, "backward", overflowing_backward)
    log = io.StringIO()
    with pytest.raises(EvaluationError, match="step 2: grad_norm is not finite"):
        train(model, pairs, TrainerConfig(epochs=1, batch_size=2, val_fraction=0.0), seed=0, log_fh=log)
    assert [json.loads(line)["step"] for line in log.getvalue().splitlines()] == [1]


def test_no_forward_runs_while_gradients_exist(tmp_path, monkeypatch):
    # a step's gradients live from its backward to its AdamW update: the
    # next step's forward, a validation forward and the caller after train
    # returns find none, nor any the parameters brought in
    cfg = mini_config()
    synthesize_pairs(tmp_path, 6, cfg, seed=1)
    pairs = load_pairs(tmp_path, cfg)
    model = init_model(cfg)
    for p in model.params.values():
        p.grad = np.ones_like(p.data)
    real_forward, forwards = trainer.forward, []

    def asserting_forward(model, xs, ys, seed):
        held = [name for name, p in model.params.items() if p.grad is not None]
        assert not held, f"forward {len(forwards) + 1} starts while {len(held)} gradients exist"
        forwards.append(len(seed))
        return real_forward(model, xs, ys, seed=seed)

    monkeypatch.setattr(trainer, "forward", asserting_forward)
    _, records = train(model, pairs, TrainerConfig(epochs=2, batch_size=2, lr=1e-3, val_fraction=0.34), seed=0)
    assert len(forwards) == 6 and sum("val_total" in r for r in records) == 2
    assert all(p.grad is None for p in model.params.values())


def test_train_starts_from_no_gradients(tmp_path):
    # gradients left on the parameters by a caller's own backward change no
    # bit of the run: parameters, both moments and every record match a
    # clean copy's
    cfg = mini_config()
    synthesize_pairs(tmp_path, 6, cfg, seed=1)
    pairs = load_pairs(tmp_path, cfg)
    tcfg = TrainerConfig(epochs=2, batch_size=2, lr=1e-3, val_fraction=0.34)
    clean, carried = init_model(cfg), init_model(cfg)
    xs, ys = np.stack([x for _, x, _ in pairs[:2]]), np.stack([y for _, _, y in pairs[:2]])
    backward(loss_total(carried, forward(carried, xs, ys, seed=[7, 8])).total_tensor)
    assert all(p.grad is not None for p in carried.params.values())
    (opt_a, rec_a), (opt_b, rec_b) = (train(m, pairs, tcfg, seed=0) for m in (clean, carried))
    assert rec_a == rec_b and opt_a.step_count == opt_b.step_count == 4
    for name in clean.params:
        assert np.array_equal(clean.params[name].data, carried.params[name].data)
        assert np.array_equal(opt_a.m[name], opt_b.m[name]) and np.array_equal(opt_a.v[name], opt_b.v[name])


def test_optimizer_state_roundtrip(tmp_path):
    cfg = mini_config()
    model = init_model(cfg)
    opt = AdamW(model.params, lr=1e-3)
    rng = np.random.default_rng(0)
    for p in model.params.values():
        p.grad = rng.standard_normal(p.shape)
    opt.step()
    path = tmp_path / "state.opt"
    save_optimizer_state(path, opt, epoch=3, model=model)
    fresh = AdamW(model.params, lr=1e-3)
    epoch = load_optimizer_state(path, fresh, model)
    assert epoch == 3 and fresh.step_count == 1
    for name in opt.m:
        assert np.array_equal(opt.m[name], fresh.m[name])
        assert np.array_equal(opt.v[name], fresh.v[name])
    (tmp_path / "junk.opt").write_bytes(b'{"format": "nope"}\n')
    with pytest.raises(FormatError):
        load_optimizer_state(tmp_path / "junk.opt", fresh, model)


@functools.lru_cache(maxsize=1)
def _opt_file_bytes(directory):
    """A mini model and the bytes of its .opt file after one AdamW step."""
    model = init_model(mini_config())
    opt = AdamW(model.params, lr=1e-3)
    for p in model.params.values():
        p.grad = np.full(p.shape, 0.5)
    opt.step()
    save_optimizer_state(directory / "base.opt", opt, epoch=1, model=model)
    return model, (directory / "base.opt").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cut=st.none() | st.integers(0, 2**19),
       edits=st.lists(st.tuples(st.integers(0, 2047) | st.integers(0, 2**19), st.integers(0, 255)), max_size=3))
def test_optimizer_state_reader_lets_only_format_error_escape(tmp_path_factory, cut, edits):
    # a truncated or overwritten .opt file either loads or raises a
    # FormatError naming the file, whether the bytes hit the JSON header,
    # a block header or a payload
    model, blob = _opt_file_bytes(tmp_path_factory.getbasetemp())
    blob = bytearray(blob)
    if cut is not None:
        del blob[max(cut, 1):]
    for at, value in edits:
        blob[at % len(blob)] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.opt"
    path.write_bytes(bytes(blob))
    try:
        load_optimizer_state(path, AdamW(model.params), model)
    except FormatError as exc:
        assert str(exc).startswith(f"{path}: ")


@functools.lru_cache(maxsize=1)
def _checkpoint_bytes(directory):
    save_checkpoint(init_model(mini_config()), directory / "base.ckpt")
    return (directory / "base.ckpt").read_bytes()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(cut=st.none() | st.integers(0, 2**19),
       edits=st.lists(st.tuples(st.integers(0, 2047) | st.integers(0, 2**19), st.integers(0, 255)), max_size=3))
def test_checkpoint_reader_lets_only_csmoe_error_escape(tmp_path_factory, cut, edits):
    # the same for a checkpoint, whose header also holds the model config
    blob = bytearray(_checkpoint_bytes(tmp_path_factory.getbasetemp()))
    if cut is not None:
        del blob[max(cut, 1):]
    for at, value in edits:
        blob[at % len(blob)] = value
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(bytes(blob))
    try:
        load_checkpoint(path)
    except CsmoeError as exc:
        assert str(exc).startswith(f"{path}: ")


@pytest.mark.parametrize("k", [0, 3])
def test_interrupted_writer_leaves_previous_files_intact(tmp_path, monkeypatch, k):
    model = init_model(mini_config())
    opt = AdamW(model.params, lr=1e-3)
    ckpt, state = tmp_path / "m.ckpt", tmp_path / "m.ckpt.opt"
    save_checkpoint(model, ckpt)
    save_optimizer_state(state, opt, epoch=0, model=model)
    before = {path: path.read_bytes() for path in (ckpt, state)}
    for name, p in model.params.items():  # what a second save would write
        p.data = p.data + 1.0
        opt.m[name] += 1.0
    opt.step_count = 5
    real, written = fileio.write_tnsr, []

    def failing_write_tnsr(fh, array):
        if len(written) == k:
            raise KeyboardInterrupt("killed after writing blocks")
        written.append(array.shape)
        real(fh, array)

    monkeypatch.setattr(fileio, "write_tnsr", failing_write_tnsr)
    for save in (lambda: save_checkpoint(model, ckpt),
                 lambda: save_optimizer_state(state, opt, epoch=1, model=model)):
        written.clear()
        with pytest.raises(KeyboardInterrupt):
            save()
        assert len(written) == k
    assert {path: path.read_bytes() for path in (ckpt, state)} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.ckpt", "m.ckpt.opt"]

    # the sample command's selection CSV, killed after k rows, then its
    # report, killed after k characters of JSON
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    archive, climate, thematic = write_sampling_inputs(inputs)
    out, rep = tmp_path / "sel.csv", tmp_path / "rep.json"
    argv = ["sample", "--archive", str(archive), "--climate", str(climate), "--thematic", str(thematic),
            "--out", str(out), "--report", str(rep), "--iters", "5", "--pop", "4", "--seed"]
    assert main(argv + ["1"]) == 0
    before = {path: path.read_bytes() for path in (out, rep)}
    real_writer = csv.writer

    class FailingWriter:
        def __init__(self, fh):
            self.writer, self.rows = real_writer(fh), 0

        def writerow(self, row):
            if self.rows == k:
                raise KeyboardInterrupt("killed after writing rows")
            self.rows += 1
            self.writer.writerow(row)

    def failing_dump(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:k])
        raise KeyboardInterrupt("killed while writing the report")

    for module, attr, fake, target in ((csv, "writer", FailingWriter, out), (json, "dump", failing_dump, rep)):
        with monkeypatch.context() as patch:
            patch.setattr(module, attr, fake)
            with pytest.raises(KeyboardInterrupt):
                main(argv + ["2"])  # another seed: other bytes
        assert target.read_bytes() == before[target]

    # a TNSR1 file (split-tiles patches, synthesized pairs) and a GRID1
    # raster, each rewritten by a writer killed after k bytes
    class KilledAfterKBytes:
        def __init__(self, path, mode, **kwargs):
            self.fh, self.left = open(path, mode, **kwargs), k

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:self.left])
            if len(data) > self.left:
                raise KeyboardInterrupt("killed while writing")
            self.left -= len(data)

    raster = ClassRaster(lat_max=10.0, lon_min=0.0, dlat=1.0, dlon=1.0,
                         grid=np.arange(6, dtype=np.uint16).reshape(2, 3), nodata=0)
    tnsr, grid = tmp_path / "p.tnsr", tmp_path / "c.grid"
    monkeypatch.undo()  # the real write_tnsr again
    save_tnsr(tnsr, np.zeros((2, 3)))
    save_grid(grid, raster)
    before = {path: path.read_bytes() for path in (tnsr, grid)}
    for save in (lambda: save_tnsr(tnsr, np.ones((2, 3))),
                 lambda: save_grid(grid, replace(raster, grid=raster.grid + 1))):
        with monkeypatch.context() as patch:
            patch.setattr(fileio, "open", KilledAfterKBytes, raising=False)
            with pytest.raises(KeyboardInterrupt):
                save()
    assert {path: path.read_bytes() for path in (tnsr, grid)} == before
    assert not list(tmp_path.glob("*.tmp"))
