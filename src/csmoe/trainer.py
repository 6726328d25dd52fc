"""Toy pretraining loop: AdamW, cosine schedule with linear warmup, paired
TNSR1 image data, JSON-line loss logging, and bit-exact resume.

Every random stream (masks, shuffling, validation split, synthetic data)
derives from the run seed plus a fixed purpose key, so a resumed run
replays exactly the steps a longer run would have taken.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, EvaluationError, FormatError, ParameterError, require
from .fileio import atomic_write, load_tnsr, read_blocks, save_tnsr, write_blocks
from .losses import LossSettings, loss_total
from .model import (CHECKPOINT_VERSION, MODALITIES, CsmoeModel, check_image, convert_v1, forward,
                    manifest_header, save_checkpoint)
from .numerics import backward, zero_grads

OPT_FORMAT = "CSMOE-OPT"  # versioned with the checkpoint; version 1 files still load

# spawn keys for the independent derived streams
_KEY_VAL_SPLIT = 2
_KEY_MASKS = 3
_KEY_VAL_MASKS = 4
_KEY_SHUFFLE = 5
_KEY_SYNTH = 6


@dataclass
class TrainerConfig:
    epochs: int = 150
    batch_size: int = 256
    lr: float = 1e-4
    weight_decay: float = 0.01
    warmup_frac: float = 0.05
    val_fraction: float = 0.05
    schedule_epochs: int = 0  # cosine horizon; 0 means same as epochs

    def __post_init__(self):
        require([
            (self.epochs >= 0, f"epochs must be >= 0, got {self.epochs}"),
            (self.batch_size >= 2, f"batch_size must be >= 2, got {self.batch_size}"),
            (self.lr > 0, f"lr must be > 0, got {self.lr}"),
            (self.weight_decay >= 0, f"weight_decay must be >= 0, got {self.weight_decay}"),
            (0.0 <= self.warmup_frac <= 1.0, f"warmup_frac {self.warmup_frac} outside [0, 1]"),
            (0.0 <= self.val_fraction < 1.0, f"val_fraction {self.val_fraction} outside [0, 1)"),
            (self.schedule_epochs >= 0, f"schedule_epochs must be >= 0, got {self.schedule_epochs}"),
        ], ParameterError)


def cosine_lr(step: int, total_steps: int, base_lr: float, warmup_steps: int) -> float:
    """Linear warmup to base_lr, then cosine decay to zero; step is 0-based."""
    if step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(total_steps - warmup_steps, 1)
    progress = min((step - warmup_steps) / span, 1.0)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class AdamW:
    """Decoupled weight decay Adam over a named parameter map."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, lr: float = 1e-4, weight_decay: float = 0.01):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self, lr: float = None):
        if lr is None:
            lr = self.lr
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            # in place, each operation in the order of
            # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + weight_decay * p)
            denom = np.divide(v, bc2)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update = np.divide(m, bc1)
            update /= denom
            step = np.multiply(p.data, self.weight_decay, out=denom)
            step += update
            step *= lr
            p.data -= step


# ---------------------------------------------------------------------------
# Optimizer sidecar (next to the model checkpoint, enables exact resume)
# ---------------------------------------------------------------------------


def _params_sha256(model: CsmoeModel) -> str:
    """sha256 of the parameters' little-endian float64 bytes in manifest
    order: the bytes of the checkpoint's blocks."""
    import hashlib  # imported here, so no command's start-up pays for it

    digest = hashlib.sha256()
    for name, _ in manifest_header(model.cfg):
        digest.update(np.ascontiguousarray(model.params[name].data, dtype="<f8"))
    return digest.hexdigest()


def save_optimizer_state(path, optimizer: AdamW, epoch: int, model: CsmoeModel):
    """Write the moments, step and epoch, and the hash of the parameters they
    were saved with, so a resume refuses a sidecar from another save."""
    names = [name for name, _ in manifest_header(model.cfg)]
    header = {
        "format": OPT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "step": optimizer.step_count,
        "epoch": epoch,
        "names": names,
        "params_sha256": _params_sha256(model),
    }
    write_blocks(path, header, [moments[name] for name in names for moments in (optimizer.m, optimizer.v)])


def load_optimizer_state(path, optimizer: AdamW, model: CsmoeModel) -> int:
    """Restore moments and step count; returns the epoch to resume from.
    Version 1 moments are converted to the v2 layout. A file that records
    ``params_sha256`` must have been saved with ``model``'s parameters; older
    files, which do not record it, load unchecked."""
    def expect(header):
        step, epoch = header.get("step"), header.get("epoch")
        if type(step) is not int or type(epoch) is not int or min(step, epoch) < 0:
            raise FormatError(f"{path}: optimizer header needs non-negative int step and epoch")
        manifest = manifest_header(model.cfg, header["version"])
        if header.get("names") != [name for name, _ in manifest]:
            raise FormatError(f"{path}: optimizer state does not match the model config")
        if "params_sha256" in header and header["params_sha256"] != _params_sha256(model):
            raise FormatError(f"{path}: optimizer state was saved with other parameters than "
                              f"the ones it is loaded into")
        return [(f"{moment} moment of {name}", shape)
                for name, shape in manifest for moment in ("first", "second")]

    header, arrays = read_blocks(path, OPT_FORMAT, (1, CHECKPOINT_VERSION), expect)
    first, second = arrays[0::2], arrays[1::2]
    if header["version"] == 1:
        first, second = convert_v1(model.cfg, first), convert_v1(model.cfg, second)
    for (name, _), m, v in zip(manifest_header(model.cfg), first, second):
        optimizer.m[name], optimizer.v[name] = m, v
    optimizer.step_count = header["step"]
    return header["epoch"]


# ---------------------------------------------------------------------------
# Paired data
# ---------------------------------------------------------------------------


def load_pairs(data_dir, cfg):
    """All <id>_x.tnsr / <id>_y.tnsr pairs under data_dir, sorted by id.

    Every image must meet ``check_image`` for ``cfg``; a DataError names the
    first file that does not.
    """
    root = Path(data_dir)
    xs = {p.name[:-7]: p for p in root.glob("*_x.tnsr")}
    ys = {p.name[:-7]: p for p in root.glob("*_y.tnsr")}
    unpaired = sorted(set(xs) ^ set(ys))
    if unpaired:
        raise DataError(f"{data_dir}: unpaired ids: {', '.join(unpaired)}")
    if not xs:
        raise DataError(f"{data_dir}: no *_x.tnsr/*_y.tnsr pairs found")
    return [(pid, check_image(xs[pid], load_tnsr(xs[pid]), cfg, "x"),
             check_image(ys[pid], load_tnsr(ys[pid]), cfg, "y")) for pid in sorted(xs)]


def synthesize_pairs(data_dir, count: int, cfg, seed: int):
    """Write paired synthetic images sharing a coarse structure per pair."""
    root = Path(data_dir)
    root.mkdir(parents=True, exist_ok=True)
    side = cfg.image_side
    coarse = max(side // 4, 1)
    reps = side // coarse
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_KEY_SYNTH, i)))
        base = rng.standard_normal((coarse, coarse)).repeat(reps, axis=0).repeat(reps, axis=1)
        base = base[:side, :side]
        for m in MODALITIES:
            shape = cfg.image_shape(m)
            gains = rng.uniform(0.5, 1.5, size=shape[0])
            noise = 0.3 * rng.standard_normal(shape)
            save_tnsr(root / f"synt{i:04d}_{m}.tnsr", gains[:, None, None] * base[None] + noise)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


def _derived_seed(seed: int, *key) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


def split_validation(pair_ids, fraction: float, seed: int):
    """Hold out floor(fraction * N) ids; empty holdout when that rounds to 0."""
    n_val = int(math.floor(fraction * len(pair_ids)))
    if n_val == 0:
        return list(pair_ids), []
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_KEY_VAL_SPLIT,)))
    picked = set(rng.choice(len(pair_ids), size=n_val, replace=False).tolist())
    train = [pid for i, pid in enumerate(pair_ids) if i not in picked]
    val = [pid for i, pid in enumerate(pair_ids) if i in picked]
    return train, val


def _check_finite(breakdown, where: str):
    """EvaluationError naming ``where`` and the first non-finite loss term."""
    for term, value in breakdown.to_dict().items():
        if not math.isfinite(value):
            raise EvaluationError(f"{where}: loss term {term} is not finite ({value})")


def _batch_forward(model: CsmoeModel, by_id: dict, ids, seeds):
    """One forward pass over the pairs ``ids``, stacked into [B, C, H, W]."""
    xs = np.stack([by_id[pid][0] for pid in ids])
    ys = np.stack([by_id[pid][1] for pid in ids])
    return forward(model, xs, ys, seed=seeds)


def train(model: CsmoeModel, pairs, tcfg: TrainerConfig, seed: int,
          loss: LossSettings = LossSettings(), log_fh=None, start_epoch: int = 0,
          optimizer: AdamW = None):
    """Run epochs [start_epoch, tcfg.epochs) of mini-batch AdamW training.

    Returns (optimizer, steps["train"/"val"] log records). Batches with
    fewer than 2 pairs are dropped (the contrastive term needs pairs). Each
    step and each validation pass is one batched forward, whose graph is
    dropped as soon as its gradients (or its record) exist: no forward runs
    while an older graph is alive. Gradients live from a step's ``backward``
    to its AdamW update and are dropped right after it, as are any the
    parameters bring in, so no forward runs while gradients exist and
    ``train`` returns with none. A non-finite loss term or gradient norm
    raises EvaluationError naming the step (or epoch) and the term, before
    the optimizer moves or the record is logged.
    """
    by_id = {pid: (x, y) for pid, x, y in pairs}
    train_ids, val_ids = split_validation([p[0] for p in pairs], tcfg.val_fraction, seed)
    if len(train_ids) < 2:
        raise DataError(f"need at least 2 training pairs after the validation split, got {len(train_ids)}")
    full, rem = divmod(len(train_ids), tcfg.batch_size)
    steps_per_epoch = full + (1 if rem >= 2 else 0)  # size-1 tail batches are dropped
    horizon_epochs = tcfg.schedule_epochs or tcfg.epochs
    total_steps = horizon_epochs * steps_per_epoch
    warmup = max(1, round(tcfg.warmup_frac * total_steps))
    if optimizer is None:
        optimizer = AdamW(model.params, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    zero_grads(optimizer.params)
    records = []

    def emit(record):
        records.append(record)
        if log_fh is not None:
            log_fh.write(json.dumps(record) + "\n")

    for epoch in range(start_epoch, tcfg.epochs):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_KEY_SHUFFLE, epoch)))
        order = rng.permutation(len(train_ids))
        for lo in range(0, len(order), tcfg.batch_size):
            chunk = order[lo:lo + tcfg.batch_size]
            if chunk.size < 2:
                continue
            step = optimizer.step_count  # steps taken before this one
            art = _batch_forward(model, by_id, [train_ids[i] for i in chunk],
                                 [_derived_seed(seed, _KEY_MASKS, step, j) for j in range(chunk.size)])
            breakdown = loss_total(model, art, loss)
            _check_finite(breakdown, f"step {step + 1}")
            backward(breakdown.total_tensor)
            terms = breakdown.to_dict()
            del art, breakdown  # the step's graph: its gradients are on the params now
            grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                      for p in model.params.values() if p.grad is not None))
            if not math.isfinite(grad_norm):
                raise EvaluationError(f"step {step + 1}: grad_norm is not finite ({grad_norm})")
            lr = cosine_lr(step, total_steps, tcfg.lr, warmup)
            optimizer.step(lr=lr)
            zero_grads(optimizer.params)
            emit({"step": optimizer.step_count, **terms})
        if len(val_ids) >= 2:
            art = _batch_forward(model, by_id, val_ids,
                                 [_derived_seed(seed, _KEY_VAL_MASKS, epoch, j) for j in range(len(val_ids))])
            val = loss_total(model, art, loss)
            _check_finite(val, f"epoch {epoch + 1} validation")
            emit({"epoch": epoch + 1, "val_total": val.total})
            del art, val
    return optimizer, records


def _log_through(log_path, step: int, epoch: int) -> str:
    """The leading records of the loss log at ``log_path`` up to ``step``
    and ``epoch``: reading stops at the first line that is not a record of
    an earlier step or epoch (a torn line, or one a killed resume wrote
    after the checkpoint)."""
    kept = []
    with contextlib.suppress(FileNotFoundError), open(log_path, errors="replace") as fh:
        for line in fh:
            try:
                record = json.loads(line)
                if not (record.get("step", 0) <= step and record.get("epoch", 0) <= epoch):
                    break
            except (ValueError, AttributeError, TypeError):  # not a JSON object of numbers
                break
            kept.append(line)
    return "".join(kept)


def run_pretraining(model: CsmoeModel, pairs, tcfg: TrainerConfig, seed: int,
                    checkpoint_path, log_path, loss: LossSettings = LossSettings(),
                    resume_from=None):
    """Train, then write the checkpoint and its optimizer sidecar. A resume
    first cuts the loss log back to the checkpoint's step, then appends."""
    optimizer = AdamW(model.params, lr=tcfg.lr, weight_decay=tcfg.weight_decay)
    start_epoch = 0
    if resume_from is not None:
        try:
            start_epoch = load_optimizer_state(str(resume_from) + ".opt", optimizer, model)
        except FormatError as exc:
            raise FormatError(f"{exc}; cannot resume {resume_from}") from exc
        kept = _log_through(log_path, optimizer.step_count, start_epoch)
        with atomic_write(log_path, "w") as fh:
            fh.write(kept)
    with open(log_path, "w" if resume_from is None else "a") as log_fh:
        _, records = train(model, pairs, tcfg, seed, loss=loss,
                           log_fh=log_fh, start_epoch=start_epoch, optimizer=optimizer)
    save_checkpoint(model, checkpoint_path)
    save_optimizer_state(str(checkpoint_path) + ".opt", optimizer, tcfg.epochs, model)
    return records
