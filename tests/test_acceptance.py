"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import csmoe.softmoe as softmoe
from csmoe.cli import main
from csmoe.evaluation import c2c_ratio, forward_flops, profile, retrieval_f1, retrieve
from csmoe.losses import loss_ent, loss_mi, loss_rep, loss_total, rec_loss
from csmoe.model import CsmoeConfig, forward, init_model, truncated_normal
from csmoe.numerics import FlopCounter, Tensor, check_gradients
from csmoe.sampler import (
    GaConfig,
    evolve_stratum,
    haversine,
    mutation_rate,
    pair_km,
    repair,
    unit_vectors,
)
from csmoe.softmoe import moe_forward, route
from csmoe.tokenizer import patchify, sample_masks, unpatchify

from util import dense_distance_oracle, mini_config, moe_block


def report(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_01_routing_simplex():
    start = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    for num_slots in (1, 2, 8):
        layer = moe_block(enc_dim=12, expert_hidden=12, num_slots=num_slots, route_temperature=0.5).moe
        for num_tokens in (1, 4, 49, 196):
            routing = route(Tensor(rng.uniform(-2, 2, (num_tokens, 12))), layer)
            d, c = routing.dispatch.data, routing.combine.data
            worst = max(worst,
                        np.abs(d.sum(axis=1) - 1.0).max(),
                        np.abs(c.sum(axis=0) - 1.0).max())
            assert (d >= 0).all() and (d <= 1).all()
            assert (c >= 0).all() and (c <= 1).all()
    elapsed = time.time() - start
    report(1, worst <= 1e-9 and elapsed < 5.0,
           f"dispatch rows / combine columns sum to 1 (worst dev {worst:.1e}, {elapsed:.2f}s)")


def test_criterion_02_expert_call_economy(monkeypatch):
    start = time.time()
    rng = np.random.default_rng(1)
    calls = []
    real_feed_forward = softmoe.feed_forward

    def counting_feed_forward(x, params):
        calls.append(math.prod(x.shape[:-1]))  # rows that reach the stacked experts
        return real_feed_forward(x, params)

    monkeypatch.setattr(softmoe, "feed_forward", counting_feed_forward)
    rows = {}
    layer = moe_block(enc_dim=8, expert_hidden=8, num_slots=4, num_experts=2).moe
    for num_tokens in (16, 49, 196):
        for batch, shape in ((1, (num_tokens, 8)), (4, (4, num_tokens, 8))):  # one sample, a batch of 4
            calls.clear()
            moe_forward(Tensor(rng.uniform(-1, 1, shape)), layer)
            rows[shape] = [r / batch for r in calls]
    elapsed = time.time() - start
    ok = all(v == [4] for v in rows.values()) and elapsed < 1.0
    report(2, ok, f"expert rows per sample {rows} == num_slots in one call for all token counts "
                  f"and batch sizes ({elapsed:.2f}s)")


def test_criterion_03_gradient_fidelity():
    start = time.time()
    cfg = mini_config()
    model = init_model(cfg)
    # random weights at a scale that keeps finite differences well conditioned
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data = truncated_normal(rng, p.shape, 0.3)
    data_rng = np.random.default_rng(3)
    draws = [
        (data_rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side)),
         data_rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side)))
        for _ in range(2)
    ]
    xs, ys = (np.stack(images) for images in zip(*draws))

    def loss_fn(params):
        return loss_total(model, forward(model, xs, ys, seed=[10, 11])).total_tensor

    result = check_gradients(loss_fn, model.params, step=1e-5, max_checked=500, sample_seed=0)
    elapsed = time.time() - start
    ok = result.max_relative_error <= 1e-4 and elapsed < 60.0
    report(3, ok, f"total-loss tape vs central differences: max rel err "
                  f"{result.max_relative_error:.2e} over {result.checked_elements} elements "
                  f"({elapsed:.1f}s)")


def test_criterion_04_loss_closed_forms():
    checks = []
    for p in (4, 49):
        uniform = Tensor(np.full((8, p), 1.0 / p))
        checks.append(abs(loss_ent(uniform, eps=0.0).item() - math.log(p) / p) <= 1e-9)
    identical = Tensor(np.tile([[0.6, 0.8]], (8, 1)))
    checks.append(abs(loss_rep(identical).item() - (-1.0)) <= 1e-12)
    for s in (2, 8):
        ortho = Tensor(np.eye(8)[:s])
        checks.append(abs(loss_rep(ortho).item() - (-1.0 / s)) <= 1e-12)
    pair = Tensor(np.eye(2))
    checks.append(abs(loss_mi(pair, pair, temperature=0.5).item() - (-2.0)) <= 1e-9)
    report(4, all(checks),
           "entropy ln(P)/P, repulsion -1 / -1/S, contrastive toy -2 all match closed forms")


def test_criterion_05_cross_mask_wiring():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
    y = rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side))
    base = forward(model, x, y, seed=0)
    moved = forward(model, x, y, seed=0, mask_seed_y=4242)
    assert not np.array_equal(base.masks["y"].masked, moved.masks["y"].masked)
    recon_same = np.array_equal(base.recon[("y", "x")].data, moved.recon[("y", "x")].data)
    loss_base = rec_loss(base.recon[("y", "x")], base.target_tokens["y"], base.masks["x"].masked)
    loss_moved = rec_loss(moved.recon[("y", "x")], moved.target_tokens["y"], moved.masks["x"].masked)
    loss_same = loss_base.item() == loss_moved.item()
    report(5, recon_same and loss_same,
           "Y-from-X reconstruction and its loss are bit-unchanged when only the Y mask seed moves")


def test_criterion_06_masked_input_independence():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(3)
    x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
    mask = sample_masks(cfg.num_patches, cfg.mask_ratio, seed=5)
    from csmoe.model import encode

    base = encode(model, x, mask, "x").data
    perturbed = x.copy()
    grid = cfg.image_side // cfg.patch_size
    for idx in mask.masked:
        r, c = divmod(int(idx), grid)
        sl = np.s_[:, r * cfg.patch_size:(r + 1) * cfg.patch_size,
                   c * cfg.patch_size:(c + 1) * cfg.patch_size]
        perturbed[sl] = rng.standard_normal(perturbed[sl].shape) * 50.0
    again = encode(model, perturbed, mask, "x").data
    report(6, np.array_equal(base, again),
           "encoder output bit-identical under arbitrary masked-pixel perturbations")


def test_criterion_07_ga_sampling():
    start = time.time()
    # (a) mutation-rate arithmetic
    rate_ok = mutation_rate(100, 5000) == 0.0008
    # (b) repair band over 10^4 invocations
    rng = np.random.default_rng(4)
    band_ok = True
    for _ in range(10_000):
        bits = np.zeros(400, dtype=bool)
        bits[rng.choice(400, size=int(rng.integers(0, 400)), replace=False)] = True
        repair(bits, 100, rng)
        if not 90 <= bits.sum() <= 110:
            band_ok = False
            break
    # (c) dispersion oracle: 450 clustered + 50 dispersed, GA vs random, 10 seeds
    wins = 0
    for seed in range(10):
        srng = np.random.default_rng(100 + seed)
        lons = np.concatenate([srng.normal(10.0, 0.2, 450), srng.uniform(-170, 170, 50)])
        lats = np.concatenate([srng.normal(45.0, 0.2, 450), srng.uniform(-60, 60, 50)])
        cfg = GaConfig(target_size=100, generations=500, population_size=10,
                       crossover_rate=0.5, seed=seed)
        idx, _, _ = evolve_stratum(np.column_stack([lons, lats]), cfg)
        ga_mean = dense_distance_oracle(lons[idx], lats[idx]).mean()
        pick = np.random.default_rng(9000 + seed).choice(500, size=idx.size, replace=False)
        rnd_mean = dense_distance_oracle(lons[pick], lats[pick]).mean()
        wins += ga_mean > rnd_mean
    # (d) full retention of small strata
    small = np.column_stack([np.arange(80.0), np.zeros(80)])
    kept, _, _ = evolve_stratum(small, GaConfig(target_size=100, generations=10, seed=0))
    retention_ok = kept.tolist() == list(range(80))
    elapsed = time.time() - start
    ok = rate_ok and band_ok and wins >= 9 and retention_ok and elapsed < 180.0
    report(7, ok, f"mutation rate 0.0008, repair band [90,110] over 1e4 draws, "
                  f"GA beats random {wins}/10 seeds, small strata retained ({elapsed:.1f}s)")


def test_criterion_08_haversine():
    anti = haversine((0.0, 0.0), (180.0, 0.0))
    ok = abs(anti - 20015.09) <= 0.01 and haversine((12.0, -7.0), (12.0, -7.0)) == 0.0
    # the kernel the sampler runs: pairs (0, 1) antipodal, (0, 2) coincident, (0, 3) a quarter circle
    km = pair_km(unit_vectors(np.array([0.0, 180.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 90.0])))
    ok = ok and abs(km[0] - 20015.09) <= 0.01 and km[1] == 0.0 and abs(km[2] - 10007.54) <= 0.01
    report(8, ok, f"antipodal equatorial distance {anti:.2f} km (sampler {km[0]:.2f} km), "
                  f"coincident points {km[1]:g} km, quarter circle {km[2]:.2f} km")


def test_criterion_09_compute_accounting():
    rng = np.random.default_rng(5)
    exact = True
    for cfg in (mini_config(), mini_config(patch_size=4, num_slots=3, num_experts=3,
                                           heads=4, mask_ratio=0.3)):
        model = init_model(cfg)
        x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
        y = rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side))
        with FlopCounter() as counter:
            forward(model, x, y, seed=0)
        analytic, _ = forward_flops(cfg)
        exact = exact and counter.total == analytic
    profiles = [profile(CsmoeConfig(patch_size=ps)) for ps in (32, 28, 16, 14)]
    params = [p.params for p in profiles]
    flops = [p.flops for p in profiles]
    c2c = [p.c2c for p in profiles]
    ordering = (
        all(a >= b for a, b in zip(params, params[1:]))
        and all(a < b for a, b in zip(flops, flops[1:]))
        and all(a > b for a, b in zip(c2c, c2c[1:]))
    )
    formula = round(c2c_ratio(277e6, 2.92e9), 2) == 94.86
    ratio = profiles[0].flops / 2.92e9  # soft target: reported, not asserted
    report(9, exact and ordering and formula,
           f"instrumented == analytic FLOPs, patch-size orderings hold, C2C formula gives 94.86; "
           f"rho=32 FLOPs {profiles[0].flops / 1e9:.2f}B = {ratio:.2f}x the reported 2.92B "
           f"(soft target, factor-2 band {'met' if 0.5 <= ratio <= 2.0 else 'NOT met'})")


def test_criterion_10_tokenizer():
    rng = np.random.default_rng(6)
    roundtrip_ok = True
    for _ in range(200):
        patch = int(rng.integers(1, 6))
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        channels = int(rng.integers(1, 4))
        img = rng.standard_normal((channels, rows * patch, cols * patch))
        if not np.array_equal(unpatchify(patchify(img, patch), patch, (rows, cols)), img):
            roundtrip_ok = False
            break
    from csmoe.tokenizer import split_tile

    _, rep = split_tile(np.zeros((1, 1068, 1068)), 120)
    tile_ok = rep.kept == 64
    partition_ok = True
    for _ in range(1000):
        p = int(rng.integers(1, 80))
        ratio = float(rng.uniform(0.05, 0.95))
        pair = sample_masks(p, ratio, int(rng.integers(0, 2**31)))
        merged = np.sort(np.concatenate([pair.masked, pair.unmasked]))
        if not (np.array_equal(merged, np.arange(p))
                and len(pair.masked) == int(np.floor(ratio * p + 0.5))):
            partition_ok = False
            break
    report(10, roundtrip_ok and tile_ok and partition_ok,
           "200 patchify roundtrips exact, 1068px tile yields 64 cells, 1000 mask partitions hold")


def test_criterion_11_retrieval():
    toy = retrieval_f1({"A", "B"}, [{"A", "B"}, {"A", "C"}], k=2)
    toy_ok = toy == 0.75
    rng = np.random.default_rng(7)
    query = {"A", "C"}
    retrieved = [{"A"}, {"B", "C"}, {"A", "C", "D"}]
    base = retrieval_f1(query, retrieved, k=3)
    perm = dict(zip("ABCD", rng.permutation(list("ABCD"))))
    remap = lambda s: {perm[v] for v in s}
    perm_ok = retrieval_f1(remap(query), [remap(r) for r in retrieved], k=3) == base
    q = rng.standard_normal((3, 6))
    g = rng.standard_normal((12, 6))
    rescale_ok = retrieve(q, g, k=4) == retrieve(5.0 * q, g * rng.uniform(0.2, 8.0, (12, 1)), k=4)
    report(11, toy_ok and perm_ok and rescale_ok,
           f"toy score {toy}, F1 invariant to label relabeling, ranking invariant to rescaling")


def _mini_run_config(path, **trainer_overrides):
    trainer = {"epochs": 8, "batch_size": 2, "lr": 1e-3, "warmup_frac": 0.05,
               "val_fraction": 0.05}
    trainer.update(trainer_overrides)
    cfg = {
        "model": {
            "patch_size": 8, "image_side": 16, "channels_x": 2, "channels_y": 3,
            "enc_dim": 16, "dec_dim": 8, "enc_layers_modality": 1,
            "enc_layers_shared": 1, "dec_layers": 1, "num_slots": 2,
            "heads": 2, "dec_heads": 2, "proj_dim": 8, "seed": 0,
        },
        "trainer": trainer,
    }
    Path(path).write_text(json.dumps(cfg))
    return str(path)


def test_criterion_12_smoke_training(tmp_path):
    start = time.time()
    cfg = _mini_run_config(tmp_path / "cfg.json", epochs=8, schedule_epochs=8)
    data = tmp_path / "data"
    full = tmp_path / "full.ckpt"
    log = tmp_path / "loss.jsonl"
    assert main(["pretrain-toy", "--config", cfg, "--data-dir", str(data),
                 "--checkpoint", str(full), "--log", str(log),
                 "--synthesize", "8", "--seed", "0"]) == 0
    steps = [json.loads(l) for l in log.read_text().splitlines() if "step" in json.loads(l)]
    decreased = len(steps) >= 30 and steps[29]["total"] < steps[0]["total"]
    half_cfg = _mini_run_config(tmp_path / "half.json", epochs=4, schedule_epochs=8)
    half = tmp_path / "half.ckpt"
    assert main(["pretrain-toy", "--config", half_cfg, "--data-dir", str(data),
                 "--checkpoint", str(half), "--log", str(tmp_path / "h.jsonl"),
                 "--seed", "0"]) == 0
    resumed_cfg = _mini_run_config(tmp_path / "resume.json", epochs=8, schedule_epochs=8)
    resumed = tmp_path / "resumed.ckpt"
    assert main(["pretrain-toy", "--config", resumed_cfg, "--data-dir", str(data),
                 "--checkpoint", str(resumed), "--log", str(tmp_path / "r.jsonl"),
                 "--resume", str(half), "--seed", "0"]) == 0
    resume_ok = resumed.read_bytes() == full.read_bytes()
    elapsed = time.time() - start
    ok = decreased and resume_ok and elapsed < 120.0
    report(12, ok, f"loss step 1 {steps[0]['total']:.4f} -> step 30 {steps[29]['total']:.4f}, "
                   f"resume reproduces the full run bit-exactly ({elapsed:.1f}s)")


def test_criterion_13_cli_determinism(tmp_path):
    outcomes = {}

    def run_twice(label, argv_fn, outputs):
        blobs = []
        for tag in ("one", "two"):
            workdir = tmp_path / f"{label}_{tag}"
            workdir.mkdir()
            assert main(argv_fn(workdir)) == 0, label
            blobs.append(b"".join((workdir / name).read_bytes() for name in outputs))
        outcomes[label] = blobs[0] == blobs[1]

    cfg = _mini_run_config(tmp_path / "cfg.json", epochs=2, schedule_epochs=2)

    # sample
    rng = np.random.default_rng(0)
    lines = ["id,lon_min,lat_min,lon_max,lat_max"]
    for i in range(140):
        lon, lat = float(rng.uniform(0.2, 9.8)), float(rng.uniform(0.2, 9.8))
        lines.append(f"t{i:03d},{lon},{lat},{lon},{lat}")
    archive = tmp_path / "archive.csv"
    archive.write_text("\n".join(lines) + "\n")
    from csmoe.sampler import ClassRaster, save_grid

    raster = ClassRaster(lat_max=10.0, lon_min=0.0, dlat=10.0, dlon=10.0,
                         grid=np.array([[1]], dtype=np.uint16), nodata=0)
    save_grid(tmp_path / "c.grid", raster)
    save_grid(tmp_path / "t.grid", raster)
    run_twice("sample", lambda d: [
        "sample", "--archive", str(archive), "--climate", str(tmp_path / "c.grid"),
        "--thematic", str(tmp_path / "t.grid"), "--out", str(d / "sel.csv"),
        "--report", str(d / "rep.json"), "--iters", "15", "--pop", "4", "--seed", "7",
    ], ["sel.csv", "rep.json"])

    # split-tiles
    tiles = tmp_path / "tiles"
    tiles.mkdir()
    from csmoe.fileio import save_tnsr

    save_tnsr(tiles / "t.tnsr", np.random.default_rng(1).standard_normal((1, 250, 130)))
    run_twice("split-tiles", lambda d: [
        "split-tiles", "--input", str(tiles), "--output", str(d), "--patch", "120",
    ], ["t_p0000.tnsr", "t_report.json"])

    # pretrain-toy (fresh synthetic data per run directory)
    run_twice("pretrain-toy", lambda d: [
        "pretrain-toy", "--config", cfg, "--data-dir", str(d / "data"),
        "--checkpoint", str(d / "m.ckpt"), "--log", str(d / "log.jsonl"),
        "--synthesize", "4", "--seed", "0",
    ], ["m.ckpt", "m.ckpt.opt", "log.jsonl"])

    # grad-check
    run_twice("grad-check", lambda d: [
        "grad-check", "--config", cfg, "--seed", "7", "--max-checked", "120",
        "--out", str(d / "report.json"),
    ], ["report.json"])

    # eval-retrieval
    qdir, gdir = tmp_path / "q", tmp_path / "g"
    qdir.mkdir(), gdir.mkdir()
    save_tnsr(qdir / "q1.tnsr", np.array([1.0, 0.0]))
    save_tnsr(gdir / "g1.tnsr", np.array([1.0, 0.1]))
    save_tnsr(gdir / "g2.tnsr", np.array([0.0, 1.0]))
    labels = tmp_path / "labels.csv"
    labels.write_text("id,labels\nq1,A\ng1,A\ng2,B\n")
    run_twice("eval-retrieval", lambda d: [
        "eval-retrieval", "--queries", str(qdir), "--gallery", str(gdir),
        "--labels", str(labels), "--task", "S1>S2", "--k", "2",
        "--out", str(d / "res.json"),
    ], ["res.json"])

    # flops
    run_twice("flops", lambda d: [
        "flops", "--config", cfg, "--out", str(d / "prof.json"),
    ], ["prof.json"])

    ok = all(outcomes.values())
    report(13, ok, "byte-identical reruns for " + ", ".join(sorted(outcomes)))
