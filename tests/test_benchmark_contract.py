"""The package surface that ``benchmark/bench_workloads.py`` relies on.

Each call below has the positional and keyword shape the benchmark uses, at
mini scale, so a refactor that would break a benchmark run fails here first.
"""

import contextlib
import importlib
import io
import json
import operator

import numpy as np

from csmoe import cli, evaluation, fileio, model as M, numerics, tokenizer, trainer as T

from util import mini_config, write_sampling_inputs

MINI = dict(patch_size=8, image_side=16, channels_x=2, channels_y=3, enc_dim=16, dec_dim=8,
            enc_layers_modality=1, enc_layers_shared=1, dec_layers=1, num_slots=2, heads=2,
            dec_heads=2, proj_dim=8)

# every function the benchmark's tracer wraps by name and that exists today (the
# tracer skips a missing name, so a rename would silently empty its metric)
TRACED = {
    "tokenizer": ["patchify", "sample_masks"],
    "softmoe": ["route", "moe_forward", "attention_forward", "block_forward", "plain_block_forward"],
    "model": ["init_model", "forward", "encode", "decode", "build_embedding", "save_checkpoint",
              "load_checkpoint"],
    "losses": ["loss_total", "loss_umr", "loss_cmr", "rec_loss", "loss_mi", "loss_rep", "loss_ent"],
    "trainer": ["train", "AdamW.step", "save_optimizer_state"],
    "evaluation": ["retrieve", "dataset_retrieval_f1"],
    "sampler": ["load_archive", "load_grid", "generate_descriptors", "stratify", "sample_archive",
                "selection_fitness", "repair", "write_selection", "evolve_stratum"],
    "cli": ["main"],
}


def test_every_traced_function_exists():
    for module, names in TRACED.items():
        mod = importlib.import_module(f"csmoe.{module}")
        for name in names:
            assert callable(operator.attrgetter(name)(mod)), f"csmoe.{module}.{name}"


def test_training_checkpoint_and_flop_calls(tmp_path):
    cfg = M.CsmoeConfig(**MINI, seed=3)
    rng = np.random.default_rng(0)
    side = cfg.image_side
    pairs = [(f"pair{i:04d}", rng.standard_normal((cfg.channels_x, side, side)),
              rng.standard_normal((cfg.channels_y, side, side))) for i in range(4)]
    tcfg = T.TrainerConfig(epochs=1, batch_size=2, lr=5e-4, val_fraction=0.0)
    model = M.init_model(cfg)
    assert isinstance(model.enc_modality, dict) and len(model.enc_shared) == cfg.enc_layers_shared
    T.train(model, pairs[:2], tcfg, 3)
    log = io.StringIO()
    result = T.train(model, pairs, tcfg, 3, log_fh=log)
    assert isinstance(result, tuple) and len(result) == 2
    optimizer, _ = result
    steps = [rec for rec in map(json.loads, log.getvalue().splitlines()) if "step" in rec]
    assert len(steps) == 2 and all(np.isfinite(v) for rec in steps for v in rec.values()
                                   if isinstance(v, float))

    ckpt = str(tmp_path / "small.ckpt")
    M.save_checkpoint(model, ckpt)
    T.save_optimizer_state(ckpt + ".opt", optimizer, tcfg.epochs, model)
    loaded = M.load_checkpoint(ckpt)
    assert all(np.array_equal(loaded.params[k].data, p.data) for k, p in model.params.items())
    opt = T.AdamW(loaded.params, lr=5e-4)
    assert T.load_optimizer_state(ckpt + ".opt", opt, loaded) == 1 and opt.step_count == 2

    _, x, y = pairs[0]
    with numerics.FlopCounter() as fc:
        M.forward(loaded, x, y, seed=3)
    total, breakdown = evaluation.forward_flops(cfg)
    assert fc.total == total and isinstance(dict(breakdown), dict)


def test_embedding_and_retrieval_calls(tmp_path):
    cfg = mini_config()
    model = M.init_model(cfg)
    mask = tokenizer.MaskPair(masked=np.array([], dtype=np.int64), unmasked=np.arange(cfg.num_patches),
                              ratio=cfg.mask_ratio, seed=0)
    image = np.random.default_rng(1).standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
    emb = np.asarray(M.build_embedding(M.encode(model, image, mask, "x"), "only_cls"))
    assert emb.shape == (cfg.enc_dim,) and np.isfinite(emb).all()

    rng = np.random.default_rng(2)
    gallery, queries = rng.standard_normal((20, 4)), rng.standard_normal((3, 4))
    path = tmp_path / "gallery.tnsr"
    fileio.save_tnsr(path, gallery)
    # the benchmark loads its gallery through numerics' one re-exported file function
    assert numerics.load_tnsr is fileio.load_tnsr
    gallery = numerics.load_tnsr(path)
    gallery_ids, query_ids = [f"g{i}" for i in range(20)], ["q0", "q1", "q2"]
    labels = {name: {f"class{i % 3}"} for i, name in enumerate(gallery_ids + query_ids)}
    ranked = evaluation.retrieve(queries, gallery, 5, query_ids=query_ids, gallery_ids=gallery_ids)
    assert [len(row) for row in ranked] == [5, 5, 5]
    retrieved = [[labels[gallery_ids[g]] for g in row] for row in ranked]
    f1 = evaluation.dataset_retrieval_f1([labels[q] for q in query_ids], retrieved, 5)
    assert 0.0 <= f1 <= 100.0


def test_sample_command_call(tmp_path):
    archive, climate, thematic = write_sampling_inputs(tmp_path, n_entries=40)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"ga": {"target_size": 10, "generations": 2, "stagnation_limit": 0}}))
    out, report = tmp_path / "selection.csv", tmp_path / "report.json"
    argv = ["sample", "--archive", str(archive), "--climate", str(climate), "--thematic", str(thematic),
            "--out", str(out), "--report", str(report), "--config", str(config), "--seed", "1", "--baseline"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0
    assert out.exists() and report.exists()
