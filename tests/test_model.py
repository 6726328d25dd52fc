import numpy as np
import pytest

from csmoe.errors import ConfigError, DimensionError, FormatError, ParameterError
from csmoe.model import (
    CsmoeConfig,
    build_embedding,
    convert_v1,
    decode,
    encode,
    forward,
    init_model,
    load_checkpoint,
    load_section,
    manifest_header,
    parameter_manifest,
    save_checkpoint,
    truncated_normal,
)
from csmoe.numerics import Tensor, backward, zero_grads
from csmoe.tokenizer import MaskPair, sample_masks

from util import finite_difference, mini_config, rel_err, weighted_sum


def full_mask(num_patches, ratio=0.5):
    return MaskPair(masked=np.array([], dtype=np.int64),
                    unmasked=np.arange(num_patches), ratio=ratio, seed=0)


def make_images(cfg, seed=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
    y = rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side))
    return x, y


# ---------------------------------------------------------------------------
# config and init
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        CsmoeConfig(patch_size=32, image_side=100)
    with pytest.raises(ConfigError):
        CsmoeConfig(enc_dim=100, heads=12)
    with pytest.raises(ConfigError):
        CsmoeConfig(mask_ratio=1.2)
    with pytest.raises(ConfigError, match="bogus"):
        load_section(CsmoeConfig, {"patch_size": 32, "bogus": 1}, "model")


@pytest.mark.parametrize("key, overrides", [
    ("num_experts", {"num_slots": 3, "num_experts": 2}),  # experts must share the slots evenly
    ("num_experts", {"num_slots": 2, "num_experts": 4}),
    ("expert_hidden", {"expert_hidden": -1}),
    ("dec_hidden", {"dec_hidden": -8}),
    ("seed", {"seed": -1}),
    ("patch_size", {"patch_size": 0}),  # no modulo by zero
    ("image_side", {"image_side": 0}),
    ("heads", {"heads": 0}),
    ("mask_ratio 0.4 masks none of the 1 patches", {"patch_size": 8, "image_side": 8, "mask_ratio": 0.4}),
])
def test_config_rejects_layouts_the_model_cannot_build(key, overrides):
    with pytest.raises(ConfigError, match=key):
        CsmoeConfig(**overrides)


@pytest.mark.parametrize("key, value, ok", [
    ("patch_size", 16, True), ("patch_size", True, False), ("patch_size", 16.0, False),
    ("patch_size", "16", False), ("mask_ratio", 0.25, True), ("mask_ratio", "0.5", False),
    ("route_temperature", 2, True), ("route_temperature", False, False), ("seed", None, False),
    ("mask_ratio", float("nan"), False), ("route_temperature", float("inf"), False),
])
def test_load_section_checks_each_value_against_its_default_type(key, value, ok):
    # an int field takes an int but not a bool or a float; a float field takes
    # an int or a finite float
    if ok:
        assert getattr(load_section(CsmoeConfig, {key: value}, "cfg.json"), key) == value
    else:
        with pytest.raises(ConfigError, match=f"^cfg.json: .*{key}"):
            load_section(CsmoeConfig, {key: value}, "cfg.json")


def test_config_defaults_resolve():
    cfg = CsmoeConfig()
    assert cfg.num_experts == cfg.num_slots == 8
    assert cfg.expert_hidden == cfg.enc_dim == 768
    assert cfg.dec_hidden == cfg.dec_dim == 256
    assert cfg.num_patches == 49


def test_init_deterministic():
    cfg = mini_config()
    a = init_model(cfg)
    b = init_model(cfg)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data), name


def test_init_draws_each_v1_tensor_in_v1_order_into_its_v2_slice():
    # v1 drew embed_x, embed_y, then the first block's wq, wk, wv, wo and
    # slot table, then expert 0's w1 and w2, expert 1's w1 and w2, ...
    cfg = mini_config(num_slots=4, num_experts=2)
    model = init_model(cfg)
    rng = np.random.default_rng(cfg.seed)
    d, h = cfg.enc_dim, cfg.expert_hidden
    draws = [truncated_normal(rng, shape, 0.02) for shape in
             [(cfg.token_dim("x"), d), (cfg.token_dim("y"), d)] + [(d, d)] * 4
             + [(4, d), (d, h), (h, d), (d, h), (h, d)]]
    embed_x, embed_y, wq, wk, wv, wo, slots, w1_0, w2_0, w1_1, w2_1 = draws
    p = {name: t.data for name, t in model.params.items()}
    assert np.array_equal(p["embed_x.weight"], embed_x) and np.array_equal(p["embed_y.weight"], embed_y)
    assert np.array_equal(p["enc_x.0.attn.wqvk"], np.concatenate([wq, wv, wk], axis=1))
    assert np.array_equal(p["enc_x.0.attn.wo"], wo)
    assert np.array_equal(p["enc_x.0.moe.slots"], slots)
    assert np.array_equal(p["enc_x.0.moe.experts.w1"], np.stack([w1_0, w1_1]))
    assert np.array_equal(p["enc_x.0.moe.experts.w2"], np.stack([w2_0, w2_1]))


def test_convert_v1_places_every_v1_tensor_once():
    cfg = mini_config(num_slots=4, num_experts=2)
    v1 = manifest_header(cfg, 1)
    # tag each v1 element with a distinct value and find every one in v2
    offsets = np.cumsum([0] + [int(np.prod(shape)) for _, shape in v1])
    arrays = [np.arange(lo, hi, dtype=float).reshape(shape)
              for (_, shape), lo, hi in zip(v1, offsets[:-1], offsets[1:])]
    v2 = convert_v1(cfg, arrays)
    assert [list(a.shape) for a in v2] == [shape for _, shape in manifest_header(cfg)]
    assert np.array_equal(np.sort(np.concatenate([a.ravel() for a in v2])), np.arange(offsets[-1]))
    named = dict(zip((name for name, _ in manifest_header(cfg)), v2))
    old = dict(zip((name for name, _ in v1), arrays))
    assert np.array_equal(named["enc_y.0.attn.bqv"], np.concatenate([old["enc_y.0.attn.bq"],
                                                                      old["enc_y.0.attn.bv"]]))
    assert np.array_equal(named["dec_x.0.attn.wqvk"][:, 16:], old["dec_x.0.attn.wk"])
    assert np.array_equal(named["enc_shared.0.moe.experts.b2"][1], old["enc_shared.0.moe.expert1.b2"])


def test_init_token_count_vit_scale():
    cfg = CsmoeConfig(patch_size=32, image_side=224)
    assert cfg.num_patches == 49
    assert parameter_manifest(cfg)[0][1] == (32 * 32 * 2, 768)


def test_init_zero_and_unit_groups():
    model = init_model(mini_config())
    assert np.all(model.cls_token["x"].data == 0)
    assert np.all(model.mask_token["y"].data == 0)
    assert np.all(model.params["enc_x.0.norm1.gain"].data == 1)
    assert np.all(model.params["enc_x.0.attn.bqv"].data == 0)


def test_cross_sensor_blocks_shared_by_reference():
    model = init_model(mini_config())
    shared = model.enc_shared[0].attention.wqvk
    assert shared is model.params["enc_shared.0.attn.wqvk"]
    shared.data[0, 0] = 123.0
    # the same object is observed through both modality paths
    assert model.enc_shared[0].attention.wqvk.data[0, 0] == 123.0


def test_parameter_count_matches_runtime_enumeration():
    for cfg in (mini_config(), mini_config(patch_size=4, num_slots=4, num_experts=2, proj_dim=4)):
        model = init_model(cfg)
        runtime = sum(p.size for p in model.params.values())
        assert sum(int(np.prod(shape)) for _, shape, _ in parameter_manifest(cfg)) == runtime


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------


def test_encode_sequence_lengths():
    cfg = mini_config()
    model = init_model(cfg)
    x, _ = make_images(cfg)
    out = encode(model, x, full_mask(cfg.num_patches), "x")
    assert out.shape == (cfg.num_patches + 1, cfg.enc_dim)
    mask = sample_masks(cfg.num_patches, 0.5, 0)
    out = encode(model, x, mask, "x")
    assert out.shape == (len(mask.unmasked) + 1, cfg.enc_dim)


def test_encode_vit_scale_sequence_length():
    cfg = CsmoeConfig(patch_size=32, image_side=224, enc_dim=16, dec_dim=8,
                      enc_layers_modality=1, enc_layers_shared=1, dec_layers=1,
                      num_slots=2, heads=2, dec_heads=2, proj_dim=8)
    model = init_model(cfg)
    mask = sample_masks(49, 0.5, 0)
    assert len(mask.masked) == 25
    x = np.random.default_rng(0).standard_normal((2, 224, 224))
    out = encode(model, x, mask, "x")
    assert out.shape == (25, 16)  # 24 visible + CLS


def test_encode_modalities_differ():
    cfg = mini_config(channels_y=2)  # same shape input for both paths
    model = init_model(cfg)
    x, _ = make_images(cfg)
    mask = sample_masks(cfg.num_patches, 0.5, 0)
    out_x = encode(model, x, mask, "x")
    out_y = encode(model, x, mask, "y")
    assert not np.allclose(out_x.data, out_y.data)


def test_encode_ignores_masked_pixels_bit_exactly():
    cfg = mini_config()
    model = init_model(cfg)
    x, _ = make_images(cfg)
    mask = sample_masks(cfg.num_patches, 0.5, 3)
    base = encode(model, x, mask, "x").data
    perturbed = x.copy()
    # patch 8x8 grid is 2x2; rewrite every masked patch completely
    for idx in mask.masked:
        r, c = divmod(int(idx), 2)
        perturbed[:, r * 8:(r + 1) * 8, c * 8:(c + 1) * 8] = 77.0
    again = encode(model, perturbed, mask, "x").data
    assert np.array_equal(base, again)


def test_encode_rejects_wrong_modality_shape():
    cfg = mini_config()
    model = init_model(cfg)
    _, y = make_images(cfg)
    with pytest.raises(DimensionError):
        encode(model, y, full_mask(cfg.num_patches), "x")
    with pytest.raises(ParameterError):
        encode(model, y, full_mask(cfg.num_patches), "z")


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


def test_decode_full_visibility_never_uses_mask_token():
    cfg = mini_config()
    model = init_model(cfg)
    x, _ = make_images(cfg)
    mask = full_mask(cfg.num_patches)
    encoded = encode(model, x, mask, "x")
    model.mask_token["x"].data[:] = np.nan  # would poison the output if used
    out = decode(model, {"x": encoded}, {"x": mask}, "x")["x"]
    assert np.isfinite(out.data).all()


def test_decode_emits_all_positions():
    cfg = mini_config()
    model = init_model(cfg)
    x, _ = make_images(cfg)
    for seed in (0, 1, 2):
        mask = sample_masks(cfg.num_patches, 0.5, seed)
        encoded = encode(model, x, mask, "x")
        out = decode(model, {"x": encoded}, {"x": mask}, "y")["x"]
        assert out.shape == (cfg.num_patches, cfg.token_dim("y"))


def test_decode_mask_consistency_check():
    cfg = mini_config()
    model = init_model(cfg)
    x, _ = make_images(cfg)
    mask = sample_masks(cfg.num_patches, 0.5, 0)
    encoded = encode(model, x, mask, "x")
    other = full_mask(cfg.num_patches)
    with pytest.raises(DimensionError):
        decode(model, {"x": encoded}, {"x": other}, "x")


def test_decode_of_both_sources_in_one_pass_matches_separate_passes():
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)
    masks = {"x": sample_masks(cfg.num_patches, 0.5, 3), "y": sample_masks(cfg.num_patches, 0.5, 4)}
    encoded = {"x": encode(model, x, masks["x"], "x"), "y": encode(model, y, masks["y"], "y")}
    for target in ("x", "y"):
        joint = decode(model, encoded, masks, target)
        assert list(joint) == ["x", "y"]
        for source in ("x", "y"):
            alone = decode(model, {source: encoded[source]}, {source: masks[source]}, target)[source]
            assert np.abs(joint[source].data - alone.data).max() <= 1e-12


def test_encode_decode_path_gradient_check():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(13)
    # healthier scale than 0.02 for finite differences
    for p in model.params.values():
        p.data = rng.uniform(-0.3, 0.3, p.shape)
    model.params["enc_x.0.norm1.gain"].data[:] = 1.0
    x, _ = make_images(cfg)
    mask = sample_masks(cfg.num_patches, 0.5, 1)
    w = rng.uniform(-1, 1, (cfg.num_patches, cfg.token_dim("x")))

    def run():
        out = decode(model, {"x": encode(model, x, mask, "x")}, {"x": mask}, "x")["x"]
        return weighted_sum(out, w).item()

    zero_grads(model.params)
    out = decode(model, {"x": encode(model, x, mask, "x")}, {"x": mask}, "x")["x"]
    backward(weighted_sum(out, w))
    for name in ("embed_x.weight", "cls_x", "mask_token_x", "dec_embed_x.weight",
                 "enc_x.0.moe.slots", "head_x_from_x.weight"):
        t = model.params[name]
        (numeric,) = finite_difference(run, [t])
        assert rel_err(t.grad, numeric) <= 1e-4, name


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_artifact_inventory():
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)
    art = forward(model, x, y, seed=0)
    assert len(art.recon) == 4
    per_path = cfg.enc_layers_modality + cfg.enc_layers_shared
    assert len(art.routing["x"]) == per_path
    assert len(art.routing["y"]) == per_path
    assert art.proj_cls["x"].shape == (1, cfg.proj_dim)
    assert art.recon[("y", "x")].shape == (cfg.num_patches, cfg.token_dim("y"))


def test_batched_forward_matches_each_unbatched_pair():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(21)
    xs = rng.standard_normal((8, cfg.channels_x, cfg.image_side, cfg.image_side))
    ys = rng.standard_normal((8, cfg.channels_y, cfg.image_side, cfg.image_side))
    seeds = [int(s) for s in rng.integers(0, 2**32, 8)]
    batch = forward(model, xs, ys, seed=seeds)

    def close(batched, single):
        return np.abs(batched - single).max() <= 1e-12

    for j, seed in enumerate(seeds):
        one = forward(model, xs[j], ys[j], seed=seed)
        for m in ("x", "y"):
            assert np.array_equal(batch.masks[m].unmasked[j], one.masks[m].unmasked)
            assert close(batch.encoded[m].data[j], one.encoded[m].data)
            assert close(batch.proj_cls[m].data[j], one.proj_cls[m].data)
            assert len(batch.routing[m]) == len(one.routing[m])
            for b_route, o_route in zip(batch.routing[m], one.routing[m]):
                assert close(b_route.dispatch.data[j], o_route.dispatch.data)
        for key in one.recon:
            assert close(batch.recon[key].data[j], one.recon[key].data)
    with pytest.raises(DimensionError):  # a stack of images needs one seed per sample
        forward(model, xs, ys, seed=0)
    with pytest.raises(DimensionError):
        forward(model, xs[:2], ys[:2], seed=seeds)


def test_forward_deterministic():
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)
    a = forward(model, x, y, seed=5)
    b = forward(model, x, y, seed=5)
    for key in a.recon:
        assert np.array_equal(a.recon[key].data, b.recon[key].data)


def test_forward_masks_are_independent_streams():
    cfg = mini_config(image_side=32)  # 16 patches so collisions are unlikely
    model = init_model(cfg)
    x, y = make_images(cfg)
    art = forward(model, x, y, seed=0)
    assert not np.array_equal(art.masks["x"].masked, art.masks["y"].masked)


def test_cross_reconstruction_depends_only_on_source_mask():
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)
    base = forward(model, x, y, seed=0)
    other = forward(model, x, y, seed=0, mask_seed_y=999)
    assert not np.array_equal(base.masks["y"].masked, other.masks["y"].masked)
    # Y-from-X uses only the X mask, so changing the Y stream leaves it bit-identical
    assert np.array_equal(base.recon[("y", "x")].data, other.recon[("y", "x")].data)
    assert not np.array_equal(base.recon[("x", "y")].data, other.recon[("x", "y")].data)


def test_shared_encoder_gets_gradients_from_both_paths():
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)

    def grads_for(modality):
        zero_grads(model.params)
        art = forward(model, x, y, seed=0)
        loss = weighted_sum(art.recon[(modality, modality)], art.recon[(modality, modality)])
        backward(loss)
        g = model.params["enc_shared.0.attn.wqvk"].grad
        return g.copy()

    gx = grads_for("x")
    gy = grads_for("y")
    assert np.abs(gx).max() > 0 and np.abs(gy).max() > 0
    assert not np.array_equal(gx, gy)


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def test_build_embedding_constant_rows_agree():
    seq = np.tile([[1.0, 2.0, 3.0]], (4, 1))
    for strategy in ("avg_wo_cls", "avg_all", "only_cls"):
        assert np.allclose(build_embedding(seq, strategy), [1.0, 2.0, 3.0])


def test_build_embedding_norm_cls_unit_length():
    seq = np.random.default_rng(1).standard_normal((3, 8))
    out = build_embedding(seq, "norm_cls")
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9


def test_build_embedding_only_cls_selects_row_zero():
    seq = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(build_embedding(seq, "only_cls"), [1.0, 2.0])


def test_build_embedding_projection_path():
    cfg = mini_config()
    model = init_model(cfg)
    seq = np.random.default_rng(2).standard_normal((4, cfg.enc_dim))
    out = build_embedding(seq, "norm_proj_cls", projection=model.proj)
    assert out.shape == (cfg.proj_dim,)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-9
    with pytest.raises(ParameterError):
        build_embedding(seq, "norm_proj_cls")


def test_build_embedding_rejects_a_zero_cls_or_projected_row():
    # the projection reads only the first feature, so a unit CLS row orthogonal to it projects to zero
    w, b = Tensor(np.eye(3, 2) * [1.0, 0.0]), Tensor(np.zeros(2))
    seqs = np.ones((2, 4, 3))
    assert np.all(np.isfinite(build_embedding(seqs, "norm_proj_cls", projection=(w, b))))
    seqs[1, 0] = [0.0, 2.0, -1.0]
    assert np.all(np.isfinite(build_embedding(seqs, "norm_cls")))
    with pytest.raises(DimensionError, match="projected CLS row has zero norm"):
        build_embedding(seqs, "norm_proj_cls", projection=(w, b))
    seqs[1, 0] = 0.0
    for strategy in ("norm_cls", "norm_proj_cls"):
        with pytest.raises(DimensionError, match="^CLS row has zero norm"):
            build_embedding(seqs, strategy, projection=(w, b))


def test_build_embedding_batch_axes_match_single_sequences():
    cfg = mini_config()
    model = init_model(cfg)
    seqs = np.random.default_rng(4).standard_normal((2, 3, 5, cfg.enc_dim))
    for strategy in ("avg_wo_cls", "avg_all", "only_cls", "norm_cls", "norm_proj_cls"):
        batched = build_embedding(seqs, strategy, projection=model.proj)
        single = [[build_embedding(s, strategy, projection=model.proj) for s in row] for row in seqs]
        np.testing.assert_allclose(batched, single, rtol=0, atol=1e-15)
    seqs[1, 2, 0] = 0.0  # one zero CLS row in the batch
    with pytest.raises(DimensionError):
        build_embedding(seqs, "norm_cls")


def test_build_embedding_rejects_empty():
    with pytest.raises(DimensionError):
        build_embedding(np.zeros((0, 4)), "avg_all")
    with pytest.raises(ParameterError):
        build_embedding(np.zeros((2, 4)), "bogus")


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = mini_config()
    model = init_model(cfg)
    x, y = make_images(cfg)
    before = forward(model, x, y, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    after = forward(again, x, y, seed=0)
    for key in before.recon:
        assert np.array_equal(before.recon[key].data, after.recon[key].data)
    assert again.cfg == cfg


def test_checkpoint_truncated_file(tmp_path):
    cfg = mini_config()
    model = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    (tmp_path / "cut.ckpt").write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "cut.ckpt")
    (tmp_path / "junk.ckpt").write_bytes(b'{"format": "nope"}\n')
    with pytest.raises(FormatError):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_checkpoint_config_drives_grid(tmp_path):
    cfg = CsmoeConfig(patch_size=16, image_side=224, enc_dim=16, dec_dim=8,
                      enc_layers_modality=1, enc_layers_shared=1, dec_layers=1,
                      num_slots=2, heads=2, dec_heads=2, proj_dim=8)
    model = init_model(cfg)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.cfg.num_patches == 196


def test_forward_with_everything_masked():
    # ratio 0.9 over 4 patches rounds to 4 masked: the encoder sees only CLS
    cfg = mini_config(mask_ratio=0.9)
    model = init_model(cfg)
    x, y = make_images(cfg)
    art = forward(model, x, y, seed=0)
    assert len(art.masks["x"].unmasked) == 0
    assert art.encoded["x"].shape == (1, cfg.enc_dim)
    for recon in art.recon.values():
        assert recon.shape[0] == cfg.num_patches
        assert np.isfinite(recon.data).all()
