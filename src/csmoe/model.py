"""The full two-modality masked-autoencoder stack with Soft MoE encoders.

Wiring per forward pass: each modality's image is patchified, patch-embedded
and masked with its own random mask, encoded by its modality-specific MoE
blocks and then by the cross-sensor MoE blocks (one shared parameter set
used by both paths). Plain transformer decoders rebuild all four
directions: each target modality is reconstructed both from its own
features and from the other modality's features, always under the source
features' mask. The encoded CLS rows are projected for the contrastive
objective.

Every function takes one pair or a batch through the same code: images may
carry leading batch axes in front of [C, H, W], and every sequence and
artifact then carries the same axes in front of its documented shape.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, DimensionError, FormatError, ParameterError, require
from .fileio import read_blocks, write_blocks
from .numerics import Tensor, concat_rows, linear, parameter, scatter_rows, stack, take, take_rows
from .softmoe import (
    AttentionParams,
    FeedForwardParams,
    LayerNormParams,
    MoeBlockParams,
    PlainBlockParams,
    SoftMoELayerParams,
    block_forward,
    plain_block_forward,
)
from .tokenizer import MaskPair, masked_count, patchify, positional_embedding, sample_masks

MODALITIES = ("x", "y")

# stream-splitting constant for the second modality's mask seed
MASK_STREAM_SPLIT = 0x9E3779B9

CHECKPOINT_FORMAT = "CSMOE-CKPT"
CHECKPOINT_VERSION = 2  # version 1 files still load, through convert_v1

INIT_STD = 0.02  # truncated-normal scale of every "weight" tensor

EMBEDDING_STRATEGIES = ("avg_wo_cls", "avg_all", "only_cls", "norm_cls", "norm_proj_cls")


@dataclass
class CsmoeConfig:
    patch_size: int = 32
    image_side: int = 224
    channels_x: int = 2
    channels_y: int = 10
    enc_dim: int = 768
    dec_dim: int = 256
    enc_layers_modality: int = 4
    enc_layers_shared: int = 2
    dec_layers: int = 4
    num_slots: int = 8
    num_experts: int = 0  # 0 resolves to num_slots
    heads: int = 12
    dec_heads: int = 8
    expert_hidden: int = 0  # 0 resolves to enc_dim
    dec_hidden: int = 0  # 0 resolves to dec_dim
    route_temperature: float = 1.0
    mask_ratio: float = 0.5
    proj_dim: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.num_experts == 0:
            self.num_experts = self.num_slots
        if self.expert_hidden == 0:
            self.expert_hidden = self.enc_dim
        if self.dec_hidden == 0:
            self.dec_hidden = self.dec_dim
        require([
            (self.patch_size >= 1 and self.image_side >= 1 and self.image_side % self.patch_size == 0,
             f"image_side {self.image_side} is not a positive multiple of patch_size {self.patch_size}"),
            (self.heads >= 1 and self.enc_dim % self.heads == 0,
             f"enc_dim {self.enc_dim} not divisible by {self.heads} heads"),
            (self.dec_heads >= 1 and self.dec_dim % self.dec_heads == 0,
             f"dec_dim {self.dec_dim} not divisible by {self.dec_heads} dec_heads"),
            (self.enc_dim >= 4 and self.enc_dim % 4 == 0,
             f"enc_dim must be a positive multiple of 4, got {self.enc_dim}"),
            (self.dec_dim >= 4 and self.dec_dim % 4 == 0,
             f"dec_dim must be a positive multiple of 4, got {self.dec_dim}"),
            (min(self.enc_layers_modality, self.enc_layers_shared, self.dec_layers) >= 1,
             "enc_layers_modality, enc_layers_shared and dec_layers must be >= 1"),
            (min(self.num_slots, self.num_experts) >= 1, "num_slots and num_experts must be >= 1"),
            (self.num_experts < 1 or self.num_slots % self.num_experts == 0,
             f"num_slots {self.num_slots} is not a multiple of num_experts {self.num_experts}: "
             f"every expert takes the same number of slots"),
            (self.expert_hidden >= 1,
             f"expert_hidden must be >= 0 (0 means enc_dim), got {self.expert_hidden}"),
            (self.dec_hidden >= 1, f"dec_hidden must be >= 0 (0 means dec_dim), got {self.dec_hidden}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
            (self.channels_x >= 1 and self.channels_y >= 1, "channels_x and channels_y must be >= 1"),
            (0.0 < self.mask_ratio < 1.0, f"mask_ratio {self.mask_ratio} outside (0, 1)"),
            (self.route_temperature > 0, f"route_temperature must be > 0, got {self.route_temperature}"),
            (self.proj_dim >= 1, f"proj_dim must be >= 1, got {self.proj_dim}"),
        ])
        require([(masked_count(self.num_patches, self.mask_ratio) >= 1,
                  f"mask_ratio {self.mask_ratio} masks none of the {self.num_patches} patches (it rounds "
                  f"{self.mask_ratio} x {self.num_patches} to 0): the reconstruction loss needs one")])

    @property
    def grid(self):
        side = self.image_side // self.patch_size
        return (side, side)

    @property
    def num_patches(self) -> int:
        return math.prod(self.grid)

    def channels(self, modality: str) -> int:
        return self.channels_x if modality == "x" else self.channels_y

    def token_dim(self, modality: str) -> int:
        return self.patch_size * self.patch_size * self.channels(modality)

    def image_shape(self, modality: str) -> tuple:
        """[C, H, W] of one image of ``modality``."""
        return (self.channels(modality), self.image_side, self.image_side)


_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a number", str: "a string"}


def check_image(path, arr: np.ndarray, cfg: CsmoeConfig, modality: str) -> np.ndarray:
    """``arr``, the image read from ``path``, if it has ``cfg``'s shape for
    ``modality`` and only finite pixels; otherwise a DataError naming the file."""
    want = cfg.image_shape(modality)
    if arr.shape != want:
        raise DataError(f"{path}: image shape {list(arr.shape)}, expected {list(want)} "
                        f"for modality {modality!r}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: image has non-finite pixels")
    return arr


def load_section(cls, data, where: str):
    """``cls(**data)`` for a flat config dataclass read from JSON.

    ``data`` must be an object whose keys are fields of ``cls``, each value
    of its default's type: an int field takes an int but not a bool, a float
    field a finite int or float. Any failure, the dataclass's own checks
    included, is a ConfigError that starts with ``where``.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object, got {data!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in data.items():
        kind = type(defaults[key])
        if type(value) not in ((int, float) if kind is float else (kind,)):
            raise ConfigError(f"{where}: key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{where}: key {key!r} must be finite, got {value!r}")
    try:
        return cls(**data)
    except (ConfigError, ParameterError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class CsmoeModel:
    cfg: CsmoeConfig
    params: dict  # name -> Tensor, in manifest order
    embed: dict  # modality -> Tensor [token_dim, enc_dim]
    cls_token: dict  # modality -> Tensor [1, enc_dim]
    enc_modality: dict  # modality -> list of MoeBlockParams
    enc_shared: list  # shared cross-sensor MoeBlockParams
    dec_embed: dict  # modality -> (weight, bias) projecting enc_dim -> dec_dim
    mask_token: dict  # modality -> Tensor [1, dec_dim]
    decoder: dict  # modality -> list of PlainBlockParams
    heads: dict  # (target, source) -> (weight, bias)
    proj: tuple  # (weight, bias) for the contrastive projection
    enc_pos: np.ndarray = field(repr=False, default=None)
    dec_pos: np.ndarray = field(repr=False, default=None)

    def moe_layers(self):
        """Every Soft MoE layer in the model; the shared stack appears once."""
        for modality in MODALITIES:
            for blk in self.enc_modality[modality]:
                yield blk.moe
        for blk in self.enc_shared:
            yield blk.moe


@dataclass
class ForwardArtifacts:
    """Everything one forward pass produces that the losses consume; a
    batched pass puts its [B] axis in front of every shape below."""

    encoded: dict  # modality -> Tensor [(U+1), enc_dim], CLS first
    recon: dict  # (target, source) -> Tensor [P, token_dim(target)]
    routing: dict  # modality -> list of RoutingTensors along that path
    proj_cls: dict  # modality -> Tensor [1, proj_dim]
    masks: dict  # modality -> MaskPair, index arrays [M] / [U]
    target_tokens: dict  # modality -> ndarray [P, token_dim], ground truth


# ---------------------------------------------------------------------------
# Parameter layout and construction
# ---------------------------------------------------------------------------
#
# Layout v2 (this version's checkpoints) stores each Soft MoE layer's experts
# stacked on a leading [E] axis and each attention's q, v and k projections
# side by side in one [d, 3d] weight with one [2d] q/v bias. Layout v1 (the
# first checkpoint version) stored one tensor per expert and per projection.
# ``_layout`` lists the v1 tensors in v1 order, each with its place in a v2
# tensor: the order is the init draw sequence, so both layouts hold the same
# values, and it is the block order of v1 files.


def _same(name: str, shape, kind: str):
    """A v1 tensor that v2 keeps whole and under the same name."""
    return name, shape, kind, name, shape, Ellipsis


def _attention_layout(prefix: str, dim: int):
    cols = {c: slice(i * dim, (i + 1) * dim) for i, c in enumerate("qvk")}
    for c in "qkv":  # the v1 draw order
        yield f"{prefix}.w{c}", (dim, dim), "weight", f"{prefix}.wqvk", (dim, 3 * dim), (slice(None), cols[c])
        if c != "k":  # key bias is a softmax-invariant no-op
            yield f"{prefix}.b{c}", (dim,), "zero", f"{prefix}.bqv", (2 * dim,), cols[c]
    yield _same(f"{prefix}.wo", (dim, dim), "weight")
    yield _same(f"{prefix}.bo", (dim,), "zero")


def _norm_layout(prefix: str, dim: int):
    yield _same(f"{prefix}.gain", (dim,), "one")
    yield _same(f"{prefix}.bias", (dim,), "zero")


def _ffn_layout(prefix: str, dim: int, hidden: int, experts: int = None):
    """A plain feed-forward, or ``experts`` of them stacked as
    ``<prefix>.experts``, which v1 held one by one as ``<prefix>.expert<e>``."""
    parts = (("w1", (dim, hidden), "weight"), ("b1", (hidden,), "zero"),
             ("w2", (hidden, dim), "weight"), ("b2", (dim,), "zero"))
    if experts is None:
        for name, shape, kind in parts:
            yield _same(f"{prefix}.{name}", shape, kind)
        return
    for e in range(experts):
        for name, shape, kind in parts:
            yield f"{prefix}.expert{e}.{name}", shape, kind, f"{prefix}.experts.{name}", (experts, *shape), e


def _moe_block_layout(prefix: str, cfg: CsmoeConfig):
    yield from _attention_layout(f"{prefix}.attn", cfg.enc_dim)
    yield from _norm_layout(f"{prefix}.norm1", cfg.enc_dim)
    yield from _norm_layout(f"{prefix}.norm2", cfg.enc_dim)
    yield _same(f"{prefix}.moe.slots", (cfg.num_slots, cfg.enc_dim), "weight")
    yield from _ffn_layout(f"{prefix}.moe", cfg.enc_dim, cfg.expert_hidden, cfg.num_experts)


def _plain_block_layout(prefix: str, cfg: CsmoeConfig):
    yield from _attention_layout(f"{prefix}.attn", cfg.dec_dim)
    yield from _norm_layout(f"{prefix}.norm1", cfg.dec_dim)
    yield from _norm_layout(f"{prefix}.norm2", cfg.dec_dim)
    yield from _ffn_layout(f"{prefix}.ffn", cfg.dec_dim, cfg.dec_hidden)


def _layout(cfg: CsmoeConfig):
    """Every v1 tensor in v1 order: (v1 name, v1 shape, init kind, v2 name,
    v2 shape, index of the v1 tensor within the v2 one)."""
    for m in MODALITIES:
        yield _same(f"embed_{m}.weight", (cfg.token_dim(m), cfg.enc_dim), "weight")
        yield _same(f"cls_{m}", (1, cfg.enc_dim), "zero")
    for m in MODALITIES:
        for i in range(cfg.enc_layers_modality):
            yield from _moe_block_layout(f"enc_{m}.{i}", cfg)
    for i in range(cfg.enc_layers_shared):
        yield from _moe_block_layout(f"enc_shared.{i}", cfg)
    for m in MODALITIES:
        yield _same(f"dec_embed_{m}.weight", (cfg.enc_dim, cfg.dec_dim), "weight")
        yield _same(f"dec_embed_{m}.bias", (cfg.dec_dim,), "zero")
        yield _same(f"mask_token_{m}", (1, cfg.dec_dim), "zero")
        for i in range(cfg.dec_layers):
            yield from _plain_block_layout(f"dec_{m}.{i}", cfg)
    for target in MODALITIES:
        for source in MODALITIES:
            yield _same(f"head_{target}_from_{source}.weight", (cfg.dec_dim, cfg.token_dim(target)), "weight")
            yield _same(f"head_{target}_from_{source}.bias", (cfg.token_dim(target),), "zero")
    yield _same("proj.weight", (cfg.enc_dim, cfg.proj_dim), "weight")
    yield _same("proj.bias", (cfg.proj_dim,), "zero")


def parameter_manifest(cfg: CsmoeConfig):
    """Ordered (name, shape, init kind) for every trainable tensor of layout
    v2, in the block order of checkpoints: each tensor where its first v1
    part appears."""
    entries = {}
    for _, _, kind, name, shape, _ in _layout(cfg):
        entries.setdefault(name, (name, shape, kind))
    return list(entries.values())


def convert_v1(cfg: CsmoeConfig, arrays) -> list:
    """Arrays of the v1 tensors, in v1 order -> the v2 tensors, in manifest
    order; the one conversion for v1 checkpoints and v1 optimizer moments."""
    out = {name: np.empty(shape) for name, shape, _ in parameter_manifest(cfg)}
    for arr, (_, _, _, name, _, at) in zip(arrays, _layout(cfg), strict=True):
        out[name][at] = arr
    return list(out.values())


def _params(cls, t, prefix: str, **given):
    """``cls`` with every field not ``given`` set to the tensor ``<prefix>.<field>``."""
    return cls(**given, **{f.name: t[f"{prefix}.{f.name}"] for f in fields(cls) if f.name not in given})


def _build_moe_block(t, prefix: str, cfg: CsmoeConfig) -> MoeBlockParams:
    return MoeBlockParams(
        attention=_params(AttentionParams, t, f"{prefix}.attn", heads=cfg.heads),
        norm1=_params(LayerNormParams, t, f"{prefix}.norm1"),
        norm2=_params(LayerNormParams, t, f"{prefix}.norm2"),
        moe=SoftMoELayerParams(
            slot_embeddings=t[f"{prefix}.moe.slots"],
            experts=_params(FeedForwardParams, t, f"{prefix}.moe.experts"),
            temperature=cfg.route_temperature,
        ),
    )


def _build_plain_block(t, prefix: str, cfg: CsmoeConfig) -> PlainBlockParams:
    return PlainBlockParams(
        attention=_params(AttentionParams, t, f"{prefix}.attn", heads=cfg.dec_heads),
        norm1=_params(LayerNormParams, t, f"{prefix}.norm1"),
        norm2=_params(LayerNormParams, t, f"{prefix}.norm2"),
        ffn=_params(FeedForwardParams, t, f"{prefix}.ffn"),
    )


def _assemble(cfg: CsmoeConfig, tensors: dict) -> CsmoeModel:
    return CsmoeModel(
        cfg=cfg,
        params=tensors,
        embed={m: tensors[f"embed_{m}.weight"] for m in MODALITIES},
        cls_token={m: tensors[f"cls_{m}"] for m in MODALITIES},
        enc_modality={
            m: [_build_moe_block(tensors, f"enc_{m}.{i}", cfg) for i in range(cfg.enc_layers_modality)]
            for m in MODALITIES
        },
        enc_shared=[_build_moe_block(tensors, f"enc_shared.{i}", cfg) for i in range(cfg.enc_layers_shared)],
        dec_embed={
            m: (tensors[f"dec_embed_{m}.weight"], tensors[f"dec_embed_{m}.bias"]) for m in MODALITIES
        },
        mask_token={m: tensors[f"mask_token_{m}"] for m in MODALITIES},
        decoder={
            m: [_build_plain_block(tensors, f"dec_{m}.{i}", cfg) for i in range(cfg.dec_layers)]
            for m in MODALITIES
        },
        heads={
            (tgt, src): (tensors[f"head_{tgt}_from_{src}.weight"], tensors[f"head_{tgt}_from_{src}.bias"])
            for tgt in MODALITIES for src in MODALITIES
        },
        proj=(tensors["proj.weight"], tensors["proj.bias"]),
        enc_pos=positional_embedding(cfg.grid, cfg.enc_dim),
        dec_pos=positional_embedding(cfg.grid, cfg.dec_dim),
    )


def truncated_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) with resampling outside +-2 std."""
    x = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(x) > 2.0 * std
        if not bad.any():
            return x
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))


def init_model(cfg: CsmoeConfig) -> CsmoeModel:
    """Deterministic init from cfg.seed: truncated-normal(0, 0.02) weights,
    zero biases/CLS/mask tokens, unit norm gains. Weights are drawn tensor
    by tensor in v1 order, straight into their slices of the v2 tensors."""
    rng = np.random.default_rng(cfg.seed)
    arrays = {name: (np.ones if kind == "one" else np.zeros)(shape)
              for name, shape, kind in parameter_manifest(cfg)}
    for _, shape, kind, name, _, at in _layout(cfg):
        if kind == "weight":
            arrays[name][at] = truncated_normal(rng, shape, INIT_STD)
    return _assemble(cfg, {name: parameter(arr) for name, arr in arrays.items()})


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------


def _check_modality(modality: str):
    if modality not in MODALITIES:
        raise ParameterError(f"modality must be one of {MODALITIES}, got {modality!r}")


def encode(model: CsmoeModel, image, mask: MaskPair, modality: str, routing_sink: list = None) -> Tensor:
    """Patch-embed, add positions, drop masked rows, prepend CLS, run the
    modality-specific MoE blocks then the shared cross-sensor blocks.

    A [C, H, W] image gives [U+1, enc_dim]; a [..., C, H, W] batch gives
    [..., U+1, enc_dim], under one [U] mask or per-sample [..., U] masks.
    """
    _check_modality(modality)
    cfg = model.cfg
    tokens = patchify(image, cfg.patch_size)
    if tokens.shape[-2:] != (cfg.num_patches, cfg.token_dim(modality)):
        raise DimensionError(
            f"image tokens {tokens.shape} do not match modality {modality!r} "
            f"expecting [{cfg.num_patches}, {cfg.token_dim(modality)}]"
        )
    z = linear(tokens, model.embed[modality]) + Tensor(model.enc_pos)
    z = take_rows(z, mask.unmasked)
    z = concat_rows([model.cls_token[modality], z])
    for blk in model.enc_modality[modality]:
        z = block_forward(z, blk, routing_sink)
    for blk in model.enc_shared:
        z = block_forward(z, blk, routing_sink)
    return z


def decode(model: CsmoeModel, encoded: dict, masks: dict, target: str) -> dict:
    """Reconstruct all P patches of ``target`` from each source's features.

    ``encoded`` maps each source modality to its encoded sequence
    [..., U+1, enc_dim] and ``masks`` to the MaskPair it was encoded under.
    Every source goes through the target's decoder in one pass, stacked on
    a new leading axis: each sequence is projected to decoder width, its
    CLS row is dropped, and its unmasked rows are scattered back to their
    grid positions with the target's learned mask token filling the holes.
    The pass is split per source before the direction-specific heads.
    Returns source -> [..., P, token_dim(target)].
    """
    _check_modality(target)
    cfg = model.cfg
    sources = list(encoded)
    unmasked = []
    for source in sources:
        _check_modality(source)
        seq, idx = encoded[source], masks[source].unmasked
        if seq.shape[-2] != idx.shape[-1] + 1:
            raise DimensionError(
                f"encoded sequence has {seq.shape[-2]} rows, mask implies {idx.shape[-1] + 1}"
            )
        unmasked.append(np.broadcast_to(idx, (*seq.shape[:-2], idx.shape[-1])))
    w, b = model.dec_embed[target]
    z = linear(stack([encoded[s] for s in sources]), w, b)  # [k, ..., U+1, dec_dim]
    z = take_rows(z, np.arange(1, z.shape[-2]))  # CLS is not decoded
    z = scatter_rows(z, np.stack(unmasked), model.mask_token[target], cfg.num_patches)
    z = z + Tensor(model.dec_pos)
    for blk in model.decoder[target]:
        z = plain_block_forward(z, blk)
    recon = {}
    for i, source in enumerate(sources):
        hw, hb = model.heads[(target, source)]
        recon[source] = linear(take(z, i), hw, hb)
    return recon


def mask_seeds(seed, mask_seed_x: int = None, mask_seed_y: int = None):
    """Two independent mask streams from one seed (second stream XOR-split),
    elementwise for a sequence of seeds."""
    sx = seed if mask_seed_x is None else mask_seed_x
    if mask_seed_y is None:
        mask_seed_y = [s ^ MASK_STREAM_SPLIT for s in seed] if np.ndim(seed) else seed ^ MASK_STREAM_SPLIT
    return sx, mask_seed_y


def forward(model: CsmoeModel, image_x, image_y, seed,
            mask_seed_x=None, mask_seed_y=None) -> ForwardArtifacts:
    """Both encodes, all four reconstruction directions, projected CLS pair.

    One pair is two [C, H, W] images with an int ``seed``. A batch is two
    [B, C, H, W] stacks with a sequence of B seeds: sample j draws its masks
    from ``seed[j]`` exactly as an unbatched call with that seed would, and
    every artifact gains a leading [B] axis.
    """
    cfg = model.cfg
    images = {"x": image_x, "y": image_y}
    for m, image in images.items():
        lead = np.shape(image)[:-3]
        if lead != np.shape(seed):
            raise DimensionError(
                f"{m} images have batch axes {lead}, but the seeds have shape {np.shape(seed)}"
            )
    sx, sy = mask_seeds(seed, mask_seed_x, mask_seed_y)
    masks = {
        "x": sample_masks(cfg.num_patches, cfg.mask_ratio, sx),
        "y": sample_masks(cfg.num_patches, cfg.mask_ratio, sy),
    }
    routing = {m: [] for m in MODALITIES}
    encoded = {
        m: encode(model, images[m], masks[m], m, routing[m]) for m in MODALITIES
    }
    recon = {}
    for target in MODALITIES:
        for source, out in decode(model, encoded, masks, target).items():
            recon[(target, source)] = out
    pw, pb = model.proj
    proj_cls = {m: linear(take_rows(encoded[m], [0]), pw, pb) for m in MODALITIES}
    return ForwardArtifacts(
        encoded=encoded,
        recon=recon,
        routing=routing,
        proj_cls=proj_cls,
        masks=masks,
        target_tokens={m: patchify(images[m], cfg.patch_size) for m in MODALITIES},
    )


# ---------------------------------------------------------------------------
# Image-level embeddings
# ---------------------------------------------------------------------------


def build_embedding(tokens, strategy: str, projection=None) -> np.ndarray:
    """Collapse an encoded [..., T, d] sequence (CLS first) into one vector
    [..., d] per sequence; a [T, d] sequence gives one [d] vector.

    ``strategy`` is one of ``EMBEDDING_STRATEGIES``.
    """
    arr = tokens.data if isinstance(tokens, Tensor) else np.asarray(tokens, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2] == 0:
        raise DimensionError(f"expected a non-empty [..., T, d] sequence, got shape {arr.shape}")
    if strategy not in EMBEDDING_STRATEGIES:
        raise ParameterError(f"unknown embedding strategy {strategy!r}")
    if strategy == "avg_wo_cls":
        if arr.shape[-2] < 2:
            raise DimensionError("avg_wo_cls needs at least one non-CLS row")
        return arr[..., 1:, :].mean(axis=-2)
    if strategy == "avg_all":
        return arr.mean(axis=-2)
    cls = arr[..., 0, :]
    if strategy == "only_cls":
        return cls.copy()
    normed = _unit_length(cls, "CLS row")
    if strategy == "norm_cls":
        return normed
    if projection is None:
        raise ParameterError("norm_proj_cls needs the projection head")
    w, b = projection
    return _unit_length(normed @ w.data + b.data, "projected CLS row")


def _unit_length(rows: np.ndarray, what: str) -> np.ndarray:
    """``rows`` scaled to unit length; a zero row is a DimensionError naming ``what``."""
    norm = np.linalg.norm(rows, axis=-1, keepdims=True)
    if (norm == 0.0).any():
        raise DimensionError(f"{what} has zero norm, cannot normalize")
    return rows / norm


# ---------------------------------------------------------------------------
# Checkpoints: one JSON header line, then TNSR1 blocks in manifest order
# ---------------------------------------------------------------------------


def manifest_header(cfg: CsmoeConfig, version: int = CHECKPOINT_VERSION) -> list:
    """[name, shape] of every block of a checkpoint of ``version``, in order."""
    if version == 1:
        return [[name, list(shape)] for name, shape, *_ in _layout(cfg)]
    return [[name, list(shape)] for name, shape, _ in parameter_manifest(cfg)]


def save_checkpoint(model: CsmoeModel, path):
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(model.cfg),
        "params": manifest_header(model.cfg),
    }
    write_blocks(path, header, [model.params[name].data for name, _ in header["params"]])


def load_checkpoint(path) -> CsmoeModel:
    """A model from a v2 checkpoint, or from a v1 one converted to v2."""
    def expect(header):
        cfg = load_section(CsmoeConfig, header.get("config"), f"{path}: config")
        params = manifest_header(cfg, header["version"])
        if header.get("params") != params:
            raise FormatError(f"{path}: header manifest does not match its config")
        return params

    header, arrays = read_blocks(path, CHECKPOINT_FORMAT, (1, CHECKPOINT_VERSION), expect)
    cfg = CsmoeConfig(**header["config"])
    if header["version"] == 1:
        arrays = convert_v1(cfg, arrays)
    names = [name for name, _, _ in parameter_manifest(cfg)]
    return _assemble(cfg, {name: parameter(arr) for name, arr in zip(names, arrays)})
