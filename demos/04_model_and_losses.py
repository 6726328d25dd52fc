# The assembled two-modality model: one paired forward produces four
# reconstructions (each modality from itself and from the other), routing
# tables per MoE layer, and a projected CLS pair for the contrastive term.

import numpy as np

from csmoe.model import CsmoeConfig, init_model, forward, build_embedding
from csmoe.losses import LossSettings, loss_total
from csmoe.numerics import backward

cfg = CsmoeConfig(
    patch_size=8, image_side=32, channels_x=2, channels_y=10,
    enc_dim=32, dec_dim=16, enc_layers_modality=2, enc_layers_shared=1,
    dec_layers=2, num_slots=4, heads=4, dec_heads=4, proj_dim=16, seed=0,
)
model = init_model(cfg)
print(f"model: {sum(p.size for p in model.params.values()):,} parameters, "
      f"{cfg.num_patches} tokens per image")
# Each MoE layer stores its experts stacked on a leading axis, and each
# attention its q, v and k projections side by side in one weight.
for name in ("enc_x.0.moe.experts.w1", "enc_x.0.attn.wqvk", "enc_x.0.attn.bqv"):
    print(f"  {name}: {model.params[name].shape}")

# A batch of two pairs runs as one forward pass over [B, C, H, W] stacks; each
# sample draws its masks from its own seed, and every output gains a [B] axis.
rng = np.random.default_rng(1)
xs = rng.standard_normal((2, 2, 32, 32))
ys = rng.standard_normal((2, 10, 32, 32))
art = forward(model, xs, ys, seed=[0, 1])

for (target, source), recon in art.recon.items():
    print(f"reconstruction {target}<-{source}: {recon.shape}")
print(f"routing tables per modality path: {len(art.routing['x'])}")

# The five-term objective; the breakdown identity total = umr+cmr+mi+l*rep+g*ent
# holds to machine precision.
breakdown = loss_total(model, art, LossSettings(lambda_rep=0.01, gamma_ent=0.01))
for name in ("umr", "cmr", "mi", "rep", "ent", "total"):
    print(f"  {name:>5}: {getattr(breakdown, name):+.6f}")

backward(breakdown.total_tensor)
shared = model.params["enc_shared.0.attn.wqvk"].grad
print(f"shared cross-sensor stack receives gradients: max |g| = {np.abs(shared).max():.2e}")

# Image-level embeddings for retrieval; the raw CLS row is the default.
sequence = art.encoded["x"].data[0]
for strategy in ("only_cls", "avg_wo_cls", "norm_cls"):
    vec = build_embedding(sequence, strategy, projection=model.proj)
    print(f"embedding[{strategy}]: dim {vec.shape[0]}, norm {np.linalg.norm(vec):.3f}")
