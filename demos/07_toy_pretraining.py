# End-to-end toy pretraining on synthetic paired images, then a small
# retrieval evaluation on the learned embeddings.

import tempfile

import numpy as np

from csmoe.evaluation import dataset_retrieval_f1, retrieve
from csmoe.model import CsmoeConfig, build_embedding, encode, init_model
from csmoe.tokenizer import MaskPair
from csmoe.trainer import TrainerConfig, load_pairs, synthesize_pairs, train

cfg = CsmoeConfig(patch_size=8, image_side=16, channels_x=2, channels_y=3,
                  enc_dim=16, dec_dim=8, enc_layers_modality=1, enc_layers_shared=1,
                  dec_layers=1, num_slots=2, heads=2, dec_heads=2, proj_dim=8, seed=0)

with tempfile.TemporaryDirectory() as workdir:
    synthesize_pairs(workdir, 8, cfg, seed=0)
    pairs = load_pairs(workdir, cfg)
    print(f"synthesized {len(pairs)} paired images under {workdir}")

model = init_model(cfg)
tcfg = TrainerConfig(epochs=8, batch_size=2, lr=1e-3, val_fraction=0.0)
_, records = train(model, pairs, tcfg, seed=0)
steps = [r for r in records if "step" in r]
print(f"trained {len(steps)} steps: total {steps[0]['total']:.4f} -> {steps[-1]['total']:.4f}")

# Embed every image with the full (unmasked) encoder and the raw CLS row.
full_mask = MaskPair(masked=np.array([], dtype=np.int64),
                     unmasked=np.arange(cfg.num_patches), ratio=0.5, seed=0)
ids, embeddings = [], []
for pid, x, _ in pairs:
    seq = encode(model, x, full_mask, "x")
    ids.append(pid)
    embeddings.append(build_embedding(seq, "only_cls"))
embeddings = np.stack(embeddings)

# Self-retrieval sanity check: each image keeps a label equal to its own id
# bucket, so retrieving neighbors of itself (excluded) scores against the rest.
labels = [{pid[:6]} for pid in ids]  # all share the "synt00" bucket here
ranked = retrieve(embeddings, embeddings, k=3, query_ids=ids, gallery_ids=ids)
retrieved_labels = [[labels[j] for j in row] for row in ranked]
f1 = dataset_retrieval_f1(labels, retrieved_labels, k=3)
print(f"uni-modal self-retrieval F1 within the shared bucket: {f1:.1f}%")
