# Image tokenization: cut an image into patch tokens, mask a random subset
# per modality, and split an oversized tile into training patches.

import numpy as np

from csmoe.tokenizer import patchify, unpatchify, sample_masks, positional_embedding, split_tile

rng = np.random.default_rng(0)

# A 224x224 image with patch size 32 yields a 7x7 grid of 49 tokens.
image = rng.standard_normal((12, 224, 224))
grid = (7, 7)
tokens = patchify(image, 32)
print(f"tokens: {tokens.shape} on a {grid} grid")
assert np.array_equal(unpatchify(tokens, 32, grid), image)  # exact inverse

# Independent masks per modality: at ratio 0.5 over 49 tokens, 25 are hidden
# (counts round half up). Different seeds give the two modality streams.
mask_x = sample_masks(49, 0.5, seed=0)
mask_y = sample_masks(49, 0.5, seed=1)
print(f"masked per modality: {len(mask_x.masked)} of 49; "
      f"streams differ: {not np.array_equal(mask_x.masked, mask_y.masked)}")

# Fixed sinusoidal position table; every grid cell gets a unique row.
table = positional_embedding(grid, 32)
print(f"positional table: {table.shape}, distinct rows: {len({tuple(r) for r in table.round(12)})}")

# Archive tiles are larger than training patches and may hold invalid pixels.
tile = rng.standard_normal((2, 1068, 1068))
tile[:, 500, 500] = np.nan  # a single bad pixel poisons its cell
kept, report = split_tile(tile, 120)
print(f"tile split: kept {report.kept}, invalid {report.discarded_invalid}, "
      f"edge remainders {report.discarded_small}")
