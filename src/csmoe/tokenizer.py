"""Patch tokenization, per-modality random masking, and tile splitting.

All functions are pure; an image is a [C, H, W] array and a token
sequence is [P, patch^2 * C] with tokens in raster-scan order and each
token flattened channel-major. ``patchify`` and ``sample_masks`` also take
a batch: leading axes in front of [C, H, W], and a sequence of seeds, one
per sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError


@dataclass(frozen=True)
class MaskPair:
    """Complementary masked / unmasked index sets over ``{0..P-1}``: [M] and
    [U] for one sample, [B, M] and [B, U] (one row per seed) for a batch."""

    masked: np.ndarray
    unmasked: np.ndarray
    ratio: float
    seed: object  # an int, or the tuple of per-sample seeds


@dataclass(frozen=True)
class TileSplitReport:
    tile_shape: tuple  # (C, H, W)
    patch_shape: tuple  # (patch, patch)
    kept: int
    discarded_small: int  # partial edge cells, never emitted
    discarded_invalid: int


def patchify(image, patch_size: int) -> np.ndarray:
    """Cut a [..., C, H, W] image (or batch of images) into the raster-scan
    sequence of its patch_size x patch_size blocks, [..., P, patch^2 * C]."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim < 3:
        raise DimensionError(f"expected a [..., C, H, W] image, got shape {arr.shape}")
    *lead, c, h, w = arr.shape
    if h % patch_size or w % patch_size:
        raise DimensionError(
            f"image sides {(h, w)} are not multiples of patch size {patch_size}"
        )
    rows, cols = h // patch_size, w // patch_size
    n = len(lead)
    return (
        arr.reshape(*lead, c, rows, patch_size, cols, patch_size)
        .transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)
        .reshape(*lead, rows * cols, c * patch_size * patch_size)
    )


def unpatchify(tokens: np.ndarray, patch_size: int, grid) -> np.ndarray:
    """Exact inverse of :func:`patchify` for one image: [P, p^2 * C] tokens
    on a (rows, cols) grid back to [C, rows * p, cols * p]."""
    rows, cols = grid
    p = patch_size
    return (
        tokens.reshape(rows, cols, -1, p, p)
        .transpose(2, 0, 3, 1, 4)
        .reshape(-1, rows * p, cols * p)
    )


def masked_count(num_patches: int, ratio: float) -> int:
    """How many of ``num_patches`` tokens a mask of ``ratio`` hides:
    ratio * P rounded half up."""
    return int(math.floor(ratio * num_patches + 0.5))


def sample_masks(num_patches: int, ratio: float, seed) -> MaskPair:
    """A uniformly random masked subset of ``masked_count(P, ratio)`` indices.

    A sequence of seeds gives one row per seed, each drawn exactly as that
    seed alone would draw it.
    """
    if not 0.0 < ratio < 1.0:
        raise ParameterError(f"mask ratio must be in (0, 1), got {ratio}")
    count = masked_count(num_patches, ratio)
    perm = np.stack([np.random.default_rng(s).permutation(num_patches) for s in np.ravel(seed)])
    perm = perm.reshape(*np.shape(seed), num_patches)
    return MaskPair(
        masked=np.sort(perm[..., :count], axis=-1),
        unmasked=np.sort(perm[..., count:], axis=-1),
        ratio=ratio,
        seed=tuple(seed) if np.ndim(seed) else seed,
    )


def _sincos_table(positions: np.ndarray, dim: int) -> np.ndarray:
    # dim is even; half sines, half cosines over a geometric frequency ladder
    omega = 1.0 / 10000.0 ** (np.arange(dim // 2, dtype=np.float64) / (dim / 2.0))
    args = np.outer(positions.astype(np.float64), omega)
    return np.concatenate([np.sin(args), np.cos(args)], axis=1)


def positional_embedding(grid, dim: int) -> np.ndarray:
    """Fixed 2-D sin/cos table, [rows*cols, dim]; row half + column half."""
    if dim % 4:
        raise ParameterError(f"positional embedding dim must be divisible by 4, got {dim}")
    rows, cols = grid
    r_idx = np.repeat(np.arange(rows), cols)
    c_idx = np.tile(np.arange(cols), rows)
    return np.concatenate(
        [_sincos_table(r_idx, dim // 2), _sincos_table(c_idx, dim // 2)], axis=1
    )


def split_tile(tile, patch_size: int, invalid_sentinel: float = np.nan):
    """Cut a tile into full patch_size cells, dropping any cell that touches a
    sentinel-valued pixel in any band. Edge remainders are never emitted.

    Returns (patches, TileSplitReport); patches are [C, p, p] arrays in
    raster-scan order of the kept cells.
    """
    if patch_size < 1:
        raise ParameterError(f"patch size must be >= 1, got {patch_size}")
    arr = np.asarray(tile, dtype=np.float64)
    if arr.ndim != 3:
        raise DimensionError(f"expected a [C, H, W] image, got shape {arr.shape}")
    c, h, w = arr.shape
    p = patch_size
    rows, cols = h // p, w // p
    small = math.ceil(h / p) * math.ceil(w / p) - rows * cols
    blocks = (arr[:, :rows * p, :cols * p].reshape(c, rows, p, cols, p)
              .transpose(1, 3, 0, 2, 4).reshape(rows * cols, c, p, p))  # raster order
    hits = np.isnan(blocks) if np.isnan(invalid_sentinel) else blocks == invalid_sentinel
    bad = hits.any(axis=(1, 2, 3))
    kept, invalid = list(blocks[~bad]), int(bad.sum())
    report = TileSplitReport(
        tile_shape=(c, h, w),
        patch_shape=(p, p),
        kept=len(kept),
        discarded_small=small,
        discarded_invalid=invalid,
    )
    return kept, report
