import json
from dataclasses import asdict

import numpy as np
import pytest

from csmoe.errors import DimensionError, ParameterError
from csmoe.tokenizer import (
    MaskPair,
    patchify,
    positional_embedding,
    masked_count,
    sample_masks,
    split_tile,
    unpatchify,
)


# ---------------------------------------------------------------------------
# patchify / unpatchify
# ---------------------------------------------------------------------------


def test_patchify_counts_small():
    tokens = patchify(np.arange(16.0).reshape(1, 4, 4), 2)
    assert type(tokens) is np.ndarray and tokens.dtype == np.float64
    assert tokens.shape == (4, 4)


def test_patchify_vit_scale_counts():
    tokens = patchify(np.zeros((12, 224, 224)), 32)
    assert tokens.shape == (49, 32 * 32 * 12)  # a 7 x 7 grid


def test_patchify_raster_scan_order():
    img = np.zeros((1, 4, 4))
    img[0, 0, 2] = 7.0  # top-right patch for patch size 2
    tokens = patchify(img, 2)
    assert tokens[1].max() == 7.0
    assert tokens[[0, 2, 3]].max() == 0.0


def test_patchify_roundtrip_small():
    img = np.random.default_rng(0).standard_normal((3, 8, 8))
    assert np.array_equal(unpatchify(patchify(img, 4), 4, (2, 2)), img)


def test_patchify_roundtrip_random_shapes():
    rng = np.random.default_rng(1)
    for _ in range(200):
        patch = int(rng.integers(1, 6))
        rows = int(rng.integers(1, 5))
        cols = int(rng.integers(1, 5))
        channels = int(rng.integers(1, 5))
        img = rng.standard_normal((channels, rows * patch, cols * patch))
        tokens = patchify(img, patch)
        assert tokens.shape == (rows * cols, patch * patch * channels)
        assert np.array_equal(unpatchify(tokens, patch, (rows, cols)), img)


def test_patchify_rejects_indivisible_sides():
    with pytest.raises(DimensionError):
        patchify(np.zeros((1, 6, 6)), 4)


# ---------------------------------------------------------------------------
# masks
# ---------------------------------------------------------------------------


def test_mask_count_round_half_up():
    pair = sample_masks(49, 0.5, seed=0)
    assert len(pair.masked) == 25  # 24.5 rounds up
    assert len(pair.unmasked) == 24


def test_masked_count_rounds_half_up():
    assert masked_count(49, 0.5) == 25  # 24.5 rounds up
    assert masked_count(10, 0.25) == 3  # 2.5 rounds up
    assert masked_count(10, 0.24) == 2


def test_mask_determinism():
    a = sample_masks(10, 0.5, seed=123)
    b = sample_masks(10, 0.5, seed=123)
    assert np.array_equal(a.masked, b.masked)
    assert np.array_equal(a.unmasked, b.unmasked)


def test_mask_partition_property():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        p = int(rng.integers(1, 60))
        ratio = float(rng.uniform(0.05, 0.95))
        seed = int(rng.integers(0, 2**31))
        pair = sample_masks(p, ratio, seed)
        assert len(pair.masked) == int(np.floor(ratio * p + 0.5))
        merged = np.concatenate([pair.masked, pair.unmasked])
        assert np.array_equal(np.sort(merged), np.arange(p))
        assert np.array_equal(pair.masked, np.sort(pair.masked))


def test_mask_every_two_subset_reachable():
    seen = set()
    for seed in range(1000):
        pair = sample_masks(4, 0.5, seed)
        seen.add(tuple(pair.masked.tolist()))
    assert len(seen) == 6  # all C(4, 2) subsets


def test_mask_rejects_bad_ratio():
    for ratio in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ParameterError):
            sample_masks(10, ratio, 0)


# ---------------------------------------------------------------------------
# positional embeddings
# ---------------------------------------------------------------------------


def test_positional_embedding_single_position():
    table = positional_embedding((1, 1), 8)
    assert table.shape == (1, 8)
    # position 0: sines are 0, cosines are 1 in both halves
    assert np.allclose(table[0], [0, 0, 1, 1, 0, 0, 1, 1])


def test_positional_embedding_rows_unique():
    table = positional_embedding((7, 7), 32)
    assert table.shape == (49, 32)
    distinct = {tuple(row) for row in np.round(table, 12)}
    assert len(distinct) == 49


def test_positional_embedding_deterministic():
    assert np.array_equal(positional_embedding((3, 5), 16), positional_embedding((3, 5), 16))


def test_positional_embedding_dim_check():
    with pytest.raises(ParameterError):
        positional_embedding((2, 2), 10)


# ---------------------------------------------------------------------------
# tile splitting
# ---------------------------------------------------------------------------


def test_split_tile_interior_grid():
    tile = np.random.default_rng(4).standard_normal((2, 1068, 1068))
    patches, report = split_tile(tile, 120)
    assert report.kept == 64
    assert report.discarded_invalid == 0
    assert report.kept + report.discarded_invalid == (1068 // 120) ** 2
    assert all(p.shape == (2, 120, 120) for p in patches)


def test_split_tile_sentinel_poisons_one_cell():
    tile = np.zeros((1, 240, 240))
    tile[0, 0, 0] = np.nan
    patches, report = split_tile(tile, 120)
    assert report.kept == 3
    assert report.discarded_invalid == 1


def test_split_tile_numeric_sentinel():
    tile = np.zeros((2, 240, 240))
    tile[1, 200, 10] = -9999.0  # second band, bottom-left cell
    patches, report = split_tile(tile, 120, invalid_sentinel=-9999.0)
    assert report.kept == 3
    assert report.discarded_invalid == 1


def test_split_tile_smaller_than_patch():
    patches, report = split_tile(np.zeros((1, 100, 100)), 120)
    assert patches == []
    assert report.kept == 0
    assert report.discarded_invalid == 0
    assert report.discarded_small == 1


def test_split_tile_never_emits_sentinel_or_remainder():
    rng = np.random.default_rng(5)
    tile = rng.standard_normal((1, 250, 130))
    # poison the remainder strips; they must never leak into a patch
    tile[:, 240:, :] = np.nan
    tile[:, :, 120:] = np.nan
    patches, report = split_tile(tile, 120)
    assert report.kept == 2  # 2 x 1 interior grid
    for p in patches:
        assert np.isfinite(p).all()


@pytest.mark.parametrize("sentinel", [np.nan, 3.0])
def test_split_tile_keeps_cells_in_raster_order(sentinel):
    # reference: slice every full cell row by row, keep those without the sentinel
    rng = np.random.default_rng(6)
    tile = rng.integers(0, 40, (2, 23, 31)).astype(float)
    tile[rng.random(tile.shape) < 0.01] = np.nan
    bad = np.isnan if np.isnan(sentinel) else (lambda b: b == sentinel)
    cells = [tile[:, r:r + 5, q:q + 5] for r in range(0, 20, 5) for q in range(0, 30, 5)]
    want = [c for c in cells if not bad(c).any()]
    patches, report = split_tile(tile, 5, sentinel)
    assert 0 < len(want) < len(cells) and report.discarded_invalid == len(cells) - len(want)
    assert len(patches) == len(want) and all(np.array_equal(p, w, equal_nan=True)
                                             for p, w in zip(patches, want))


def test_split_tile_report_roundtrip_dict():
    _, report = split_tile(np.zeros((1, 240, 360)), 120)
    d = json.loads(json.dumps(asdict(report)))
    assert d["kept"] == 6 and d["patch_shape"] == [120, 120]
