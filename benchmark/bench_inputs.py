"""Seeded input generators and writers for the documented file formats.

Everything here depends only on numpy and the seed, never on csmoe, so the
program under test sees inputs that it did not produce itself.
"""

from __future__ import annotations

import csv
import json
import struct

import numpy as np

# purpose keys for independent random streams derived from one seed
_PAIRS, _QUERY_IMAGES, _GALLERY, _ARCHIVE = 1, 2, 3, 4


def _rng(seed: int, *key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _structured(rng, channels: int, side: int, base=None) -> np.ndarray:
    """A [C, side, side] image: a coarse 8x8 pattern per band plus noise."""
    if base is None:
        coarse = rng.standard_normal((8, 8))
        base = np.kron(coarse, np.ones((side // 8, side // 8)))
    gains = rng.uniform(0.5, 1.5, size=channels)
    return gains[:, None, None] * base[None] + 0.3 * rng.standard_normal((channels, side, side))


def paired_images(seed: int, count: int, side: int, channels_x: int, channels_y: int):
    """``count`` (id, x, y) pairs whose two modalities share a coarse pattern."""
    pairs = []
    for i in range(count):
        rng = _rng(seed, _PAIRS, i)
        base = np.kron(rng.standard_normal((8, 8)), np.ones((side // 8, side // 8)))
        pairs.append((f"pair{i:04d}", _structured(rng, channels_x, side, base),
                      _structured(rng, channels_y, side, base)))
    return pairs


def query_images(seed: int, count: int, channels: int, side: int):
    return [_structured(_rng(seed, _QUERY_IMAGES, i), channels, side) for i in range(count)]


def retrieval_set(seed: int, gallery_size: int, dim: int, num_queries: int,
                  clusters: int = 64, classes: int = 24):
    """Clustered gallery embeddings with label sets, plus query embeddings.

    Every query is a noisy copy of a gallery entry and carries its id, as in
    cross-modal retrieval, so id exclusion removes exactly one candidate.
    Returns (gallery [N, d], gallery ids, queries [Q, d], query ids, labels).
    """
    rng = _rng(seed, _GALLERY)
    centers = rng.standard_normal((clusters, dim))
    member = rng.integers(0, clusters, size=gallery_size)
    gallery = centers[member] + 0.8 * rng.standard_normal((gallery_size, dim))
    cluster_labels = [
        sorted(rng.choice(classes, size=int(rng.integers(1, 4)), replace=False).tolist())
        for _ in range(clusters)
    ]
    gallery_ids = [f"img{i:05d}" for i in range(gallery_size)]
    labels = {gid: {str(c) for c in cluster_labels[m]} for gid, m in zip(gallery_ids, member)}
    source = rng.choice(gallery_size, size=num_queries, replace=False)
    queries = gallery[source] + 0.5 * rng.standard_normal((num_queries, dim))
    query_ids = [gallery_ids[j] for j in source]
    return gallery, gallery_ids, queries, query_ids, labels


# ---------------------------------------------------------------------------
# Archive and class rasters
# ---------------------------------------------------------------------------

#: 30-degree latitude bands give the climate code, 30-degree longitude bands
#: the thematic code; the last longitude band is nodata in the thematic raster
BAND_DEG = 30
NODATA = 0
NODATA_LON_BAND = 11


def archive(seed: int, stratum_sizes, uncovered: int):
    """Archive rows placed in distinct (climate, thematic) band pairs.

    Centers keep half a degree from band edges, so every center's stratum is
    known exactly. Returns (rows, truth) where rows are CSV records and
    truth maps id -> (climate, thematic, lon, lat); uncovered entries map to
    None.
    """
    rng = _rng(seed, _ARCHIVE)
    pairs = [(lat_band, lon_band) for lat_band in range(6) for lon_band in range(11)]
    picked = rng.choice(len(pairs), size=len(stratum_sizes), replace=False)
    placements = []
    for size, k in zip(stratum_sizes, picked):
        placements.extend([pairs[k]] * size)
    placements.extend((int(b), NODATA_LON_BAND) for b in rng.integers(0, 6, size=uncovered))
    order = rng.permutation(len(placements))
    rows, truth = [], {}
    for i, p in enumerate(order):
        lat_band, lon_band = placements[p]
        lat_hi = 90 - BAND_DEG * lat_band
        lon_lo = -180 + BAND_DEG * lon_band
        lat = float(rng.uniform(lat_hi - BAND_DEG + 0.5, lat_hi - 0.5))
        lon = float(rng.uniform(lon_lo + 0.5, lon_lo + BAND_DEG - 0.5))
        eid = f"tile{i:06d}"
        rows.append([eid, lon - 0.1, lat - 0.1, lon + 0.1, lat + 0.1])
        covered = lon_band != NODATA_LON_BAND
        truth[eid] = (lat_band + 1, lon_band + 1, lon, lat) if covered else None
    return rows, truth


def band_rasters():
    """(climate, thematic) 1-degree global rasters as (header, uint16 grid)."""
    rows, cols = 180, 360
    lat_band = np.arange(rows) // BAND_DEG
    lon_band = np.arange(cols) // BAND_DEG
    climate = np.repeat((lat_band + 1)[:, None], cols, axis=1).astype(np.uint16)
    thematic = np.repeat((lon_band + 1)[None, :], rows, axis=0).astype(np.uint16)
    thematic[:, lon_band == NODATA_LON_BAND] = NODATA
    header = {"lat_max": 90.0, "lon_min": -180.0, "dlat": 1.0, "dlon": 1.0,
              "rows": rows, "cols": cols, "nodata": NODATA}
    return (header, climate), (header, thematic)


# ---------------------------------------------------------------------------
# Writers for the formats documented in the repository README
# ---------------------------------------------------------------------------


def write_tnsr(path, array):
    """TNSR1: magic, version 1, u8 rank, u32 LE dims, row-major f64 LE payload."""
    arr = np.ascontiguousarray(array, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(b"TNSR" + struct.pack("<BB", 1, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def write_grid(path, header: dict, grid: np.ndarray):
    """GRID1: one JSON header line, then rows*cols LE u16 codes, north-up."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        fh.write(np.ascontiguousarray(grid, dtype="<u2").tobytes())


def write_archive(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "lon_min", "lat_min", "lon_max", "lat_max"])
        for eid, *coords in rows:
            writer.writerow([eid] + [repr(c) for c in coords])
