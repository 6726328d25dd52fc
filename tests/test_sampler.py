import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from csmoe import sampler
from csmoe.errors import DataError, FormatError, ParameterError
from csmoe.sampler import (
    Archive,
    ClassRaster,
    GaConfig,
    evolve_stratum,
    generate_descriptors,
    haversine,
    load_archive,
    load_grid,
    lookup,
    mutation_rate,
    pair_km,
    repair,
    sample_archive,
    save_grid,
    selection_fitness,
    stratify,
    unit_vectors,
    write_selection,
)

from util import dense_distance_oracle, rel_err


def tiny_raster(codes, lat_max=10.0, lon_min=0.0, dlat=5.0, dlon=5.0, nodata=0):
    return ClassRaster(lat_max=lat_max, lon_min=lon_min, dlat=dlat, dlon=dlon,
                       grid=np.asarray(codes, dtype=np.uint16), nodata=nodata)


def point_archive(points):
    """An Archive of zero-size boxes from (id, lon, lat) triples."""
    ids, lons, lats = zip(*points)
    return Archive(ids=list(ids), boxes=np.column_stack([lons, lats, lons, lats]))


def clustered_stratum(seed, clustered=450, dispersed=50):
    """[n, 2] (lon, lat) centers: a tight cluster plus dispersed points."""
    rng = np.random.default_rng(seed)
    lons = np.concatenate([rng.normal(10.0, 0.2, clustered), rng.uniform(-170, 170, dispersed)])
    lats = np.concatenate([rng.normal(45.0, 0.2, clustered), rng.uniform(-60, 60, dispersed)])
    return np.column_stack([lons, lats])


def mean_pairwise_km(centers):
    return dense_distance_oracle(*centers.T).mean()


# ---------------------------------------------------------------------------
# raster lookup and descriptors
# ---------------------------------------------------------------------------


def test_lookup_origin_cell():
    raster = tiny_raster([[3, 4], [5, 6]])
    # cell (0, 0) spans lat (5, 10], lon [0, 5)
    codes = lookup(raster, lon=np.array([2.5, 7.5]), lat=np.array([7.5, 2.5]))
    assert codes.dtype == np.int64 and codes.tolist() == [3, 6]


def test_lookup_outside_extent():
    raster = tiny_raster([[3, 4], [5, 6]])
    # one cell south, one west, beyond the east edge
    codes = lookup(raster, lon=np.array([2.5, -2.5, 11.0]), lat=np.array([-2.5, 7.5, 7.5]))
    assert codes.tolist() == [-1, -1, -1]


def test_lookup_nodata_is_uncovered():
    raster = tiny_raster([[0, 4], [5, 6]], nodata=0)
    assert lookup(raster, lon=np.array([2.5]), lat=np.array([7.5])).tolist() == [-1]


def lookup_reference(raster, lon, lat):
    """One point's code by scalar ``math.floor`` cell arithmetic, -1 if uncovered."""
    row = math.floor((raster.lat_max - lat) / raster.dlat)
    col = math.floor((lon - raster.lon_min) / raster.dlon)
    rows, cols = raster.grid.shape
    if not (0 <= row < rows and 0 <= col < cols):
        return -1
    code = int(raster.grid[row, col])
    return -1 if code == raster.nodata else code


def test_lookup_and_descriptors_match_scalar_floor_reference():
    rng = np.random.default_rng(21)
    rows, cols, dlat, dlon, lat_max, lon_min = 7, 9, 0.3, 0.7, 12.5, -33.1
    climate = tiny_raster(rng.integers(0, 4, (rows, cols)), lat_max, lon_min, dlat, dlon, nodata=0)
    thematic = tiny_raster(rng.integers(1, 5, (rows, cols)), lat_max, lon_min, dlat, dlon, nodata=3)
    south, east = lat_max - rows * dlat, lon_min + cols * dlon
    edge_lats = lat_max - dlat * np.arange(rows + 1)  # every cell edge, both outer ones included
    edge_lons = lon_min + dlon * np.arange(cols + 1)
    lons = np.concatenate([
        rng.uniform(lon_min - 1.0, east + 1.0, 300),  # inside and outside
        np.repeat(edge_lons, rows + 1), [lon_min - 1e-9, east, east + 1e-9, lon_min, 0.0],
    ])
    lats = np.concatenate([
        rng.uniform(south - 1.0, lat_max + 1.0, 300),
        np.tile(edge_lats, cols + 1), [lat_max, lat_max + 1e-9, south, south - 1e-9, 95.0],
    ])
    for raster in (climate, thematic):
        assert (raster.grid == raster.nodata).any()
        want = [lookup_reference(raster, float(x), float(y)) for x, y in zip(lons, lats)]
        assert lookup(raster, lons, lats).tolist() == want
    # descriptors at box centers, each center taken as 0.5 * (min + max)
    half_w, half_h = rng.uniform(0.0, 0.4, lons.size), rng.uniform(0.0, 0.4, lats.size)
    boxes = np.column_stack([lons - half_w, lats - half_h, lons + half_w, lats + half_h])
    u, v = generate_descriptors(Archive([f"t{i}" for i in range(lons.size)], boxes), climate, thematic)
    centers = [(0.5 * (a + c), 0.5 * (b + d)) for a, b, c, d in boxes.tolist()]
    assert u.tolist() == [lookup_reference(climate, x, y) for x, y in centers]
    assert v.tolist() == [lookup_reference(thematic, x, y) for x, y in centers]
    assert (u == -1).any() and (v == -1).any() and ((u > 0) & (v > 0)).any()


def test_generate_descriptors_requires_both_rasters():
    climate = tiny_raster([[1, 1], [1, 1]])
    thematic = tiny_raster([[2, 0], [2, 2]], nodata=0)
    archive = point_archive([
        ("both", 2.0, 7.0),       # covered by both
        ("climate_only", 7.0, 7.0),  # thematic nodata there
        ("outside", 40.0, 7.0),    # beyond both extents
    ])
    u, v = generate_descriptors(archive, climate, thematic)
    assert (u.tolist(), v.tolist()) == ([1, 1, -1], [2, -1, -1])
    strata = stratify(u, v)
    assert list(strata) == [(1, 2)] and strata[(1, 2)].tolist() == [0]  # only "both"


def test_generate_descriptors_hand_checked_tuples():
    climate = tiny_raster([[1, 2], [3, 4]])
    thematic = tiny_raster([[9, 8], [7, 6]])
    archive = point_archive([
        ("a", 1.0, 9.0),   # cell (0,0)
        ("b", 6.0, 9.0),   # cell (0,1)
        ("c", 1.0, 1.0),   # cell (1,0)
    ])
    u, v = generate_descriptors(archive, climate, thematic)
    got = dict(zip(archive.ids, zip(u.tolist(), v.tolist())))
    assert got == {"a": (1, 9), "b": (2, 8), "c": (3, 7)}


def test_generate_descriptors_uses_bbox_center():
    climate = tiny_raster([[1, 2], [3, 4]])
    thematic = tiny_raster([[9, 9], [9, 9]])
    archive = Archive(["wide"], np.array([[0.0, 5.0, 10.0, 10.0]]))  # center (5, 7.5) -> cell (0,1)
    u, _ = generate_descriptors(archive, climate, thematic)
    assert u.tolist() == [2]


def test_stratify_partition():
    rng = np.random.default_rng(0)
    u, v = rng.integers(1, 3, 40), rng.integers(1, 3, 40)
    strata = stratify(u, v)
    assert sum(len(idx) for idx in strata.values()) == 40
    assert list(strata.keys()) == sorted(strata.keys())
    for (cu, cv), members in strata.items():
        assert (u[members] == cu).all() and (v[members] == cv).all()
        assert (np.diff(members) > 0).all()  # archive order


def test_stratify_singletons():
    u, v = np.array([1, 1, 2, 2]), np.array([1, 2, 1, 2])
    strata = stratify(u, v)
    assert len(strata) == 4
    assert all(len(idx) == 1 for idx in strata.values())


# ---------------------------------------------------------------------------
# haversine
# ---------------------------------------------------------------------------


def test_haversine_zero_and_symmetry():
    assert haversine((10.0, 20.0), (10.0, 20.0)) == 0.0
    a, b = (12.3, 45.6), (-7.0, 3.0)
    assert abs(haversine(a, b) - haversine(b, a)) < 1e-9


def test_haversine_half_and_quarter_circumference():
    assert abs(haversine((0.0, 0.0), (180.0, 0.0)) - 20015.09) <= 0.01
    assert abs(haversine((0.0, 0.0), (0.0, 90.0)) - 10007.54) <= 0.01


def test_pairwise_matches_scalar():
    rng = np.random.default_rng(1)
    lons = rng.uniform(-180, 180, 6)
    lats = rng.uniform(-85, 85, 6)
    d = pair_km(unit_vectors(lons, lats))
    pairs = list(zip(*np.triu_indices(6, 1)))
    assert d.shape == (len(pairs),) == (15,)
    for k, (i, j) in enumerate(pairs):
        assert abs(d[k] - haversine((lons[i], lats[i]), (lons[j], lats[j]))) < 1e-6


@pytest.mark.parametrize("n", [2, 7, 150])
def test_pair_km_matches_dense_upper_triangle(n):
    rng = np.random.default_rng(n)
    lons = rng.uniform(-180, 180, n)
    lats = rng.uniform(-90, 90, n)
    # a coincident pair and an antipodal pair
    lons[-1], lats[-1] = lons[0], lats[0]
    if n > 2:
        lons[1], lats[1] = lons[0] - 180.0 if lons[0] > 0 else lons[0] + 180.0, -lats[0]
    expected = dense_distance_oracle(lons, lats)
    got = pair_km(unit_vectors(lons, lats))
    # the chord and haversine formulas round differently
    assert got.shape == expected.shape and rel_err(got, expected) < 1e-12
    assert got[n - 2] == 0.0  # pair (0, n - 1) coincides
    if n > 2:
        assert abs(got[0] - 20015.09) <= 0.01  # pair (0, 1) is antipodal


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------


def fitness_oracle(lons, lats):
    """Entropy of the normalized pair distances plus the log of their mean,
    from ``dense_distance_oracle``: the formula ``selection_fitness`` rearranges."""
    d = dense_distance_oracle(lons, lats)
    p = d / d.sum()
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz])).sum()) + float(np.log(d.mean()))


def test_fitness_equidistant_points():
    # N pairs of one distance d: entropy log N plus log mean log d
    cases = [
        ([0.0, 120.0, -120.0], [0.0, 0.0, 0.0]),  # 120 degrees apart on the equator
        ([-158.0, 22.0], [23.0, -23.0]),  # antipodal: the rounded chord exceeds 2 and is clipped
        ([0.0, 1e-7], [0.0, 0.0]),  # 1e-7 degrees apart along the equator
        ([0.0, 0.0], [0.0, 1e-7]),  # and along a meridian
    ]
    for lons, lats in cases:
        lons, lats = np.array(lons), np.array(lats)
        n_pairs = lons.size * (lons.size - 1) // 2
        dist = haversine((lons[0], lats[0]), (lons[1], lats[1]))
        fit = selection_fitness(unit_vectors(lons, lats), np.ones(lons.size, dtype=bool))
        assert rel_err(math.exp(fit - math.log(n_pairs)), dist) < 1e-9
    unit = unit_vectors(*cases[1])
    assert 0.5 * math.sqrt(((unit[:, 0] - unit[:, 1]) ** 2).sum()) > 1.0  # so arcsin needs the clip


def test_fitness_nearby_points_keep_their_digits():
    # a chord of 1e-7 degrees from 2 - 2 cos would round to 0; the summed
    # coordinate differences keep it to within the unit vectors' own rounding
    # (about 1e-16 of a 1.7e-9 chord), so 1e-6 here rather than 1e-9
    rng = np.random.default_rng(8)
    for _ in range(200):
        lon, lat, angle = rng.uniform(-180, 180), rng.uniform(-85, 85), rng.uniform(0, 2 * np.pi)
        lons = np.array([lon, lon + 1e-7 * math.cos(angle)])
        lats = np.array([lat, lat + 1e-7 * math.sin(angle)])
        fit = selection_fitness(unit_vectors(lons, lats), np.array([True, True]))
        assert rel_err(math.exp(fit), haversine((lons[0], lats[0]), (lons[1], lats[1]))) < 1e-6


def test_fitness_degenerate_selections():
    zeros = np.zeros(4)  # all points coincide
    assert selection_fitness(unit_vectors(zeros, zeros), np.ones(4, dtype=bool)) == float("-inf")
    lons, lats = np.array([12.3, 12.3, 50.0]), np.array([45.6, 45.6, 0.0])  # a coincident pair
    assert selection_fitness(unit_vectors(lons, lats), np.array([True, True, False])) == float("-inf")
    assert selection_fitness(unit_vectors(lons, lats), np.array([0, 1])) == float("-inf")
    unit = unit_vectors(np.array([0.0, 1.0]), np.zeros(2))
    assert selection_fitness(unit, np.array([True, False])) == float("-inf")


def test_fitness_distance_scaling_shifts_by_log_two():
    # collinear equator points: doubling the longitude gaps doubles every distance
    lons, lats, every = np.array([0.0, 10.0, 30.0, 35.0]), np.zeros(4), np.ones(4, dtype=bool)
    base = selection_fitness(unit_vectors(lons, lats), every)
    doubled = selection_fitness(unit_vectors(2 * lons, lats), every)
    assert abs((doubled - base) - math.log(2.0)) < 1e-9


def test_fitness_matches_pair_distances_oracle():
    def check(lons, lats, idx):
        mask = np.zeros(lons.size, dtype=bool)
        mask[idx] = True
        got = selection_fitness(unit_vectors(lons, lats), mask)
        assert rel_err(got, fitness_oracle(lons[mask], lats[mask])) < 1e-12

    rng = np.random.default_rng(12)
    for seed in range(10):  # criterion 7's strata, selections of 90-110 points
        srng = np.random.default_rng(100 + seed)
        lons = np.concatenate([srng.normal(10.0, 0.2, 450), srng.uniform(-170, 170, 50)])
        lats = np.concatenate([srng.normal(45.0, 0.2, 450), srng.uniform(-60, 60, 50)])
        for _ in range(20):
            check(lons, lats, rng.choice(500, size=int(rng.integers(90, 111)), replace=False))
        lons[1], lats[1] = lons[0], lats[0]  # one zero distance among the pairs
        check(lons, lats, np.arange(100))


def mask_fitness_reference(unit, selected):
    """``selection_fitness`` in its m x m form: three outer coordinate
    differences, squared and summed in x, y, z order, compressed row-major by
    a strict-upper mask. The gathered-pairs form must match it bit for bit."""
    idx = np.flatnonzero(selected) if selected.dtype == bool else np.asarray(selected)
    if idx.size < 2:
        return float("-inf")
    x, y, z = unit[:, idx]
    chord2 = x[:, None] - x
    chord2 *= chord2
    for c in (y, z):
        diff = c[:, None] - c
        diff *= diff
        chord2 += diff
    d = 0.5 * np.sqrt(chord2[np.triu(np.ones((idx.size, idx.size), dtype=bool), 1)])
    np.arcsin(np.minimum(d, 1.0, out=d), out=d)
    d *= 2.0 * 6371.0
    total = d.sum()
    if total <= 0.0:
        return float("-inf")
    pos = d[d > 0.0]
    return float(2.0 * np.log(total) - np.einsum("i,i->", pos, np.log(pos)) / total - np.log(d.size))


def test_fitness_bits_equal_the_mask_formulation():
    def check(unit, idx):
        mask = np.zeros(unit.shape[1], dtype=bool)
        mask[idx] = True
        want = mask_fitness_reference(unit, mask)
        assert selection_fitness(unit, mask) == want
        assert selection_fitness(unit, np.sort(idx)) == want
        return want

    rng = np.random.default_rng(27)
    for n in (250, 6000):
        lons, lats = rng.uniform(-180, 180, n), rng.uniform(-90, 90, n)
        lons[1:40], lats[1:40] = lons[0], lats[0]  # 40 coincident points
        unit = unit_vectors(lons, lats)
        for m in range(116):
            check(unit, rng.choice(n, size=m, replace=False))
            check(unit, rng.choice(60, size=min(m, 60), replace=False))  # many coincident pairs
        assert check(unit, np.arange(40)) == float("-inf")
    antipodal = unit_vectors(np.array([-158.0, 22.0]), np.array([23.0, -23.0]))  # the clipped chord
    assert np.isfinite(check(antipodal, np.arange(2)))


def test_pair_cache_is_read_only_triu_indices_with_a_fixed_bound():
    for m in (2, 3, 50, 111):
        runs, j = sampler._pairs(m)
        want_i, want_j = np.triu_indices(m, 1)
        assert np.array_equal(np.repeat(np.arange(m), runs), want_i) and np.array_equal(j, want_j)
        assert not (runs.flags.writeable or j.flags.writeable)
        with pytest.raises(ValueError):
            j[0] = runs[0]
    for m in range(2, 40):
        sampler._pairs(m)
    info = sampler._pairs.cache_info()
    assert info.maxsize == 4 and info.currsize == 4
    # at the default target every selection has at most floor(1.1 * 100) points
    assert sum(side.nbytes for m in range(107, 111) for side in sampler._pairs(m)) < 2**20


# ---------------------------------------------------------------------------
# GA machinery
# ---------------------------------------------------------------------------


def test_mutation_rate_formula():
    assert mutation_rate(100, 5000) == 0.0008
    assert mutation_rate(100, 500) == 100 / (500 * 25)


def test_repair_band_holds_over_many_draws():
    rng = np.random.default_rng(2)
    target = 100
    for _ in range(10_000):
        size = int(rng.integers(0, 500))
        bits = np.zeros(500, dtype=bool)
        bits[rng.choice(500, size=size, replace=False)] = True
        repaired = repair(bits, target, rng)
        assert 90 <= repaired.sum() <= 110


def test_repair_leaves_in_band_masks_alone():
    rng = np.random.default_rng(3)
    bits = np.zeros(300, dtype=bool)
    bits[:95] = True
    before = bits.copy()
    repair(bits, 100, rng)
    assert np.array_equal(bits, before)


def test_repair_goes_to_nearest_band_edge():
    rng = np.random.default_rng(4)
    bits = np.zeros(300, dtype=bool)
    bits[:200] = True
    repair(bits, 100, rng)
    assert bits.sum() == 110  # floor(1.1 * 100)
    bits2 = np.zeros(300, dtype=bool)
    bits2[:5] = True
    repair(bits2, 100, rng)
    assert bits2.sum() == 90  # ceil(0.9 * 100)


def test_evolve_small_stratum_fully_retained():
    stratum = clustered_stratum(0)[:80]
    cfg = GaConfig(target_size=100, generations=50, seed=0)
    selected, fitness, trace = evolve_stratum(stratum, cfg)
    assert selected.tolist() == list(range(80))
    assert math.isnan(fitness) and trace == []


def test_evolve_respects_band_and_subset():
    stratum = clustered_stratum(1)
    cfg = GaConfig(target_size=100, generations=60, population_size=6, seed=5)
    selected, fitness, trace = evolve_stratum(stratum, cfg)
    assert 90 <= len(selected) <= 110
    assert (np.diff(selected) > 0).all()  # distinct rows, ascending
    assert 0 <= selected[0] and selected[-1] < len(stratum)
    assert np.isfinite(fitness)


def test_evolve_memory_does_not_grow_with_stratum_squared():
    # an n x n float64 distance matrix of 3000 entries alone would be 72 MB
    stratum = clustered_stratum(7, clustered=2700, dispersed=300)
    cfg = GaConfig(target_size=100, generations=20, stagnation_limit=0, seed=0)
    tracemalloc.start()
    try:
        evolve_stratum(stratum, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_evolve_best_fitness_monotone():
    stratum = clustered_stratum(2)
    cfg = GaConfig(target_size=100, generations=80, seed=3, stagnation_limit=0)
    _, _, trace = evolve_stratum(stratum, cfg)
    assert len(trace) == 80
    assert all(b >= a for a, b in zip(trace, trace[1:]))


def test_evolve_deterministic():
    stratum = clustered_stratum(3)
    cfg = GaConfig(target_size=100, generations=40, seed=11)
    a, fa, _ = evolve_stratum(stratum, cfg, rng=np.random.default_rng(11))
    b, fb, _ = evolve_stratum(stratum, cfg, rng=np.random.default_rng(11))
    assert np.array_equal(a, b)
    assert fa == fb


#: rows that evolve_stratum selected for clustered_stratum(4), 150 generations, seed 0
GOLDEN_IDS = [
    0, 1, 14, 25, 29, 56, 57, 58, 62, 78, 84, 100, 107, 112, 124, 128, 137, 143, 158, 159, 160,
    167, 169, 176, 182, 185, 202, 208, 211, 222, 231, 232, 234, 241, 250, 264, 270, 273, 275,
    276, 282, 283, 286, 288, 292, 293, 302, 312, 319, 321, 329, 332, 341, 365, 383, 385, 389,
    397, 398, 400, 404, 411, 442, 443, 444, 450, 451, 452, 453, 454, 456, 457, 458, 459, 460,
    461, 463, 464, 465, 466, 467, 468, 469, 470, 471, 472, 473, 474, 475, 476, 477, 478, 479,
    480, 481, 482, 483, 484, 485, 486, 488, 489, 490, 491, 492, 493, 494, 495, 497, 499,
]


def test_evolve_golden_selection():
    # pins the order of every random draw: a faster GA must select the same ids
    cfg = GaConfig(target_size=100, generations=150, seed=0)
    selected, fitness, trace = evolve_stratum(clustered_stratum(4), cfg)
    assert selected.tolist() == GOLDEN_IDS
    assert len(trace) == 150
    assert fitness == 17.021054139432557


def test_evolve_beats_random_selection():
    stratum = clustered_stratum(4)
    cfg = GaConfig(target_size=100, generations=150, seed=0)
    selected, _, _ = evolve_stratum(stratum, cfg)
    rng = np.random.default_rng(99)
    random_pick = stratum[rng.choice(len(stratum), size=len(selected), replace=False)]
    assert mean_pairwise_km(stratum[selected]) > mean_pairwise_km(random_pick)


def test_ga_config_validation():
    with pytest.raises(ParameterError):
        GaConfig(crossover_rate=0.0)
    with pytest.raises(ParameterError):
        GaConfig(population_size=1)


# ---------------------------------------------------------------------------
# whole-archive sampling
# ---------------------------------------------------------------------------


def two_strata_setup():
    climate = tiny_raster([[1, 2]], lat_max=10.0, dlat=10.0, dlon=5.0)
    thematic = tiny_raster([[7, 7]], lat_max=10.0, dlat=10.0, dlon=5.0)
    rng = np.random.default_rng(5)
    points = []
    for i in range(30):  # stratum (1, 7): small, fully retained
        points.append((f"a{i}", float(rng.uniform(0, 4.9)), float(rng.uniform(0.1, 9.9))))
    for i in range(160):  # stratum (2, 7): sampled down
        points.append((f"b{i}", float(rng.uniform(5.0, 9.9)), float(rng.uniform(0.1, 9.9))))
    return points, climate, thematic


def test_sample_archive_union_and_report():
    points, climate, thematic = two_strata_setup()
    cfg = GaConfig(target_size=100, generations=30, seed=1)
    selection, report = sample_archive(point_archive(points), climate, thematic, cfg, baseline=True)
    assert report.total_described == 190
    sizes = {(s["climate"], s["thematic"]): s for s in report.strata}
    assert sizes[(1, 7)]["selected"] == 30  # full retention
    assert 90 <= sizes[(2, 7)]["selected"] <= 110
    assert report.total_selected == sizes[(1, 7)]["selected"] + sizes[(2, 7)]["selected"]
    assert "baseline_mean_pairwise_km" in sizes[(2, 7)]
    ids = [eid for eid, _, _, _ in selection]
    assert len(set(ids)) == len(ids)


def test_sample_archive_deterministic_and_order_invariant():
    points, climate, thematic = two_strata_setup()
    cfg = GaConfig(target_size=100, generations=25, seed=9)
    sel1, _ = sample_archive(point_archive(points), climate, thematic, cfg)
    sel2, _ = sample_archive(point_archive(points), climate, thematic, cfg)
    # the b stratum first, the a stratum woven into it; each keeps its order
    a, b = points[:30], points[30:]
    interleaved = b[:100] + [e for pair in zip(a, b[100:]) for e in pair] + b[130:]
    sel3, _ = sample_archive(point_archive(interleaved), climate, thematic, cfg)
    as_ids = lambda sel: [eid for eid, _, _, _ in sel]
    assert as_ids(sel1) == as_ids(sel2) == as_ids(sel3)


def test_sample_archive_independent_of_the_worker_count(monkeypatch):
    # at a target of 20 both strata evolve, so two usable CPUs take the pool path
    points, climate, thematic = two_strata_setup()
    cfg = GaConfig(target_size=20, generations=8, population_size=4, seed=3)
    results = []
    for cpus in (1, 2):
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: cpus)
        selection, report = sample_archive(point_archive(points), climate, thematic, cfg, baseline=True)
        results.append((selection, asdict(report)))
    assert results[0] == results[1]
    assert [s["stratum_size"] for s in results[0][1]["strata"]] == [30, 160]


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_grid_roundtrip(tmp_path):
    raster = tiny_raster([[1, 2, 3], [4, 5, 6]])
    path = tmp_path / "r.grid"
    save_grid(path, raster)
    again = load_grid(path)
    assert np.array_equal(again.grid, raster.grid)
    assert again.nodata == raster.nodata and again.dlat == raster.dlat


def test_grid_truncation(tmp_path):
    raster = tiny_raster([[1, 2], [3, 4]])
    path = tmp_path / "r.grid"
    save_grid(path, raster)
    raw = path.read_bytes()
    (tmp_path / "cut.grid").write_bytes(raw[:-3])
    with pytest.raises(FormatError):
        load_grid(tmp_path / "cut.grid")


def test_archive_csv_roundtrip(tmp_path):
    path = tmp_path / "archive.csv"
    path.write_text("id,lon_min,lat_min,lon_max,lat_max\nt1,1.0,2.0,3.0,4.0\n")
    archive = load_archive(path)
    assert archive.ids == ["t1"] and archive.centers.tolist() == [[2.0, 3.0]]
    bad = tmp_path / "bad.csv"
    bad.write_text("id,lon\nx,1\n")
    with pytest.raises(DataError):
        load_archive(bad)


@pytest.mark.parametrize("row, fields", [("t2,1.0,2.0,3.0,4.0,99", 6), ("t2,1.0,2.0,3.0", 4), ("t2", 1)],
                         ids=["extra-field", "missing-field", "id-only"])
def test_archive_csv_rejects_rows_without_five_fields(tmp_path, row, fields):
    # line 4 after a blank line: the number is the file's line, not the count of rows
    path = tmp_path / "archive.csv"
    path.write_text(f"id,lon_min,lat_min,lon_max,lat_max\nt1,1.0,2.0,3.0,4.0\n\n{row}\n")
    with pytest.raises(DataError) as err:
        load_archive(path)
    assert str(err.value) == f"{path}: bad row 4: {fields} fields, not 5"


def test_archive_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "archive.csv"
    path.write_text("id,lon_min,lat_min,lon_max,lat_max\n\nt1,1.0,2.0,3.0,4.0\n\n\nt2,5,6,7,8\n\n")
    archive = load_archive(path)
    assert archive.ids == ["t1", "t2"] and archive.boxes.tolist() == [[1, 2, 3, 4], [5, 6, 7, 8]]
    path.write_text("id,lon_min,lat_min,lon_max,lat_max\n\nt1,1.0,2.0,3.0,4.0\n\nt1,5,6,7,8\n")
    with pytest.raises(DataError, match="row 5: repeated id 't1'"):
        load_archive(path)
    path.write_text("id,lon_min,lat_min,lon_max,lat_max\n")
    assert load_archive(path).boxes.shape == (0, 4)


def test_write_selection(tmp_path):
    out = tmp_path / "sel.csv"
    write_selection(out, [("q", 3, 4, 1.5)])
    assert out.read_text().splitlines() == ["id,u,v,stratum_fitness", "q,3,4,1.5"]


def test_evolve_early_stop_on_stagnation():
    stratum = clustered_stratum(6, clustered=40, dispersed=80)  # easy landscape
    cfg = GaConfig(target_size=100, generations=5000, population_size=6,
                   stagnation_limit=10, seed=0)
    _, _, trace = evolve_stratum(stratum, cfg)
    assert len(trace) < 5000  # stopped well before the generation budget
    # the tail is flat for exactly the stagnation window
    assert all(t == trace[-1] for t in trace[-10:])
