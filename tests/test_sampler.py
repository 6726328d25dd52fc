import math
import tracemalloc

import numpy as np
import pytest

from csmoe.errors import DataError, FormatError, ParameterError
from csmoe.sampler import (
    ArchiveEntry,
    ClassRaster,
    DescribedEntry,
    GaConfig,
    evolve_stratum,
    generate_descriptors,
    haversine,
    load_archive,
    load_grid,
    lookup,
    mutation_rate,
    pair_distances,
    repair,
    sample_archive,
    save_grid,
    selection_fitness,
    stratify,
    write_selection,
)

from util import rel_err


def tiny_raster(codes, lat_max=10.0, lon_min=0.0, dlat=5.0, dlon=5.0, nodata=0):
    return ClassRaster(lat_max=lat_max, lon_min=lon_min, dlat=dlat, dlon=dlon,
                       grid=np.asarray(codes, dtype=np.uint16), nodata=nodata)


def point_entry(eid, lon, lat):
    return ArchiveEntry(eid, lon, lat, lon, lat)


def clustered_stratum(seed, clustered=450, dispersed=50):
    rng = np.random.default_rng(seed)
    lons = np.concatenate([rng.normal(10.0, 0.2, clustered), rng.uniform(-170, 170, dispersed)])
    lats = np.concatenate([rng.normal(45.0, 0.2, clustered), rng.uniform(-60, 60, dispersed)])
    return [
        DescribedEntry(point_entry(f"e{i}", lons[i], lats[i]), 1, 1)
        for i in range(clustered + dispersed)
    ]


def mean_pairwise_km(entries):
    lons = np.array([d.entry.center[0] for d in entries])
    lats = np.array([d.entry.center[1] for d in entries])
    return pair_distances(lons, lats).mean()


# ---------------------------------------------------------------------------
# raster lookup and descriptors
# ---------------------------------------------------------------------------


def test_lookup_origin_cell():
    raster = tiny_raster([[3, 4], [5, 6]])
    # cell (0, 0) spans lat (5, 10], lon [0, 5)
    assert lookup(raster, lon=2.5, lat=7.5) == 3
    assert lookup(raster, lon=7.5, lat=2.5) == 6


def test_lookup_outside_extent():
    raster = tiny_raster([[3, 4], [5, 6]])
    assert lookup(raster, lon=2.5, lat=-2.5) is None  # one cell south
    assert lookup(raster, lon=-2.5, lat=7.5) is None
    assert lookup(raster, lon=11.0, lat=7.5) is None


def test_lookup_nodata_is_uncovered():
    raster = tiny_raster([[0, 4], [5, 6]], nodata=0)
    assert lookup(raster, lon=2.5, lat=7.5) is None


def test_generate_descriptors_requires_both_rasters():
    climate = tiny_raster([[1, 1], [1, 1]])
    thematic = tiny_raster([[2, 0], [2, 2]], nodata=0)
    entries = [
        point_entry("both", 2.0, 7.0),       # covered by both
        point_entry("climate_only", 7.0, 7.0),  # thematic nodata there
        point_entry("outside", 40.0, 7.0),    # beyond both extents
    ]
    described = generate_descriptors(entries, climate, thematic)
    assert [d.entry.id for d in described] == ["both"]
    assert (described[0].climate, described[0].thematic) == (1, 2)


def test_generate_descriptors_hand_checked_tuples():
    climate = tiny_raster([[1, 2], [3, 4]])
    thematic = tiny_raster([[9, 8], [7, 6]])
    entries = [
        point_entry("a", 1.0, 9.0),   # cell (0,0)
        point_entry("b", 6.0, 9.0),   # cell (0,1)
        point_entry("c", 1.0, 1.0),   # cell (1,0)
    ]
    described = generate_descriptors(entries, climate, thematic)
    got = {d.entry.id: (d.climate, d.thematic) for d in described}
    assert got == {"a": (1, 9), "b": (2, 8), "c": (3, 7)}


def test_generate_descriptors_uses_bbox_center():
    climate = tiny_raster([[1, 2], [3, 4]])
    thematic = tiny_raster([[9, 9], [9, 9]])
    entry = ArchiveEntry("wide", 0.0, 5.0, 10.0, 10.0)  # center (5, 7.5) -> cell (0,1)
    (d,) = generate_descriptors([entry], climate, thematic)
    assert d.climate == 2


def test_stratify_partition():
    rng = np.random.default_rng(0)
    described = [
        DescribedEntry(point_entry(f"e{i}", 0, 0), int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        for i in range(40)
    ]
    strata = stratify(described)
    assert sum(len(v) for v in strata.values()) == 40
    assert list(strata.keys()) == sorted(strata.keys())
    for (u, v), members in strata.items():
        assert all(m.climate == u and m.thematic == v for m in members)


def test_stratify_singletons():
    described = [DescribedEntry(point_entry("a", 0, 0), u, v) for u in (1, 2) for v in (1, 2)]
    strata = stratify(described)
    assert len(strata) == 4
    assert all(len(v) == 1 for v in strata.values())


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
    d = pair_distances(lons, lats)
    pairs = list(zip(*np.triu_indices(6, 1)))
    assert d.shape == (len(pairs),) == (15,)
    for k, (i, j) in enumerate(pairs):
        assert abs(d[k] - haversine((lons[i], lats[i]), (lons[j], lats[j]))) < 1e-6


def dense_distance_oracle(lons, lats):
    """The dense [n, n] great-circle matrix, evaluated with broadcasting:
    the reference whose upper triangle ``pair_distances`` must reproduce."""
    lam, phi = np.radians(lons), np.radians(lats)
    s = (
        np.sin(0.5 * (phi[:, None] - phi[None, :])) ** 2
        + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(0.5 * (lam[:, None] - lam[None, :])) ** 2
    )
    return 2.0 * 6371.0 * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


@pytest.mark.parametrize("n", [2, 7, 150])
def test_pair_distances_bit_identical_to_dense_upper_triangle(n):
    rng = np.random.default_rng(n)
    lons = rng.uniform(-180, 180, n)
    lats = rng.uniform(-90, 90, n)
    # a coincident pair and an antipodal pair
    lons[-1], lats[-1] = lons[0], lats[0]
    if n > 2:
        lons[1], lats[1] = lons[0] - 180.0 if lons[0] > 0 else lons[0] + 180.0, -lats[0]
    expected = dense_distance_oracle(lons, lats)[np.triu_indices(n, 1)]
    got = pair_distances(lons, lats)
    assert np.array_equal(got, expected)
    assert got[n - 2] == 0.0  # pair (0, n - 1) coincides
    if n > 2:
        assert abs(got[0] - 20015.09) <= 0.01  # pair (0, 1) is antipodal


# ---------------------------------------------------------------------------
# fitness
# ---------------------------------------------------------------------------


def test_fitness_equidistant_points():
    # three points 120 degrees apart on the equator are mutually equidistant
    lons, lats = np.array([0.0, 120.0, -120.0]), np.zeros(3)
    dist = haversine((lons[0], lats[0]), (lons[1], lats[1]))
    fit = selection_fitness(lons, lats, np.array([True, True, True]))
    assert rel_err(fit, math.log(3.0) + math.log(dist)) < 1e-9


def test_fitness_degenerate_selections():
    zeros = np.zeros(4)  # all points coincide
    assert selection_fitness(zeros, zeros, np.ones(4, dtype=bool)) == float("-inf")
    lons = np.array([0.0, 1.0])
    assert selection_fitness(lons, np.zeros(2), np.array([True, False])) == float("-inf")


def test_fitness_distance_scaling_shifts_by_log_two():
    # collinear equator points: doubling the longitude gaps doubles every distance
    lons, lats, every = np.array([0.0, 10.0, 30.0, 35.0]), np.zeros(4), np.ones(4, dtype=bool)
    base = selection_fitness(lons, lats, every)
    doubled = selection_fitness(2 * lons, lats, every)
    assert abs((doubled - base) - math.log(2.0)) < 1e-9


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
    assert selected == list(stratum)
    assert math.isnan(fitness) and trace == []


def test_evolve_respects_band_and_subset():
    stratum = clustered_stratum(1)
    cfg = GaConfig(target_size=100, generations=60, population_size=6, seed=5)
    selected, fitness, trace = evolve_stratum(stratum, cfg)
    assert 90 <= len(selected) <= 110
    ids = [d.entry.id for d in selected]
    assert len(set(ids)) == len(ids)
    assert set(ids) <= {d.entry.id for d in stratum}
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
    assert [d.entry.id for d in a] == [d.entry.id for d in b]
    assert fa == fb


def test_evolve_beats_random_selection():
    stratum = clustered_stratum(4)
    cfg = GaConfig(target_size=100, generations=150, seed=0)
    selected, _, _ = evolve_stratum(stratum, cfg)
    rng = np.random.default_rng(99)
    random_pick = [stratum[i] for i in rng.choice(len(stratum), size=len(selected), replace=False)]
    assert mean_pairwise_km(selected) > mean_pairwise_km(random_pick)


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
    entries = []
    for i in range(30):  # stratum (1, 7): small, fully retained
        entries.append(point_entry(f"a{i}", float(rng.uniform(0, 4.9)), float(rng.uniform(0.1, 9.9))))
    for i in range(160):  # stratum (2, 7): sampled down
        entries.append(point_entry(f"b{i}", float(rng.uniform(5.0, 9.9)), float(rng.uniform(0.1, 9.9))))
    return entries, climate, thematic


def test_sample_archive_union_and_report():
    entries, climate, thematic = two_strata_setup()
    cfg = GaConfig(target_size=100, generations=30, seed=1)
    selection, report = sample_archive(entries, climate, thematic, cfg, baseline=True)
    assert report.total_described == 190
    sizes = {(s["climate"], s["thematic"]): s for s in report.strata}
    assert sizes[(1, 7)]["selected"] == 30  # full retention
    assert 90 <= sizes[(2, 7)]["selected"] <= 110
    assert report.total_selected == sizes[(1, 7)]["selected"] + sizes[(2, 7)]["selected"]
    assert "baseline_mean_pairwise_km" in sizes[(2, 7)]
    ids = [d.entry.id for d, _ in selection]
    assert len(set(ids)) == len(ids)


def test_sample_archive_deterministic_and_order_invariant():
    entries, climate, thematic = two_strata_setup()
    cfg = GaConfig(target_size=100, generations=25, seed=9)
    sel1, _ = sample_archive(entries, climate, thematic, cfg)
    sel2, _ = sample_archive(entries, climate, thematic, cfg)
    # the b stratum first, the a stratum woven into it; each keeps its order
    a, b = entries[:30], entries[30:]
    interleaved = b[:100] + [e for pair in zip(a, b[100:]) for e in pair] + b[130:]
    sel3, _ = sample_archive(interleaved, climate, thematic, cfg)
    as_ids = lambda sel: [d.entry.id for d, _ in sel]
    assert as_ids(sel1) == as_ids(sel2) == as_ids(sel3)


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
    (entry,) = load_archive(path)
    assert entry.id == "t1" and entry.center == (2.0, 3.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("id,lon\nx,1\n")
    with pytest.raises(DataError):
        load_archive(bad)


def test_write_selection(tmp_path):
    d = DescribedEntry(point_entry("q", 1.0, 2.0), 3, 4)
    out = tmp_path / "sel.csv"
    write_selection(out, [(d, 1.5)])
    assert out.read_text().splitlines() == ["id,u,v,stratum_fitness", "q,3,4,1.5"]


def test_evolve_early_stop_on_stagnation():
    stratum = clustered_stratum(6, clustered=40, dispersed=80)  # easy landscape
    cfg = GaConfig(target_size=100, generations=5000, population_size=6,
                   stagnation_limit=10, seed=0)
    _, _, trace = evolve_stratum(stratum, cfg)
    assert len(trace) < 5000  # stopped well before the generation budget
    # the tail is flat for exactly the stagnation window
    assert all(t == trace[-1] for t in trace[-10:])
