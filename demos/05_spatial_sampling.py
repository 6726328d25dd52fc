# Descriptor-driven sampling: look archive tiles up in climate and land-cover
# rasters, stratify by the joint descriptor, and inside each large stratum let
# a genetic algorithm pick a spatially dispersed subset. The archive is two
# columns, tile ids and [n, 4] boxes, and every step works on whole columns.

import numpy as np

from csmoe.sampler import (
    Archive, ClassRaster, GaConfig,
    generate_descriptors, stratify, sample_archive,
)

rng = np.random.default_rng(0)

# Two toy rasters over a 20x20 degree window: west/east climate halves and a
# north/south land-cover split.
climate = ClassRaster(lat_max=20.0, lon_min=0.0, dlat=20.0, dlon=10.0,
                      grid=np.array([[1, 2]], dtype=np.uint16), nodata=0)
thematic = ClassRaster(lat_max=20.0, lon_min=0.0, dlat=10.0, dlon=20.0,
                       grid=np.array([[7], [8]], dtype=np.uint16), nodata=0)

# An archive dominated by one crowded region plus a dispersed remainder;
# each tile is a point, so its box is (lon, lat, lon, lat).
points = []
for i in range(400):  # crowded cluster in the north-west cell
    points.append((f"c{i}", rng.normal(3.0, 0.3), rng.normal(16.0, 0.3)))
for i in range(80):  # scattered everywhere
    points.append((f"s{i}", rng.uniform(0.5, 19.5), rng.uniform(0.5, 19.5)))
ids, lons, lats = zip(*points)
archive = Archive(ids=list(ids), boxes=np.column_stack([lons, lats, lons, lats]))

# one (u, v) code per tile, -1 where a raster does not cover it; each
# stratum holds the ascending archive rows of one (u, v) pair
u, v = generate_descriptors(archive, climate, thematic)
strata = stratify(u, v)
print("strata sizes:", {k: len(idx) for k, idx in strata.items()})

cfg = GaConfig(target_size=100, generations=300, population_size=10,
               crossover_rate=0.5, seed=0)
selection, report = sample_archive(archive, climate, thematic, cfg, baseline=True)
print(f"selected {report.total_selected} of {report.total_described} entries")
for s in report.strata:
    note = ""
    if "baseline_mean_pairwise_km" in s and s["stratum_size"] > cfg.target_size:
        note = (f"  (random baseline {s['baseline_mean_pairwise_km']:.0f} km "
                f"vs GA {s['mean_pairwise_km']:.0f} km)")
    print(f"  stratum ({s['climate']},{s['thematic']}): {s['stratum_size']:3d} -> "
          f"{s['selected']:3d} kept{note}")
print("first rows (id, u, v, stratum fitness):", selection[:2])
