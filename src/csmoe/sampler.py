"""Descriptor-driven spatial sampling of a geolocated image archive.

The archive is two columns, tile ids and [n, 4] bounding boxes. Stage one
gives every box center a climate class and a thematic land-cover class by
one batched point lookup into each of two north-up class rasters; entries
covered by both rasters survive. Stage two partitions the survivors into
joint (climate, thematic) strata, one lexsort of the code columns, and, inside
every stratum larger than the target count, runs a genetic algorithm over
binary selection masks whose fitness rewards spatially dispersed picks:
the entropy of the pairwise great-circle distance distribution plus the
log of the mean pairwise distance. Entries become unit vectors once per
stratum; fitness gathers the selected vectors, then each selected pair, for
one chord and one arcsin per pair, never an n x n distance matrix, so a
stratum of n entries costs O(n) memory. The
population, one [P, n] bool matrix, evolves by tournament(2) selection,
uniform crossover, bit-flip mutation, elitism of one, and random
prune/augment repair to the 90-110% size band. Each stratum draws from its
own random stream, so on Linux the strata to evolve run at once in forked
worker processes, at most one per usable CPU, and the strata kept whole run
in the calling process after them; the result depends neither on how many
workers there are nor on the BLAS thread count."""

from __future__ import annotations

import csv
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import CsmoeError, DataError, FormatError, ParameterError, open_utf8, require
from .fileio import atomic_write, read_array, read_header

EARTH_RADIUS_KM = 6371.0  # mean sphere radius; half circumference 20015.09 km

#: operators recorded in every report, for reproducibility
GA_OPERATORS = "tournament(2) + uniform crossover + bit-flip mutation + elitism(1)"


# ---------------------------------------------------------------------------
# Rasters, the archive and its descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassRaster:
    """North-up grid of u16 class codes; row 0 touches lat_max."""

    lat_max: float
    lon_min: float
    dlat: float
    dlon: float
    grid: np.ndarray  # [rows, cols] uint16
    nodata: int

    def __post_init__(self):
        if self.dlat <= 0 or self.dlon <= 0:
            raise ParameterError(f"raster cell sizes must be positive, got ({self.dlat}, {self.dlon})")


def lookup(raster: ClassRaster, lon, lat) -> np.ndarray:
    """int64 class codes at (lon, lat) points; -1 outside the extent or on nodata."""
    row = np.floor((raster.lat_max - np.asarray(lat, dtype=np.float64)) / raster.dlat)
    col = np.floor((np.asarray(lon, dtype=np.float64) - raster.lon_min) / raster.dlon)
    rows, cols = raster.grid.shape
    inside = (0 <= row) & (row < rows) & (0 <= col) & (col < cols)  # False for NaN too
    codes = np.full(inside.shape, -1, dtype=np.int64)
    codes[inside] = raster.grid[row[inside].astype(np.int64), col[inside].astype(np.int64)]
    codes[codes == raster.nodata] = -1
    return codes


@dataclass(frozen=True)
class Archive:
    """Tile ids and their [n, 4] boxes (lon_min, lat_min, lon_max, lat_max), row for row."""

    ids: list
    boxes: np.ndarray

    @property
    def centers(self) -> np.ndarray:
        """[n, 2] (lon, lat) box centers."""
        b = self.boxes
        return np.stack([0.5 * (b[:, 0] + b[:, 2]), 0.5 * (b[:, 1] + b[:, 3])], axis=1)


def generate_descriptors(archive: Archive, climate: ClassRaster, thematic: ClassRaster):
    """(u, v): the climate and thematic codes at each box center, -1 where
    a raster does not cover it."""
    lon, lat = archive.centers.T
    return lookup(climate, lon, lat), lookup(thematic, lon, lat)


def stratify(u: np.ndarray, v: np.ndarray) -> dict:
    """{(u, v): ascending archive indices} over the rows both rasters cover,
    keys sorted."""
    covered = np.flatnonzero((u >= 0) & (v >= 0))
    order = covered[np.lexsort((v[covered], u[covered]))]  # stable: indices stay ascending
    starts = np.flatnonzero(np.diff(u[order]) | np.diff(v[order])) + 1
    return {(int(u[idx[0]]), int(v[idx[0]])): idx for idx in np.split(order, starts) if idx.size}


# ---------------------------------------------------------------------------
# Great-circle distances
# ---------------------------------------------------------------------------


def haversine(p, q) -> float:
    """Great-circle distance in km between two (lon, lat) points."""
    lon1, lat1 = np.radians(p[0]), np.radians(p[1])
    lon2, lat2 = np.radians(q[0]), np.radians(q[1])
    s = (
        np.sin(0.5 * (lat2 - lat1)) ** 2
        + np.cos(lat1) * np.cos(lat2) * np.sin(0.5 * (lon2 - lon1)) ** 2
    )
    return float(2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0))))


def pair_distances(lons, lats) -> np.ndarray:
    """Great-circle km of every pair i < j, in ``np.triu_indices(n, 1)`` order."""
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    k = np.arange(phi.size)
    upper = k[:, None] < k  # row-major over the strict upper triangle
    cos_phi = np.cos(phi)
    s = (
        np.sin(0.5 * (phi[:, None] - phi)[upper]) ** 2
        + (cos_phi[:, None] * cos_phi)[upper] * np.sin(0.5 * (lam[:, None] - lam)[upper]) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))


def unit_vectors(lons, lats) -> np.ndarray:
    """[3, n] rows x, y, z: each (lon, lat) point as a vector on the unit sphere."""
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(lam), cos_phi * np.sin(lam), np.sin(phi)])


# ---------------------------------------------------------------------------
# Genetic algorithm
# ---------------------------------------------------------------------------


@dataclass
class GaConfig:
    target_size: int = 100  # samples to keep per stratum
    generations: int = 2500
    population_size: int = 10
    crossover_rate: float = 0.5  # per-gene swap probability
    stagnation_limit: int = 250  # 0 disables early stopping
    seed: int = 0

    def __post_init__(self):
        require([
            (self.target_size >= 1, f"target_size must be >= 1, got {self.target_size}"),
            (self.generations >= 1, f"generations must be >= 1, got {self.generations}"),
            (self.population_size >= 2, f"population_size must be >= 2, got {self.population_size}"),
            (0.0 < self.crossover_rate <= 1.0, f"crossover_rate {self.crossover_rate} outside (0, 1]"),
            (self.stagnation_limit >= 0, f"stagnation_limit must be >= 0, got {self.stagnation_limit}"),
            (self.seed >= 0, f"seed must be >= 0, got {self.seed}"),
        ], ParameterError)


def mutation_rate(target_size: int, stratum_size: int) -> float:
    """Per-bit flip probability: target / (stratum size * 25)."""
    return target_size / (stratum_size * 25.0)


@functools.lru_cache(maxsize=4)  # 4 m^2 bytes each; repair caps most selections at one m
def _pairs(m: int) -> tuple:
    """Read-only (runs, j) of the pairs i < j, row-major as ``pair_distances``
    orders them: point i heads a run of runs[i] = m - 1 - i pairs."""
    runs, j = np.arange(m - 1, -1, -1), np.triu_indices(m, 1)[1]
    runs.flags.writeable = j.flags.writeable = False  # every caller shares them
    return runs, j


def selection_fitness(unit: np.ndarray, selected: np.ndarray) -> float:
    """Entropy of the selected points' normalized pairwise-distance distribution
    plus the log of their mean pairwise distance; -inf for degenerate selections.

    ``unit`` holds the stratum's ``unit_vectors``. The selected vectors are
    gathered once, then each of their N pairs; the pair is d = 2R asin(c/2) km
    apart, c^2 summed from coordinate differences (2 - 2 cos would cancel for
    nearby points). With T = sum d, S = sum_{d>0} d log d, fitness is
    2 log T - S/T - log N: one arcsin and one log per pair.
    """
    idx = np.flatnonzero(selected) if selected.dtype == bool else np.asarray(selected)
    if idx.size < 2:
        return float("-inf")
    runs, j = _pairs(idx.size)
    u = unit.take(idx, axis=1)
    diff = np.repeat(u, runs, axis=1)  # u[:, i], in half the time of a take
    diff -= u.take(j, axis=1)  # take, not u[:, j]: advanced indexing gathers about 4x slower
    diff *= diff
    chord2 = diff[0] + diff[1]
    chord2 += diff[2]
    d = 0.5 * np.sqrt(chord2)
    np.arcsin(np.minimum(d, 1.0, out=d), out=d)
    d *= 2.0 * EARTH_RADIUS_KM
    total = d.sum()
    if total <= 0.0:
        return float("-inf")
    pos = d[d > 0.0]
    # einsum, not BLAS ddot: ddot splits the sum, and so its rounding, by its thread count
    return float(2.0 * np.log(total) - np.einsum("i,i->", pos, np.log(pos)) / total - np.log(d.size))


def repair(bits: np.ndarray, target_size: int, rng: np.random.Generator):
    """Randomly prune above 110% of the target (down to its floor) or augment
    below 90% (up to its ceil); inside the band the mask is untouched."""
    upper = math.floor(1.1 * target_size)
    lower = math.ceil(0.9 * target_size)
    size = np.count_nonzero(bits)
    if size > upper:
        on = np.flatnonzero(bits)
        drop = rng.choice(on, size=size - upper, replace=False)
        bits[drop] = False
    elif size < lower:
        off = np.flatnonzero(~bits)
        need = min(lower - size, off.size)
        if need > 0:
            add = rng.choice(off, size=need, replace=False)
            bits[add] = True
    return bits


def evolve_stratum(centers: np.ndarray, cfg: GaConfig, rng: np.random.Generator = None):
    """Select a spatially dispersed subset of one stratum's [n, 2] (lon, lat) centers.

    Strata no larger than the target are fully retained. Returns
    (ascending selected row indices, best fitness, best-fitness-per-generation trace).
    """
    n, size = len(centers), cfg.population_size
    if n <= cfg.target_size:
        return np.arange(n), float("nan"), []
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    unit = unit_vectors(*np.asarray(centers, dtype=np.float64).T)
    rate = mutation_rate(cfg.target_size, n)
    pop = np.zeros((size, n), dtype=bool)  # one selection mask per row
    for row in pop:
        row[rng.choice(n, size=cfg.target_size, replace=False)] = True
    fit = np.array([selection_fitness(unit, row) for row in pop])
    top = int(np.argmax(fit))  # the first of equal maxima
    best, best_fitness = pop[top], float(fit[top])
    trace, stagnant = [], 0
    for _ in range(cfg.generations):
        kids, kid_fit = [pop[top]], [fit[top]]  # elitism(1)
        while len(kids) < size:
            i, j = rng.integers(0, size, 2)  # two tournaments of two
            a = pop[i if fit[i] >= fit[j] else j]
            i, j = rng.integers(0, size, 2)
            b = pop[i if fit[i] >= fit[j] else j]
            swapped = (a ^ b) & (rng.random(n) < cfg.crossover_rate)  # uniform crossover
            for child in (a ^ swapped, b ^ swapped)[:size - len(kids)]:
                child ^= rng.random(n) < rate
                kids.append(repair(child, cfg.target_size, rng))
                kid_fit.append(selection_fitness(unit, child))
        pop, fit = np.array(kids), np.array(kid_fit)
        top = int(np.argmax(fit))
        if fit[top] > best_fitness:
            best, best_fitness = pop[top], float(fit[top])
            stagnant = 0
        else:
            stagnant += 1
        trace.append(best_fitness)
        if cfg.stagnation_limit and stagnant >= cfg.stagnation_limit:
            break
    return np.flatnonzero(best), best_fitness, trace


# ---------------------------------------------------------------------------
# Whole-archive sampling
# ---------------------------------------------------------------------------


@dataclass
class SamplingReport(GaConfig):
    """Every ``GaConfig`` setting of a run, then what the run selected."""

    operators: str = GA_OPERATORS
    strata: list = field(default_factory=list)  # one dict per stratum
    total_selected: int = 0
    total_described: int = 0


def _mean_pairwise(centers: np.ndarray) -> float:
    return float(pair_distances(*centers.T).mean()) if len(centers) >= 2 else 0.0


def _stratum_rng(seed: int, key, salt: int = 0) -> np.random.Generator:
    u, v = key
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(u, v, salt)))


def _evolve_one(key, centers: np.ndarray, cfg: GaConfig, baseline: bool):
    """Evolve one stratum; returns (selected rows of ``centers``, report dict)."""
    n = len(centers)
    selected, fitness, _ = evolve_stratum(centers, cfg, rng=_stratum_rng(cfg.seed, key))
    info = {
        "climate": key[0],
        "thematic": key[1],
        "stratum_size": n,
        "selected": len(selected),
        "fitness": fitness,
        "mean_pairwise_km": _mean_pairwise(centers[selected]),
        "mutation_rate": mutation_rate(cfg.target_size, n) if n > cfg.target_size else 0.0,
    }
    if baseline:
        pick = np.arange(n)  # a fully kept stratum is its own random subset
        if n > len(selected):
            pick = np.sort(_stratum_rng(cfg.seed, key, salt=1).choice(n, size=len(selected), replace=False))
        info["baseline_mean_pairwise_km"] = _mean_pairwise(centers[pick])
    return selected, info


def _usable_cpus() -> int:
    """CPUs this process may run on, from its affinity mask (Linux)."""
    return len(os.sched_getaffinity(0))


def _worker(send, parent: int, key, centers: np.ndarray, cfg: GaConfig, baseline: bool):
    """A forked worker: sends ``parent`` ``_evolve_one``'s result or the
    exception it raised. It first has the kernel kill it when the parent
    dies, by any signal, SIGKILL too."""
    import ctypes

    prctl = ctypes.CDLL(None, use_errno=True).prctl
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    if prctl(1, 9) != 0:  # PR_SET_PDEATHSIG, SIGKILL
        send.send(OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed in a sampling worker"))
    elif os.getppid() == parent:  # else the parent died before prctl took hold
        try:
            outcome = _evolve_one(key, centers, cfg, baseline)
        except BaseException as exc:  # the parent raises it, as a serial run would have
            outcome = exc
        send.send(outcome)


def _evolve_all(jobs: dict, cfg: GaConfig, baseline: bool) -> list:
    """``_evolve_one`` of every {key: centers} job, in ``jobs`` order.

    On Linux, each stratum larger than the target runs in its own forked
    worker, at most one per usable CPU at once, the largest first. Then
    every stratum no worker ran runs here, in ``jobs`` order: the strata
    kept whole, and all of them with one CPU or one stratum to evolve. As in
    a serial run, the first stratum in ``jobs`` order to fail raises its
    error, and no stratum after it starts or keeps running. No worker
    outlives the call: each is killed and joined before it returns or
    raises, KeyboardInterrupt included.
    """
    keys = list(jobs)
    todo = sorted((i for i, key in enumerate(keys) if len(jobs[key]) > cfg.target_size),
                  key=lambda i: len(jobs[keys[i]]))  # pop() gives the largest
    results, failed = {}, len(keys)  # results[failed] is the first stratum's error
    # only Linux can make a worker die with its parent
    workers = min(_usable_cpus(), len(todo)) if sys.platform == "linux" else 1
    if workers >= 2:
        import multiprocessing  # imported only when workers run, so no command's start-up pays for it
        from multiprocessing.connection import wait

        context = multiprocessing.get_context("fork")
        started, running = [], {}
        try:
            while running or todo:
                while todo and len(running) < workers:
                    i = todo.pop()
                    receive, send = context.Pipe(duplex=False)
                    process = context.Process(target=_worker, daemon=True,
                                              args=(send, os.getpid(), keys[i], jobs[keys[i]], cfg, baseline))
                    started.append(process)
                    process.start()
                    send.close()
                    running[receive] = process, i
                for receive in wait(list(running)):
                    process, i = running.pop(receive)
                    try:
                        results[i] = receive.recv()
                    except EOFError:
                        process.join()
                        results[i] = CsmoeError(f"a sampling worker process died evolving stratum "
                                                f"{keys[i]}: exit code {process.exitcode}")
                    receive.close()
                    if isinstance(results[i], Exception):
                        failed = min(failed, i)
                    elif isinstance(results[i], BaseException):
                        raise results[i]  # an interrupt, not a failure of the stratum
                todo = [i for i in todo if i < failed]  # a serial run would never reach the rest
                for receive, (process, i) in list(running.items()):
                    if i > failed:
                        process.kill()
                        del running[receive]
        finally:
            for process, _ in running.values():
                process.kill()
            for process in started:
                process.join()
    for i, key in enumerate(keys):
        if i == failed:
            raise results[i]
        if i not in results:
            results[i] = _evolve_one(key, jobs[key], cfg, baseline)
    return [results[i] for i in range(len(keys))]


def sample_archive(archive: Archive, climate: ClassRaster, thematic: ClassRaster, cfg: GaConfig,
                   baseline: bool = False):
    """Descriptor generation, stratification, per-stratum evolution, union.

    Returns (selection, SamplingReport) where the selection is a list of
    (id, u, v, stratum fitness) rows in sorted stratum order. Per-stratum
    RNG streams derive from (seed, climate, thematic), so results do not
    depend on how the archive interleaves its strata, nor on how many
    worker processes evolve them.
    """
    strata = stratify(*generate_descriptors(archive, climate, thematic))
    centers = archive.centers
    report = SamplingReport(**asdict(cfg), total_described=sum(idx.size for idx in strata.values()))
    results = _evolve_all({key: centers[idx] for key, idx in strata.items()}, cfg, baseline)
    selection = []
    for ((u, v), idx), (selected, info) in zip(strata.items(), results):
        report.strata.append(info)
        selection += [(archive.ids[i], u, v, info["fitness"]) for i in idx[selected]]
    report.total_selected = len(selection)
    return selection, report


# ---------------------------------------------------------------------------
# File formats: archive CSV and GRID1 rasters
# ---------------------------------------------------------------------------

ARCHIVE_HEADER = ["id", "lon_min", "lat_min", "lon_max", "lat_max"]


def _row_problems(eid: str, box, seen_ids) -> str:
    lon_min, lat_min, lon_max, lat_max = box
    lons, lats = (lon_min, lon_max), (lat_min, lat_max)
    checks = [
        (all(math.isfinite(v) for v in box), "coordinates must be finite"),
        (all(-180.0 <= v <= 180.0 for v in lons), f"lon {lons} outside [-180, 180]"),
        (all(-90.0 <= v <= 90.0 for v in lats), f"lat {lats} outside [-90, 90]"),
        (lon_min <= lon_max, f"lon_min {lon_min} > lon_max {lon_max}"),
        (lat_min <= lat_max, f"lat_min {lat_min} > lat_max {lat_max}"),
        (eid not in seen_ids, f"repeated id {eid!r}"),
    ]
    return "; ".join(msg for ok, msg in checks if not ok)


def load_archive(path) -> Archive:
    """CSV with header id,lon_min,lat_min,lon_max,lat_max.

    Every non-blank row has exactly these 5 fields: a unique id and a box of
    finite degrees with -180 <= lon_min <= lon_max <= 180 and
    -90 <= lat_min <= lat_max <= 90. Errors name the row by its line number.
    """
    ids, boxes, seen = [], [], set()
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ARCHIVE_HEADER:
            raise DataError(f"{path}: expected header {','.join(ARCHIVE_HEADER)}")
        for row in reader:
            if not row:
                continue  # a blank line
            if len(row) != len(ARCHIVE_HEADER):
                raise DataError(f"{path}: bad row {reader.line_num}: {len(row)} fields, "
                                f"not {len(ARCHIVE_HEADER)}")
            eid = row[0]
            try:
                box = [float(x) for x in row[1:]]
            except ValueError as exc:
                raise DataError(f"{path}: bad row {reader.line_num}: {exc}") from exc
            lon_min, lat_min, lon_max, lat_max = box
            # every comparison with NaN is False, so this also rejects non-finite values
            if not (-180.0 <= lon_min <= lon_max <= 180.0
                    and -90.0 <= lat_min <= lat_max <= 90.0) or eid in seen:
                raise DataError(f"{path}: bad row {reader.line_num}: {_row_problems(eid, box, seen)}")
            seen.add(eid)
            ids.append(eid)
            boxes.append(box)
    return Archive(ids=ids, boxes=np.array(boxes, dtype=np.float64).reshape(-1, 4))


def write_selection(path, selection):
    """CSV id,u,v,stratum_fitness for the selected entries, written atomically."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "u", "v", "stratum_fitness"])
        for eid, u, v, fitness in selection:
            writer.writerow([eid, u, v, repr(float(fitness))])


_GRID_KEYS = {"lat_max", "lon_min", "dlat", "dlon", "rows", "cols", "nodata"}


def load_grid(path) -> ClassRaster:
    """GRID1: one JSON header line, then rows*cols little-endian u16 codes."""
    with open(path, "rb") as fh:
        header = read_header(fh, path, "GRID1")
        missing = _GRID_KEYS - set(header)
        if missing:
            raise FormatError(f"{path}: GRID1 header missing keys {sorted(missing)}")
        for key in ("rows", "cols", "nodata"):
            if type(header[key]) is not int or header[key] < 0:
                raise FormatError(f"{path}: GRID1 header {key} must be a non-negative int, "
                                  f"got {header[key]!r}")
        for key in ("lat_max", "lon_min", "dlat", "dlon"):
            if type(header[key]) not in (int, float) or not math.isfinite(header[key]):
                raise FormatError(f"{path}: GRID1 header {key} must be a finite number, "
                                  f"got {header[key]!r}")
            if key in ("dlat", "dlon") and header[key] <= 0:
                raise FormatError(f"{path}: GRID1 header {key} must be positive, got {header[key]!r}")
        rows, cols = header["rows"], header["cols"]
        grid = read_array(fh, (rows, cols), "<u2", "GRID1 payload", path)
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after the GRID1 payload")
    return ClassRaster(
        lat_max=float(header["lat_max"]), lon_min=float(header["lon_min"]),
        dlat=float(header["dlat"]), dlon=float(header["dlon"]),
        grid=grid, nodata=header["nodata"],
    )


def save_grid(path, raster: ClassRaster):
    rows, cols = raster.grid.shape
    header = {
        "lat_max": raster.lat_max, "lon_min": raster.lon_min,
        "dlat": raster.dlat, "dlon": raster.dlon,
        "rows": rows, "cols": cols, "nodata": raster.nodata,
    }
    with atomic_write(path) as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.ascontiguousarray(raster.grid, dtype="<u2").tobytes())
