"""Shared test helpers, kept independent of the library's own gradient checker."""

import numpy as np


def finite_difference(fn, tensors, h=1e-5):
    """Central-difference gradients of a scalar-valued fn w.r.t. each tensor.

    ``fn`` takes no arguments and reads the tensors' current .data; this is
    a brute-force oracle, separate from csmoe.numerics.check_gradients.
    """
    grads = []
    for t in tensors:
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = fn()
            flat[i] = keep - h
            down = fn()
            flat[i] = keep
            g.reshape(-1)[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def weighted_sum(out, w):
    """The scalar ``sum(out * w)`` as a [1, 1] tensor: one ``linear`` of the
    flattened ``out`` against ``w``, an array or a Tensor with out's number
    of elements, matched in row-major order. A Tensor ``w`` gets a gradient
    too, so ``weighted_sum(x, x)`` is the sum of squares of x."""
    from csmoe.numerics import Tensor, linear, reshape

    w = w if isinstance(w, Tensor) else Tensor(w)
    return linear(reshape(out, (1, -1)), reshape(w, (-1, 1)))


def dense_distance_oracle(lons, lats):
    """Great-circle km of every pair i < j in ``np.triu_indices(n, 1)``
    order: the strict upper triangle of the dense [n, n] haversine matrix,
    evaluated with broadcasting. The reference for ``sampler.pair_km``."""
    lam, phi = np.radians(lons), np.radians(lats)
    s = (
        np.sin(0.5 * (phi[:, None] - phi[None, :])) ** 2
        + np.cos(phi)[:, None] * np.cos(phi)[None, :] * np.sin(0.5 * (lam[:, None] - lam[None, :])) ** 2
    )
    return (2.0 * 6371.0 * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0))))[np.triu_indices(len(lons), 1)]


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float(np.max(np.abs(a - b) / denom))


def mini_config(**overrides):
    """The miniature model configuration used throughout the tests."""
    from csmoe.model import CsmoeConfig

    base = dict(
        patch_size=8, image_side=16, channels_x=2, channels_y=3,
        enc_dim=16, dec_dim=8, enc_layers_modality=1, enc_layers_shared=1,
        dec_layers=1, num_slots=2, heads=2, dec_heads=2, proj_dim=8, seed=0,
    )
    base.update(overrides)
    return CsmoeConfig(**base)


def moe_block(seed=0, **overrides):
    """The first shared encoder block of ``init_model(mini_config(...))``: a
    Soft MoE block initialised exactly as the model initialises it."""
    from csmoe.model import init_model

    return init_model(mini_config(seed=seed, **overrides)).enc_shared[0]


def decoder_block(seed=0, **overrides):
    """The first x decoder block of ``init_model(mini_config(...))``."""
    from csmoe.model import init_model

    return init_model(mini_config(seed=seed, **overrides)).decoder["x"][0]


def write_sampling_inputs(tmp_path, n_entries=160, strata=1):
    """A uniform archive CSV of ``n_entries`` points and two GRID1 rasters
    covering them, the thematic one of one class and the climate one of
    ``strata`` equal columns with classes 1, 2, ...; returns the three paths."""
    from csmoe.sampler import ClassRaster, save_grid

    rng = np.random.default_rng(0)
    lines = ["id,lon_min,lat_min,lon_max,lat_max"]
    for i in range(n_entries):
        lon = float(rng.uniform(0.2, 9.8))
        lat = float(rng.uniform(0.2, 9.8))
        lines.append(f"t{i:03d},{lon},{lat},{lon},{lat}")
    archive = tmp_path / "archive.csv"
    archive.write_text("\n".join(lines) + "\n")
    raster = ClassRaster(lat_max=10.0, lon_min=0.0, dlat=10.0, dlon=10.0,
                         grid=np.array([[1]], dtype=np.uint16), nodata=0)
    climate = tmp_path / "climate.grid"
    thematic = tmp_path / "thematic.grid"
    save_grid(climate, ClassRaster(lat_max=10.0, lon_min=0.0, dlat=10.0, dlon=10.0 / strata,
                                   grid=np.arange(1, strata + 1, dtype=np.uint16)[None], nodata=0))
    save_grid(thematic, raster)
    return archive, climate, thematic
