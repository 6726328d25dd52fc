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
