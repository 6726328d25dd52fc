import numpy as np
import pytest

from csmoe.errors import NormalizationError, ParameterError
from csmoe.losses import (
    LossSettings,
    loss_cmr,
    loss_ent,
    loss_mi,
    loss_rep,
    loss_total,
    loss_umr,
    normalize_pixel_targets,
    rec_loss,
)
from csmoe.model import forward, init_model, truncated_normal
from csmoe.numerics import Tensor, backward, check_gradients, parameter

from util import mini_config, rel_err


def make_pairs(cfg, batch=2, seed=1):
    """[B, C, H, W] stacks of x and y images, drawn pair by pair."""
    rng = np.random.default_rng(seed)
    draws = [
        (rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side)),
         rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side)))
        for _ in range(batch)
    ]
    return tuple(np.stack(images) for images in zip(*draws))


def make_batch(cfg, model, batch=2, seed=1):
    """One batched forward artifact; pair i is masked with seed 10 + i."""
    xs, ys = make_pairs(cfg, batch, seed)
    return forward(model, xs, ys, seed=[10 + i for i in range(batch)])


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_rec_loss_zero_for_perfect_prediction():
    pred = Tensor(np.arange(6.0).reshape(3, 2))
    assert rec_loss(pred, pred.data.copy(), [0, 2]).item() == 0.0


def test_rec_loss_unit_residual():
    target = np.zeros((4, 3))
    pred = Tensor(np.ones((4, 3)))
    assert rec_loss(pred, target, [1, 3]).item() == 1.0


def test_rec_loss_hand_computed():
    pred = Tensor(np.array([[1.0, 2.0], [3.0, 5.0], [0.0, 1.0]]))
    target = np.array([[1.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
    # masked rows 1 and 2: residuals (2, 4) and (-2, 1); mean of squares over 4 values
    expected = (4.0 + 16.0 + 4.0 + 1.0) / 4.0
    assert abs(rec_loss(pred, target, [1, 2]).item() - expected) < 1e-12


def test_rec_loss_rejects_empty_mask():
    with pytest.raises(ParameterError):
        rec_loss(Tensor(np.ones((2, 2))), np.ones((2, 2)), [])


def test_umr_and_cmr_mask_wiring():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
    y = rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side))
    base = forward(model, x, y, seed=0)
    moved_x = forward(model, x, y, seed=0, mask_seed_x=777)
    assert not np.array_equal(base.masks["x"].masked, moved_x.masks["x"].masked)
    # changing only the X mask changes CMR's first term (Y reconstructed under the X mask)
    assert loss_cmr(base).item() != loss_cmr(moved_x).item()
    moved_y = forward(model, x, y, seed=0, mask_seed_y=888)
    # ... while the Y-from-X term alone ignores the Y mask entirely
    term = lambda art: rec_loss(art.recon[("y", "x")], art.target_tokens["y"], art.masks["x"].masked)
    assert term(base).item() == term(moved_y).item()
    assert loss_umr(base).item() > 0


def test_umr_cmr_match_scratch_evaluation():
    cfg = mini_config()
    model = init_model(cfg)
    (x,), (y,) = make_pairs(cfg, batch=1)
    art = forward(model, x, y, seed=10)

    def mse(pred, target, idx):
        d = pred.data[idx] - target[idx]
        return float((d * d).mean())

    expected_umr = (
        mse(art.recon[("x", "x")], art.target_tokens["x"], art.masks["x"].masked)
        + mse(art.recon[("y", "y")], art.target_tokens["y"], art.masks["y"].masked)
    )
    expected_cmr = (
        mse(art.recon[("y", "x")], art.target_tokens["y"], art.masks["x"].masked)
        + mse(art.recon[("x", "y")], art.target_tokens["x"], art.masks["y"].masked)
    )
    assert rel_err(loss_umr(art).item(), expected_umr) < 1e-12
    assert rel_err(loss_cmr(art).item(), expected_cmr) < 1e-12


def test_normalized_pixel_targets():
    tokens = np.random.default_rng(1).uniform(-3, 3, (5, 8))
    normed = normalize_pixel_targets(tokens)
    assert np.abs(normed.mean(axis=1)).max() < 1e-9
    assert np.abs(normed.var(axis=1) - 1.0).max() < 1e-3


# ---------------------------------------------------------------------------
# contrastive
# ---------------------------------------------------------------------------


def test_mi_orthogonal_pairs_closed_form():
    # matched pairs identical, orthogonal across pairs, temperature 0.5:
    # numerator exp(2), denominator (excluding the positive) exp(0) -> -2
    c_x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    c_y = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    value = loss_mi(c_x, c_y, temperature=0.5).item()
    assert abs(value - (-2.0)) <= 1e-9


def test_mi_identical_vectors_collapse_to_zero():
    v = np.array([[0.3, 0.4], [0.3, 0.4]])
    value = loss_mi(Tensor(v), Tensor(v), temperature=0.5).item()
    assert abs(value) <= 1e-12


def test_mi_matches_brute_force_oracle():
    rng = np.random.default_rng(2)
    cx = rng.standard_normal((3, 5))
    cy = rng.standard_normal((3, 5))
    tau = 0.7

    def cosine(a, b):
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))

    def brute(include_positive):
        total = 0.0
        for i in range(3):
            for first, second in ((cx, cy), (cy, cx)):
                num = np.exp(cosine(first[i], second[i]) / tau)
                den = sum(
                    np.exp(cosine(first[i], second[q]) / tau)
                    for q in range(3) if include_positive or q != i
                )
                total += -np.log(num / den)
        return total / 6.0

    got = loss_mi(Tensor(cx), Tensor(cy), tau).item()
    assert rel_err(got, brute(False)) < 1e-10
    got_incl = loss_mi(Tensor(cx), Tensor(cy), tau, include_positive=True).item()
    assert rel_err(got_incl, brute(True)) < 1e-10
    assert got != got_incl


def test_mi_stays_finite_at_tiny_temperatures():
    # 1/tau far past exp's overflow point (about 709): near-identical pairs gave NaN
    from scipy.special import logsumexp

    rng = np.random.default_rng(5)
    base = rng.standard_normal((4, 6))
    unit = lambda v: v / np.linalg.norm(v, axis=1, keepdims=True)
    for tau in (1e-3, 1e-5):
        for include_positive in (False, True):
            cx, cy = parameter(base + 1e-3 * rng.standard_normal((4, 6))), parameter(base.copy())
            value = loss_mi(cx, cy, tau, include_positive)
            backward(value)
            assert np.isfinite(value.item())
            assert np.isfinite(cx.grad).all() and np.isfinite(cy.grad).all()
            s = unit(cx.data) @ unit(cy.data).T / tau
            kept = np.where(include_positive, s, s - np.diag(np.full(4, np.inf)))
            expected = (logsumexp(kept, axis=1).sum() + logsumexp(kept, axis=0).sum() - 2 * np.trace(s)) / 8
            assert rel_err(value.item(), expected) < 1e-12


def test_each_loss_term_records_one_tape_node():
    rng = np.random.default_rng(6)
    a, b = parameter(rng.standard_normal((3, 4))), parameter(rng.uniform(0, 1, (3, 4)))
    for term in (rec_loss(a, b.data, [0, 2]), loss_mi(a, b, 0.5), loss_rep(a), loss_ent(b, 1e-8)):
        assert term._backward is not None and all(p._backward is None for p in term._parents)


def test_loss_settings_reject_bad_temperature_and_stabilizer():
    for bad in ({"tau_mi": 0}, {"tau_mi": -0.5}, {"eps_ent": -1e-9}):
        with pytest.raises(ParameterError):
            LossSettings(**bad)
    with pytest.raises(AttributeError):  # frozen: one run's settings cannot drift
        LossSettings().tau_mi = 0.1


def test_mi_rejects_small_batch_and_bad_temperature():
    one = Tensor(np.ones((1, 4)))
    with pytest.raises(ParameterError):
        loss_mi(one, one, 0.5)
    two = Tensor(np.ones((2, 4)))
    with pytest.raises(ParameterError):
        loss_mi(two, two, 0.0)


# ---------------------------------------------------------------------------
# slot repulsion
# ---------------------------------------------------------------------------


def test_rep_identical_unit_slots():
    slots = Tensor(np.tile([[0.6, 0.8]], (4, 1)))
    assert abs(loss_rep(slots).item() - (-1.0)) <= 1e-12


def test_rep_orthogonal_slots():
    for s in (2, 3, 4):
        slots = Tensor(np.eye(4)[:s] * 2.5)  # scaling is removed by normalization
        assert abs(loss_rep(slots).item() - (-1.0 / s)) <= 1e-12


def test_rep_single_slot():
    assert abs(loss_rep(Tensor([[3.0, 4.0]])).item() - (-1.0)) <= 1e-12


def test_rep_bounds_and_zero_norm_error():
    rng = np.random.default_rng(3)
    for _ in range(50):
        slots = Tensor(rng.standard_normal((4, 6)))
        v = loss_rep(slots).item()
        assert -1.0 - 1e-12 <= v <= 0.0
    with pytest.raises(NormalizationError):
        loss_rep(Tensor(np.array([[1.0, 0.0], [0.0, 0.0]])))


# ---------------------------------------------------------------------------
# dispatch entropy
# ---------------------------------------------------------------------------


def test_ent_uniform_dispatch_closed_form():
    for s, p in ((2, 4), (3, 7), (8, 49)):
        dispatch = Tensor(np.full((s, p), 1.0 / p))
        value = loss_ent(dispatch, eps=0.0).item()
        assert abs(value - np.log(p) / p) <= 1e-9


def test_ent_one_hot_dispatch_is_zero():
    dispatch = np.zeros((3, 5))
    dispatch[:, 2] = 1.0
    assert abs(loss_ent(Tensor(dispatch), eps=0.0).item()) <= 1e-12


def test_ent_two_by_two_hand_value():
    dispatch = Tensor(np.full((2, 2), 0.5))
    assert abs(loss_ent(dispatch, eps=0.0).item() - np.log(2.0) / 2.0) <= 1e-12


def test_ent_nonnegative_for_small_eps():
    rng = np.random.default_rng(4)
    for _ in range(50):
        logits = rng.standard_normal((3, 6))
        e = np.exp(logits)
        dispatch = Tensor(e / e.sum(axis=1, keepdims=True))
        assert loss_ent(dispatch, eps=1e-8).item() >= 0.0


def test_ent_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        loss_ent(Tensor(np.full((2, 2), 0.5)), eps=-1e-9)
    with pytest.raises(ParameterError):
        loss_ent(Tensor(np.array([[0.5, -0.5]])), eps=1e-8)


# ---------------------------------------------------------------------------
# total
# ---------------------------------------------------------------------------


def test_total_decomposition_identity():
    cfg = mini_config()
    model = init_model(cfg)
    art = make_batch(cfg, model)
    for lam, gam in ((0.0, 0.0), (0.01, 0.01), (-0.5, 2.0)):
        b = loss_total(model, art, LossSettings(lambda_rep=lam, gamma_ent=gam))
        recomposed = b.umr + b.cmr + b.mi + lam * b.rep + gam * b.ent
        assert abs(b.total - recomposed) <= 1e-12


def test_total_weights_off():
    cfg = mini_config()
    model = init_model(cfg)
    art = make_batch(cfg, model)
    b = loss_total(model, art, LossSettings(lambda_rep=0.0, gamma_ent=0.0))
    assert abs(b.total - (b.umr + b.cmr + b.mi)) <= 1e-12


def test_total_gradients_flow_everywhere():
    cfg = mini_config()
    model = init_model(cfg)
    rng = np.random.default_rng(7)
    for p in model.params.values():
        p.data = truncated_normal(rng, p.shape, 0.3)
    xs, ys = make_pairs(cfg, batch=2, seed=3)

    def loss_fn(params):
        return loss_total(model, forward(model, xs, ys, seed=[10, 11])).total_tensor

    report = check_gradients(loss_fn, model.params, step=1e-5, max_checked=150, sample_seed=0)
    assert report.max_relative_error <= 1e-4
    from csmoe.numerics import backward, zero_grads

    zero_grads(model.params)
    backward(loss_fn(model.params))
    for name, p in model.params.items():
        assert p.grad is not None and np.abs(p.grad).max() > 0, name


def test_total_zero_under_perfect_reconstruction_and_identical_projections():
    cfg = mini_config()
    model = init_model(cfg)
    art = make_batch(cfg, model, batch=2)
    for (target, _source), recon in art.recon.items():
        recon.data = art.target_tokens[target].copy()  # perfect reconstruction
    shared = np.array([[0.3, -0.2, 0.5, 0.1, 0.0, 0.7, -0.4, 0.2]])
    # all four projections identical: the positive-excluding denominator
    # cancels the numerator exactly at batch size 2
    art.proj_cls["x"].data = np.broadcast_to(shared, (2, 1, 8)).copy()
    art.proj_cls["y"].data = np.broadcast_to(shared, (2, 1, 8)).copy()
    b = loss_total(model, art, LossSettings(lambda_rep=0.0, gamma_ent=0.0, tau_mi=0.5))
    assert b.umr == 0.0 and b.cmr == 0.0
    assert abs(b.total) <= 1e-9
