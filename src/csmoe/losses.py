"""The five training objectives and their weighted total.

Reconstruction terms are mean squared error over masked token rows only,
with the source mask governing cross-modal terms. The contrastive term is
a temperature-scaled cross-entropy over cosine similarities whose
denominator excludes the positive pair (an opt-in flag restores the more
common variant that includes it); it is taken through shifted log-sum-exps,
so it stays finite at any temperature > 0. The two routing regularizers are
a slot repulsion term over normalized slot embeddings and an entropy term
over dispatch weights, both implemented exactly as stated, with signed
weights left to configuration. Every term reads one batched forward
artifact: the per-sample terms are averaged over its leading [B] axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NormalizationError, ParameterError, require
from .model import MODALITIES, CsmoeModel, ForwardArtifacts
from .numerics import Tensor, contrastive_ce, entropy, masked_mse, reshape, slot_repulsion, stack


@dataclass(frozen=True)
class LossSettings:
    """The weights and constants of the five-term objective: a run's
    ``loss`` config section, and ``loss_total``'s one settings argument."""

    lambda_rep: float = 0.01
    gamma_ent: float = 0.01
    tau_mi: float = 0.5
    eps_ent: float = 1e-8
    mi_include_positive: bool = False
    norm_pix: bool = False

    def __post_init__(self):
        require([
            (self.tau_mi > 0, f"tau_mi must be > 0, got {self.tau_mi}"),
            (self.eps_ent >= 0, f"eps_ent must be >= 0, got {self.eps_ent}"),
        ], ParameterError)


@dataclass
class LossBreakdown:
    umr: float
    cmr: float
    mi: float
    rep: float
    ent: float
    total: float
    total_tensor: Tensor = field(repr=False, default=None)

    def to_dict(self) -> dict:
        return {
            "umr": self.umr, "cmr": self.cmr, "mi": self.mi,
            "rep": self.rep, "ent": self.ent, "total": self.total,
        }


def rec_loss(pred: Tensor, target, mask_indices) -> Tensor:
    """MSE over masked rows only: mean over |mask| * row_width elements.

    With leading batch axes and per-sample [..., M] masks this is the mean
    of the per-sample MSEs, since every sample masks M rows.
    """
    idx = np.asarray(mask_indices, dtype=np.int64)
    if idx.size == 0:
        raise ParameterError("reconstruction loss is undefined for an empty mask")
    return masked_mse(pred, target, idx)


def normalize_pixel_targets(tokens: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Optional per-token target normalization (zero mean, unit variance)."""
    mu = tokens.mean(axis=-1, keepdims=True)
    var = tokens.var(axis=-1, keepdims=True)
    return (tokens - mu) / np.sqrt(var + eps)


def loss_umr(art: ForwardArtifacts, targets: dict = None) -> Tensor:
    """Same-modality reconstruction, each under its own mask, against the
    per-modality ``targets`` (by default the artifact's target tokens)."""
    t = art.target_tokens if targets is None else targets
    return (
        rec_loss(art.recon[("x", "x")], t["x"], art.masks["x"].masked)
        + rec_loss(art.recon[("y", "y")], t["y"], art.masks["y"].masked)
    )


def loss_cmr(art: ForwardArtifacts, targets: dict = None) -> Tensor:
    """Cross-modal reconstruction, each under the source modality's mask,
    against the per-modality ``targets`` as in ``loss_umr``."""
    t = art.target_tokens if targets is None else targets
    return (
        rec_loss(art.recon[("y", "x")], t["y"], art.masks["x"].masked)
        + rec_loss(art.recon[("x", "y")], t["x"], art.masks["y"].masked)
    )


def loss_mi(proj_x: Tensor, proj_y: Tensor, temperature: float,
            include_positive: bool = False) -> Tensor:
    """Symmetric temperature-scaled cross-entropy over cosine similarities.

    The denominator sums exp(sim/t) over the batch excluding the positive
    pair itself; ``include_positive`` switches to the variant that keeps it.
    """
    if temperature <= 0:
        raise ParameterError(f"contrastive temperature must be > 0, got {temperature}")
    if proj_x.shape != proj_y.shape or proj_x.ndim != 2:
        raise ParameterError(
            f"projection batches must share a [B, d] shape, got {proj_x.shape} and {proj_y.shape}"
        )
    batch = proj_x.shape[0]
    if batch < 2:
        raise ParameterError(f"contrastive loss needs a batch of >= 2 pairs, got {batch}")
    return contrastive_ce(proj_x, proj_y, temperature, include_positive)


def loss_rep(slot_embeddings: Tensor) -> Tensor:
    """-(1/S^2) sum of squared inner products of the unit-normalized slots
    [S, d]; for a [..., S, d] stack of slot tables, the mean of the
    per-table values."""
    if not np.linalg.norm(slot_embeddings.data, axis=-1).all():
        raise NormalizationError("slot embedding row with zero norm")
    return slot_repulsion(slot_embeddings)


def loss_ent(dispatch: Tensor, eps: float) -> Tensor:
    """-(1/(S*P)) sum over dispatch entries of a * log(a + eps); for a
    [..., S, P] batch of tables, the mean of the per-table values."""
    if eps < 0:
        raise ParameterError(f"entropy stabilizer must be >= 0, got {eps}")
    if (dispatch.data < 0).any():
        raise ParameterError("dispatch weights must be nonnegative")
    return entropy(dispatch, eps)


def loss_total(model: CsmoeModel, art: ForwardArtifacts,
               settings: LossSettings = LossSettings()) -> LossBreakdown:
    """Combine all five terms over one batched forward artifact, weighted
    and configured by ``settings``.

    Reconstruction terms average over the batch; the contrastive term uses
    the whole [B] batch at once; slot repulsion averages over every MoE
    layer of the model, and the entropy term over every (sample, layer)
    dispatch table, each in one pass over the stacked tables.
    """
    targets = art.target_tokens
    if settings.norm_pix:  # normalized once per modality: both terms hold the same array
        targets = {m: normalize_pixel_targets(targets[m]) for m in MODALITIES}
    umr = loss_umr(art, targets)
    cmr = loss_cmr(art, targets)
    proj_x, proj_y = (reshape(art.proj_cls[m], (-1, art.proj_cls[m].shape[-1])) for m in MODALITIES)
    mi = loss_mi(proj_x, proj_y, settings.tau_mi, settings.mi_include_positive)
    rep = loss_rep(stack([layer.slot_embeddings for layer in model.moe_layers()]))
    ent = loss_ent(stack([r.dispatch for m in MODALITIES for r in art.routing[m]]), settings.eps_ent)
    total = umr + cmr + mi + settings.lambda_rep * rep + settings.gamma_ent * ent
    return LossBreakdown(
        umr=umr.item(), cmr=cmr.item(), mi=mi.item(), rep=rep.item(), ent=ent.item(),
        total=total.item(), total_tensor=total,
    )
