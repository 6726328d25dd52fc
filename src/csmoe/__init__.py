"""Soft mixture-of-experts cross-sensor masked autoencoder, its five-term
training objective, descriptor-driven spatial sampling, and the matching
evaluation and compute-profiling tools, all on a minimal float64 autodiff
core."""

from .errors import (
    ConfigError,
    CsmoeError,
    DataError,
    DimensionError,
    EvaluationError,
    FormatError,
    NormalizationError,
    ParameterError,
)
from .evaluation import ComputeProfile, c2c_ratio, profile, retrieval_f1, retrieve
from .losses import LossBreakdown, loss_cmr, loss_ent, loss_mi, loss_rep, loss_total, loss_umr, rec_loss
from .model import (
    CsmoeConfig,
    CsmoeModel,
    ForwardArtifacts,
    build_embedding,
    decode,
    encode,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .numerics import (
    FlopCounter,
    GradCheckReport,
    Tensor,
    backward,
    check_gradients,
    layer_norm,
    load_tnsr,
    matmul,
    parameter,
    save_tnsr,
    softmax,
)
from .sampler import (
    ArchiveEntry,
    ClassRaster,
    DescribedEntry,
    GaConfig,
    evolve_stratum,
    generate_descriptors,
    haversine,
    lookup,
    sample_archive,
    selection_fitness,
    stratify,
    unit_vectors,
)
from .softmoe import (
    MoeBlockParams,
    RoutingTensors,
    SoftMoELayerParams,
    block_forward,
    moe_forward,
    route,
)
from .tokenizer import MaskPair, PatchSet, patchify, positional_embedding, sample_masks, split_tile, unpatchify

__version__ = "0.1.0"
