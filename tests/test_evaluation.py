import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from csmoe.errors import DimensionError, ParameterError
from csmoe.evaluation import (
    c2c_ratio,
    dataset_retrieval_f1,
    forward_flops,
    pairwise_label_f1,
    profile,
    retrieval_f1,
    retrieve,
)
from csmoe.model import CsmoeConfig, forward, init_model
from csmoe.numerics import FlopCounter

from util import mini_config


# ---------------------------------------------------------------------------
# retrieval ranking
# ---------------------------------------------------------------------------


def test_retrieve_exact_match_ranks_first():
    gallery = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    (ranked,) = retrieve(np.array([[2.0, 0.0]]), gallery, k=3)
    assert ranked[0] == 0


def test_retrieve_positive_above_orthogonal():
    gallery = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    (ranked,) = retrieve(np.array([[1.0, 0.0, 0.0]]), gallery, k=3)
    assert ranked[0] == 1


def test_retrieve_hand_similarities_and_ties():
    q = np.array([[1.0, 0.0]])
    gallery = np.array([
        [0.9, np.sqrt(1 - 0.81)],
        [0.5, np.sqrt(0.75)],
        [0.1, np.sqrt(0.99)],
    ])
    (ranked,) = retrieve(q, gallery, k=3)
    assert ranked == [0, 1, 2]
    # exact ties break toward the lower index
    same = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    (ranked,) = retrieve(q, same, k=3)
    assert ranked == [0, 1, 2]


def test_retrieve_scale_invariance():
    rng = np.random.default_rng(0)
    q = rng.standard_normal((4, 8))
    g = rng.standard_normal((20, 8))
    base = retrieve(q, g, k=5)
    scaled = retrieve(3.7 * q, g * rng.uniform(0.1, 10.0, (20, 1)), k=5)
    assert base == scaled


def test_retrieve_self_exclusion_by_id():
    emb = np.array([[1.0, 0.0], [0.0, 1.0]])
    ranked = retrieve(emb, emb, k=2, query_ids=["a", "b"], gallery_ids=["a", "b"])
    assert ranked[0] == [1] and ranked[1] == [0]


def brute_force_retrieve(q, g, k, query_ids, gallery_ids):
    """Sort every allowed gallery index by (-similarity, index), per query;
    an all-zero gallery row has similarity 0 with every query."""
    unit = g / np.maximum(np.linalg.norm(g, axis=1, keepdims=True), 1e-300)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ unit.T
    ranked = []
    for i in range(len(q)):
        allowed = [j for j in range(len(g)) if query_ids is None or gallery_ids[j] != query_ids[i]]
        ranked.append(sorted(allowed, key=lambda j: (-sims[i, j], j))[:k])
    return ranked


@pytest.mark.parametrize("with_ids", [False, True])
@pytest.mark.parametrize("k", [1, 5, 11, 12, 20])
def test_retrieve_matches_brute_force_reference(k, with_ids):
    rng = np.random.default_rng(3)
    base = rng.integers(-2, 3, (6, 4)).astype(float) + 0.5
    tied = np.tile([[0.3, -1.1, 0.7, 2.0]], (8, 1))
    # rows 6..11 repeat rows 0..5 and rows 12..19 repeat one row: exact ties,
    # and for the last query the 8-way tie at the top straddles k = 1 and 5;
    # row 20 is all zeros
    gallery = np.concatenate([base, base, tied, np.zeros((1, 4))])
    queries = np.concatenate([base[[3, 0]], rng.standard_normal((2, 4)), 2.0 * tied[:1]])
    gallery_ids = [f"g{j}" for j in range(21)]
    gallery_ids[9] = "g3"  # a query id present twice in the gallery
    # the third and fourth exclude nothing; the last excludes one tied row
    query_ids = ["g3", "g0", "absent", "also-absent", "g15"]
    qids, gids = (query_ids, gallery_ids) if with_ids else (None, None)
    ranked = retrieve(queries, gallery, k, query_ids=qids, gallery_ids=gids)
    assert ranked == brute_force_retrieve(queries, gallery, k, qids, gids)
    if with_ids and k >= 20:  # exclusions leave queries fewer than k items
        assert [len(r) for r in ranked] == [min(k, n) for n in (19, 20, 21, 21, 20)]


def test_retrieve_gallery_spanning_several_normalisation_blocks():
    # 300 queries are ranked in several blocks against 389 gallery rows:
    # rankings, ties between equal-direction rows far apart included, equal
    # those of a one-pass computation, for a row-major and a column-major
    # gallery; the tied direction is queried in the first and the last block
    rng = np.random.default_rng(11)
    n = 389
    gallery = rng.standard_normal((n, 16))
    gallery[[1, 130, 263, n - 1]] = gallery[0] * [[1.0], [2.0], [0.5], [4.0]]
    queries = rng.standard_normal((300, 16))
    queries[[0, 299]] = gallery[0]
    gallery_ids = [f"g{j}" for j in range(n)]
    query_ids = [f"g{i + 1}" for i in range(299)] + [f"g{n - 1}"]
    for g in (gallery, np.asfortranarray(gallery)):
        for qids, gids in ((None, None), (query_ids, gallery_ids)):
            ranked = retrieve(queries, g, 7, query_ids=qids, gallery_ids=gids)
            assert ranked == brute_force_retrieve(queries, gallery, 7, qids, gids)


def test_retrieve_memory_is_bounded_by_a_query_block():
    # 512 queries against a 10 000 x 384 gallery: the [512, N] similarities
    # alone would take 41 MB
    rng = np.random.default_rng(5)
    gallery = rng.standard_normal((10_000, 384))
    queries = rng.standard_normal((512, 384))
    gallery_ids = [f"g{j}" for j in range(10_000)]
    query_ids = gallery_ids[:512]
    tracemalloc.start()
    try:
        ranked = retrieve(queries, gallery, 10, query_ids=query_ids, gallery_ids=gallery_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25e6
    assert [len(r) for r in ranked] == [10] * 512


def test_retrieve_validation():
    with pytest.raises(DimensionError):
        retrieve(np.zeros((1, 3)), np.zeros((2, 4)), k=1)
    with pytest.raises(ParameterError):
        retrieve(np.zeros((1, 3)), np.ones((2, 3)), k=0)


# ---------------------------------------------------------------------------
# retrieval F1
# ---------------------------------------------------------------------------


def test_retrieval_f1_toy_case():
    score = retrieval_f1({"A", "B"}, [{"A", "B"}, {"A", "C"}], k=2)
    assert score == 0.75


def test_retrieval_f1_bounds():
    assert retrieval_f1({"A"}, [{"A"}, {"A"}], k=2) == 1.0
    assert retrieval_f1({"A"}, [{"B"}, {"C"}], k=2) == 0.0


def test_retrieval_f1_label_permutation_invariance():
    rng = np.random.default_rng(1)
    alphabet = list("ABCDEFG")
    query = {"A", "C", "E"}
    retrieved = [{"A", "B"}, {"C"}, {"E", "F", "G"}]
    base = retrieval_f1(query, retrieved, k=3)
    perm = dict(zip(alphabet, rng.permutation(alphabet)))
    remap = lambda s: {perm[x] for x in s}
    assert retrieval_f1(remap(query), [remap(r) for r in retrieved], k=3) == base


def test_retrieval_f1_validation():
    with pytest.raises(ParameterError):
        retrieval_f1({"A"}, [{"B"}], k=2)
    with pytest.raises(ParameterError):
        pairwise_label_f1({"A"}, set())


def test_dataset_retrieval_f1_percent():
    score = dataset_retrieval_f1([{"A"}, {"B"}], [[{"A"}], [{"A"}]], k=1)
    assert score == 50.0


# ---------------------------------------------------------------------------
# compute profile
# ---------------------------------------------------------------------------


def test_profile_doubling_slots_doubles_expert_side_only():
    base = profile(CsmoeConfig())
    doubled = profile(CsmoeConfig(num_slots=16, num_experts=16))

    def part(prof, name):
        return next(r for r in prof.breakdown if r["component"] == name)

    # attention parameters are untouched; expert parameters double exactly
    moe_block_params = lambda prof: part(prof, "enc_shared")["params"]
    base_experts = moe_block_params(base)
    # per-block expert params = S * (2 d h + h + d); slot table S*d; attention+norms fixed
    cfg = CsmoeConfig()
    d, h, s = cfg.enc_dim, cfg.expert_hidden, cfg.num_slots
    fixed = 2 * (4 * d * d + 3 * d + 4 * d)  # attention + norms per block, 2 shared blocks
    experts = 2 * (s * (2 * d * h + h + d) + s * d)
    assert base_experts == fixed + experts
    assert moe_block_params(doubled) == fixed + 2 * experts


def test_profile_flops_increase_as_patches_shrink():
    profiles = {ps: profile(CsmoeConfig(patch_size=ps)) for ps in (32, 28, 16, 14)}
    flops = [profiles[ps].flops for ps in (32, 28, 16, 14)]
    params = [profiles[ps].params for ps in (32, 28, 16, 14)]
    c2c = [profiles[ps].c2c for ps in (32, 28, 16, 14)]
    assert flops == sorted(flops) and len(set(flops)) == 4
    assert params == sorted(params, reverse=True)
    assert c2c == sorted(c2c, reverse=True) and len(set(c2c)) == 4


def test_c2c_formula_reproduces_reference_row():
    assert round(c2c_ratio(277e6, 2.92e9), 2) == 94.86


def test_profile_self_consistency_params():
    for cfg in (mini_config(), mini_config(num_slots=4, num_experts=2, dec_layers=2),
                mini_config(patch_size=4, num_slots=4, num_experts=2, proj_dim=4)):
        model = init_model(cfg)
        assert profile(cfg).params == sum(p.size for p in model.params.values())


def test_analytic_flops_equal_instrumented_forward():
    rng = np.random.default_rng(3)
    for cfg in (
        mini_config(),
        mini_config(patch_size=4, image_side=16, num_slots=3, num_experts=3,
                    heads=4, dec_layers=2, mask_ratio=0.3),
        mini_config(image_side=24, channels_x=1, channels_y=4, mask_ratio=0.75),
    ):
        model = init_model(cfg)
        x = rng.standard_normal((cfg.channels_x, cfg.image_side, cfg.image_side))
        y = rng.standard_normal((cfg.channels_y, cfg.image_side, cfg.image_side))
        with FlopCounter() as counter:
            forward(model, x, y, seed=0)
        analytic, _ = forward_flops(cfg)
        assert counter.total == analytic, cfg


def test_batched_forward_flops_are_batch_size_times_analytic():
    # the two miniature configurations of acceptance criterion 9
    rng = np.random.default_rng(4)
    for cfg in (mini_config(), mini_config(patch_size=4, num_slots=3, num_experts=3,
                                           heads=4, mask_ratio=0.3)):
        model = init_model(cfg)
        analytic, _ = forward_flops(cfg)
        for batch in (1, 3, 8):
            xs = rng.standard_normal((batch, cfg.channels_x, cfg.image_side, cfg.image_side))
            ys = rng.standard_normal((batch, cfg.channels_y, cfg.image_side, cfg.image_side))
            with FlopCounter() as counter:
                forward(model, xs, ys, seed=list(range(batch)))
            assert counter.total == batch * analytic, (cfg, batch)


def test_profile_components_carry_both_params_and_flops():
    cfg = CsmoeConfig()
    prof = profile(cfg)
    total, flops = forward_flops(cfg)
    assert [r["component"] for r in prof.breakdown] == sorted(flops)
    assert all(r["params"] > 0 and r["flops"] == flops[r["component"]] for r in prof.breakdown)
    assert sum(r["params"] for r in prof.breakdown) == prof.params
    assert prof.flops == total == 3926714656 and prof.params == 137614464


def test_profile_report_has_convention_and_breakdown():
    prof = profile(mini_config())
    d = asdict(prof)
    assert "multiply-accumulate" in d["convention"]
    assert d["params"] > 0 and d["flops"] > 0
    assert abs(d["c2c"] - (d["params"] / 1e6) / (d["flops"] / 1e9)) < 1e-9
    names = {r["component"] for r in d["breakdown"]}
    assert {"embed_x", "enc_shared", "dec_y", "proj"} <= names

