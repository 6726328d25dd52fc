"""Tests of the benchmark's own statistics, span arithmetic, tracer and oracle."""

import numpy as np
import pytest

import bench_oracle
from bench_stats import TAIL_MIN_BEYOND, tail
from bench_trace import Tracer, self_times


@pytest.mark.parametrize("n", [20, 21, 64, 100, 101, 1000])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    values = list(range(1, n + 1))  # value == rank
    value, pct, count = tail(values)
    assert count == n
    assert n - value >= TAIL_MIN_BEYOND  # samples strictly above the reported one
    assert n * (1 - (pct + 1) / 100) < TAIL_MIN_BEYOND  # the next percentile has too few


def test_tail_known_percentiles():
    assert tail(range(1, 101))[:2] == (90, 90)
    assert tail(range(1, 1001))[:2] == (990, 99)
    assert tail(range(1, 21))[:2] == (10, 50)


def test_tail_falls_back_to_maximum_for_small_samples():
    assert tail([5.0, 1.0, 3.0]) == (5.0, 100, 3)
    assert tail(list(range(19)))[:2] == (18, 100)


def test_self_time_subtracts_children():
    # root [0, 100) has children [10, 30) and [40, 90); the second has a child [50, 60)
    spans = [(0, 100, -1), (10, 30, 0), (40, 90, 0), (50, 60, 2)]
    assert self_times(spans) == [30, 20, 40, 10]


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [(0, 100, -1), (10, 50, 0), (30, 70, 0), (90, 120, 0)]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_tracer_rebinds_imported_names_and_restores_them():
    import csmoe.numerics as numerics
    import csmoe.softmoe as softmoe

    original = numerics.matmul
    tracer = Tracer()
    tracer.install([("csmoe.numerics", "matmul", "span", {}),
                    ("csmoe.numerics", "no_such_function", "count", {})])
    try:
        assert softmoe.matmul is numerics.matmul is not original
        a = numerics.Tensor(np.eye(2))
        softmoe.matmul(a, a)
    finally:
        tracer.uninstall()
    assert softmoe.matmul is numerics.matmul is original
    assert tracer.counts["numerics.matmul"] == 1 and len(tracer.spans) == 1
    assert tracer.absent == ["csmoe.numerics.no_such_function"]


def test_oracle_breaks_ties_toward_lower_index_and_excludes_own_id():
    gallery = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ranked = bench_oracle.retrieve(np.array([[1.0, 0.0]]), gallery, 3, ["b"], ["a", "b", "c", "d"])
    assert ranked == [[0, 3, 2]]  # index 1 ties with 0 but shares the query's id


def test_oracle_matches_library_retrieval():
    from csmoe.evaluation import retrieve

    rng = np.random.default_rng(0)
    gallery, queries = rng.standard_normal((300, 16)), rng.standard_normal((12, 16))
    gids = [f"g{i}" for i in range(300)]
    qids = [gids[i] for i in range(0, 24, 2)]
    assert retrieve(queries, gallery, 7, qids, gids) == bench_oracle.retrieve(queries, gallery, 7, qids, gids)


def test_oracle_f1_and_distance():
    assert bench_oracle.retrieval_f1_percent([{"1", "2"}], [[{"1"}, {"3"}]]) == pytest.approx(100 * (2 / 3) / 2)
    # a quarter of the equator apart
    assert bench_oracle.mean_pairwise_km([0.0, 90.0], [0.0, 0.0]) == pytest.approx(np.pi * 6371.0 / 2)
