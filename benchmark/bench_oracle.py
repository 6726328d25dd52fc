"""Brute-force references the benchmark checks the program's outputs against."""

from __future__ import annotations

import numpy as np

EARTH_RADIUS_KM = 6371.0


def retrieve(queries, gallery, k: int, query_ids, gallery_ids):
    """Top-k gallery indices per query: a stable full argsort of cosine
    similarity (ties toward the lower index), skipping the query's own id."""
    q = np.asarray(queries, dtype=np.float64)
    g = np.asarray(gallery, dtype=np.float64)
    sims = (q / np.linalg.norm(q, axis=1, keepdims=True)) @ (g / np.linalg.norm(g, axis=1, keepdims=True)).T
    gids = np.asarray(gallery_ids)
    ranked = []
    for i in range(q.shape[0]):
        order = np.argsort(-sims[i], kind="stable")
        order = order[gids[order] != query_ids[i]]
        ranked.append(order[:k].tolist())
    return ranked


def retrieval_f1_percent(query_labels, retrieved_labels) -> float:
    """Mean over queries of the mean pairwise label F1 of its retrieved items."""
    per_query = [
        float(np.mean([2.0 * len(ql & r) / (len(ql) + len(r)) for r in rl]))
        for ql, rl in zip(query_labels, retrieved_labels)
    ]
    return 100.0 * float(np.mean(per_query))


def mean_pairwise_km(lons, lats) -> float:
    """Mean great-circle distance over all unordered pairs of points."""
    lam = np.radians(np.asarray(lons, dtype=np.float64))
    phi = np.radians(np.asarray(lats, dtype=np.float64))
    i, j = np.triu_indices(lam.size, k=1)
    s = (np.sin(0.5 * (phi[j] - phi[i])) ** 2
         + np.cos(phi[i]) * np.cos(phi[j]) * np.sin(0.5 * (lam[j] - lam[i])) ** 2)
    return float((2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(s, 0.0, 1.0)))).mean())
