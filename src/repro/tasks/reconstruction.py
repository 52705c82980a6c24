"""Graph reconstruction (paper Section 5.3).

Score a candidate set S of node pairs (all pairs on small graphs, a uniform
sample otherwise), rank by score, and measure precision@K: the fraction of
the top-K pairs that are actual edges of G.

All pairs are scored by :func:`topk_pairs_numpy`, blocked dense scoring
on the driver.
"""
from __future__ import annotations

import numpy as np

from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph
from repro.tasks.metrics import precision_at_k
from repro.tasks.split import sample_distinct_pairs

#: rows of the all-pairs score matrix scored at once
TOPK_BLOCK_ROWS = 1024


def topk_pairs_numpy(emb: Embedding, g: LocalGraph, k: int) -> np.ndarray:
    """Top-k scored pairs over all candidate pairs: ordered (u != v) for
    directed graphs, u < v otherwise. Returns (k, 2) int array, ranked."""
    n = g.n
    X, R = emb.X, emb.right
    best_s: list[np.ndarray] = []
    best_p: list[np.ndarray] = []
    for lo in range(0, n, TOPK_BLOCK_ROWS):
        hi = min(lo + TOPK_BLOCK_ROWS, n)
        S = X[lo:hi] @ R.T
        rows = np.arange(lo, hi)
        S[np.arange(hi - lo), rows] = -np.inf  # no self pairs
        if not g.directed:
            # keep u < v only
            cols = np.arange(n)
            S[cols[None, :] <= rows[:, None]] = -np.inf
        flat = S.ravel()
        take = min(k, flat.size)
        idx = np.argpartition(flat, -take)[-take:]
        best_s.append(flat[idx])
        u = rows[idx // n]
        v = idx % n
        best_p.append(np.stack([u, v], axis=1))
    s = np.concatenate(best_s)
    p = np.vstack(best_p)
    order = np.argsort(-s, kind="stable")[:k]
    return p[order]


def reconstruction_precision(
    emb: Embedding,
    g: LocalGraph,
    ks: list[int],
    *,
    sample: int | None = None,
) -> dict[int, float]:
    """precision@K for each K in ``ks``. ``sample``: number of candidate
    pairs to draw with seed 0 (None = all pairs)."""
    kmax = max(ks)
    if sample is None:
        top = topk_pairs_numpy(emb, g, kmax)
    else:
        # the paper's 1%-of-all-pairs protocol: edges stay candidates
        rng = np.random.default_rng(0)
        none = np.empty((0, 2), np.int64)
        cand = sample_distinct_pairs(g, sample, rng, none)
        scores = emb.score_pairs(cand)
        order = np.argsort(-scores, kind="stable")[:kmax]
        top = cand[order]
    n, a = np.int64(g.n), g.arcs
    is_edge = np.isin(top[:, 0] * n + top[:, 1], a[:, 0] * n + a[:, 1])
    return precision_at_k(is_edge, ks)
