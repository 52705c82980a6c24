"""Link-prediction data preparation (paper Section 5.2 protocol).

Remove 30% of randomly selected edges from G to form G'; the test set is
the removed edges (positives) plus an equal number of node pairs not
connected in G (negatives). On directed graphs pairs are ordered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.edgelist import LocalGraph


@dataclass
class LinkSplit:
    train: LocalGraph          # G' — embeddings are built on this
    test_pairs: np.ndarray     # (t, 2) node pairs
    test_labels: np.ndarray    # (t,) 1 = removed edge, 0 = non-edge


def sample_distinct_pairs(
    g: LocalGraph, count: int, rng: np.random.Generator, skip: set | frozenset
) -> np.ndarray:
    """Uniformly sample ``count`` distinct node pairs of ``g`` whose keys
    (u*n+v) are not in ``skip`` (ordered pairs when directed, u<v otherwise;
    no self pairs). Raises RuntimeError when 200 batches do not find them."""
    n = g.n
    # starts with an empty block, so count = 0 returns a (0, 2) array
    out: list[np.ndarray] = [np.zeros((0, 2), np.int64)]
    have = 0
    seen: set[int] = set()
    guard = 0
    while have < count and guard < 200:
        guard += 1
        batch = (count - have) * 2 + 32
        u = rng.integers(0, n, batch)
        v = rng.integers(0, n, batch)
        ok = u != v
        u, v = u[ok], v[ok]
        if not g.directed:
            u, v = np.minimum(u, v), np.maximum(u, v)
        key = u * np.int64(n) + v
        keep = []
        for i, k in enumerate(key.tolist()):
            if k in skip or k in seen:
                continue
            seen.add(k)
            keep.append(i)
        if keep:
            sel = np.array(keep)
            out.append(np.stack([u[sel], v[sel]], axis=1))
            have += len(keep)
    if have < count:
        raise RuntimeError(f"could not sample {count} distinct pairs")
    return np.vstack(out)[:count]


def sample_negative_pairs(
    g: LocalGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample ``count`` distinct node pairs that are not edges of
    ``g`` (ordered pairs when directed, u<v otherwise; no self pairs)."""
    return sample_distinct_pairs(g, count, rng, g.edge_key_set())


def link_prediction_split(
    g: LocalGraph, *, frac: float = 0.3, seed: int = 0
) -> LinkSplit:
    """Remove ``frac`` of the edges; return G' plus the balanced test set."""
    rng = np.random.default_rng(seed)
    m = g.m
    n_remove = int(round(m * frac))
    perm = rng.permutation(m)
    removed = g.edges[perm[:n_remove]]
    kept = g.edges[perm[n_remove:]]
    train = LocalGraph(kept.copy(), g.n, g.directed, name=g.name + "_train")
    negatives = sample_negative_pairs(g, n_remove, rng)
    pairs = np.vstack([removed, negatives])
    labels = np.concatenate(
        [np.ones(n_remove, dtype=np.int64), np.zeros(n_remove, dtype=np.int64)]
    )
    return LinkSplit(train=train, test_pairs=pairs, test_labels=labels)
