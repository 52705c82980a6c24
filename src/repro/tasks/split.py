"""Link-prediction data preparation (paper Section 5.2 protocol).

Remove 30% of randomly selected edges from G to form G'; the test set is
the removed edges (positives) plus an equal number of node pairs not
connected in G (negatives). On directed graphs pairs are ordered.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.edgelist import LocalGraph, grow_edges


@dataclass
class LinkSplit:
    train: LocalGraph          # G' — embeddings are built on this
    test_pairs: np.ndarray     # (t, 2) node pairs
    test_labels: np.ndarray    # (t,) 1 = removed edge, 0 = non-edge


def sample_distinct_pairs(
    g: LocalGraph, count: int, rng: np.random.Generator, avoid: np.ndarray
) -> np.ndarray:
    """Uniformly sample ``count`` distinct node pairs of ``g`` that are not
    rows of ``avoid``, a canonical edge array of ``g``'s directedness
    (ordered pairs when directed, u<v otherwise; no self pairs). Raises
    RuntimeError when 200 batches do not find them."""
    n = g.n

    def draw(short: int) -> np.ndarray:
        batch = short * 2 + 32
        return np.stack(
            [rng.integers(0, n, batch), rng.integers(0, n, batch)], axis=1
        )

    held = len(avoid)
    e, _ = grow_edges(avoid, held + count, draw, n, g.directed, tries=200)
    if len(e) < held + count:
        raise RuntimeError(f"could not sample {count} distinct pairs")
    return e[held:][:count]


def sample_negative_pairs(
    g: LocalGraph, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniformly sample ``count`` distinct node pairs that are not edges of
    ``g`` (ordered pairs when directed, u<v otherwise; no self pairs)."""
    return sample_distinct_pairs(g, count, rng, g.edges)


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
