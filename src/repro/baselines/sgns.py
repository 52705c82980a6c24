"""Shared machinery for the random-walk baselines: the pairs they draw from
:func:`~repro.graphs.edgelist.random_walks` and skip-gram-with-negative-
sampling (SGNS) training.

This is the substrate behind DeepWalk/LINE/APP/VERSE. Deliberately numpy
(the paper's point is precisely that SGD-over-walks does not scale; these
baselines carry max_n caps in the registry mirroring the paper's 7-day
cutoff)."""
from __future__ import annotations

import numpy as np

from repro.graphs.edgelist import LocalGraph, random_walks


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -30.0, 30.0)))


def geometric_stop_pairs(
    g: LocalGraph,
    *,
    walks_per_node: int,
    alpha: float,
    max_len: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(start, end) pairs where end is the termination point of an
    alpha-decay random walk with at least one step — the PPR-sampled
    positive pairs of APP/VERSE."""
    starts = np.repeat(np.arange(g.n), walks_per_node)
    lengths = np.minimum(
        rng.geometric(alpha, size=len(starts)), max_len
    )
    walks = random_walks(g, starts, int(lengths.max()), rng)
    # visited prefix of each walk is contiguous, so the last live index is
    # (#non-negative entries - 1); a walk that died early terminates there
    last_alive = (walks >= 0).sum(axis=1) - 1
    ends = walks[np.arange(len(starts)), np.minimum(lengths, last_alive)]
    ok = (ends >= 0) & (ends != starts)  # drop degenerate (isolated) walks
    return np.stack([starts[ok], ends[ok]], axis=1)


def window_pairs(
    walks: np.ndarray, window: int
) -> np.ndarray:
    """DeepWalk-style (center, context) pairs within a window, both
    directions."""
    out = []
    L = walks.shape[1]
    for off in range(1, window + 1):
        a = walks[:, : L - off].ravel()
        b = walks[:, off:].ravel()
        ok = (a >= 0) & (b >= 0)
        out.append(np.stack([a[ok], b[ok]], axis=1))
        out.append(np.stack([b[ok], a[ok]], axis=1))
    return np.vstack(out)


def sgns_train(
    pairs: np.ndarray,
    n: int,
    dim: int,
    *,
    epochs: int,
    tie: bool = False,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Train SGNS on positive (u, v) pairs with 5 negatives per pair,
    batches of 1024 and learning rate 0.025 decayed linearly. Returns
    (W, C): source and context matrices; ``tie=True`` shares one matrix
    for both roles (VERSE-style single embedding).

    Updates are accumulated per batch (np.add.at), so hub nodes can receive
    many stale-gradient contributions at once; clipping rows to norm 3
    keeps that from diverging (the vectorized analogue of sequential SGD's
    self-limiting updates)."""
    negatives, lr0, batch, max_norm = 5, 0.025, 1024, 3.0
    rng = np.random.default_rng(seed)
    W = (rng.random((n, dim)) - 0.5) / dim
    C = W if tie else (rng.random((n, dim)) - 0.5) / dim
    # unigram^(3/4) noise distribution over context frequency
    freq = np.bincount(pairs[:, 1], minlength=n).astype(np.float64) + 1.0
    noise = freq**0.75
    noise /= noise.sum()
    noise_cdf = np.cumsum(noise)
    total = len(pairs)
    for ep in range(epochs):
        lr = lr0 * (1.0 - 0.9 * ep / max(epochs, 1))  # linear decay
        order = rng.permutation(total)
        for lo in range(0, total, batch):
            sel = order[lo : lo + batch]
            u = pairs[sel, 0]
            v = pairs[sel, 1]
            b = len(sel)
            negs = np.searchsorted(noise_cdf, rng.random((b, negatives)))
            # positive update
            wu = W[u]
            cv = C[v]
            s = _sigmoid(np.einsum("ij,ij->i", wu, cv))
            g = (s - 1.0)[:, None]  # d loss / d score
            gu = g * cv
            gv = g * wu
            # negative updates
            cn = C[negs]  # (b, neg, d)
            sn = _sigmoid(np.einsum("ij,ikj->ik", wu, cn))
            gn = sn[:, :, None]  # label 0
            gu += np.einsum("ikj,ik->ij", cn, sn)
            gneg = gn * wu[:, None, :]
            np.add.at(W, u, -lr * gu)
            np.add.at(C, v, -lr * gv)
            np.add.at(C, negs.ravel(), -lr * gneg.reshape(-1, dim))
            touched = np.unique(np.concatenate([u, v, negs.ravel()]))
            for M in (W,) if tie else (W, C):
                nrm = np.linalg.norm(M[touched], axis=1)
                over = nrm > max_norm
                if over.any():
                    idx = touched[over]
                    M[idx] *= (max_norm / nrm[over])[:, None]
    return W, C
