"""Random-walk SGNS baselines: DeepWalk, LINE, APP, VERSE.

Each is ``fn(g, k, *, seed)`` at the one setting its docstring names."""
from __future__ import annotations

import numpy as np

from repro.baselines.sgns import geometric_stop_pairs, sgns_train, window_pairs
from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph, random_walks


def deepwalk(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """DeepWalk (Perozzi et al., KDD'14): 8 truncated random walks of
    length 30 per node, window 5, 3 SGNS epochs; single vector per node."""
    rng = np.random.default_rng(seed)
    starts = np.repeat(np.arange(g.n), 8)
    walks = random_walks(g, rng.permutation(starts), 30, rng)
    pairs = window_pairs(walks, 5)
    W, _ = sgns_train(pairs, g.n, k, epochs=3, seed=seed)
    return Embedding(X=W, Y=None, name="deepwalk")


def line(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """LINE second-order (Tang et al., WWW'15): SGNS over direct arcs (20
    samples per arc, 5 epochs) with separate context vectors; the source
    matrix is the embedding."""
    pairs = np.tile(g.arcs, (20, 1))
    W, _ = sgns_train(pairs, g.n, k, epochs=5, seed=seed)
    return Embedding(X=W, Y=None, name="line")


def _ppr_sgns(
    g: LocalGraph, dim: int, *, tie: bool, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The APP/VERSE body: SGNS for 10 epochs over 200 PPR-sampled pairs
    per node, each the end of an alpha = 0.15 geometric-stop walk of at
    most 20 steps."""
    rng = np.random.default_rng(seed)
    pairs = geometric_stop_pairs(
        g, walks_per_node=200, alpha=0.15, max_len=20, rng=rng
    )
    return sgns_train(pairs, g.n, dim, epochs=10, tie=tie, seed=seed)


def app(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """APP (Zhou et al., AAAI'17): PPR-sampled pairs with asymmetric
    source/context vectors of k/2 columns each — forward/backward like
    NRP, but learned by SGD and without reweighting."""
    W, C = _ppr_sgns(g, max(k // 2, 1), tie=False, seed=seed)
    return Embedding(X=W, Y=C, name="app")


def verse(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """VERSE (Tsitsulin et al., WWW'18): PPR-similarity SGNS with a single
    tied embedding matrix — cannot represent edge direction (the paper's
    explanation for its directed-graph weakness)."""
    W, _ = _ppr_sgns(g, k, tie=True, seed=seed)
    return Embedding(X=W, Y=None, name="verse")
