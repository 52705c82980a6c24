"""Synthetic graph generators.

These are the offline stand-ins for the paper's real corpora (DESIGN.md §3):

* :func:`example_graph` — the reconstructed Fig. 1 graph (exact, 9 nodes);
  reproduces the paper's Table 1 PPR values.
* :func:`erdos_renyi` — the paper's own scalability-test workload (App. C).
* :func:`dcsbm` — degree-corrected stochastic block model with power-law
  degree propensities and planted communities; supplies the heavy-tailed
  degrees (what NRP's reweighting calibrates to), the community proximity
  structure (what PPR detects), and node labels for classification.
* :func:`evolving_graph` — temporal split with triadic-closure-biased new
  edges, standing in for the VK/Digg evolving-graph experiment.

All generators are deterministic in ``seed``.
"""
from __future__ import annotations

from itertools import count

import numpy as np

from repro.graphs.edgelist import LocalGraph, grow_edges, random_walks

#: Pareto exponent of the DC-SBM degree propensities
GAMMA = 2.5
#: Share of an evolving graph's new edges that close a wedge of the old one
CLOSURE_FRAC = 0.7

#: Reconstructed Fig. 1 edge set (1-indexed in the paper, 0-indexed here).
#: Degree sequence [3,3,4,3,4,2,2,2,1] is forced by Example 2's initial
#: forward weights; this wiring reproduces Table 1's v2/v4/v9 PPR rows
#: exactly (the printed v7 row is a paper erratum — see DESIGN.md §4).
EXAMPLE_EDGES = [
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4),
    (4, 5), (5, 6), (6, 7), (7, 8),
]


def example_graph() -> LocalGraph:
    """The 9-node example graph of the paper's Fig. 1 (undirected)."""
    return LocalGraph.from_edges(
        np.array(EXAMPLE_EDGES), n=9, directed=False, name="fig1"
    )


def erdos_renyi(
    n: int, m: int, *, directed: bool = False, seed: int = 0, name: str = ""
) -> LocalGraph:
    """G(n, m)-style random graph: m distinct edges drawn uniformly.

    Pairs are drawn with replacement and :func:`grow_edges` drops the
    self-loops and duplicates. Each batch draws 15 % more pairs than are
    still missing, plus 16; after 8 batches the graph keeps what it has.
    """
    rng = np.random.default_rng(seed)
    e, _ = grow_edges(
        np.empty((0, 2), np.int64), m,
        lambda short: rng.integers(0, n, size=(int(short * 1.15) + 16, 2)),
        n, directed, tries=8,
    )
    return LocalGraph(e[:m], n, directed, name=name or f"er_{n}_{m}")


def _powerlaw_propensity(n: int, rng: np.random.Generator) -> np.ndarray:
    """Unnormalized node degree propensities ~ Pareto(GAMMA)."""
    theta = (1.0 - rng.random(n)) ** (-1.0 / (GAMMA - 1.0))
    return np.clip(theta, None, theta.mean() * 50)  # cap extreme hubs


def dcsbm(
    n: int,
    m: int,
    n_comm: int,
    *,
    directed: bool = False,
    p_in: float = 0.8,
    closure: float = 0.0,
    seed: int = 0,
    name: str = "",
) -> tuple[LocalGraph, np.ndarray]:
    """Degree-corrected SBM. Returns ``(graph, labels)``.

    A fraction ``p_in`` of edges are intra-community; endpoints are drawn
    proportionally to power-law propensities (exponent ``GAMMA``).
    Communities are equal-sized; ``labels[v]`` is v's community.

    Directed graphs draw *independent* out- and in-propensities per node,
    so edge direction carries real signal (follower vs followee roles, as
    in real social graphs) — symmetrizing such a graph loses information.

    ``closure`` in [0, 1) replaces that fraction of edges with
    triangle-closing edges (endpoints two hops apart in the base graph),
    giving the local clustering that real networks have on top of the
    block structure.
    """
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_comm
    theta_out = _powerlaw_propensity(n, rng)
    theta_in = _powerlaw_propensity(n, rng) if directed else theta_out
    comm_nodes = [np.where(labels == c)[0] for c in range(n_comm)]
    comm_p_in = []
    for c in range(n_comm):
        w = theta_in[comm_nodes[c]]
        comm_p_in.append(w / w.sum())
    p_out_global = theta_out / theta_out.sum()
    p_in_global = theta_in / theta_in.sum()

    def sample_batch(size: int) -> np.ndarray:
        intra = rng.random(size) < p_in
        src = rng.choice(n, size=size, p=p_out_global)
        dst = np.empty(size, dtype=np.int64)
        n_inter = int((~intra).sum())
        if n_inter:
            dst[~intra] = rng.choice(n, size=n_inter, p=p_in_global)
        # intra edges: destination sampled inside the source's community
        for c in range(n_comm):
            mask = intra & (labels[src] == c)
            k = int(mask.sum())
            if k:
                dst[mask] = rng.choice(comm_nodes[c], size=k, p=comm_p_in[c])
        return np.stack([src, dst], axis=1)

    m_base = m - int(m * closure)
    e, _ = grow_edges(
        np.empty((0, 2), np.int64), m_base,
        lambda short: sample_batch(int(short * 1.25) + 32), n, directed,
        tries=10,
    )
    e = e[:m_base]
    if closure > 0.0:
        # top up with wedge-closing edges u -> w, where u -> v -> w is in the
        # base graph, so both endpoints keep their power-law propensities
        base = LocalGraph(e, n, directed)
        e, _ = grow_edges(
            e, m, lambda short: _wedge_ends(base, short * 3 + 64, rng),
            n, directed, tries=30,
        )
    g = LocalGraph(e[:m], n, directed, name=name or f"dcsbm_{n}_{m}")
    return g, labels


def _wedge_ends(
    g: LocalGraph, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``size`` two-hop walks u -> v -> w over ``g``'s arcs from
    uniform non-isolated starts u; returns (u, w) of the walks whose middle
    node v has out-arcs (the open wedges a new edge u -> w would close)."""
    walks = random_walks(g, rng.choice(np.flatnonzero(g.d_out), size), 2, rng)
    return walks[walks[:, 2] >= 0][:, [0, 2]]


def evolving_graph(
    n: int,
    m_old: int,
    m_new: int,
    n_comm: int,
    *,
    directed: bool = False,
    seed: int = 0,
    name: str = "",
) -> tuple[LocalGraph, np.ndarray]:
    """Temporal graph: an old snapshot plus future edges.

    Returns ``(old_graph, new_edges)``. Two phases grow the old snapshot's
    edge list with :func:`grow_edges`, so no new edge repeats an old one or
    another new one; the new edges are the rows past the old ones:

    * ``CLOSURE_FRAC`` of the new edges close open wedges of the old
      snapshot (triadic closure — the growth mechanism of real social
      graphs), drawn in at most 60 batches;
    * the rest follow the same DC-SBM model. The i-th batch of the two
      phases together, if it is one of these, is the edge list of a DC-SBM
      seeded ``seed + i``; there are at most 120 batches in all.
    """
    rng = np.random.default_rng(seed)
    g_old, _ = dcsbm(
        n, m_old, n_comm, directed=directed, seed=seed, name=name or "evolving"
    )
    e, drawn = grow_edges(
        g_old.edges, g_old.m + int(m_new * CLOSURE_FRAC),
        lambda short: _wedge_ends(g_old, min(4 * short + 64, 500_000), rng),
        n, directed, tries=60,
    )
    seeds = count(seed + drawn + 1)

    def model_edges(short: int) -> np.ndarray:
        return dcsbm(
            n, short * 2 + 32, n_comm, directed=directed, seed=next(seeds)
        )[0].edges

    e, _ = grow_edges(
        e, g_old.m + m_new, model_edges, n, directed, tries=120 - drawn
    )
    return g_old, e[g_old.m:][:m_new]
