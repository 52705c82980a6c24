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

import numpy as np

from repro.graphs.edgelist import LocalGraph, canonical_edges, random_walks

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
    """G(n, m)-style random graph: sample ~m distinct edges uniformly.

    Sampling with replacement then dedup — for the sparse regimes used here
    (m << n^2) the loss to duplicates is a few percent; we oversample to
    land within 2% of the requested m.
    """
    rng = np.random.default_rng(seed)
    target = m
    e = np.empty((0, 2), dtype=np.int64)
    attempts = 0
    while e.shape[0] < target and attempts < 8:
        need = int((target - e.shape[0]) * 1.15) + 16
        fresh = rng.integers(0, n, size=(need, 2))
        e = canonical_edges(np.vstack([e, fresh]), n, directed)
        attempts += 1
    return LocalGraph(e[:target], n, directed, name=name or f"er_{n}_{m}")


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
    e = np.empty((0, 2), dtype=np.int64)
    attempts = 0
    while e.shape[0] < m_base and attempts < 10:
        need = int((m_base - e.shape[0]) * 1.25) + 32
        e = canonical_edges(np.vstack([e, sample_batch(need)]), n, directed)
        attempts += 1
    e = e[:m_base]
    if closure > 0.0:
        e = _add_closure_edges(e, n, directed, m, rng)
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


def _add_closure_edges(
    base: np.ndarray, n: int, directed: bool, m_total: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Top up ``base`` to ``m_total`` edges with wedge-closing edges
    (u -> w where u -> v -> w exists), preserving power-law endpoints."""
    g = LocalGraph(base.copy(), n, directed)
    e = base
    guard = 0
    while e.shape[0] < m_total and guard < 30:
        guard += 1
        batch = (m_total - e.shape[0]) * 3 + 64
        e = canonical_edges(np.vstack([e, _wedge_ends(g, batch, rng)]), n, directed)
    return e


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

    Returns ``(old_graph, new_edges)``. ``CLOSURE_FRAC`` of the new edges
    close open wedges of the old snapshot (triadic closure — the growth
    mechanism of real social graphs), the rest follow the same DC-SBM model.
    """
    rng = np.random.default_rng(seed)
    g_old, _ = dcsbm(
        n, m_old, n_comm, directed=directed, seed=seed, name=name or "evolving"
    )
    # both orientations of each old edge and the canonical key of each new
    # one, so a canonical candidate is fresh iff its own key is absent
    existing = set(g_old.edge_key_set())  # copy: the graph caches its key set
    new_edges: list[np.ndarray] = []

    def add_fresh(cand: np.ndarray) -> int:
        keys = cand[:, 0] * np.int64(n) + cand[:, 1]
        fresh = np.array([k not in existing for k in keys.tolist()], dtype=bool)
        existing.update(keys[fresh].tolist())
        new_edges.append(cand[fresh])
        return int(fresh.sum())

    n_have = 0
    n_closure_target = int(m_new * CLOSURE_FRAC)
    guard = 0
    while n_have < n_closure_target and guard < 60:
        guard += 1
        batch = min(4 * (n_closure_target - n_have) + 64, 500_000)
        wedges = _wedge_ends(g_old, batch, rng)
        n_have += add_fresh(canonical_edges(wedges, n, directed))
    # remainder: fresh model edges not in old/new
    while n_have < m_new and guard < 120:
        guard += 1
        g_extra, _ = dcsbm(
            n, (m_new - n_have) * 2 + 32, n_comm, directed=directed,
            seed=seed + guard,
        )
        n_have += add_fresh(g_extra.edges)
    out = np.vstack(new_edges)[:m_new] if new_edges else np.empty((0, 2), np.int64)
    return g_old, out
