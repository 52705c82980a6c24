"""Small named graphs the tests build with ``LocalGraph.from_edges``, and
the arc keys the tests look edges up in."""
import numpy as np

from repro.graphs.edgelist import LocalGraph


def ring(n: int) -> LocalGraph:
    e = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return LocalGraph.from_edges(e, n, directed=False, name=f"ring_{n}")


def star(n: int) -> LocalGraph:
    e = np.stack([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)], axis=1)
    return LocalGraph.from_edges(e, n, directed=False, name=f"star_{n}")


def directed_cycle(n: int) -> LocalGraph:
    e = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return LocalGraph.from_edges(e, n, directed=True, name=f"dcycle_{n}")


def arc_keys(g: LocalGraph) -> set:
    """The keys u*n+v of ``g``'s arcs (both orientations when undirected)."""
    return set((g.arcs[:, 0] * g.n + g.arcs[:, 1]).tolist())
