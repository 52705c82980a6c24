"""Synthetic graph generators: sizes, determinism, planted structure."""
import numpy as np
import pytest

from repro.graphs.generators import (
    dcsbm,
    erdos_renyi,
    evolving_graph,
    example_graph,
)
from repro.graphs.stats import evolving_stats_row, stats_row
from tests.toy_graphs import arc_keys, directed_cycle


def test_example_graph_shape():
    g = example_graph()
    assert g.n == 9 and g.m == 12 and not g.directed


def test_example_common_neighbors():
    # the motivating structure: v2,v4 share 3 neighbors; v7,v9 share 1
    g = example_graph()
    A = g.adjacency()
    assert A[1] @ A[3] == 3  # v2, v4
    assert A[6] @ A[8] == 1  # v7, v9
    assert A[1, 3] == 0 and A[6, 8] == 0  # neither pair is an edge


@pytest.mark.parametrize("n,m", [(50, 100), (200, 800), (500, 400)])
def test_erdos_renyi_size(n, m):
    g = erdos_renyi(n, m, seed=1)
    assert g.n == n
    assert g.m == m  # generator oversamples then trims to exactly m


def test_erdos_renyi_deterministic():
    a = erdos_renyi(100, 300, seed=7)
    b = erdos_renyi(100, 300, seed=7)
    assert np.array_equal(a.edges, b.edges)


def test_erdos_renyi_directed():
    g = erdos_renyi(50, 150, directed=True, seed=2)
    assert g.directed and g.arcs.shape[0] == g.m


@pytest.mark.parametrize("directed", [False, True])
def test_dcsbm_basic(directed):
    g, labels = dcsbm(200, 1200, 4, directed=directed, seed=3)
    assert g.n == 200 and g.m == 1200
    assert labels.shape == (200,) and set(labels) == {0, 1, 2, 3}


def test_dcsbm_homophily():
    # with p_in = 0.8 most edges should be intra-community
    g, labels = dcsbm(300, 3000, 3, p_in=0.8, seed=4)
    same = labels[g.edges[:, 0]] == labels[g.edges[:, 1]]
    assert same.mean() > 0.6


def test_dcsbm_degree_skew():
    # power-law propensities should produce a heavy-tailed degree sequence
    g, _ = dcsbm(500, 5000, 5, seed=5)
    d = g.d_out
    assert d.max() > 4 * d.mean()


def test_dcsbm_deterministic():
    g1, l1 = dcsbm(100, 500, 4, seed=6)
    g2, l2 = dcsbm(100, 500, 4, seed=6)
    assert np.array_equal(g1.edges, g2.edges) and np.array_equal(l1, l2)


def test_evolving_graph_new_edges_fresh():
    g_old, new = evolving_graph(150, 700, 250, 3, seed=8)
    assert new.shape[0] == 250
    keys = arc_keys(g_old)
    for u, v in new:
        assert u * g_old.n + v not in keys


def test_evolving_closure_bias():
    # a majority of new undirected edges should close a wedge of E_old
    g_old, new = evolving_graph(200, 1500, 300, 3, seed=9)
    A = g_old.adjacency()
    A2 = A @ A
    closes = A2[new[:, 0], new[:, 1]] > 0
    assert closes.mean() > 0.5


def test_stats_rows():
    g = example_graph()
    row = stats_row(g, n_labels=3)
    assert row == {
        "name": "fig1", "n": 9, "m": 12, "type": "undirected",
        "labels": 3, "avg_deg": 1.33, "max_out_deg": 4,
    }
    assert stats_row(directed_cycle(4))["labels"] == "-"


def test_evolving_stats_row():
    g_old, new = evolving_graph(100, 400, 100, 2, seed=1)
    row = evolving_stats_row(g_old, new, "vk_lite")
    assert row["e_old"] == 400 and row["e_new"] == 100
