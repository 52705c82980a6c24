"""Baseline methods: shapes, determinism, scale caps, and basic utility
(every method must beat chance at link prediction on an easy graph)."""
import inspect

import numpy as np
import pytest

from repro.baselines.registry import METHODS, get_method
from repro.baselines.sgns import geometric_stop_pairs, window_pairs
from repro.graphs.edgelist import random_walks
from repro.graphs.generators import dcsbm, erdos_renyi
from repro.tasks.linkpred import link_prediction_auc
from repro.tasks.split import link_prediction_split
from tests.toy_graphs import arc_keys

ALL = sorted(METHODS)


@pytest.fixture(scope="module")
def small_graph():
    return dcsbm(120, 1200, 3, seed=7)[0]


@pytest.fixture(scope="module")
def small_split(small_graph):
    return link_prediction_split(small_graph, seed=8)


@pytest.mark.parametrize("name", ALL)
def test_shapes(small_graph, name):
    m = get_method(name)
    emb = m.embed(small_graph, k=16, seed=0)
    assert emb.X.shape[0] == small_graph.n
    if m.dual:
        assert emb.Y is not None and emb.Y.shape == emb.X.shape
        assert emb.X.shape[1] == 8  # dual methods split the budget k/2
    else:
        assert emb.Y is None
        assert emb.X.shape[1] == 16
    assert np.isfinite(emb.X).all()


@pytest.mark.parametrize(
    "name", ["arope", "randne", "prone", "strap", "netmf", "gae", "approxppr"]
)
def test_deterministic(small_graph, name):
    m = get_method(name)
    a = m.embed(small_graph, k=8, seed=3)
    b = m.embed(small_graph, k=8, seed=3)
    np.testing.assert_array_equal(a.X, b.X)


@pytest.mark.parametrize("name", ALL)
def test_beats_chance_on_easy_graph(small_split, name):
    m = get_method(name)
    emb = m.embed(small_split.train, k=16, seed=0)
    auc = link_prediction_auc(emb, small_split)
    assert auc > 0.6, f"{name}: auc={auc:.3f}"


@pytest.mark.parametrize("name,cap", [("netmf", 4000), ("gae", 2500), ("strap", 6000)])
def test_scale_caps_enforced(name, cap):
    g = erdos_renyi(cap + 10, cap * 2, seed=0)
    with pytest.raises(ValueError):
        get_method(name).embed(g, k=8)


def test_every_method_is_a_function_of_graph_k_seed():
    """Each method runs at the one setting its code names: it takes the
    graph, k and the seed, and nothing else."""
    for name, m in METHODS.items():
        params = list(inspect.signature(m.fn).parameters)
        assert params == ["g", "k", "seed"], name


def test_registry_groups_cover_paper_categories():
    groups = {m.group for m in METHODS.values()}
    assert groups == {"ours", "factorization", "random-walk", "neural"}


def test_get_method_unknown():
    with pytest.raises(KeyError):
        get_method("node2vec")


def test_directed_handling():
    g = dcsbm(100, 800, 2, directed=True, seed=9)[0]
    for name in ALL:
        m = get_method(name)
        emb = m.embed(g, k=8, seed=0)
        assert emb.X.shape[0] == 100, name


# ------------------------------------------------------------- SGNS substrate
def test_random_walks_follow_edges(small_graph):
    rng = np.random.default_rng(0)
    walks = random_walks(small_graph, np.arange(50), 10, rng)
    keys = arc_keys(small_graph)
    for row in walks:
        for a, b in zip(row[:-1], row[1:]):
            if a >= 0 and b >= 0:
                assert a * small_graph.n + b in keys


def test_random_walks_stop_at_dangling():
    from repro.graphs.edgelist import LocalGraph

    g = LocalGraph.from_edges(np.array([[0, 1]]), 3, directed=True)
    walks = random_walks(g, np.array([0, 2]), 4, np.random.default_rng(0))
    assert walks[0].tolist() == [0, 1, -1, -1, -1]  # dies at dangling node 1
    assert walks[1].tolist() == [2, -1, -1, -1, -1]  # isolated start


def test_geometric_stop_pairs_valid(small_graph):
    rng = np.random.default_rng(1)
    pairs = geometric_stop_pairs(
        small_graph, walks_per_node=3, alpha=0.15, max_len=10, rng=rng
    )
    assert (pairs[:, 0] != pairs[:, 1]).all()
    assert pairs.min() >= 0 and pairs.max() < small_graph.n


def test_window_pairs_structure():
    walks = np.array([[0, 1, 2, -1]])
    pairs = window_pairs(walks, window=2)
    got = set(map(tuple, pairs.tolist()))
    assert got == {(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)}
