"""Link-prediction split: the paper's 30%-removal protocol."""
import numpy as np
import pytest

from repro.graphs.generators import dcsbm, erdos_renyi
from repro.tasks.split import link_prediction_split, sample_negative_pairs
from tests.toy_graphs import arc_keys


@pytest.mark.parametrize("directed", [False, True])
def test_split_sizes(directed):
    g = erdos_renyi(200, 1000, directed=directed, seed=0)
    sp = link_prediction_split(g, frac=0.3, seed=1)
    n_removed = int(round(0.3 * g.m))
    assert sp.train.m == g.m - n_removed
    assert len(sp.test_pairs) == 2 * n_removed
    assert sp.test_labels.sum() == n_removed


def test_split_no_leakage():
    g = dcsbm(150, 900, 3, seed=2)[0]
    sp = link_prediction_split(g, seed=3)
    train_keys = arc_keys(sp.train)
    pos = sp.test_pairs[sp.test_labels == 1]
    for u, v in pos:
        assert u * g.n + v not in train_keys


def test_split_positives_are_original_edges():
    g = erdos_renyi(100, 400, seed=4)
    sp = link_prediction_split(g, seed=5)
    keys = arc_keys(g)
    pos = sp.test_pairs[sp.test_labels == 1]
    for u, v in pos:
        assert u * g.n + v in keys


def test_split_negatives_are_nonedges():
    g = erdos_renyi(100, 400, directed=True, seed=6)
    sp = link_prediction_split(g, seed=7)
    keys = arc_keys(g)
    neg = sp.test_pairs[sp.test_labels == 0]
    for u, v in neg:
        assert u * g.n + v not in keys
        assert u != v


def test_split_deterministic():
    g = erdos_renyi(80, 300, seed=8)
    a = link_prediction_split(g, seed=9)
    b = link_prediction_split(g, seed=9)
    np.testing.assert_array_equal(a.test_pairs, b.test_pairs)
    np.testing.assert_array_equal(a.train.edges, b.train.edges)


def test_negative_sampler_distinct():
    g = erdos_renyi(60, 200, seed=10)
    neg = sample_negative_pairs(g, 150, np.random.default_rng(0))
    keys = neg[:, 0] * g.n + neg[:, 1]
    assert len(set(keys.tolist())) == 150


def test_negative_sampler_undirected_orientation():
    g = erdos_renyi(60, 150, seed=11)
    neg = sample_negative_pairs(g, 100, np.random.default_rng(1))
    assert np.all(neg[:, 0] < neg[:, 1])


def test_split_removing_no_edges():
    # round(0.3 * 1) = 0 edges are removed: an empty test set, not a crash
    g = erdos_renyi(10, 1, seed=0)
    sp = link_prediction_split(g, frac=0.3)
    assert sp.train.m == 1
    assert sp.test_pairs.shape == (0, 2) and sp.test_labels.shape == (0,)


@pytest.mark.parametrize("directed", [False, True])
def test_sample_no_pairs(directed):
    g = erdos_renyi(10, 20, directed=directed, seed=0)
    neg = sample_negative_pairs(g, 0, np.random.default_rng(0))
    assert neg.shape == (0, 2) and neg.dtype == np.int64
