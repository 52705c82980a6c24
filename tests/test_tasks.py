"""End-to-end task evaluation: link prediction, reconstruction,
classification — with NRP embeddings on a community graph, all tasks must
beat chance comfortably."""
import numpy as np
import pytest

from repro.baselines.registry import get_method
from repro.embedding import Embedding
from repro.graphs.generators import dcsbm
from repro.tasks.classification import node_classification_f1
from repro.tasks.linkpred import edge_feature_scores, link_prediction_auc
from repro.tasks.reconstruction import reconstruction_precision, topk_pairs_numpy
from repro.tasks.split import link_prediction_split, sample_distinct_pairs
from tests.toy_graphs import ring


@pytest.fixture(scope="module")
def bundle():
    g, labels = dcsbm(250, 2500, 5, seed=1)
    return g, labels


@pytest.fixture(scope="module")
def nrp_emb(bundle):
    g, _ = bundle
    return get_method("nrp").embed(g, k=32, seed=0)


def test_linkpred_beats_chance(bundle):
    g, _ = bundle
    sp = link_prediction_split(g, seed=2)
    emb = get_method("nrp").embed(sp.train, k=32, seed=0)
    auc = link_prediction_auc(emb, sp)
    assert auc > 0.75


def test_linkpred_edge_features_protocol(bundle):
    g, _ = bundle
    sp = link_prediction_split(g, seed=3)
    emb = get_method("verse").embed(sp.train, k=16, seed=0)
    auc = link_prediction_auc(emb, sp, protocol="edge_features")
    assert auc > 0.6


def test_edge_feature_scores_shape(bundle):
    g, _ = bundle
    sp = link_prediction_split(g, seed=4)
    emb = Embedding(X=np.random.default_rng(0).normal(size=(g.n, 8)))
    s = edge_feature_scores(emb, sp.train, sp.test_pairs, n_train=200)
    assert s.shape == (len(sp.test_pairs),)


def test_linkpred_rejects_unknown_protocol(bundle):
    g, _ = bundle
    sp = link_prediction_split(g, seed=5)
    emb = get_method("randne").embed(g, k=8, seed=0)
    with pytest.raises(ValueError):
        link_prediction_auc(emb, sp, protocol="bogus")


# ------------------------------------------------------------ reconstruction
def test_reconstruction_precision_high_for_nrp(bundle, nrp_emb):
    g, _ = bundle
    prec = reconstruction_precision(nrp_emb, g, [10, 100, 1000])
    assert prec[10] >= 0.9
    assert prec[100] >= 0.8
    assert prec[1000] >= 0.5


def test_topk_numpy_matches_exhaustive(bundle, nrp_emb):
    g, _ = bundle
    top = topk_pairs_numpy(nrp_emb, g, 50)
    S = nrp_emb.X @ nrp_emb.right.T
    np.fill_diagonal(S, -np.inf)
    S[np.tril_indices(g.n)] = -np.inf  # undirected: u < v
    flat = np.argsort(-S.ravel(), kind="stable")[:50]
    want = set(zip(flat // g.n, flat % g.n))
    got = set(map(tuple, top.tolist()))
    assert got == want


def test_reconstruction_sampled_protocol(bundle, nrp_emb):
    g, _ = bundle
    prec = reconstruction_precision(nrp_emb, g, [10, 100], sample=5000)
    assert prec[10] > 0.5  # sampled candidates contain ~8% edges; top must enrich


def test_sample_candidate_pairs_distinct(bundle):
    g, _ = bundle
    none = np.empty((0, 2), np.int64)
    cand = sample_distinct_pairs(g, 1000, np.random.default_rng(1), none)
    keys = cand[:, 0] * g.n + cand[:, 1]
    assert len(set(keys.tolist())) == 1000
    assert np.all(cand[:, 0] < cand[:, 1])
    # 3 nodes have only 3 distinct undirected pairs: a 4th cannot be drawn
    with pytest.raises(RuntimeError):
        sample_distinct_pairs(ring(3), 4, np.random.default_rng(1), none)


def test_directed_topk_allows_both_orientations():
    g, _ = dcsbm(60, 400, 2, directed=True, seed=3)
    emb = get_method("approxppr").embed(g, k=16, seed=0)
    top = topk_pairs_numpy(emb, g, 30)
    assert np.all(top[:, 0] != top[:, 1])


# ----------------------------------------------------------- classification
def test_classification_beats_chance(bundle, nrp_emb):
    g, labels = bundle
    micro, macro = node_classification_f1(nrp_emb, labels, train_ratio=0.5)
    assert micro > 0.5 and macro > 0.4  # 5 classes -> chance is 0.2


def test_classification_ratio_too_high(bundle, nrp_emb):
    g, labels = bundle
    with pytest.raises(ValueError):
        node_classification_f1(nrp_emb, labels, train_ratio=1.0)
