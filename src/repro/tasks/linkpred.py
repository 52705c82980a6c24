"""Link prediction (paper Section 5.2).

Two scoring protocols, mirroring the paper:

* inner product — dual-vector methods score (u, v) as X_u . Y_v; on
  undirected graphs single-vector methods use X_u . X_v;
* "edge features" — for single-vector methods on *directed* graphs (their
  inner product cannot distinguish (u,v) from (v,u)): concatenate u's and
  v's vectors, train a logistic-regression classifier on a training set of
  the same size as the test set (half retained edges, half non-edges), and
  use its decision values as scores.
"""
from __future__ import annotations

import numpy as np

from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph
from repro.ml.logreg import LogisticRegression
from repro.tasks.metrics import auc_score
from repro.tasks.split import LinkSplit, sample_negative_pairs


def edge_feature_scores(
    emb: Embedding,
    train_graph: LocalGraph,
    test_pairs: np.ndarray,
    *,
    n_train: int,
) -> np.ndarray:
    """Paper's edge-features protocol: logistic regression over
    concatenated endpoint vectors, on training pairs drawn with seed 0."""
    rng = np.random.default_rng(0)
    n_pos = n_train // 2
    m = train_graph.m
    idx = rng.integers(0, m, n_pos)
    pos = train_graph.edges[idx]
    neg = sample_negative_pairs(train_graph, n_pos, rng)
    pairs = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(n_pos), np.zeros(n_pos)])

    def feats(p: np.ndarray) -> np.ndarray:
        return np.hstack([emb.X[p[:, 0]], emb.right[p[:, 1]]])

    clf = LogisticRegression(epochs=200).fit(feats(pairs), labels)
    return clf.decision_function(feats(test_pairs))[:, 0]


def link_prediction_auc(
    emb: Embedding,
    split: LinkSplit,
    *,
    protocol: str = "inner",
) -> float:
    """AUC of the embedding on a link split. ``protocol``: "inner" or
    "edge_features" (the paper's choice depends on the method — see
    experiments.harness)."""
    if protocol == "inner":
        scores = emb.score_pairs(split.test_pairs)
    elif protocol == "edge_features":
        scores = edge_feature_scores(
            emb, split.train, split.test_pairs, n_train=len(split.test_labels)
        )
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return auc_score(split.test_labels, scores)
