"""GAE-lite: the stand-in for the paper's neural-network group (GAE, SDNE,
DNGR, ...). A one-layer graph-convolutional autoencoder with identity
features, trained by full-batch Adam on the dense cross-entropy edge
reconstruction — dense O(n^2) per step, hence scale-capped exactly like
the neural methods in the paper's efficiency table."""
from __future__ import annotations

import numpy as np

from repro.baselines.factorization import _symmetrized
from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph


def gae(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """Z = tanh(A_hat W); decoder sigmoid(Z Z^T) vs the (symmetrized)
    adjacency, with class rebalancing for sparsity; 120 Adam steps at
    learning rate 0.02."""
    epochs, lr = 120, 0.02
    n = g.n
    A = _symmetrized(g).adjacency()
    d = A.sum(1) + 1.0
    Ahat = (A + np.eye(n)) / np.sqrt(d)[:, None] / np.sqrt(d)[None, :]
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, k)) * 0.05
    pos_weight = (n * n - A.sum()) / max(A.sum(), 1.0)
    m = np.zeros_like(W)
    v = np.zeros_like(W)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, epochs + 1):
        H = Ahat @ W
        Z = np.tanh(H)
        S = Z @ Z.T
        P = 1.0 / (1.0 + np.exp(-np.clip(S, -30, 30)))
        # weighted-CE gradient wrt S
        G_s = (P - A) * np.where(A > 0, pos_weight, 1.0) / (n * n)
        G_z = 2.0 * G_s @ Z
        G_h = G_z * (1.0 - Z**2)
        G_w = Ahat.T @ G_h
        m = b1 * m + (1 - b1) * G_w
        v = b2 * v + (1 - b2) * G_w * G_w
        W -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    Z = np.tanh(Ahat @ W)
    return Embedding(X=Z, Y=None, name="gae")
