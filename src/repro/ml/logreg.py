"""One-vs-rest logistic regression in numpy.

Full-batch Adam on the L2-regularized cross-entropy; supports binary
(single column) and one-vs-rest multiclass (one sigmoid per class).
Deterministic given the data. This is the classifier the paper's
evaluation protocol uses for node classification and for the
"edge features" link-prediction scoring of single-vector methods.
"""
from __future__ import annotations

import numpy as np


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


#: L2 weight, Adam step size, and the loss change (checked every 25 steps)
#: below which training stops
L2, LR, TOL = 1e-4, 0.1, 1e-7


class LogisticRegression:
    """One-vs-rest logistic regression with bias, L2, full-batch Adam."""

    def __init__(self, *, epochs: int = 300):
        self.epochs = epochs
        self.W: np.ndarray | None = None  # (d+1, C), last row = bias

    def fit(self, X: np.ndarray, Y: np.ndarray) -> "LogisticRegression":
        """X: (n, d); Y: (n,) binary 0/1 or class labels."""
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y)
        self.classes_ = np.unique(Y)
        if len(self.classes_) == 2 and set(self.classes_) <= {0, 1}:
            Yh = Y.reshape(-1, 1).astype(np.float64)
        else:
            Yh = (Y[:, None] == self.classes_[None, :]).astype(np.float64)
        n, d = X.shape
        C = Yh.shape[1]
        Xb = np.hstack([X, np.ones((n, 1))])
        W = np.zeros((d + 1, C))
        m = np.zeros_like(W)
        v = np.zeros_like(W)
        b1, b2, eps = 0.9, 0.999, 1e-8
        prev = np.inf
        for t in range(1, self.epochs + 1):
            P = _sigmoid(Xb @ W)
            G = Xb.T @ (P - Yh) / n
            G[:-1] += L2 * W[:-1]
            m = b1 * m + (1 - b1) * G
            v = b2 * v + (1 - b2) * G * G
            mh = m / (1 - b1**t)
            vh = v / (1 - b2**t)
            W -= LR * mh / (np.sqrt(vh) + eps)
            if t % 25 == 0:
                loss = float(
                    -np.mean(
                        Yh * np.log(P + 1e-12) + (1 - Yh) * np.log(1 - P + 1e-12)
                    )
                )
                if abs(prev - loss) < TOL:
                    break
                prev = loss
        self.W = W
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        assert self.W is not None, "fit first"
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return Xb @ self.W

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Binary: 0/1 by threshold. Multiclass: argmax class label."""
        S = self.decision_function(X)
        if S.shape[1] == 1:
            return (S[:, 0] > 0).astype(np.int64)
        return self.classes_[np.argmax(S, axis=1)]
