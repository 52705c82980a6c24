"""Common embedding container shared by NRP, the baselines, and the tasks."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Embedding:
    """Node embeddings: ``X`` forward vectors; ``Y`` backward vectors for
    dual-vector methods (NRP, ApproxPPR, STRAP, APP, ...), None for
    single-vector methods (DeepWalk, VERSE, ...)."""

    X: np.ndarray
    Y: np.ndarray | None = None
    name: str = ""

    @property
    def dual(self) -> bool:
        return self.Y is not None

    @property
    def right(self) -> np.ndarray:
        """The vectors on the right of a pair score: Y for dual-vector
        methods, X otherwise."""
        return self.Y if self.dual else self.X

    def score_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Inner-product proximity score for (u, v) pairs: X_u . Y_v for
        dual-vector methods, X_u . X_v otherwise (paper Section 5.2)."""
        u, v = pairs[:, 0], pairs[:, 1]
        return np.einsum("ij,ij->i", self.X[u], self.right[v])

    def features(self) -> np.ndarray:
        """Per-node feature representation for classification (paper §5.4):
        L2-normalize X and Y separately, then concatenate."""

        def norm(a: np.ndarray) -> np.ndarray:
            nrm = np.linalg.norm(a, axis=1, keepdims=True)
            return a / np.where(nrm > 0, nrm, 1.0)

        if self.dual:
            return np.hstack([norm(self.X), norm(self.Y)])
        return norm(self.X)
