"""ApproxPPR — paper Algorithm 1.

Factorizes the truncated PPR matrix Pi' (Eq. 3) without materializing it:

1. ``[U, S, V] = BKSVD(A, k', eps)``                        (line 1)
2. ``X_1 = D^-1 U sqrt(S)``, ``Y = V sqrt(S)``              (line 2)
3. ``X_i = (1-alpha) P X_{i-1} + X_1`` for i = 2..l1        (lines 3-4)
4. ``X = alpha (1-alpha) X_{l1}``                           (line 5)

so that ``X Y^T ~= Pi'`` within the Theorem 1 bound. The algorithm exists
once and touches A and P only through a matvec provider; the backend picks
the provider. ``local`` uses the :class:`LocalGraph` itself (numpy CSR
products); ``spark`` uses a :class:`SparkGraph`, whose every product is one
Spark job that broadcasts X and collects segment sums over cached CSR row
blocks. Both providers return the same bits, so both backends return the
same X and Y, as numpy (n, k') matrices — the embedding is the output
artifact and is driver-sized by construction (O(n k') is the paper's own
space budget for the result).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.linalg.bksvd import bksvd_local, bksvd_spark


def _power(
    g: LocalGraph,
    pmv: Callable[[np.ndarray], np.ndarray],
    U: np.ndarray,
    sig: np.ndarray,
    V: np.ndarray,
    alpha: float,
    l1: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Lines 2-5, with ``pmv(X) = P @ X``."""
    # line 2: X_1 = D^-1 U sqrt(S), Y = V sqrt(S); dangling rows -> 0
    root = np.sqrt(np.clip(sig, 0.0, None))
    d = g.d_out
    dinv = np.where(d > 0, 1.0 / np.maximum(d, 1.0), 0.0)
    X1 = dinv[:, None] * U * root[None, :]
    Y = V * root[None, :]
    X = X1.copy()
    for _ in range(2, l1 + 1):
        X = (1.0 - alpha) * pmv(X) + X1
    return alpha * (1.0 - alpha) * X, Y


def approxppr(
    g: LocalGraph,
    k2: int,
    *,
    alpha: float = 0.15,
    l1: int = 20,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
    backend: str = "local",
    spark: SparkSession | None = None,
    sg: SparkGraph | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 front door. ``backend`` in {"local", "spark"}; the Spark
    backend builds (and afterwards releases) a :class:`SparkGraph` unless
    ``sg`` is given."""
    if backend == "local":
        U, sig, V = bksvd_local(
            g.spmv, g.spmv_t, g.n, k2, eps=eps, q=q, seed=seed
        )
        return _power(g, g.pmv, U, sig, V, alpha, l1)
    if backend != "spark":
        raise ValueError(f"unknown backend {backend!r}")
    if spark is None:
        raise ValueError("spark backend requires a SparkSession")
    own_sg = sg is None
    sg = sg or SparkGraph(spark, g)
    try:
        U, sig, V = bksvd_spark(sg, k2, eps=eps, q=q, seed=seed)
        return _power(g, sg.pmv, U, sig, V, alpha, l1)
    finally:
        if own_sg:
            sg.unpersist()
