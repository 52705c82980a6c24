"""ApproxPPR — paper Algorithm 1.

Factorizes the truncated PPR matrix Pi' (Eq. 3) without materializing it:

1. ``[U, S, V] = BKSVD(A, k', eps)``                        (line 1)
2. ``X_1 = D^-1 U sqrt(S)``, ``Y = V sqrt(S)``              (line 2)
3. ``X_i = (1-alpha) P X_{i-1} + X_1`` for i = 2..l1        (lines 3-4)
4. ``X = alpha (1-alpha) X_{l1}``                           (line 5)

so that ``X Y^T ~= Pi'`` within the Theorem 1 bound. The algorithm exists
once and touches A and P only through a product provider; the backend
picks the provider. ``local`` uses the :class:`LocalGraph` itself (numpy
CSR products); ``spark`` uses a :class:`SparkGraph`, which broadcasts the
graph once and runs each column-separable chain as one Spark job over
column slices of X. Every column of X evolves on its own in lines 3-5, so
the whole loop, :func:`ppr_loop`, is one such chain. Both providers return
the same bits, so both backends return the same X and Y, as numpy (n, k')
matrices — the embedding is the output artifact and is driver-sized by
construction (O(n k') is the paper's own space budget for the result).
"""
from __future__ import annotations

from functools import partial

import numpy as np
from pyspark.sql import SparkSession

from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.linalg.bksvd import bksvd_local, bksvd_spark


def ppr_loop(ops, X1: np.ndarray, alpha: float, l1: int) -> np.ndarray:
    """Lines 3-5 as a column-separable function of ``X_1``."""
    X = X1
    for _ in range(2, l1 + 1):
        X = (1.0 - alpha) * ops.pmv(X) + X1
    return alpha * (1.0 - alpha) * X


def ppr_cols(ops, E: np.ndarray, alpha: float, iters: int) -> np.ndarray:
    """``Pi E`` for the full PPR matrix Pi (Eq. 1) summed over orders
    0..iters: the zero-hop ``alpha E`` plus the :func:`ppr_loop` chain
    (orders 1..iters) run on ``X_1 = P E``.

    With ``E`` the identity this is all of Pi, so it is for small graphs
    only, like :func:`repro.ppr.exact.ppr_dense`."""
    return alpha * E + ppr_loop(ops, ops.pmv(E), alpha, iters)


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
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 1 front door. ``backend`` in {"local", "spark"}; the Spark
    backend builds (and afterwards releases) a :class:`SparkGraph`."""
    if g.n < 1:
        raise ValueError("ApproxPPR needs a graph with at least one node")
    if backend not in ("local", "spark"):
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "spark" and spark is None:
        raise ValueError("spark backend requires a SparkSession")
    provider = g if backend == "local" else SparkGraph(spark, g)
    try:
        # line 1; the BKSVD names are looked up per call, not bound once,
        # because the benchmark tracer patches them on this module
        svd = bksvd_local if backend == "local" else bksvd_spark
        U, sig, V = svd(provider, k2, eps=eps, q=q, seed=seed)
        # line 2: X_1 = D^-1 U sqrt(S), Y = V sqrt(S); dangling rows -> 0
        root = np.sqrt(np.clip(sig, 0.0, None))
        d = g.d_out
        dinv = np.where(d > 0, 1.0 / np.maximum(d, 1.0), 0.0)
        X1 = dinv[:, None] * U * root[None, :]
        # lines 3-5, one column-separable chain on the provider
        X = provider.columns(partial(ppr_loop, alpha=alpha, l1=l1), X1)
        return X, V * root[None, :]
    finally:
        if provider is not g:
            provider.unpersist()
