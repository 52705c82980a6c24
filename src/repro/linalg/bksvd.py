"""Randomized block-Krylov SVD (BKSVD, Musco & Musco NIPS'15).

Used by ApproxPPR (paper Algorithm 1, line 1) to factorize the adjacency
matrix A ~= U S V^T with a (1+eps) spectral-norm guarantee. The matrix is
touched only through a product provider's ``n`` and ``columns`` (see
:mod:`repro.graphs.edgelist`), so one algorithm serves both backends:
:func:`bksvd_local` runs it over any provider in process, a ``LocalGraph``
or a :class:`Products`, and :func:`bksvd_spark` over a
:class:`~repro.graphs.edgelist.SparkGraph`, where the whole Krylov chain,
:func:`krylov_chain`, is one Spark job over column slices of Omega. Only
small algebra on k-sized blocks stays on the driver.

Algorithm (square A, n x n): draw Gaussian Omega (n x k); build the Krylov
block K = [A Om, (A A^T) A Om, ..., (A A^T)^q A Om], each column scaled to
unit norm after every product (per-column scaling leaves span(K) as it is,
and keeps the chain column-separable); orthonormalize to Q = K W;
Rayleigh-Ritz on A A^T restricted to span(Q) gives U; a final small SVD of
U^T A gives (S, V) and rotates U. The chain also returns A^T of each Krylov
block, so A^T Q and A^T U are combinations of those blocks, and the driver
needs only the Grams K^T K and (A^T K)^T (A^T K). When fewer than k
directions survive (a graph of rank below k), U and V are padded with zero
columns and a ``RuntimeWarning`` names the kept rank.
"""
from __future__ import annotations

import sys
import warnings
from functools import partial
from typing import Callable, NamedTuple

import numpy as np


def default_q(n: int, eps: float, k: int) -> int:
    """Paper: q = Theta(log n / sqrt(eps)); clamp so the Krylov block stays
    thin relative to n."""
    q = int(np.ceil(np.log(max(n, 2)) / np.sqrt(eps) / 4.0))
    q = int(np.clip(q, 2, 8))
    while k * (q + 1) > max(n, k) and q > 0:
        q -= 1
    return max(q, 1)


def _whiten(gram: np.ndarray) -> np.ndarray:
    """Orthonormalization weights from a Gram matrix: W with Q = K @ W
    orthonormal (rank-revealing; tiny directions dropped)."""
    lam, E = np.linalg.eigh((gram + gram.T) / 2.0)
    tol = max(lam.max(), 0.0) * 1e-10 + 1e-30
    keep = lam > tol
    return E[:, keep] / np.sqrt(lam[keep])


def _ritz(QtAAtQ: np.ndarray, k: int) -> np.ndarray:
    """Top-k Ritz vectors of a small symmetric matrix (columns)."""
    lam, E = np.linalg.eigh((QtAAtQ + QtAAtQ.T) / 2.0)
    return E[:, ::-1][:, :k]


def _final_svd(RtR: np.ndarray, k: int):
    """From R = A^T U (n x k): SVD of B = U^T A via the small Gram RtR.

    Returns (W2, sig, Vmul) with final U = U @ W2, V = R @ Vmul.
    """
    lam, W2 = np.linalg.eigh((RtR + RtR.T) / 2.0)
    lam, W2 = lam[::-1][:k], W2[:, ::-1][:, :k]
    sig = np.sqrt(np.clip(lam, 0.0, None))
    inv = np.where(sig > 1e-12, 1.0 / np.maximum(sig, 1e-300), 0.0)
    return W2, sig, W2 * inv[None, :]


def _unit(b: np.ndarray) -> np.ndarray:
    """``b`` with each column scaled to unit norm; zero columns stay zero.

    Each column's norm is a sum over a contiguous row of b^T, which gives
    the same bits at every slice width (a norm along axis 0 of b does not).
    """
    s = np.sqrt(np.square(np.ascontiguousarray(b.T)).sum(axis=1))
    return b / np.where(s > 0, s, 1.0)


def krylov_chain(ops, omega: np.ndarray, q: int) -> np.ndarray:
    """The Krylov blocks and their A^T products, column by column:
    ``out[:, i] = b_i`` and ``out[:, q + 1 + i] = A^T b_i`` for i = 0..q,
    with ``b_0 = unit(A omega)`` and ``b_{i+1} = unit(A A^T b_i)``."""
    n, w = omega.shape
    out = np.empty((n, 2 * (q + 1), w))
    b = _unit(ops.spmv(omega))
    for i in range(q + 1):
        out[:, i] = b
        out[:, q + 1 + i] = t = ops.spmv_t(b)
        if i < q:
            b = _unit(ops.spmv(t))
    return out


class Products(NamedTuple):
    """Product provider over an n x n operator given by its two products,
    for an operator that is not a graph's adjacency: ProNE's normalized
    adjacency, NetMF's and STRAP's dense proximity."""

    n: int
    spmv: Callable[[np.ndarray], np.ndarray]
    spmv_t: Callable[[np.ndarray], np.ndarray]

    def columns(self, fn: Callable, X: np.ndarray) -> np.ndarray:
        return fn(self, X)


def bksvd_local(
    provider, k: int, *, eps: float = 0.2, q: int | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BKSVD of the adjacency behind ``provider`` (its ``n`` and
    ``columns``); returns (U, sig, V) with U, V of shape (n, k), sig
    descending."""
    n = provider.n
    q = default_q(n, eps, k) if q is None else q
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k))
    # (n, 2(q + 1), k) with k as the last axis, so this reshape is free and
    # gives the columns [b_0 ... b_q | A^T b_0 ... A^T b_q]
    Z = provider.columns(partial(krylov_chain, q=q), omega).reshape(n, -1)
    K, T = np.hsplit(Z, 2)
    # Q = K W is orthonormal and A^T Q = T W, so neither is formed
    W = _whiten(K.T @ K)
    Wr = _ritz(W.T @ (T.T @ T) @ W, k)
    M = W @ Wr
    U, R = K @ M, T @ M  # U = Q Wr and R = A^T U
    W2, sig, Vmul = _final_svd(R.T @ R, k)
    U, V = U @ W2, R @ Vmul
    rank = sig.size
    if rank < k:
        # name the caller outside this module: bksvd_spark is one more frame
        level = 2 + (sys._getframe(1).f_code.co_filename == __file__)
        warnings.warn(
            f"BKSVD kept rank {rank} < k = {k}; "
            "U and V are padded with zero columns",
            RuntimeWarning, stacklevel=level,
        )
        pad = ((0, 0), (0, k - rank))
        U, V, sig = np.pad(U, pad), np.pad(V, pad), np.pad(sig, (0, k - rank))
    return U, sig, V


def bksvd_spark(
    provider, k: int, *, eps: float = 0.2, q: int | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`bksvd_local` over a :class:`~repro.graphs.edgelist.SparkGraph`,
    so the result equals the local one bit for bit. It is a name of its own
    because the benchmark tracer wraps it under its own Spark job group."""
    return bksvd_local(provider, k, eps=eps, q=q, seed=seed)
