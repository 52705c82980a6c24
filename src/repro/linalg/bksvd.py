"""Randomized block-Krylov SVD (BKSVD, Musco & Musco NIPS'15).

Used by ApproxPPR (paper Algorithm 1, line 1) to factorize the adjacency
matrix A ~= U S V^T with a (1+eps) spectral-norm guarantee. The matrix is
touched only through a product provider (``spmv``, ``spmv_t`` and
``columns``, see :mod:`repro.graphs.edgelist`), so one algorithm serves
both backends: :func:`bksvd_local` runs it over two in-process matvecs,
:func:`bksvd_spark` over a :class:`~repro.graphs.edgelist.SparkGraph`.
There each Krylov step (A A^T) b is one Spark job over column slices of
b, as are the products A Om, A^T Q and A^T U. The block normalisation
between steps and all small (k x k) algebra stay on the driver.

Algorithm (square A, n x n): draw Gaussian Omega (n x b); build the Krylov
block K = [A Om, (A A^T) A Om, ..., (A A^T)^q A Om]; orthonormalize to Q;
Rayleigh-Ritz on A A^T restricted to span(Q) gives U; a final small SVD of
U^T A gives (S, V) and rotates U.
"""
from __future__ import annotations

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


def _whiten(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormalization weights from a Gram matrix: returns (W, keep_mask)
    with Q = K @ W orthonormal (rank-revealing; tiny directions dropped)."""
    lam, E = np.linalg.eigh((gram + gram.T) / 2.0)
    tol = max(lam.max(), 0.0) * 1e-10 + 1e-30
    keep = lam > tol
    W = E[:, keep] / np.sqrt(lam[keep])
    return W, keep


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


def _make_krylov_step():
    # Built inside a function so that cloudpickle ships it to Spark workers
    # by value; it may reference numpy only (see repro.graphs.edgelist).
    def krylov_step(ops, b: np.ndarray) -> np.ndarray:
        """One Krylov power ``(A A^T) b``; column-separable."""
        return ops.spmv(ops.spmv_t(b))

    return krylov_step


krylov_step = _make_krylov_step()


class _Matvecs(NamedTuple):
    """Product provider over two in-process matvecs."""

    spmv: Callable[[np.ndarray], np.ndarray]
    spmv_t: Callable[[np.ndarray], np.ndarray]

    def columns(self, fn: Callable, X: np.ndarray) -> np.ndarray:
        return fn(self, X)


def _bksvd(
    g, n: int, k: int, eps: float, q: int | None, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BKSVD of the adjacency behind the product provider ``g``."""
    q = default_q(n, eps, k) if q is None else q
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((n, k))

    def _normalize(b: np.ndarray) -> np.ndarray:
        # scale per block so the Krylov Gram stays well-conditioned across
        # q powers of A A^T (the span is unchanged)
        s = np.linalg.norm(b)
        return b / s if s > 0 else b

    blocks = [_normalize(g.spmv(omega))]
    for _ in range(q):
        blocks.append(_normalize(g.columns(krylov_step, blocks[-1])))
    K = np.hstack(blocks)
    W, _ = _whiten(K.T @ K)
    Q = K @ W
    T = g.spmv_t(Q)  # A^T Q
    Wr = _ritz(T.T @ T, k)
    U = Q @ Wr
    R = g.spmv_t(U)  # A^T U
    W2, sig, Vmul = _final_svd(R.T @ R, k)
    return U @ W2, sig, R @ Vmul


def bksvd_local(
    mv: Callable[[np.ndarray], np.ndarray],
    rmv: Callable[[np.ndarray], np.ndarray],
    n: int,
    k: int,
    *,
    eps: float = 0.2,
    q: int | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference BKSVD. ``mv(X) = A @ X``, ``rmv(X) = A.T @ X``; returns
    (U, sig, V) with U, V of shape (n, k), sig descending."""
    return _bksvd(_Matvecs(mv, rmv), n, k, eps, q, seed)


def bksvd_spark(
    sg, k: int, *, eps: float = 0.2, q: int | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BKSVD of a :class:`~repro.graphs.edgelist.SparkGraph`'s adjacency
    (A[u, v] = 1 iff arc (u, v) exists): the algorithm of
    :func:`bksvd_local` over its Spark jobs, so the result equals the local
    one bit for bit."""
    return _bksvd(sg, sg.n, k, eps, q, seed)
