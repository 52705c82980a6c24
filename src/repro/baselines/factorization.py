"""Factorization-based baselines: AROPE, RandNE, NetMF, ProNE, STRAP.

Each is ``fn(g, k, *, seed)`` at the one setting its docstring names and
returns an :class:`~repro.embedding.Embedding`. The undirected-only
methods (AROPE, RandNE, NetMF, ProNE) symmetrize a directed input, exactly
as the paper does when reporting them on directed graphs.
"""
from __future__ import annotations

import numpy as np

from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph
from repro.linalg.bksvd import Products, bksvd_local
from repro.ppr.exact import ppr_dense

#: Krylov depth of every baseline's BKSVD (NRP derives its own from eps)
BASELINE_Q = 6


def _symmetrized(g: LocalGraph) -> LocalGraph:
    if not g.directed:
        return g
    return LocalGraph.from_edges(g.edges, g.n, directed=False, name=g.name + "_sym")


def _dense_bksvd(
    M: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BKSVD of a dense n x n matrix (NetMF's and STRAP's proximity)."""
    ops = Products(M.shape[0], lambda x: M @ x, lambda x: M.T @ x)
    return bksvd_local(ops, k, q=BASELINE_Q, seed=seed)


def arope(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """AROPE (Zhang et al., KDD'18): eigen-decompose the (symmetrized)
    adjacency once, then reweight eigenvalues with the arbitrary-order
    polynomial F(lam) = sum_{i<=3} 0.1^{i-1} lam^i (order 3, beta 0.1) to
    preserve S = sum_i w_i A^i without materializing S."""
    order, beta = 3, 0.1
    gs = _symmetrized(g)
    U, _, _ = bksvd_local(gs, k, q=BASELINE_Q, seed=seed)
    # Ritz values give signed eigenvalues (bksvd's singular values lose sign)
    lam = np.einsum("ij,ij->j", U, gs.spmv(U))
    F = sum(beta ** (i - 1) * lam**i for i in range(1, order + 1))
    # single content vector U sqrt(|F|), scored by plain inner product —
    # the AROPE/NRP papers' protocol for this method
    X = U * np.sqrt(np.abs(F))[None, :]
    return Embedding(X=X, Y=None, name="arope")


def randne(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """RandNE (Zhang et al., ICDM'18): iterated Gaussian random projection
    U_i = P U_{i-1} for i <= 3; embedding = sum_i a_i U_i with
    a = (1, 1e2, 1e4, 1e5)."""
    gs = _symmetrized(g)
    rng = np.random.default_rng(seed)
    U0 = rng.standard_normal((gs.n, k)) / np.sqrt(k)
    # orthogonalize the projection block (RandNE-II)
    Q, _ = np.linalg.qr(U0)
    blocks = [Q]
    for _ in range(3):
        blocks.append(gs.pmv(blocks[-1]))
    X = sum(w * b for w, b in zip((1.0, 1e2, 1e4, 1e5), blocks))
    return Embedding(X=X, Y=None, name="randne")


def netmf(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """NetMF (Qiu et al., WSDM'18): factorize the closed-form DeepWalk
    matrix M = log max(1, vol/(bT) (sum_{r<=T} P^r) D^-1) at window T = 10
    and b = 1 negative. Materializes a dense n x n matrix — scale-capped
    (in the registry) like the paper's runs."""
    T, b = 10, 1.0
    gs = _symmetrized(g)
    P = gs.transition()
    d = np.maximum(gs.d_out, 1.0)
    vol = gs.d_out.sum()
    acc = np.zeros_like(P)
    walk = np.eye(gs.n)
    for _ in range(T):
        walk = walk @ P
        acc += walk
    M = np.log(np.maximum(vol / (b * T) * acc / d[None, :], 1.0))
    U, s, _ = _dense_bksvd(M, k, seed)
    return Embedding(X=U * np.sqrt(s)[None, :], Y=None, name="netmf")


def prone(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """ProNE (Zhang et al., IJCAI'19): truncated SVD of the normalized
    adjacency for the initial embedding, then the paper's modulated
    Gaussian band-pass spectral propagation, applied via an order-10
    Chebyshev expansion of g(lam) = exp(-theta ((lam - mu)^2 - 1) / 2),
    mu = 0.2, theta = 0.5, on the normalized Laplacian (coefficients by
    Gauss-Chebyshev quadrature — the band-pass is tuned for
    classification, which is why ProNE trails on link prediction in the
    paper)."""
    order, mu, theta = 10, 0.2, 0.5
    gs = _symmetrized(g)
    d = np.maximum(gs.d_out, 1.0)
    dinv_sqrt = 1.0 / np.sqrt(d)

    def a_sym(x):
        return dinv_sqrt[:, None] * gs.spmv(dinv_sqrt[:, None] * x)

    U, s, _ = bksvd_local(
        Products(gs.n, a_sym, a_sym), k, q=BASELINE_Q, seed=seed
    )
    X = U * np.sqrt(s)[None, :]
    # Laplacian L = I - A_sym has spectrum in [0, 2]; rescale to
    # Lhat = L - I (spectrum [-1, 1]) for the Chebyshev recurrence
    def lhat(x):
        return -a_sym(x)

    def g_kernel(lam_hat):
        lam = lam_hat + 1.0  # back to [0, 2]
        return np.exp(-theta * ((lam - mu) ** 2 - 1.0) / 2.0)

    # Gauss-Chebyshev quadrature for the expansion coefficients
    nq = 256
    xq = np.cos((np.arange(nq) + 0.5) * np.pi / nq)
    gq = g_kernel(xq)
    coef = [
        (2.0 - (t == 0)) / nq
        * float(np.sum(gq * np.cos(t * (np.arange(nq) + 0.5) * np.pi / nq)))
        for t in range(order + 1)
    ]
    t_prev, t_cur = X, lhat(X)
    acc = coef[0] * t_prev + coef[1] * t_cur
    for t in range(2, order + 1):
        t_prev, t_cur = t_cur, 2.0 * lhat(t_cur) - t_prev
        acc += coef[t] * t_cur
    # final enhancement: one propagation through D^-1 A (ProNE Eq. 10)
    X_out = gs.pmv(acc)
    return Embedding(X=X_out, Y=None, name="prone")


def strap(g: LocalGraph, k: int, *, seed: int = 0) -> Embedding:
    """STRAP (Yin & Wei, KDD'19): factorize the transpose proximity matrix
    M = Pi + Pi~^T, where Pi / Pi~ are the PPR matrices of G and its
    transpose at alpha = 0.15 (20 power steps), with entries <= delta/2
    dropped at delta = 1e-4, as in the paper."""
    alpha, delta, iters = 0.15, 1e-4, 20

    def thresholded(h: LocalGraph) -> np.ndarray:
        pi = ppr_dense(h, alpha, iters=iters)
        pi[pi <= delta / 2.0] = 0.0
        return pi

    pi = thresholded(g)
    pi_t = thresholded(g.transpose()) if g.directed else pi
    U, s, V = _dense_bksvd(pi + pi_t.T, max(k // 2, 1), seed)
    root = np.sqrt(s)[None, :]
    return Embedding(X=U * root, Y=V * root, name="strap")
