"""Node reweighting — paper Algorithms 2 (backward) and 4 (forward).

Coordinate descent on the objective of Eq. (6): find per-node forward and
backward weights such that the total embedded proximity out of each node
matches its out-degree and into each node matches its in-degree.

Two implementations of the per-node terms (a1, a2, a3, b1, b2):

* :func:`naive_backward_terms` / :func:`naive_forward_terms` — straight from
  the definitional Eq. (7)/(23): O(n k') per node. Test oracle only.
* :func:`update_backward_weights` — the paper's O(n k'^2)-per-sweep fast
  path using the shared aggregates xi, chi, Lambda, rho1, rho2, phi
  (Eqs. 9, 10, 13; each one BLAS product over the nodes) with incremental
  rho updates (Eq. 11) as the sweep visits nodes in random order, one
  chunk of nodes at a time: the rows are gathered into that order once
  per sweep, so a chunk is a slice.
  :func:`update_forward_weights` is the same sweep with the roles of
  (X, w->, d_out) and (Y, w<-, d_in) swapped, which is all Appendix B's
  Eqs. (24)-(28) change.

The sweep runs driver-side in numpy, aggregates included (DESIGN.md §5).
``b1`` uses the paper's k'/2 heuristic (Eq. 14) unless ``strict`` asks
for the exact value b1 = Y_v Λ Y_v^T − (w→_v X_v·Y_v)^2, which is
available at the same O(k'^2) cost.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# Objective (Eq. 6, squared-residual form implied by the paper's derivatives)
# ---------------------------------------------------------------------------
def objective(
    X: np.ndarray,
    Y: np.ndarray,
    wf: np.ndarray,
    wb: np.ndarray,
    d_out: np.ndarray,
    d_in: np.ndarray,
    lam: float,
) -> float:
    """O = sum_v (in-strength(v) - d_in(v))^2 + sum_u (out-strength(u) -
    d_out(u))^2 + lam * sum_u (wf_u^2 + wb_u^2)."""
    wx = wf[:, None] * X  # (n, k')
    wy = wb[:, None] * Y
    sx = wx.sum(axis=0)  # sum_u wf_u X_u
    sy = wy.sum(axis=0)
    diag = np.einsum("ij,ij->i", wx, wy)  # wf_v wb_v X_v.Y_v
    in_strength = wy @ sx - diag  # sum_{u != v} wf_u X_u . (wb_v Y_v)
    out_strength = wx @ sy - diag
    return float(
        np.sum((in_strength - d_in) ** 2)
        + np.sum((out_strength - d_out) ** 2)
        + lam * (np.sum(wf**2) + np.sum(wb**2))
    )


# ---------------------------------------------------------------------------
# Naive definitional terms (Eq. 7 / Eq. 23) — test oracle
# ---------------------------------------------------------------------------
def naive_backward_terms(
    X, Y, wf, wb, d_out, d_in, vstar: int
) -> dict[str, float]:
    n, k2 = X.shape
    Yv = Y[vstar]
    wx = wf[:, None] * X
    a1 = float((d_out[:, None] * wx).sum(axis=0) @ Yv)
    mask = np.ones(n, dtype=bool)
    mask[vstar] = False
    a2 = float(d_in[vstar] * (wx[mask].sum(axis=0) @ Yv))
    # a3 = sum_u ( sum_{v != u, v != vstar} wf_u X_u.Y_v wb_v ) wf_u X_u.Y_vstar
    xy_v = X @ Yv  # (n,) X_u . Y_vstar
    inner_all = (X @ (wb[:, None] * Y).sum(axis=0).T)  # sum_v X_u.Y_v wb_v
    inner_self = np.einsum("ij,ij->i", X, Y) * wb  # v = u term
    inner_vstar = xy_v * wb[vstar]  # v = vstar term
    per_u = wf * (inner_all - inner_self - inner_vstar)
    per_u[vstar] += wf[vstar] * (
        np.dot(X[vstar], Y[vstar]) * wb[vstar]
    )  # add back v = u = vstar, double-subtracted
    a3 = float(np.sum(per_u * wf * xy_v))
    b1_exact = float(np.sum((wf[mask] * xy_v[mask]) ** 2))
    b1_mid = float(
        np.sum(wf[mask] ** 2 * ((X[mask] ** 2) @ (Yv**2)))
    )  # middle quantity of Eq. (12)
    b2 = float((wx[mask].sum(axis=0) @ Yv) ** 2)
    return {
        "a1": a1, "a2": a2, "a3": a3,
        "b1_exact": b1_exact, "b1_mid": b1_mid,
        "b1_approx": (k2 / 2.0) * b1_mid, "b2": b2,
    }


def naive_forward_terms(
    X, Y, wf, wb, d_out, d_in, ustar: int
) -> dict[str, float]:
    n, k2 = X.shape
    Xu = X[ustar]
    wy = wb[:, None] * Y
    a1 = float(Xu @ (d_in[:, None] * wy).sum(axis=0))
    mask = np.ones(n, dtype=bool)
    mask[ustar] = False
    a2 = float(d_out[ustar] * (Xu @ wy[mask].sum(axis=0)))
    xy_u = Y @ Xu  # (n,) X_ustar . Y_v
    inner_all = (Y @ (wf[:, None] * X).sum(axis=0).T)  # sum_u wf_u X_u.Y_v
    inner_self = np.einsum("ij,ij->i", X, Y) * wf  # u = v term
    inner_ustar = xy_u * wf[ustar]  # u = ustar term
    per_v = wb * (inner_all - inner_self - inner_ustar)
    per_v[ustar] += wb[ustar] * (np.dot(X[ustar], Y[ustar]) * wf[ustar])
    a3 = float(np.sum(per_v * wb * xy_u))
    b1_exact = float(np.sum((wb[mask] * xy_u[mask]) ** 2))
    b1_mid = float(np.sum(wb[mask] ** 2 * ((Y[mask] ** 2) @ (Xu**2))))
    b2 = float((Xu @ wy[mask].sum(axis=0)) ** 2)
    return {
        "a1": a1, "a2": a2, "a3": a3,
        "b1_exact": b1_exact, "b1_mid": b1_mid,
        "b1_approx": (k2 / 2.0) * b1_mid, "b2": b2,
    }


# ---------------------------------------------------------------------------
# Fast aggregates (Eqs. 9, 10, 13; the forward Eqs. 24, 25, 28 swap roles)
# ---------------------------------------------------------------------------
@dataclass
class BackwardAggregates:
    xi: np.ndarray      # sum_u d_out(u) wf_u X_u                (1 x k')
    chi: np.ndarray     # sum_u wf_u X_u                         (1 x k')
    Lam: np.ndarray     # sum_u wf_u^2 X_u^T X_u                 (k' x k')
    rho1: np.ndarray    # sum_v wb_v Y_v                         (1 x k')
    rho2: np.ndarray    # sum_v wf_v^2 wb_v (X_v.Y_v) X_v        (1 x k')
    phi: np.ndarray     # phi[r] = sum_u wf_u^2 X_u[r]^2         (k',)


def backward_aggregates(X, Y, wf, wb, d_out, xy) -> BackwardAggregates:
    """The aggregates as vector-matrix (BLAS) products over the nodes;
    ``xy`` is the row-wise X_v . Y_v, which the sweep also needs."""
    w2 = wf * wf
    return BackwardAggregates(
        xi=(d_out * wf) @ X,
        chi=wf @ X,
        Lam=(w2[:, None] * X).T @ X,
        rho1=wb @ Y,
        rho2=(w2 * wb * xy) @ X,
        phi=w2 @ (X * X),
    )


# ---------------------------------------------------------------------------
# Gauss-Seidel sweeps (Algorithm 2 / Algorithm 4)
# ---------------------------------------------------------------------------
def update_backward_weights(
    X, Y, wf, wb, d_out, d_in, *,
    lam: float = 10.0,
    rng: np.random.Generator | None = None,
    strict: bool = False,
    chunk: int | None = None,
) -> np.ndarray:
    """One epoch of Algorithm 2: update every backward weight once, in
    random order, with incrementally-maintained rho1/rho2.

    ``strict=True`` makes each update the *exact* 1-D minimizer of the
    objective (drops the u=v* contributions that the paper's Eq. (7) keeps
    inside a1/a3, and uses exact b1) — guaranteeing monotone descent; the
    default follows the paper verbatim.

    The random order is cut into chunks: nodes inside a chunk are updated
    Jacobi-style against the rho values frozen at chunk start, chunks are
    Gauss-Seidel. ``chunk=1`` is the paper's sequential sweep; larger
    chunks change only the update *order* (the per-node formulas are
    identical). ``None`` picks min(512, max(1, n // 16)): Jacobi over a
    large share of the nodes overshoots and undoes the degree calibration
    on small graphs, while 512 is what makes n ~ 10^5 sweeps fast in numpy
    (DESIGN.md §7). Every per-node array is gathered into the random order
    once, so each chunk reads contiguous rows."""
    n, k2 = X.shape
    rng = rng or np.random.default_rng(0)
    if chunk is None:
        chunk = min(512, max(1, n // 16))
    xy = np.einsum("ij,ij->i", X, Y)          # X_v . Y_v
    ag = backward_aggregates(X, Y, wf, wb, d_out, xy)
    xi, chi, Lam, rho1, rho2, phi = ag.xi, ag.chi, ag.Lam, ag.rho1, ag.rho2, ag.phi
    # per-node constants, vectorized once per sweep
    a1_all = Y @ xi                           # xi Y_v^T
    chiY = Y @ chi                            # chi Y_v^T
    LamY = Y @ Lam                            # (n, k'): Lam Y_v^T rows
    yly = np.einsum("ij,ij->i", Y, LamY)      # Y_v Lam Y_v^T
    t_phi = (Y**2) @ phi                      # sum_r phi[r] Y_v[r]^2
    t_self = np.einsum("ij,ij->i", Y**2, X**2)  # sum_r X_v[r]^2 Y_v[r]^2
    floor = 1.0 / n
    order = rng.permutation(n)
    # row i below is node order[i], so chunk c is the slice of rows c
    X, Y, LamY = (M.take(order, axis=0) for M in (X, Y, LamY))
    wf, w, xy, t_self, a1_all, chiY, yly, t_phi, d_out, d_in = (
        v.take(order)
        for v in (wf, wb, xy, t_self, a1_all, chiY, yly, t_phi, d_out, d_in)
    )
    for lo in range(0, order.size, chunk):
        c = slice(lo, lo + chunk)
        Xc, Yc, LamYc = X[c], Y[c], LamY[c]
        if lo * k2 % 2:
            # OpenBLAS sums a product with a vector in an order that
            # depends on the matrix's 16-byte alignment: rows that start
            # 8 bytes off (odd k') are copied, as fresh arrays are aligned
            Xc, Yc, LamYc = Xc.copy(), Yc.copy(), LamYc.copy()
        s = chiY[c] - wf[c] * xy[c]           # (chi - wf_v X_v) Y_v^T
        a1 = a1_all[c]
        a2 = d_in[c] * s
        a3 = (
            LamYc @ rho1
            - w[c] * yly[c]
            - Yc @ rho2
            + w[c] * xy[c] ** 2 * wf[c] ** 2
        )
        b2 = s * s
        if strict:
            a1 = a1 - d_out[c] * wf[c] * xy[c]
            a3 = a3 - wf[c] ** 2 * xy[c] * (
                Xc @ rho1 - w[c] * xy[c]
            )
            b1 = yly[c] - (wf[c] * xy[c]) ** 2
        else:
            b1 = (k2 / 2.0) * (t_phi[c] - wf[c] ** 2 * t_self[c])
        den = b1 + b2 + lam
        new = np.where(
            den > 0, np.maximum(floor, (a1 + a2 - a3) / np.where(den > 0, den, 1.0)),
            w[c],  # flat objective (zero rows, lam=0): keep weight
        )
        delta = new - w[c]
        rho1 = rho1 + delta @ Yc
        rho2 = rho2 + (delta * wf[c] ** 2 * xy[c]) @ Xc
        w[c] = new
    # nodes the permutation skips (a one-node rng visits one) keep theirs
    wb = wb.copy()
    wb[order] = w
    return wb


def update_forward_weights(X, Y, wf, wb, d_out, d_in, **kw) -> np.ndarray:
    """One epoch of Algorithm 4 (Appendix B): Algorithm 2 with (X, w->,
    d_out) and (Y, w<-, d_in) trading places. Returns the new w->."""
    return update_backward_weights(Y, X, wb, wf, d_in, d_out, **kw)
