"""Node reweighting (Algorithms 2 & 4): fast aggregates vs the definitional
Eq. (7)/(23) oracle, incremental-rho correctness, objective descent, and the
Example 2 update."""
import numpy as np
import pytest

from repro.core.approxppr import approxppr
from repro.core.reweight import (
    backward_aggregates,
    naive_backward_terms,
    naive_forward_terms,
    objective,
    update_backward_weights,
    update_forward_weights,
)
from repro.graphs.generators import dcsbm, example_graph


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(11)
    n, k2 = 25, 4
    X = rng.standard_normal((n, k2)) * 0.3
    Y = rng.standard_normal((n, k2)) * 0.3
    wf = rng.random(n) * 3 + 0.2
    wb = rng.random(n) * 2 + 0.1
    d_out = rng.integers(1, 10, n).astype(float)
    d_in = rng.integers(1, 10, n).astype(float)
    return X, Y, wf, wb, d_out, d_in


class OneNodeRng:
    """Stands in for the sweep's rng: its permutation visits one node."""

    def __init__(self, node: int):
        self.node = node

    def permutation(self, n):
        return np.array([self.node])


# ------------------------------------------------------------ fast == naive
@pytest.mark.parametrize("vstar", [0, 7, 24])
def test_backward_terms_fast_vs_naive(setup, vstar):
    X, Y, wf, wb, d_out, d_in = setup
    n, k2 = X.shape
    nv = naive_backward_terms(X, Y, wf, wb, d_out, d_in, vstar)
    ag = backward_aggregates(X, Y, wf, wb, d_out, np.einsum("ij,ij->i", X, Y))
    Yv, Xv = Y[vstar], X[vstar]
    xy = Xv @ Yv
    s = (ag.chi - wf[vstar] * Xv) @ Yv
    a1 = ag.xi @ Yv
    a2 = d_in[vstar] * s
    a3 = (
        ag.rho1 @ ag.Lam @ Yv
        - wb[vstar] * Yv @ ag.Lam @ Yv
        - ag.rho2 @ Yv
        + wb[vstar] * xy**2 * wf[vstar] ** 2
    )
    b2 = s * s
    b1_exact = Yv @ ag.Lam @ Yv - (wf[vstar] * xy) ** 2
    b1_approx = (k2 / 2.0) * (
        (Yv**2) @ ag.phi - wf[vstar] ** 2 * (Xv**2) @ (Yv**2)
    )
    assert a1 == pytest.approx(nv["a1"], rel=1e-10)
    assert a2 == pytest.approx(nv["a2"], rel=1e-10)
    assert a3 == pytest.approx(nv["a3"], rel=1e-9)
    assert b2 == pytest.approx(nv["b2"], rel=1e-10)
    assert b1_exact == pytest.approx(nv["b1_exact"], rel=1e-9)
    assert b1_approx == pytest.approx(nv["b1_approx"], rel=1e-10)


@pytest.mark.parametrize("ustar", [0, 12, 24])
def test_forward_terms_fast_vs_naive(setup, ustar):
    X, Y, wf, wb, d_out, d_in = setup
    n, k2 = X.shape
    nv = naive_forward_terms(X, Y, wf, wb, d_out, d_in, ustar)
    # Appendix B role swap
    ag = backward_aggregates(Y, X, wb, wf, d_in, np.einsum("ij,ij->i", X, Y))
    Xu, Yu = X[ustar], Y[ustar]
    xy = Xu @ Yu
    s = (ag.chi - wb[ustar] * Yu) @ Xu
    a1 = ag.xi @ Xu
    a2 = d_out[ustar] * s
    a3 = (
        ag.rho1 @ ag.Lam @ Xu
        - wf[ustar] * Xu @ ag.Lam @ Xu
        - ag.rho2 @ Xu
        + wb[ustar] ** 2 * xy**2 * wf[ustar]
    )
    b2 = s * s
    b1_exact = Xu @ ag.Lam @ Xu - (wb[ustar] * xy) ** 2
    b1_approx = (k2 / 2.0) * ((Xu**2) @ ag.phi - wb[ustar] ** 2 * (Xu**2) @ (Yu**2))
    assert a1 == pytest.approx(nv["a1"], rel=1e-10)
    assert a2 == pytest.approx(nv["a2"], rel=1e-10)
    assert a3 == pytest.approx(nv["a3"], rel=1e-9)
    assert b2 == pytest.approx(nv["b2"], rel=1e-10)
    assert b1_exact == pytest.approx(nv["b1_exact"], rel=1e-9)
    assert b1_approx == pytest.approx(nv["b1_approx"], rel=1e-10)


def test_b1_sandwich_bound(setup):
    # Eq. (12): b1_mid <= b1_exact <= k' * b1_mid need not hold pointwise on
    # the lower side (cancellation), but the paper's upper bound does:
    X, Y, wf, wb, d_out, d_in = setup
    k2 = X.shape[1]
    for v in range(X.shape[0]):
        nv = naive_backward_terms(X, Y, wf, wb, d_out, d_in, v)
        assert nv["b1_exact"] <= k2 * nv["b1_mid"] + 1e-9


# ------------------------------------------------------ sweeps and descent
def test_sweep_respects_floor(setup):
    X, Y, wf, wb, d_out, d_in = setup
    n = X.shape[0]
    wb2 = update_backward_weights(X, Y, wf, wb, d_out, d_in, lam=10.0)
    wf2 = update_forward_weights(X, Y, wf, wb2, d_out, d_in, lam=10.0)
    assert np.all(wb2 >= 1.0 / n - 1e-12)
    assert np.all(wf2 >= 1.0 / n - 1e-12)


def test_sweep_does_not_mutate_inputs(setup):
    X, Y, wf, wb, d_out, d_in = setup
    wf0, wb0 = wf.copy(), wb.copy()
    update_backward_weights(X, Y, wf, wb, d_out, d_in)
    update_forward_weights(X, Y, wf, wb, d_out, d_in)
    np.testing.assert_array_equal(wf, wf0)
    np.testing.assert_array_equal(wb, wb0)


def test_objective_decreases_in_strict_mode():
    # in strict mode every coordinate update is an exact 1-D minimizer, so
    # each sweep must not increase the objective.
    g = dcsbm(50, 300, 2, seed=3)[0]
    X, Y = approxppr(g, 4, seed=0)
    n = g.n
    wf = np.maximum(g.d_out, 1.0 / n)
    wb = np.ones(n)
    lam = 10.0
    prev = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
    rng = np.random.default_rng(0)
    for _ in range(4):
        wb = update_backward_weights(
            X, Y, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng, strict=True,
            chunk=1,
        )
        cur = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
        assert cur <= prev + 1e-8
        prev = cur
        wf = update_forward_weights(
            X, Y, wf, wb, g.d_out, g.d_in, lam=lam, rng=rng, strict=True,
            chunk=1,
        )
        cur = objective(X, Y, wf, wb, g.d_out, g.d_in, lam)
        assert cur <= prev + 1e-8
        prev = cur


@pytest.mark.parametrize("backward", [True, False], ids=["backward", "forward"])
def test_strict_sweep_minimizes_the_objective_node_by_node(backward):
    # a strict chunk=1 sweep sets each weight, in the rng's order, to the
    # minimizer of Eq. (6) along that weight, floored at 1/n. The objective
    # is quadratic in one weight, so three objective() evaluations give the
    # vertex: this checks the sweep against the objective itself, not
    # against a copy of its per-node terms
    g = dcsbm(60, 400, 3, directed=True, seed=7)[0]
    X, Y = approxppr(g, 4, seed=0)
    n, lam = g.n, 1.0
    wf, wb = np.maximum(g.d_out, 1 / n), np.ones(n)
    update = update_backward_weights if backward else update_forward_weights
    got = update(X, Y, wf, wb, g.d_out, g.d_in, lam=lam, strict=True,
                 chunk=1, rng=np.random.default_rng(3))
    w = (wb if backward else wf).copy()

    def f(v, t):
        w[v] = t
        wf_t, wb_t = (wf, w) if backward else (w, wb)
        return objective(X, Y, wf_t, wb_t, g.d_out, g.d_in, lam)

    eps = np.finfo(X.dtype).eps
    for v in np.random.default_rng(3).permutation(n):
        f0, f1, f2 = f(v, 0.0), f(v, 1.0), f(v, 2.0)
        a = (f2 - 2 * f1 + f0) / 2  # the curvature b1 + b2 + lam
        vertex = (f0 - f1 + a) / (2 * a)
        # objective() sums n squared residuals, each value exact to about
        # n eps of the largest; the second differences and the quotient
        # carry that error, scaled by 1/a, into the vertex
        tol = n * eps * max(f0, f1, f2) / a * (1 + 2 * abs(vertex))
        assert abs(got[v] - max(1 / n, vertex)) <= tol, (v, got[v], vertex)
        w[v] = got[v]


@pytest.mark.parametrize(
    "n,m", [(60, 400), (300, 2500)], ids=["n60", "n300"]
)
def test_degree_calibration_improves(n, m):
    # Eq. (5): after reweighting, total embedded strength per node should be
    # much closer to the degrees than before. (lam=1 here: at n=60 the
    # paper's lam=10 regularizer dominates the residuals and trades
    # calibration away — at paper scale the residual sum over n >> 60 nodes
    # dominates instead.) The sweeps run at their default chunk size, which
    # must stay small enough relative to n to calibrate: one Jacobi chunk
    # over all nodes ends at 0.93 (n=60) and 2.72 (n=300) of the start.
    g = dcsbm(n, m, 3, seed=4)[0]
    X, Y = approxppr(g, 6, seed=1)
    wf0 = np.maximum(g.d_out, 1.0 / n)
    wb0 = np.ones(n)

    def calib_err(wf, wb):
        wx, wy = wf[:, None] * X, wb[:, None] * Y
        diag = np.einsum("ij,ij->i", wx, wy)
        in_s = wy @ wx.sum(0) - diag
        out_s = wx @ wy.sum(0) - diag
        return np.sum((in_s - g.d_in) ** 2) + np.sum((out_s - g.d_out) ** 2)

    wf, wb = wf0.copy(), wb0.copy()
    rng = np.random.default_rng(1)
    for _ in range(8):
        wb = update_backward_weights(X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, rng=rng)
        wf = update_forward_weights(X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, rng=rng)
    assert calib_err(wf, wb) < 0.5 * calib_err(wf0, wb0)


def _gathered_sweep(X, Y, wf, wb, d_out, d_in, lam, order, chunk, strict):
    # the sweep as written before its rows were laid out in sweep order:
    # each chunk fancy-indexes the node ids it updates
    n, k2 = X.shape
    wb = wb.copy()
    xy = np.einsum("ij,ij->i", X, Y)
    ag = backward_aggregates(X, Y, wf, wb, d_out, xy)
    rho1, rho2 = ag.rho1, ag.rho2
    a1_all, chiY, LamY = Y @ ag.xi, Y @ ag.chi, Y @ ag.Lam
    yly = np.einsum("ij,ij->i", Y, LamY)
    t_phi = (Y**2) @ ag.phi
    t_self = np.einsum("ij,ij->i", Y**2, X**2)
    for lo in range(0, n, chunk):
        c = order[lo:lo + chunk]
        s = chiY[c] - wf[c] * xy[c]
        a1, a2 = a1_all[c], d_in[c] * s
        a3 = (LamY[c] @ rho1 - wb[c] * yly[c] - Y[c] @ rho2
              + wb[c] * xy[c] ** 2 * wf[c] ** 2)
        if strict:
            a1 = a1 - d_out[c] * wf[c] * xy[c]
            a3 = a3 - wf[c] ** 2 * xy[c] * (X[c] @ rho1 - wb[c] * xy[c])
            b1 = yly[c] - (wf[c] * xy[c]) ** 2
        else:
            b1 = (k2 / 2.0) * (t_phi[c] - wf[c] ** 2 * t_self[c])
        den = b1 + s * s + lam
        new = np.where(den > 0, np.maximum(
            1.0 / n, (a1 + a2 - a3) / np.where(den > 0, den, 1.0)), wb[c])
        delta = new - wb[c]
        rho1 = rho1 + delta @ Y[c]
        rho2 = rho2 + (delta * wf[c] ** 2 * xy[c]) @ X[c]
        wb[c] = new
    return wb


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("k2", [5, 8])
def test_sweep_over_contiguous_rows_keeps_the_bits(k2, strict):
    # at odd k' an odd chunk (here the default 125) starts every other
    # chunk 8 bytes off a 16-byte boundary, where OpenBLAS sums a
    # matrix-vector product in another order unless the rows are copied
    g = dcsbm(2000, 30_000, 10, directed=True, seed=6)[0]
    X, Y = approxppr(g, k2, seed=0)
    wf = np.maximum(g.d_out, 1 / g.n)
    wb = np.ones(g.n)
    order = np.random.default_rng(4).permutation(g.n)
    for chunk in (None, 37):
        got = update_backward_weights(
            X, Y, wf, wb, g.d_out, g.d_in, lam=1.0, strict=strict,
            chunk=chunk, rng=np.random.default_rng(4))
        want = _gathered_sweep(X, Y, wf, wb, g.d_out, g.d_in, 1.0, order,
                               chunk or 125, strict)
        assert np.array_equal(got, want)


# -------------------------------------------------------------- Example 2
def test_example2_update_structure():
    """Example 2 semantics: with w<- = 1 and w-> = degrees on the Fig. 1
    graph, the first backward update equals (a1+a2-a3)/(b1+b2) computed from
    the naive definitions (lambda = 0), floored at 1/9."""
    g = example_graph()
    X, Y = approxppr(g, 2, q=8, seed=0)
    wf = g.d_out.copy()
    wb = np.ones(9)
    nv = naive_backward_terms(X, Y, wf, wb, g.d_out, g.d_in, 0)
    expected = max(1 / 9, (nv["a1"] + nv["a2"] - nv["a3"]) / (nv["b1_approx"] + nv["b2"]))

    wb2 = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=0.0, rng=OneNodeRng(0)
    )
    assert wb2[0] == pytest.approx(expected, rel=1e-9)
    assert np.all(wb2[1:] == 1.0)


@pytest.mark.parametrize("ustar", [0, 2, 8])
def test_example2_forward_update_structure(ustar):
    """The forward twin: the role-swapped sweep's first forward update
    equals (a1+a2-a3)/(b1+b2) from the naive Eq. (23) definitions
    (lambda = 0), floored at 1/9, and touches no other weight."""
    g = example_graph()
    X, Y = approxppr(g, 2, q=8, seed=0)
    wf = g.d_out.copy()
    wb = np.ones(9)
    nv = naive_forward_terms(X, Y, wf, wb, g.d_out, g.d_in, ustar)
    expected = max(1 / 9, (nv["a1"] + nv["a2"] - nv["a3"]) / (nv["b1_approx"] + nv["b2"]))

    wf2 = update_forward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=0.0, rng=OneNodeRng(ustar)
    )
    assert wf2[ustar] == pytest.approx(expected, rel=1e-9)
    others = np.arange(9) != ustar
    assert np.all(wf2[others] == wf[others])


@pytest.mark.parametrize("node", [0, 9, 35])
def test_one_node_updates_match_naive_on_directed_graph(node):
    # the Example 2 check on a directed graph (d_out != d_in at 39 of 40
    # nodes), for both sweeps: one that mixes up the roles fails here
    g = dcsbm(40, 300, 2, directed=True, seed=5)[0]
    X, Y = approxppr(g, 4, seed=0)
    wf = np.maximum(g.d_out, 1 / g.n)
    wb = np.ones(g.n)

    for update, naive, w in (
        (update_backward_weights, naive_backward_terms, wb),
        (update_forward_weights, naive_forward_terms, wf),
    ):
        nv = naive(X, Y, wf, wb, g.d_out, g.d_in, node)
        expected = (nv["a1"] + nv["a2"] - nv["a3"]) / (nv["b1_approx"] + nv["b2"])
        w2 = update(X, Y, wf, wb, g.d_out, g.d_in, lam=0.0, rng=OneNodeRng(node))
        assert expected > 1 / g.n
        assert w2[node] == pytest.approx(expected, rel=1e-9)
        others = np.arange(g.n) != node
        assert np.all(w2[others] == w[others])


def test_lam_zero_with_zero_rows_is_finite():
    # isolated nodes have all-zero embeddings; with lam=0 their update is
    # 0/0 — the sweep must keep the weight rather than produce NaN
    X = np.zeros((5, 3))
    Y = np.zeros((5, 3))
    X[0] = [1.0, 0.5, -0.2]
    Y[1] = [0.3, -0.1, 0.7]
    wf = np.ones(5)
    wb = np.ones(5)
    d = np.ones(5)
    for ch in (1, 4):
        wb2 = update_backward_weights(X, Y, wf, wb, d, d, lam=0.0, chunk=ch)
        wf2 = update_forward_weights(X, Y, wf, wb, d, d, lam=0.0, chunk=ch)
        assert np.isfinite(wb2).all() and np.isfinite(wf2).all()


def test_chunked_matches_sequential_quality():
    # chunked sweeps change only the update order; after one epoch the
    # weights must be close (not identical) to the sequential sweep's
    g = dcsbm(300, 2500, 3, seed=9)[0]
    X, Y = approxppr(g, 6, seed=2)
    wf = np.maximum(g.d_out, 1 / g.n)
    wb = np.ones(g.n)
    seq = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=1.0,
        rng=np.random.default_rng(0), chunk=1,
    )
    chk = update_backward_weights(
        X, Y, wf, wb, g.d_out, g.d_in, lam=1.0,
        rng=np.random.default_rng(0), chunk=64,
    )
    corr = np.corrcoef(seq, chk)[0, 1]
    assert corr > 0.95
