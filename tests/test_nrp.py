"""NRP end-to-end (Algorithm 3): the headline qualitative claims."""
from pathlib import Path

import numpy as np
import pytest

from repro.core.nrp import nrp
from repro.core.approxppr import approxppr
from repro.core.reweight import update_backward_weights, update_forward_weights
from repro.graphs.edgelist import LocalGraph
from repro.graphs.generators import dcsbm, erdos_renyi, example_graph


def test_shapes_and_weight_scaling():
    g = dcsbm(40, 200, 2, seed=0)[0]
    res = nrp(g, k=8, l2=3, seed=0)
    assert res.X.shape == (40, 4) and res.Y.shape == (40, 4)
    np.testing.assert_allclose(res.X, res.wf[:, None] * res.X0)
    np.testing.assert_allclose(res.Y, res.wb[:, None] * res.Y0)


def test_l2_zero_is_plain_approxppr():
    # paper Sec 5.6: l2 = 0 disables reweighting entirely
    g = dcsbm(30, 150, 2, seed=1)[0]
    res = nrp(g, k=8, l2=0, seed=1)
    X0, Y0 = approxppr(g, 4, seed=1)
    np.testing.assert_allclose(res.X, X0)
    np.testing.assert_allclose(res.Y, Y0)
    np.testing.assert_allclose(res.wb, np.ones(30))
    np.testing.assert_allclose(res.wf, np.ones(30))


def test_reweighting_fixes_motivating_example():
    """THE paper claim (Section 1 + Fig. 1): vanilla PPR ranks (v9,v7) above
    (v2,v4); NRP's reweighting must reverse that ordering."""
    g = example_graph()
    # lam=0 as in the paper's own Example 2; k'=6 so the rank-6 PPR
    # approximation exhibits the deficiency clearly
    res = nrp(g, k=12, l1=20, l2=10, lam=0.0, q=8, seed=0)
    ppr_s24 = res.X0[1] @ res.Y0[3]
    ppr_s97 = res.X0[8] @ res.Y0[6]
    assert ppr_s97 > ppr_s24  # vanilla PPR deficiency present...
    nrp_s24 = res.X[1] @ res.Y[3]
    nrp_s97 = res.X[8] @ res.Y[6]
    assert nrp_s24 > nrp_s97  # ...and fixed by node reweighting


def test_reweighting_starts_from_out_degrees():
    # Alg. 3 line 2: w-> = d_out (floored at 1/n), w<- = 1; one epoch is one
    # backward and one forward sweep drawing from default_rng(seed + 1)
    g = dcsbm(200, 1500, 4, directed=True, seed=5)[0]
    res = nrp(g, 8, lam=1.0, l2=1, seed=3)
    rng = np.random.default_rng(4)
    wf = np.maximum(g.d_out.astype(np.float64), 1.0 / g.n)
    wb = update_backward_weights(res.X0, res.Y0, wf, np.ones(g.n), g.d_out,
                                 g.d_in, lam=1.0, rng=rng)
    wf = update_forward_weights(res.X0, res.Y0, wf, wb, g.d_out, g.d_in,
                                lam=1.0, rng=rng)
    assert np.array_equal(res.wb, wb) and np.array_equal(res.wf, wf)


def test_weights_bounded_below():
    g = erdos_renyi(50, 150, seed=2)
    res = nrp(g, k=8, l2=5, seed=2)
    assert np.all(res.wf >= 1 / 50 - 1e-12)
    assert np.all(res.wb >= 1 / 50 - 1e-12)


def test_deterministic():
    g = dcsbm(30, 150, 3, seed=3)[0]
    r1 = nrp(g, k=8, l2=4, seed=5)
    r2 = nrp(g, k=8, l2=4, seed=5)
    np.testing.assert_array_equal(r1.X, r2.X)
    np.testing.assert_array_equal(r1.Y, r2.Y)


def test_deterministic_on_several_blocks():
    # n = 10_000 makes 3 JDS blocks, so the products run on the thread pool
    g = erdos_renyi(10_000, 40_000, seed=7)
    assert len(g.jds()[1]) == 3
    r1 = nrp(g, k=32, l2=2, seed=7)
    r2 = nrp(LocalGraph(g.edges, g.n, g.directed), k=32, l2=2, seed=7)
    for name in ("X", "Y", "wf", "wb"):
        np.testing.assert_array_equal(getattr(r1, name), getattr(r2, name))


def test_rejects_odd_k():
    g = example_graph()
    with pytest.raises(ValueError):
        nrp(g, k=7)
    with pytest.raises(ValueError):
        nrp(g, k=0)


def test_directed_graph_works():
    g = erdos_renyi(40, 200, directed=True, seed=4)
    res = nrp(g, k=8, l2=3, seed=4)
    S = res.X @ res.Y.T
    assert not np.allclose(S, S.T)


def test_spark_backend_end_to_end(spark):
    # both backends run one ApproxPPR over the same matvec bits and the
    # same driver-side sweeps, so the whole result is identical
    g = dcsbm(30, 150, 2, seed=6)[0]
    rl = nrp(g, k=8, l1=8, l2=2, q=6, seed=1, backend="local")
    rs = nrp(g, k=8, l1=8, l2=2, q=6, seed=1, backend="spark", spark=spark)
    for name in ("X", "Y", "wf", "wb"):
        np.testing.assert_array_equal(getattr(rs, name), getattr(rl, name))


def test_hub_gets_larger_forward_weight():
    # a hub's forward weight should exceed a leaf's after calibration
    # (lam=0 as in the paper's Example 2 — at n=9 any sizeable lam
    # flattens all weights to the floor)
    g = example_graph()
    res = nrp(g, k=12, l2=10, lam=0.0, q=8, seed=0)
    assert res.wf[2] > res.wf[8]  # v3 (deg 4) vs v9 (deg 1)


def _rank_short_graphs():
    # graph, k and the rank BKSVD keeps, which is below k/2
    leaves = np.arange(1, 50)
    path = np.arange(5)
    return [
        pytest.param(LocalGraph.from_edges(np.zeros((0, 2)), 10, False), 4, 0,
                     id="empty"),
        pytest.param(LocalGraph.from_edges(
            np.stack([np.zeros_like(leaves), leaves], axis=1), 50, True), 4, 1,
            id="directed-star"),
        pytest.param(LocalGraph.from_edges(
            np.stack([path, path + 1], axis=1), 6, False), 16, 6, id="path"),
    ]


@pytest.mark.parametrize("g, k, rank", _rank_short_graphs())
def test_rank_short_graph_gives_k_half_columns(spark, g, k, rank):
    warning = f"kept rank {rank} < k = {k // 2};"
    with pytest.warns(RuntimeWarning, match=warning) as local_warnings:
        rl = nrp(g, k=k, l2=2, seed=0)
    with pytest.warns(RuntimeWarning, match=warning) as spark_warnings:
        rs = nrp(g, k=k, l2=2, seed=0, backend="spark", spark=spark)
    # on both backends the warning names the line that calls BKSVD
    assert {Path(w.filename).name for w in [*local_warnings, *spark_warnings]
            if warning in str(w.message)} == {"approxppr.py"}
    for res in (rl, rs):
        for M in (res.X, res.Y):
            assert M.shape == (g.n, k // 2) and np.all(np.isfinite(M))
        assert np.all(res.wf >= 1 / g.n) and np.all(res.wb >= 1 / g.n)
    for name in ("X", "Y", "wf", "wb"):
        np.testing.assert_array_equal(getattr(rs, name), getattr(rl, name))


@pytest.mark.parametrize("backend", ["local", "spark"])
def test_graph_without_nodes_is_rejected(backend):
    # the output contract (weights >= 1/n) has no meaning at n = 0; the
    # check comes before the backend needs a session
    g = LocalGraph.from_edges(np.empty((0, 2), np.int64), 0, False)
    with pytest.raises(ValueError, match="at least one node"):
        nrp(g, 2, backend=backend)
