"""ApproxPPR (Algorithm 1): Theorem 1 accuracy bound, Example 1 values,
and spark/local backend parity."""
import numpy as np
import pytest

from repro.core.approxppr import approxppr
from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.graphs.generators import dcsbm, erdos_renyi, example_graph
from repro.ppr.exact import ppr_dense, ppr_truncated


def _theorem1_bound(A, k2, eps, alpha, l1):
    sig = np.linalg.svd(A, compute_uv=False)
    s_next = sig[k2] if k2 < len(sig) else 0.0
    return (1 + eps) * s_next * (1 - alpha) * (
        1 - (1 - alpha) ** l1
    ) + (1 - alpha) ** (l1 + 1)


@pytest.mark.parametrize("seed", [0, 1])
def test_theorem1_elementwise_bound(seed):
    g = dcsbm(60, 500, 3, seed=seed)[0]
    alpha, l1, eps, k2 = 0.15, 20, 0.2, 8
    X, Y = approxppr(g, k2, alpha=alpha, l1=l1, eps=eps, seed=seed)
    pi = ppr_dense(g, alpha)
    err = np.abs(pi - X @ Y.T)
    np.fill_diagonal(err, 0.0)  # the bound is for u != v
    bound = _theorem1_bound(g.adjacency(), k2, eps, alpha, l1)
    assert err.max() <= bound + 1e-9


def test_xyt_approximates_truncated_ppr():
    # at k' = 8 the adjacency of the example graph (rank 7) is captured
    # exactly, so X Y^T must reproduce Pi' to numerical noise
    g = example_graph()
    X, Y = approxppr(g, 8, l1=20, q=8, seed=0)
    pit = ppr_truncated(g, 0.15, 20)
    assert np.abs(pit - X @ Y.T).max() < 1e-4


def test_example1_values():
    # paper Example 1 with k'=2: X_v2 . Y_v4 = 0.119. (The paper also quotes
    # X_v9 . Y_v7 = 0.166, but the *exact* rank-2 truncation gives 0.003 —
    # that value is an artifact of their particular randomized BKSVD run; at
    # full rank the score is 0.164, which we assert instead.)
    g = example_graph()
    X, Y = approxppr(g, 2, alpha=0.15, l1=20, q=8, seed=0)
    assert X[1] @ Y[3] == pytest.approx(0.119, abs=0.02)
    X9, Y9 = approxppr(g, 9, alpha=0.15, l1=20, q=8, seed=0)
    assert X9[8] @ Y9[6] == pytest.approx(0.166, abs=0.02)


def test_preserves_ppr_deficiency():
    # before reweighting, the counter-intuitive ordering survives:
    # score(v9, v7) > score(v2, v4) — this is what NRP must fix.
    g = example_graph()
    X, Y = approxppr(g, 6, q=8, seed=0)
    assert X[8] @ Y[6] > X[1] @ Y[3]


def test_directed_graph_asymmetric_scores():
    g = erdos_renyi(40, 160, directed=True, seed=3)
    X, Y = approxppr(g, 8, q=8, seed=3)
    S = X @ Y.T
    assert not np.allclose(S, S.T)


def test_dangling_node_zero_forward():
    # a node with no out-arcs has zero PPR to others beyond itself
    g = LocalGraph.from_edges(np.array([[0, 1], [2, 0]]), 3, directed=True)
    X, Y = approxppr(g, 2, q=6, seed=0)
    np.testing.assert_allclose(X[1], 0.0, atol=1e-12)


def test_shapes_and_determinism():
    g = erdos_renyi(30, 100, seed=4)
    X1, Y1 = approxppr(g, 5, seed=7)
    X2, Y2 = approxppr(g, 5, seed=7)
    assert X1.shape == (30, 5) and Y1.shape == (30, 5)
    np.testing.assert_array_equal(X1, X2)
    np.testing.assert_array_equal(Y1, Y2)


def test_spark_backend_matches_local(spark):
    g = dcsbm(40, 250, 2, seed=5)[0]
    Xl, Yl = approxppr(g, 4, l1=10, q=6, seed=1, backend="local")
    Xs, Ys = approxppr(g, 4, l1=10, q=6, seed=1, backend="spark", spark=spark)
    # identical algorithm and seed: the proximity scores and the rotation-
    # invariant Gram X X^T must agree to numerical noise (the raw factors
    # are only defined up to a rotation inside degenerate singular spaces)
    np.testing.assert_allclose(Xs @ Ys.T, Xl @ Yl.T, atol=1e-7)
    np.testing.assert_allclose(Xs @ Xs.T, Xl @ Xl.T, atol=1e-7)


def test_spark_backend_requires_session():
    g = example_graph()
    with pytest.raises(ValueError):
        approxppr(g, 2, backend="spark")
    with pytest.raises(ValueError):
        approxppr(g, 2, backend="nope")


@pytest.mark.parametrize("edges, n", [
    # node 1 is dangling, node 2 isolated; k' = 2 columns is below
    # defaultParallelism on 4+ cores
    ([[0, 1]], 3),
    # hub-and-spokes plus isolated nodes: mostly all-zero rows
    ([[0, v] for v in range(1, 12)] + [[3, 4], [5, 0]], 15),
])
def test_spark_backend_bit_identical_degenerate(spark, edges, n):
    g = LocalGraph.from_edges(np.array(edges), n, directed=True)
    Xl, Yl = approxppr(g, 2, l1=6, seed=3, backend="local")
    Xs, Ys = approxppr(g, 2, l1=6, seed=3, backend="spark", spark=spark)
    assert np.array_equal(Xs, Xl) and np.array_equal(Ys, Yl)


def test_spark_backend_leaves_no_cached_rdds(spark, broadcasts):
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    approxppr(erdos_renyi(30, 90, seed=2), 3, l1=4, q=2, backend="spark",
              spark=spark)
    assert jsc.getPersistentRDDs().size() == before
    assert broadcasts and not any(b._jbroadcast.isValid() for b in broadcasts)


def test_spark_backend_job_count(spark):
    # the whole BKSVD Krylov chain (Alg. 1 line 1) in one job, then the
    # whole PPR loop (Alg. 1 lines 3-5) in one job
    sc = spark.sparkContext
    q = 2
    sc.setJobGroup("test-approxppr-jobs", "approxppr job count")
    try:
        approxppr(erdos_renyi(30, 90, seed=2), 3, q=q, l1=5, backend="spark",
                  spark=spark)
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description"):
            sc.setLocalProperty(key, None)
    jobs = sc.statusTracker().getJobIdsForGroup("test-approxppr-jobs")
    assert len(jobs) == 2
