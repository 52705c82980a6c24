"""BKSVD: spectral-norm guarantee and backend parity."""
import tracemalloc

import numpy as np
import pytest

from repro.graphs.edgelist import SparkGraph
from repro.graphs.generators import dcsbm, erdos_renyi, example_graph
from repro.linalg.bksvd import Products, bksvd_local, bksvd_spark, default_q


def _dense(A):
    return Products(A.shape[0], lambda x: A @ x, lambda x: A.T @ x)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k", [2, 5])
def test_bksvd_local_spectral_bound(seed, k):
    g = erdos_renyi(60, 240, seed=seed)
    A = g.adjacency()
    U, s, V = bksvd_local(_dense(A), k, eps=0.2, seed=seed)
    exact = np.linalg.svd(A, compute_uv=False)
    # Theorem: ||A - U S V^T||_2 <= (1 + eps) sigma_{k+1}
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= (1.0 + 0.25) * exact[k] + 1e-8


def test_bksvd_singular_values_close_to_exact():
    g = dcsbm(80, 600, 4, seed=2)[0]
    A = g.adjacency()
    _, s, _ = bksvd_local(_dense(A), 4, eps=0.1, q=8, seed=0)
    exact = np.linalg.svd(A, compute_uv=False)[:4]
    np.testing.assert_allclose(s, exact, rtol=0.05)


def test_bksvd_orthonormal_factors():
    g = erdos_renyi(50, 200, seed=3)
    A = g.adjacency()
    U, s, V = bksvd_local(_dense(A), 3, seed=1)
    np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-8)
    np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-8)
    assert np.all(np.diff(s) <= 1e-9)  # descending


def test_bksvd_directed_asymmetric():
    g = erdos_renyi(40, 160, directed=True, seed=4)
    A = g.adjacency()
    U, s, V = bksvd_local(_dense(A), 4, q=8, seed=0)
    exact = np.linalg.svd(A, compute_uv=False)
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= 1.3 * exact[4] + 1e-8


def test_default_q_clamped():
    assert 1 <= default_q(10, 0.2, 4) <= 8
    assert default_q(10**6, 0.2, 16) <= 8
    assert default_q(4, 0.2, 4) >= 1


def test_bksvd_spark_matches_local(spark):
    g = example_graph()
    sg = SparkGraph(spark, g)
    A = g.adjacency()
    U_l, s_l, V_l = bksvd_local(_dense(A), 2, q=6, seed=0)
    U_s, s_s, V_s = bksvd_spark(sg, 2, q=6, seed=0)
    # same algorithm, same seed: singular values agree tightly; factors up to sign
    np.testing.assert_allclose(s_s, s_l, rtol=1e-6)
    np.testing.assert_allclose(
        np.abs(U_s.T @ U_l), np.eye(2), atol=1e-5
    )
    sg.unpersist()


def test_bksvd_spark_reconstruction(spark):
    g = erdos_renyi(30, 120, directed=True, seed=5)
    sg = SparkGraph(spark, g)
    A = g.adjacency()
    U, s, V = bksvd_spark(sg, 4, q=6, seed=2)
    exact = np.linalg.svd(A, compute_uv=False)
    err = np.linalg.norm(A - U @ np.diag(s) @ V.T, 2)
    assert err <= 1.3 * exact[4] + 1e-8
    sg.unpersist()


def test_bksvd_peak_memory():
    # numpy reports its buffers to tracemalloc. The Krylov chain's output Z
    # (q + 1 blocks and A^T of each, n x k apiece) is the one large array;
    # forming K, Q and A^T Q as n x (q + 1) k matrices peaked at ~71 MB here
    g = erdos_renyi(20_000, 200_000, seed=0)
    g.csr(), g.csr_t()
    k, q = 16, default_q(g.n, 0.2, 16)
    tracemalloc.start()
    try:
        bksvd_local(g, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (q + 1) * g.n * k * 8 + 20 * 2**20
