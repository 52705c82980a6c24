"""PPR: dense oracle properties, the paper's Table 1, and the Spark PPR
matrix (one column job) against the oracle."""
from functools import partial

import numpy as np
import pytest

from repro.core.approxppr import ppr_cols
from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.graphs.generators import erdos_renyi, example_graph
from repro.ppr.exact import ppr_dense, ppr_truncated
from tests.toy_graphs import directed_cycle, ring

#: Paper Table 1, alpha = 0.15 (rows v2, v4, v9 — v7 is a paper erratum,
#: see DESIGN.md §4; the corrected row is asserted separately).
TABLE1 = {
    1: [0.15, 0.269, 0.188, 0.118, 0.17, 0.048, 0.029, 0.019, 0.008],
    3: [0.15, 0.118, 0.188, 0.269, 0.17, 0.048, 0.029, 0.019, 0.008],
    8: [0.02, 0.024, 0.031, 0.024, 0.056, 0.083, 0.168, 0.311, 0.282],
}
TABLE1_V7_CORRECTED = [0.036, 0.043, 0.056, 0.043, 0.099, 0.147, 0.296, 0.197, 0.084]


def test_table1_rows_exact():
    pi = ppr_dense(example_graph(), alpha=0.15)
    for src, row in TABLE1.items():
        np.testing.assert_allclose(pi[src], row, atol=1.5e-3)


def test_table1_v7_row_corrected():
    pi = ppr_dense(example_graph(), alpha=0.15)
    np.testing.assert_allclose(pi[6], TABLE1_V7_CORRECTED, atol=1.5e-3)


def test_paper_motivating_inequality():
    # the paper's Section 1 observation: pi(v9,v7) > pi(v2,v4) even though
    # (v2,v4) share 3 neighbors and (v9,v7) only 1.
    pi = ppr_dense(example_graph())
    assert pi[8, 6] > pi[1, 3]


def test_ppr_rows_sum_to_one():
    pi = ppr_dense(example_graph())
    np.testing.assert_allclose(pi.sum(axis=1), np.ones(9), atol=1e-10)


def test_ppr_reversibility_identity():
    # undirected: d(u) pi(u,v) = d(v) pi(v,u) — the identity that proves the
    # paper's v7 row is a typo.
    g = example_graph()
    pi = ppr_dense(g)
    d = g.d_out
    np.testing.assert_allclose(d[:, None] * pi, (d[:, None] * pi).T, atol=1e-10)


def test_ppr_dangling_mass_is_lost():
    g = LocalGraph.from_edges(np.array([[0, 1]]), 2, directed=True)
    pi = ppr_dense(g)
    # from node 0: alpha stays at 0, rest of the walk dies at dangling node 1
    assert pi[0, 0] == pytest.approx(0.15)
    assert pi[0, 1] == pytest.approx(0.85 * 0.15)
    assert pi[0].sum() < 1.0


def test_ppr_truncated_is_offdiag_series():
    g = ring(7)
    alpha, l1 = 0.15, 12
    full = np.zeros((7, 7))
    P = g.transition()
    walk = np.eye(7)
    for i in range(1, l1 + 1):
        walk = walk @ P
        full += alpha * (1 - alpha) ** i * walk
    np.testing.assert_allclose(ppr_truncated(g, alpha, l1), full, atol=1e-12)


def test_ppr_truncated_excludes_zero_hop():
    g = directed_cycle(5)
    pit = ppr_truncated(g, 0.15, 3)
    assert pit[0, 0] == 0.0  # needs 5 hops to return
    assert pit[0, 1] > 0


@pytest.mark.parametrize("alpha", [0.15, 0.5])
def test_spark_ppr_matches_dense(spark, alpha):
    g = erdos_renyi(25, 70, seed=6)
    sg = SparkGraph(spark, g)
    got = sg.columns(partial(ppr_cols, alpha=alpha, iters=40), np.eye(g.n))
    sg.unpersist()
    np.testing.assert_allclose(got, ppr_dense(g, alpha=alpha, iters=41), atol=1e-6)
