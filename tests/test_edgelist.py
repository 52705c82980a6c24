"""Graph substrate: canonicalization, degrees, transition, matvec oracles."""
import os
import pickle
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest

from pyspark import RDD, cloudpickle
from pyspark.core.broadcast import Broadcast

from repro.graphs.edgelist import LocalGraph, SparkGraph, canonical_edges
from repro.graphs.generators import (
    directed_cycle,
    erdos_renyi,
    example_graph,
    ring,
    star,
)
from repro.oracle import assert_equivalent


# ---------------------------------------------------------------- canonical
def test_canonical_drops_self_loops():
    e = canonical_edges(np.array([[0, 0], [1, 2], [3, 3]]), 4, directed=True)
    assert e.tolist() == [[1, 2]]


def test_canonical_dedups_directed():
    e = canonical_edges(np.array([[1, 2], [1, 2], [2, 1]]), 3, directed=True)
    assert sorted(e.tolist()) == [[1, 2], [2, 1]]


def test_canonical_dedups_undirected_orientation():
    e = canonical_edges(np.array([[2, 1], [1, 2]]), 3, directed=False)
    assert e.tolist() == [[1, 2]]


def test_canonical_rejects_out_of_range():
    with pytest.raises(ValueError):
        canonical_edges(np.array([[0, 5]]), 3, directed=True)


def test_canonical_empty():
    e = canonical_edges(np.empty((0, 2)), 3, directed=False)
    assert e.shape == (0, 2)


# ---------------------------------------------------------------- LocalGraph
def test_example_graph_degree_sequence():
    # Example 2 of the paper fixes the degree sequence via w-> init.
    g = example_graph()
    assert g.d_out.tolist() == [3, 3, 4, 3, 4, 2, 2, 2, 1]
    assert g.d_in.tolist() == [3, 3, 4, 3, 4, 2, 2, 2, 1]
    assert g.m == 12 and g.arcs.shape == (24, 2)


def test_undirected_arcs_are_symmetric():
    g = ring(6)
    keys = set(map(tuple, g.arcs.tolist()))
    assert all((b, a) in keys for a, b in keys)


def test_directed_graph_arcs_equal_edges():
    g = directed_cycle(5)
    assert np.array_equal(g.arcs, g.edges)
    assert g.d_out.tolist() == [1] * 5
    assert g.d_in.tolist() == [1] * 5


def test_transpose_swaps_degrees():
    g = LocalGraph.from_edges(np.array([[0, 1], [0, 2], [1, 2]]), 3, True)
    gt = g.transpose()
    assert np.array_equal(gt.d_out, g.d_in)
    assert np.array_equal(gt.d_in, g.d_out)


def test_transpose_of_undirected_is_identity():
    g = ring(5)
    assert g.transpose() is g


def test_adjacency_matches_arcs():
    g = example_graph()
    A = g.adjacency()
    assert A.sum() == 24
    assert np.array_equal(A, A.T)


def test_transition_rows_sum_to_one():
    g = example_graph()
    P = g.transition()
    np.testing.assert_allclose(P.sum(axis=1), np.ones(9))


def test_transition_dangling_row_is_zero():
    g = LocalGraph.from_edges(np.array([[0, 1]]), 3, True)
    P = g.transition()
    assert P[1].sum() == 0 and P[2].sum() == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spmv_matches_dense(seed):
    g = erdos_renyi(40, 120, seed=seed)
    X = np.random.default_rng(seed).standard_normal((40, 5))
    np.testing.assert_allclose(g.spmv(X), g.adjacency() @ X, atol=1e-12)
    np.testing.assert_allclose(g.spmv_t(X), g.adjacency().T @ X, atol=1e-12)
    np.testing.assert_allclose(g.pmv(X), g.transition() @ X, atol=1e-12)


def test_spmv_weighted():
    g = directed_cycle(4)
    w = np.array([2.0, 3.0, 4.0, 5.0])
    X = np.eye(4)
    out = g.spmv(X, weights=w)
    # arc i -> i+1 with weight w_i contributes to row i
    assert out[0, 1] == 2.0 and out[3, 0] == 5.0


def test_csr_structure():
    g = star(5)
    indptr, indices = g.csr()
    assert indptr[-1] == g.arcs.shape[0]
    assert sorted(indices[indptr[0]:indptr[1]].tolist()) == [1, 2, 3, 4]


def test_edge_key_set():
    g = directed_cycle(3)
    keys = g.edge_key_set()
    assert (0 * 3 + 1) in keys and (1 * 3 + 0) not in keys


def test_m_counts_input_edges_once():
    assert ring(10).m == 10
    assert directed_cycle(10).m == 10


# ---------------------------------------------------------------- SparkGraph
def _arc_pdf(g):
    return pd.DataFrame({"src": g.arcs[:, 0], "dst": g.arcs[:, 1]})


def test_spark_out_degrees_oracle(spark):
    g = example_graph()
    sg = SparkGraph(spark, g)
    assert_equivalent(
        sg.out_degrees(),
        """
        SELECT n.id AS id, COALESCE(d.d_out, 0) AS d_out
        FROM nodes n LEFT JOIN (
          SELECT src AS id, COUNT(*) AS d_out FROM arcs GROUP BY src
        ) d USING (id)
        """,
        arcs=_arc_pdf(g),
        nodes=pd.DataFrame({"id": range(g.n)}),
    )
    sg.unpersist()


def test_spark_in_degrees_oracle(spark):
    g = erdos_renyi(30, 60, directed=True, seed=3)
    sg = SparkGraph(spark, g)
    assert_equivalent(
        sg.in_degrees(),
        """
        SELECT n.id AS id, COALESCE(d.d_in, 0) AS d_in
        FROM nodes n LEFT JOIN (
          SELECT dst AS id, COUNT(*) AS d_in FROM arcs GROUP BY dst
        ) d USING (id)
        """,
        arcs=_arc_pdf(g),
        nodes=pd.DataFrame({"id": range(g.n)}),
    )
    sg.unpersist()


def test_spark_transition_arcs_oracle(spark):
    g = example_graph()
    sg = SparkGraph(spark, g)
    assert_equivalent(
        sg.transition_arcs(),
        """
        SELECT a.src AS src, a.dst AS dst, 1.0 / d.d AS p
        FROM arcs a JOIN (
          SELECT src, COUNT(*) AS d FROM arcs GROUP BY src
        ) d USING (src)
        """,
        arcs=_arc_pdf(g),
    )
    sg.unpersist()


def test_spark_transpose_arcs(spark):
    g = directed_cycle(4)
    sg = SparkGraph(spark, g)
    pdf = sg.transpose_arcs().toPandas().sort_values(["src", "dst"])
    assert pdf[["src", "dst"]].values.tolist() == sorted(
        g.edges[:, ::-1].tolist()
    )
    sg.unpersist()


# ------------------------------------------------------- SparkGraph matvecs
def _star_with_isolated():
    # hub 0 holds every out-arc, so arc-balanced cuts leave empty blocks and
    # blocks of all-zero rows; nodes 20..22 have no arcs at all
    leaves = np.arange(1, 20)
    edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
    return LocalGraph.from_edges(edges, 23, directed=True)


@pytest.mark.parametrize("k", [1, 5])
def test_spark_matvecs_bit_identical(spark, k):
    rng = np.random.default_rng(k)
    for g in (_star_with_isolated(), erdos_renyi(50, 300, directed=True, seed=1)):
        sg = SparkGraph(spark, g)
        X = rng.standard_normal((g.n, k))
        for name in ("spmv", "spmv_t", "pmv"):
            got = getattr(sg, name)(X)
            assert np.array_equal(got, getattr(g, name)(X)), name
        assert np.array_equal(sg.spmv(X[:, 0]), g.spmv(X[:, 0]))
        sg.unpersist()


def test_spark_graph_unpersist_releases_blocks(spark):
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    g = ring(12)
    sg = SparkGraph(spark, g)
    sg.spmv(np.ones((g.n, 2)))
    sg.out_degrees().count()  # builds the cached arc DataFrame too
    assert jsc.getPersistentRDDs().size() > before
    sg.unpersist()
    assert jsc.getPersistentRDDs().size() == before


_WORKER = """
import pickle, sys
import numpy as np
from pyspark import cloudpickle
from pyspark.core import broadcast

try:
    import repro  # noqa: F401
    sys.exit("repro is importable; the check would prove nothing")
except ImportError:
    pass
with open(sys.argv[1], "rb") as f:
    payload, bid, X, block = pickle.load(f)
# a worker registers each broadcast's value before it unpickles the function
broadcast._broadcastRegistry[bid] = type("B", (), {"value": X})()
run = cloudpickle.loads(payload)
np.save(sys.argv[2], np.concatenate(list(run(iter([block])))))
"""


def test_spark_matvec_ships_without_repro(spark, monkeypatch, tmp_path):
    # Spark workers may lack ``src`` on their path: the function a product
    # ships must unpickle and run where ``repro`` cannot be imported
    shipped = []
    map_partitions = RDD.mapPartitions

    def spy(self, f, *args, **kwargs):
        cells = [c.cell_contents for c in f.__closure__ or ()]
        bid = next(c._jbroadcast.id() for c in cells if isinstance(c, Broadcast))
        shipped.append((cloudpickle.dumps(f), bid))
        return map_partitions(self, f, *args, **kwargs)

    monkeypatch.setattr(RDD, "mapPartitions", spy)
    g = erdos_renyi(40, 200, directed=True, seed=2)
    sg = SparkGraph(spark, g)
    X = np.random.default_rng(0).standard_normal((g.n, 3))
    want = sg.spmv(X)
    blocks = sg._blocks.collect()
    sg.unpersist()
    (payload, bid), = shipped
    # the block with the most arcs, and the rows it covers
    i = max(range(len(blocks)), key=lambda b: blocks[b][1].size)
    lo = sum(b[0].size - 1 for b in blocks[:i])
    rows = slice(lo, lo + blocks[i][0].size - 1)
    with open(tmp_path / "in.pkl", "wb") as f:
        pickle.dump((payload, bid, X, blocks[i]), f)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, "in.pkl", "out.npy"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert np.array_equal(np.load(tmp_path / "out.npy"), want[rows])
