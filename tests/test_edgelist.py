"""Graph substrate: canonicalization, degrees, transition, matvec oracles."""
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest

from pyspark import RDD, cloudpickle
from pyspark.core.broadcast import Broadcast

from repro.core.approxppr import approxppr, ppr_cols, ppr_loop
from repro.graphs import edgelist
from repro.graphs.edgelist import (
    JDS_BLOCK_ROWS,
    JDS_MIN_DIAG_ROWS,
    CSRProducts,
    LocalGraph,
    SparkGraph,
    canonical_edges,
    grow_edges,
    jds_plan,
    jds_product,
)
from repro.graphs.generators import erdos_renyi, example_graph
from repro.linalg.bksvd import krylov_chain
from tests.toy_graphs import directed_cycle, ring, star


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


def test_grow_edges_keeps_held_first_and_counts_batches():
    held = np.array([[1, 2], [0, 3]])
    batches = [
        np.array([[2, 1], [3, 3], [4, 0], [1, 2]]),  # held, loop, new, held
        np.array([[0, 4], [3, 2], [1, 4], [2, 3]]),  # drawn, new, new, drawn
        np.array([[0, 1]]),
    ]
    asked = []

    def draw(short):
        asked.append(short)
        return batches[len(asked) - 1]

    e, drawn = grow_edges(held, 10, draw, 5, False, tries=2)
    assert e.tolist() == [[1, 2], [0, 3], [0, 4], [2, 3], [1, 4]]
    assert drawn == 2 and asked == [8, 7]  # stopped by tries, short of 10
    asked.clear()
    e, drawn = grow_edges(held, 3, draw, 5, False, tries=9)
    assert e.tolist() == [[1, 2], [0, 3], [0, 4]]
    assert drawn == 1 and asked == [1]  # stopped once 3 edges are held
    assert grow_edges(held, 2, draw, 5, False, tries=9)[1] == 0


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


def _jds_order_sum(X, indptr, indices):
    # the kernel's documented order, row by row: in a block of
    # JDS_BLOCK_ROWS rows whose non-empty rows have degrees d, the kept
    # diagonals are J = the JDS_MIN_DIAG_ROWS-th largest d (0 if fewer
    # rows). A row sums its first min(deg, J) arcs in arc order onto zero,
    # then adds its tail sum: the next arc plus numpy's pairwise sum of the
    # rest of the column, the order of np.add.reduceat
    n = indptr.size - 1
    deg = np.diff(indptr)
    out = np.zeros((n, X.shape[1]))
    for lo in range(0, n, JDS_BLOCK_ROWS):
        d = np.sort(deg[lo:lo + JDS_BLOCK_ROWS])[::-1]
        J = d[JDS_MIN_DIAG_ROWS - 1] if d.size >= JDS_MIN_DIAG_ROWS else 0
        for r in range(lo, min(lo + JDS_BLOCK_ROWS, n)):
            arcs = indices[indptr[r]:indptr[r + 1]]
            acc = np.zeros(X.shape[1])
            for v in arcs[:J]:
                acc = acc + X[v]
            if arcs.size > J:
                rest = [np.add.reduce(np.ascontiguousarray(c))
                        for c in X[arcs[J + 1:]].T]
                acc = acc + (X[arcs[J]] + rest)
            out[r] = acc
    return out


def _blocky_csr():
    # 2**15 + 200 non-empty rows of 1 to 11 arcs, so a block's diagonals
    # shrink one by one. In the first block, one row of 40 arcs and 63 of
    # 20 are exactly JDS_MIN_DIAG_ROWS rows above 11 arcs: 20 diagonals
    # are kept, and the 40-arc row has a tail. Past it, every 97th row has
    # 30 arcs, fewer than JDS_MIN_DIAG_ROWS of them per block, so they form
    # each block's tail. A 3000-arc hub row; runs of empty rows, one of
    # them a whole block (rows 8192..12287), and empty rows at both ends.
    rng = np.random.default_rng(7)
    lengths = [0, 0]
    for i in range(2**15 + 200):
        if len(lengths) == 2 * JDS_BLOCK_ROWS:
            lengths += [0] * JDS_BLOCK_ROWS
        lengths.append(
            40 if i == 0 else 20 if i < JDS_MIN_DIAG_ROWS
            else 3000 if i == 5000
            else 30 if i % 97 == 0 and i >= JDS_BLOCK_ROWS
            else rng.integers(1, 12)
        )
        if rng.random() < 0.002:
            lengths += [0] * int(rng.integers(1, 6))
    lengths += [0] * 3
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    indices = rng.integers(0, indptr.size - 1, indptr[-1])
    return indptr, indices


def _blocky_plan():
    indptr, indices = _blocky_csr()
    return indptr.size - 1, jds_plan(indptr, indices)


def test_blocky_plan_shape():
    # the input reaches every branch of the kernel: blocks with diagonals
    # and a tail, the hub's long tail, and a block without non-empty rows
    indptr, indices = _blocky_csr()
    n, blocks = jds_plan(indptr, indices)
    assert n == indptr.size - 1 and len(blocks) == -(-n // JDS_BLOCK_ROWS) - 1
    assert all(len(b[2]) > 1 and b[4].size for b in blocks)
    assert len(blocks[0][2]) == 20 + 1 and blocks[0][4].size == 1
    assert max(b[3].size for b in blocks) > 2900
    # every arc is in exactly one diagonal or tail
    assert sum(b[1].size + b[3].size for b in blocks) == indices.size
    assert all(b[1].dtype == b[0].dtype == np.int32 for b in blocks)


@pytest.mark.parametrize("width", [1, 16, 128])
def test_jds_product_matches_jds_order(width):
    indptr, indices = _blocky_csr()
    X = np.random.default_rng(width).standard_normal((indptr.size - 1, width))
    assert np.array_equal(
        jds_product(X, jds_plan(indptr, indices)),
        _jds_order_sum(X, indptr, indices),
    )


@pytest.mark.parametrize("n", [0, 5])
def test_jds_product_without_arcs(n):
    indptr, indices = np.zeros(n + 1, np.int64), np.zeros(0, np.int64)
    X = np.ones((n, 3))
    got = jds_product(X, jds_plan(indptr, indices))
    assert np.array_equal(got, np.zeros((n, 3)))


def test_jds_product_column_slices():
    # a Spark job stacks the products of column slices (here of width 3 and
    # 13) and must equal the in-process product
    n, plan = _blocky_plan()
    X = np.random.default_rng(0).standard_normal((n, 16))
    stacked = np.hstack([jds_product(X[:, :3], plan),
                         jds_product(X[:, 3:], plan)])
    assert np.array_equal(stacked, jds_product(X, plan))


@pytest.mark.parametrize("width", [1, 16, 128])
def test_pooled_products_keep_the_order(width, monkeypatch):
    # the blocky plan's 9 blocks on the thread pool give the kernel's order
    # on every call, directly and through LocalGraph, which pools every
    # plan of more than one block
    indptr, indices = _blocky_csr()
    n, plan = indptr.size - 1, jds_plan(indptr, indices)
    X = np.random.default_rng(width).standard_normal((n, width))
    want = _jds_order_sum(X, indptr, indices)
    for _ in range(5):
        assert np.array_equal(jds_product(X, plan, edgelist._block_pool().map), want)
    g = LocalGraph(np.zeros((0, 2), np.int64), n, directed=True)
    g._cache.update(jds=plan, jds_t=plan)
    threads = set()
    run_block = edgelist._jds_block

    def spy(*args):
        threads.add(threading.get_ident())
        run_block(*args)

    monkeypatch.setattr(edgelist, "_jds_block", spy)
    for _ in range(5):
        assert np.array_equal(g.spmv(X), want)
        assert np.array_equal(g.spmv_t(X), want)
    assert threads and threading.get_ident() not in threads


def test_jds_product_peak_memory():
    # numpy reports its buffers to tracemalloc; one reduceat over the whole
    # gather peaked at ~57 MB here (output 2.4 MB)
    g = erdos_renyi(20_000, 200_000, seed=0)
    plan = g.jds()
    X = np.random.default_rng(0).standard_normal((g.n, 16))
    tracemalloc.start()
    try:
        out = jds_product(X, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 8 * 2**20


def test_csr_structure():
    g = star(5)
    indptr, indices = g.csr()
    assert indptr[-1] == g.arcs.shape[0]
    assert sorted(indices[indptr[0]:indptr[1]].tolist()) == [1, 2, 3, 4]


def _dangling_isolated_graph():
    # arcs leave only nodes 0..29, so 30..39 are dangling; 40..49 isolated
    rng = np.random.default_rng(3)
    e = np.column_stack([rng.integers(0, 30, 400), rng.integers(0, 40, 400)])
    return LocalGraph.from_edges(e, 50, directed=True)


@pytest.mark.parametrize(
    "make",
    [
        _dangling_isolated_graph,
        lambda: erdos_renyi(200, 800, seed=5),
        lambda: LocalGraph.from_edges(np.empty((0, 2)), 7, directed=True),
    ],
    ids=["directed-dangling-isolated", "undirected", "empty"],
)
def test_csr_row_order_is_stable(make):
    """Each CSR row lists its arcs in arc order: the products' summation
    order and the walk samplers depend on it, not only on the row sets."""
    g = make()
    a = g.arcs
    for (indptr, indices), c in ((g.csr(), 0), (g.csr_t(), 1)):
        order = np.argsort(a[:, c], kind="stable")
        counts = np.bincount(a[:, c], minlength=g.n)
        assert np.array_equal(indptr, np.concatenate([[0], np.cumsum(counts)]))
        assert np.array_equal(indices, a[order, 1 - c])


def test_m_counts_input_edges_once():
    assert ring(10).m == 10
    assert directed_cycle(10).m == 10


# ------------------------------------------------------- SparkGraph matvecs
def _star_with_isolated():
    # hub 0 holds every out-arc, so most rows of A are all zero; nodes
    # 20..22 have no arcs at all
    leaves = np.arange(1, 20)
    edges = np.stack([np.zeros_like(leaves), leaves], axis=1)
    return LocalGraph.from_edges(edges, 23, directed=True)


@pytest.mark.parametrize("k", [1, 3, 5])
def test_spark_matvecs_bit_identical(spark, k):
    # k = 3 is below defaultParallelism (one column per slice); k = 5 above
    # it on 4 cores (uneven slices). The Krylov chain's column norms must
    # not depend on the slice width.
    rng = np.random.default_rng(k)
    chains = {
        "krylov": partial(krylov_chain, q=2),
        "ppr": partial(ppr_loop, alpha=0.15, l1=20),
        "ppr_cols": partial(ppr_cols, alpha=0.15, iters=20),
    }
    for g in (_star_with_isolated(), erdos_renyi(50, 300, directed=True, seed=1)):
        sg = SparkGraph(spark, g)
        X = rng.standard_normal((g.n, k))
        for name in ("spmv", "spmv_t", "pmv"):
            got = sg.columns(getattr(CSRProducts, name), X)
            assert np.array_equal(got, getattr(g, name)(X)), name
        for name, fn in chains.items():
            assert np.array_equal(sg.columns(fn, X), g.columns(fn, X)), name
        got = sg.columns(CSRProducts.spmv, X[:, 0])
        assert np.array_equal(got, g.spmv(X[:, 0]))
        sg.unpersist()


def test_spark_graph_unpersist_releases_blocks(spark, broadcasts):
    jsc = spark.sparkContext._jsc
    before = jsc.getPersistentRDDs().size()
    g = ring(12)
    sg = SparkGraph(spark, g)
    sg.columns(CSRProducts.spmv, np.ones((g.n, 2)))
    # the broadcast is all the graph holds on Spark: it caches no RDD
    assert jsc.getPersistentRDDs().size() == before
    assert broadcasts and all(b._jbroadcast.isValid() for b in broadcasts)
    sg.unpersist()
    assert jsc.getPersistentRDDs().size() == before
    assert not any(b._jbroadcast.isValid() for b in broadcasts)


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
    jobs = pickle.load(f)
outs = []
for payload, bid, graph, X_slice in jobs:
    # a worker registers each broadcast's value before it unpickles the
    # function
    broadcast._broadcastRegistry[bid] = type("B", (), {"value": graph})()
    run = cloudpickle.loads(payload)
    outs.append(next(run(iter([X_slice]))))
np.savez(sys.argv[2], *outs)
"""


def test_spark_matvec_ships_without_repro(spark, monkeypatch, tmp_path):
    # Spark workers may lack ``src`` on their path: the functions a job
    # ships must unpickle and run where ``repro`` cannot be imported
    shipped = []
    map_partitions = RDD.mapPartitions

    def spy(self, f, *args, **kwargs):
        cells = [c.cell_contents for c in f.__closure__ or ()]
        graph = next(c for c in cells if isinstance(c, Broadcast))
        # the job's first column slice, which holds the first columns of X
        shipped.append((cloudpickle.dumps(f), graph._jbroadcast.id(),
                        graph.value, self.collect()[0]))
        return map_partitions(self, f, *args, **kwargs)

    monkeypatch.setattr(RDD, "mapPartitions", spy)
    g = erdos_renyi(40, 200, directed=True, seed=2)
    sg = SparkGraph(spark, g)
    X = np.random.default_rng(0).standard_normal((g.n, 5))
    sg.columns(CSRProducts.spmv, X)
    sg.unpersist()
    # an embed ships two jobs: the Krylov chain (paper Alg. 1 line 1) and
    # the PPR loop (lines 3-5); approxppr draws omega from its seed, 0
    approxppr(g, 5, l1=4, q=1, backend="spark", spark=spark)
    assert len(shipped) == 3
    omega = np.random.default_rng(0).standard_normal((g.n, 5))
    X_ppr, _ = approxppr(g, 5, l1=4, q=1)
    with open(tmp_path / "in.pkl", "wb") as f:
        pickle.dump(shipped, f)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", _WORKER, "in.pkl", "out.npz"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    product, krylov, ppr = np.load(tmp_path / "out.npz").values()
    assert 0 < product.shape[1] < X.shape[1]
    assert np.array_equal(product, g.spmv(X[:, : product.shape[1]]))
    w = krylov.shape[-1]
    assert 0 < w < omega.shape[1]
    assert np.array_equal(krylov, krylov_chain(g, omega, 1)[..., :w])
    assert np.array_equal(ppr, X_ppr[:, : ppr.shape[1]])
