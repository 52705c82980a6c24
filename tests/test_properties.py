"""Property-based tests (hypothesis) for the pure-numpy substrates and
NRP's output contract."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.nrp import nrp
from repro.graphs.edgelist import (
    CSRProducts,
    LocalGraph,
    SparkGraph,
    canonical_edges,
)
from repro.ppr.exact import ppr_dense
from repro.tasks.metrics import auc_score, micro_macro_f1, precision_at_k

edge_lists = st.lists(
    st.tuples(st.integers(0, 14), st.integers(0, 14)), min_size=0, max_size=60
)


@given(edge_lists, st.booleans())
@settings(max_examples=60, deadline=None)
def test_canonical_edges_idempotent(edges, directed):
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    once = canonical_edges(e, 15, directed)
    twice = canonical_edges(once, 15, directed)
    assert np.array_equal(once, twice)
    # no self loops, all in range
    if once.size:
        assert (once[:, 0] != once[:, 1]).all()
        assert once.min() >= 0 and once.max() < 15
        if not directed:
            assert (once[:, 0] < once[:, 1]).all()


@given(edge_lists)
@settings(max_examples=30, deadline=None)
def test_degree_sums_match_arc_count(edges):
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = LocalGraph.from_edges(e, 15, directed=True)
    assert g.d_out.sum() == g.arcs.shape[0]
    assert g.d_in.sum() == g.arcs.shape[0]


@given(
    st.integers(1, 15), edge_lists, st.booleans(),
    st.integers(1, 16), st.integers(0, 2**16),
)
@example(n=10, edges=[], directed=True, k2=2, seed=0)  # empty graph
@example(n=1, edges=[], directed=False, k2=4, seed=0)  # one node
# node 1 dangling, node 2 isolated, k/2 >= n
@example(n=3, edges=[(0, 1)], directed=True, k2=16, seed=0)
@settings(max_examples=40, deadline=None)
@pytest.mark.filterwarnings("ignore:BKSVD kept rank:RuntimeWarning")
def test_nrp_output_contract(n, edges, directed, k2, seed):
    """Width k/2, finite values, weights >= 1/n and the same bits for the
    same seed, on graphs that may be empty, have dangling or isolated
    nodes, or be smaller than k/2."""
    e = np.array(edges, dtype=np.int64).reshape(-1, 2) % n
    g = LocalGraph.from_edges(e, n, directed)
    res = nrp(g, 2 * k2, lam=1.0, seed=seed, backend="local")
    for M in (res.X, res.Y):
        assert M.shape == (n, k2)
        assert np.isfinite(M).all()
    assert (res.wf >= 1.0 / n).all() and (res.wb >= 1.0 / n).all()
    again = nrp(
        LocalGraph.from_edges(e, n, directed), 2 * k2, lam=1.0, seed=seed,
        backend="local",
    )
    for f in ("X", "Y", "wf", "wb"):
        assert np.array_equal(getattr(res, f), getattr(again, f))


@st.composite
def hub_graphs(draw):
    """100 to 160 nodes, directed or not, in one plan block with diagonals
    and a tail: node 0 links to 40 or more nodes, more arcs than the
    block's diagonals hold (the JDS_MIN_DIAG_ROWS-th longest row has about
    4 to 12). The last nodes touch no arc (isolated); on directed graphs
    the ones before them only receive arcs (dangling)."""
    n = draw(st.integers(100, 160))
    directed = draw(st.booleans())
    live = n - draw(st.integers(0, 5))
    sources = live - (draw(st.integers(0, 5)) if directed else 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    m = draw(st.integers(4 * n, 6 * n))
    hub = rng.choice(np.arange(1, live), draw(st.integers(40, live - 1)),
                     replace=False)
    e = np.vstack([
        np.column_stack([rng.integers(0, sources, m), rng.integers(0, live, m)]),
        np.column_stack([np.zeros_like(hub), hub]),
    ])
    g = LocalGraph.from_edges(e, n, directed)
    # the case must reach both parts of the kernel
    (_, _, bounds, _, tail_starts), = g.jds()[1]
    assert len(bounds) > 1 and tail_starts.size
    return g


def _assert_product(got, M, X, d):
    # float64, set from the dtype: two sums of at most d terms (and one
    # division for P) each differ from the exact |M| |X|-weighted sum by at
    # most (d + 1) u |M| |X|, u = eps / 2
    bound = 2 * (d + 1) * np.finfo(np.float64).eps * (np.abs(M) @ np.abs(X))
    assert (np.abs(got - M @ X) <= bound).all()


@given(hub_graphs(), st.integers(1, 20), st.data())
@settings(max_examples=40, deadline=None)
def test_products_match_dense(g, width, data):
    """The products equal dense A X, A^T X and P X within float64 rounding,
    and the product of X is its column slices' products, bit for bit."""
    X = np.random.default_rng(width).standard_normal((g.n, width))
    A = g.adjacency()
    d = int(max(g.d_out.max(), g.d_in.max()))
    _assert_product(g.spmv(X), A, X, d)
    _assert_product(g.spmv_t(X), A.T, X, d)
    _assert_product(g.pmv(X), g.transition(), X, d)
    cut = data.draw(st.integers(0, width))
    for name in ("spmv", "spmv_t", "pmv"):
        product = getattr(g, name)
        stacked = np.hstack([product(X[:, :cut]), product(X[:, cut:])])
        assert np.array_equal(stacked, product(X)), name


@given(hub_graphs(), st.integers(0, 2**16))
@settings(max_examples=6, deadline=None)
@pytest.mark.filterwarnings("ignore:BKSVD kept rank:RuntimeWarning")
def test_spark_equals_local(spark, g, seed):
    """Spark products and a Spark NRP run return the local bits."""
    X = np.random.default_rng(seed).standard_normal((g.n, 5))
    sg = SparkGraph(spark, g)
    try:
        for name in ("spmv", "spmv_t", "pmv"):
            got = sg.columns(getattr(CSRProducts, name), X)
            assert np.array_equal(got, getattr(g, name)(X)), name
    finally:
        sg.unpersist()
    local = nrp(g, 8, lam=1.0, seed=seed, backend="local")
    dist = nrp(g, 8, lam=1.0, seed=seed, backend="spark", spark=spark)
    for f in ("X", "Y", "wf", "wb"):
        assert np.array_equal(getattr(dist, f), getattr(local, f)), f


@given(edge_lists)
@settings(max_examples=20, deadline=None)
def test_ppr_row_sums_bounded(edges):
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    g = LocalGraph.from_edges(e, 15, directed=True)
    pi = ppr_dense(g, 0.2, iters=120)
    # rows sum to <= 1 (== 1 without reachable dangling nodes), entries >= 0
    assert (pi >= -1e-12).all()
    assert (pi.sum(axis=1) <= 1 + 1e-9).all()


@given(
    st.lists(st.booleans(), min_size=2, max_size=40).filter(
        lambda b: any(b) and not all(b)
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=40, deadline=None)
def test_auc_invariant_to_monotone_transform(labels, rnd):
    labels = np.array(labels, dtype=int)
    scores = np.array([rnd.random() for _ in labels])
    a1 = auc_score(labels, scores)
    # x -> 4x is monotone and exact in floats (power-of-two scale), so it
    # preserves ties exactly (exp() would merge near-equal scores)
    a2 = auc_score(labels, 4.0 * scores)
    assert abs(a1 - a2) < 1e-12
    # complement symmetry
    a3 = auc_score(1 - labels, -scores)
    assert abs(a1 - a3) < 1e-12


@given(st.lists(st.booleans(), min_size=1, max_size=50))
@settings(max_examples=40, deadline=None)
def test_precision_at_k_bounds(ranked):
    r = np.array(ranked, dtype=bool)
    out = precision_at_k(r, [1, 3, len(r), len(r) + 10])
    for v in out.values():
        assert 0.0 <= v <= 1.0
    assert out[len(r)] == out[len(r) + 10] == r.mean()


@given(st.lists(st.integers(0, 3), min_size=2, max_size=50))
@settings(max_examples=40, deadline=None)
def test_f1_perfect_prediction_is_one(y):
    y = np.array(y)
    micro, macro = micro_macro_f1(y, y)
    assert micro == 1.0 and macro == 1.0
