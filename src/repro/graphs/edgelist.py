"""Edge-list graph representations.

Two views of the same graph:

* :class:`LocalGraph` — numpy arrays on the driver. This is the reference
  ("oracle") representation used by the local backends and by inherently
  driver-side steps (edge splits, walk sampling, coordinate descent).
* :class:`SparkGraph` — a Spark view of the same graph. It broadcasts the
  CSR adjacency, its transpose and the row divisor of P once; each
  :meth:`SparkGraph.columns` call is one Spark job that runs a whole
  column-separable function (the BKSVD Krylov chain, the PPR loop) on
  column slices of X and returns the same bits as the ``LocalGraph`` run.
  Its arc DataFrame (and the transition probabilities derived from it) is
  off the NRP path: it serves only the tests of :mod:`repro.linalg.longmat`.

Both graphs are *product providers*: ``columns(fn, X)`` runs
``fn(ops, X)``, where ``ops`` has ``spmv``/``spmv_t``/``pmv``. Every column
of the result depends only on the same column of X, so ``fn`` may run on
any split of X's columns. A function shipped to Spark must reference numpy
only (workers cannot import ``repro``), so each is built inside a factory
function, which makes cloudpickle ship it by value.

Conventions
-----------
Nodes are integers ``0..n-1``. ``edges`` is the *canonical input edge list*
(each undirected edge stored once with ``u < v``; directed edges stored as
ordered pairs). ``arcs`` is the directed-arc expansion actually walked on:
identical to ``edges`` for directed graphs, both orientations for
undirected ones. Self-loops are dropped and duplicates removed on
construction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


def canonical_edges(edges: np.ndarray, n: int, directed: bool) -> np.ndarray:
    """Dedup an ``(m, 2)`` int edge array, drop self-loops, and (for
    undirected graphs) normalize each edge to ``u < v``."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if e.size == 0:
        return e.reshape(0, 2)
    if (e.min() < 0) or (e.max() >= n):
        raise ValueError(f"edge endpoints outside [0, {n})")
    e = e[e[:, 0] != e[:, 1]]
    if not directed:
        e = np.sort(e, axis=1)
    # unique rows via a single composite key (n < 2**31 keeps the product exact)
    key = e[:, 0] * np.int64(n) + e[:, 1]
    _, idx = np.unique(key, return_index=True)
    return e[np.sort(idx)]


def _make_segment_sum():
    # Built inside a function so that cloudpickle ships it to Spark workers
    # by value: a module-level function is pickled by reference, and the
    # workers cannot import ``repro``. It may therefore reference numpy only.

    # values gathered per row block (~1 MB of float64): a block's gather and
    # its reduceat stay in cache, where a whole-array reduceat does not
    block_values = 1 << 17

    def segment_sum(
        X: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Per-row sums of X[indices] over CSR segments.

        The non-empty rows are cut into blocks of about ``block_values``
        gathered values, each ending on a row boundary (so a row longer
        than that ends the block it is in). One ``np.add.reduceat`` per block
        (over the block's gather, rows by columns) sums each row's segment
        in the same order as one reduceat over the whole gather, so the
        bits depend neither on the blocking nor on X's width; empty rows
        stay zero. The gather is ``X.take(..., axis=0)``: it gives the same
        values as the fancy index ``X[...]`` but copies whole rows, about
        twice as fast.
        """
        out = np.zeros((indptr.size - 1, X.shape[1]))
        rows = np.flatnonzero(np.diff(indptr))
        if not rows.size:
            return out
        # segment starts of the non-empty rows, then the end of the last
        bounds = np.append(indptr[rows], indices.size)
        span = max(1, block_values // max(X.shape[1], 1))
        # each block ends at the first row boundary at or past a multiple
        # of span, so it gathers at most span values plus its last row
        cuts = np.unique(np.append(
            np.searchsorted(bounds, np.arange(0, indices.size, span)),
            rows.size,
        ))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            a, b = bounds[lo], bounds[hi]
            out[rows[lo:hi]] = np.add.reduceat(
                X.take(indices[a:b], axis=0), bounds[lo:hi] - a, axis=0
            )
        return out

    return segment_sum


#: The one CSR product kernel, shared by ``LocalGraph`` and the Spark tasks
#: of ``SparkGraph``.
segment_sum = _make_segment_sum()


def _make_csr_products():
    # Built inside a function for the reason given in _make_segment_sum:
    # every Spark task builds one from the graph broadcast.
    class CSRProducts:
        """The unweighted ``LocalGraph`` products over fixed CSR arrays;
        the ``ops`` a column-separable function gets in a Spark task."""

        def __init__(self, csr, csr_t, divisor):
            self.csr, self.csr_t, self.divisor = csr, csr_t, divisor

        def spmv(self, X: np.ndarray) -> np.ndarray:
            return segment_sum(X, *self.csr)

        def spmv_t(self, X: np.ndarray) -> np.ndarray:
            return segment_sum(X, *self.csr_t)

        def pmv(self, X: np.ndarray) -> np.ndarray:
            return self.spmv(X) / self.divisor

    return CSRProducts


CSRProducts = _make_csr_products()


def _csr(
    keys: np.ndarray, vals: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) grouping ``vals`` by ``keys`` in ``0..n-1``; each
    row keeps its arcs in input order (the stable order)."""
    m = keys.size
    # arc i's key keys[i] * m + i is unique, so one unstable sort gives the
    # stable order; it is exact while n * m < 2**63, as canonical_edges'
    # u * n + v key is while n * n < 2**63
    order = np.sort(np.asarray(keys, np.int64) * m + np.arange(m)) % m
    counts = np.bincount(keys, minlength=n)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    return indptr, vals[order]


def _row_divisor(d_out: np.ndarray) -> np.ndarray:
    """Column of out-degrees for ``P = D^-1 A``; dangling rows, whose sums
    are zero, divide by 1."""
    return np.where(d_out > 0, d_out, 1.0)[:, None]


@dataclass
class LocalGraph:
    """In-memory graph: canonical edges + directed-arc expansion + caches."""

    edges: np.ndarray  # (m_input, 2) canonical
    n: int
    directed: bool
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    @classmethod
    def from_edges(
        cls, edges: np.ndarray, n: int, directed: bool, name: str = ""
    ) -> "LocalGraph":
        return cls(canonical_edges(edges, n, directed), n, directed, name)

    # -- basic views -------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of input edges (undirected counted once, as in the paper)."""
        return int(self.edges.shape[0])

    @property
    def arcs(self) -> np.ndarray:
        """(num_arcs, 2) directed arcs; both orientations when undirected."""
        if "arcs" not in self._cache:
            if self.directed:
                a = self.edges
            else:
                a = np.vstack([self.edges, self.edges[:, ::-1]])
            self._cache["arcs"] = a
        return self._cache["arcs"]

    @property
    def d_out(self) -> np.ndarray:
        if "d_out" not in self._cache:
            self._cache["d_out"] = np.bincount(
                self.arcs[:, 0], minlength=self.n
            ).astype(np.float64)
        return self._cache["d_out"]

    @property
    def d_in(self) -> np.ndarray:
        if "d_in" not in self._cache:
            self._cache["d_in"] = np.bincount(
                self.arcs[:, 1], minlength=self.n
            ).astype(np.float64)
        return self._cache["d_in"]

    def transpose(self) -> "LocalGraph":
        """Graph with every arc reversed (identity for undirected graphs)."""
        if not self.directed:
            return self
        return LocalGraph(
            self.edges[:, ::-1].copy(), self.n, True, name=self.name + "^T"
        )

    # -- linear-algebra helpers (reference backend) ------------------------
    def adjacency(self) -> np.ndarray:
        """Dense adjacency (small graphs only — oracle use)."""
        if self.n > 20_000:
            raise ValueError("dense adjacency limited to n <= 20000")
        A = np.zeros((self.n, self.n))
        a = self.arcs
        A[a[:, 0], a[:, 1]] = 1.0
        return A

    def transition(self) -> np.ndarray:
        """Dense row-stochastic transition matrix; dangling rows are zero."""
        A = self.adjacency()
        d = self.d_out.copy()
        d[d == 0] = 1.0
        return A / d[:, None]

    def spmv(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` without materializing A:
        ``(A X)[u] = sum over arcs (u, v) of X[v]``."""
        X = np.atleast_2d(X.T).T  # ensure 2-D (n, k)
        return segment_sum(X, *self.csr())

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``."""
        X = np.atleast_2d(X.T).T
        return segment_sum(X, *self.csr_t())

    def pmv(self, X: np.ndarray) -> np.ndarray:
        """``P @ X`` with P the transition matrix (dangling rows -> 0):
        the uniform arc weight 1/d_out(u) factors out of each row sum."""
        return self.spmv(X) / _row_divisor(self.d_out)

    def columns(self, fn: Callable, X: np.ndarray) -> np.ndarray:
        """``fn(self, X)``: the in-process run of a column-separable
        function (see :meth:`SparkGraph.columns`)."""
        return fn(self, X)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) adjacency in CSR form (arcs by src), read by
        the products and the walk samplers."""
        if "csr" not in self._cache:
            self._cache["csr"] = _csr(self.arcs[:, 0], self.arcs[:, 1], self.n)
        return self._cache["csr"]

    def csr_t(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the transposed adjacency (arcs by dst)."""
        if "csr_t" not in self._cache:
            self._cache["csr_t"] = _csr(self.arcs[:, 1], self.arcs[:, 0], self.n)
        return self._cache["csr_t"]

    def edge_key_set(self) -> set:
        """Set of arc keys (u*n+v) for O(1) membership tests."""
        if "keys" not in self._cache:
            a = self.arcs
            self._cache["keys"] = set(
                (a[:, 0] * np.int64(self.n) + a[:, 1]).tolist()
            )
        return self._cache["keys"]


class SparkGraph:
    """Spark view of a :class:`LocalGraph`: a product provider plus an arc
    DataFrame.

    The CSR adjacency, its transpose and the row divisor of P are broadcast
    once, so each executor holds one copy of CSR and CSR^T. A
    :meth:`columns` call is one Spark job: it ships column slices of X, each
    task runs the whole function on its slice over the broadcast arrays,
    and the driver joins the slices' outputs. Every result has the same
    bits as the in-process run.

    ``arcs`` is a cached DataFrame ``(src: long, dst: long)``, built on
    first use. It and :meth:`transition_arcs` are off the NRP path: they
    serve only the tests of :mod:`repro.linalg.longmat` and are themselves
    checked against the DuckDB oracle. :meth:`unpersist` destroys the graph
    broadcast and releases the arcs.
    """

    def __init__(self, spark: SparkSession, local: LocalGraph):
        self.spark = spark
        self.local = local
        self.n = local.n
        self.directed = local.directed
        self._graph = spark.sparkContext.broadcast(
            (local.csr(), local.csr_t(), _row_divisor(local.d_out))
        )

    def columns(self, fn: Callable, X: np.ndarray) -> np.ndarray:
        """``fn(ops, X)`` for a column-separable ``fn``, as one Spark job
        over at most ``defaultParallelism`` non-empty column slices of X;
        ``ops`` is a :class:`CSRProducts` over the graph broadcast. The
        slices' outputs are joined along their last axis, so ``fn`` may
        return an (n, w) matrix or a stack of them, one column per column
        of its slice."""
        X = np.atleast_2d(X.T).T
        sc = self.spark.sparkContext
        parts = max(1, min(sc.defaultParallelism, X.shape[1]))
        graph = self._graph

        def run(part):
            ops = CSRProducts(*graph.value)
            for X_slice in part:
                yield fn(ops, X_slice)

        slices = np.array_split(X, parts, axis=1)
        rdd = sc.parallelize(slices, parts)
        return np.concatenate(rdd.mapPartitions(run).collect(), axis=-1)

    @cached_property
    def arcs(self) -> DataFrame:
        """Cached ``(src, dst)`` DataFrame of the arcs."""
        a = self.local.arcs
        pdf = pd.DataFrame({"src": a[:, 0], "dst": a[:, 1]})
        df = self.spark.createDataFrame(pdf).cache()
        df.count()  # materialize
        return df

    def transition_arcs(self) -> DataFrame:
        """(src, dst, p) with p = 1/d_out(src): the sparse transition matrix."""
        deg = self.arcs.groupBy(F.col("src").alias("u")).agg(
            F.count("*").alias("d")
        )
        return (
            self.arcs.join(deg, self.arcs.src == deg.u)
            .select("src", "dst", (F.lit(1.0) / F.col("d")).alias("p"))
        )

    def unpersist(self) -> None:
        self._graph.destroy()
        if "arcs" in self.__dict__:
            self.arcs.unpersist()
