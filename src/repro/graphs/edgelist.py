"""Edge-list graph representations.

Two views of the same graph:

* :class:`LocalGraph` — numpy arrays on the driver. This is the reference
  ("oracle") representation used by the local backends and by inherently
  driver-side steps (edge splits, walk sampling, coordinate descent).
* :class:`SparkGraph` — a Spark view of the same graph. Its matvecs
  (``spmv``, ``spmv_t``, ``pmv``, used by BKSVD and ApproxPPR) broadcast
  the driver-side X and collect per-block segment sums from CSR row blocks
  cached as an RDD; they return the same bits as the ``LocalGraph`` ones.
  An arc DataFrame with helpers (degrees, transition probabilities) serves
  the pregel-style PPR power iteration of :mod:`repro.ppr.power`.

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

import numpy as np
import pandas as pd
from pyspark import RDD
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
    def segment_sum(
        X: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> np.ndarray:
        """Per-row sums of X[indices] over CSR segments (reduceat: much
        faster than np.add.at for the m*k-sized gathers here)."""
        out = np.zeros((indptr.size - 1, X.shape[1]))
        rows = np.diff(indptr) > 0
        if not rows.any():
            return out
        starts = indptr[:-1][rows]
        # block columns so the m x k gather stays within ~400 MB
        blk = max(1, int(5e7 // max(indices.size, 1)))
        for lo in range(0, X.shape[1], blk):
            contrib = X[indices, lo : lo + blk]
            out[rows, lo : lo + blk] = np.add.reduceat(contrib, starts, axis=0)
        return out

    return segment_sum


#: The one CSR product kernel, shared by ``LocalGraph`` and the row blocks
#: of ``SparkGraph``.
segment_sum = _make_segment_sum()


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

    def spmv(self, X: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """``A @ X`` (or weighted-arc product) without materializing A.

        ``(A X)[u] = sum over arcs (u, v) of w_uv * X[v]``. ``weights`` is
        per-arc, aligned with ``self.arcs`` row order.
        """
        X = np.atleast_2d(X.T).T  # ensure 2-D (n, k)
        if weights is not None:
            a = self.arcs
            out = np.zeros((self.n, X.shape[1]))
            np.add.at(out, a[:, 0], X[a[:, 1]] * weights[:, None])
            return out
        return segment_sum(X, *self.csr())

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``."""
        X = np.atleast_2d(X.T).T
        return segment_sum(X, *self.csr_t())

    def pmv(self, X: np.ndarray) -> np.ndarray:
        """``P @ X`` with P the transition matrix (dangling rows -> 0):
        the uniform arc weight 1/d_out(u) factors out of each row sum."""
        return self.spmv(X) / _row_divisor(self.d_out)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) adjacency in CSR form for walk sampling."""
        if "csr" not in self._cache:
            a = self.arcs
            order = np.argsort(a[:, 0], kind="stable")
            indices = a[order, 1]
            counts = np.bincount(a[:, 0], minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._cache["csr"] = (indptr.astype(np.int64), indices)
        return self._cache["csr"]

    def csr_t(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the transposed adjacency (arcs by dst)."""
        if "csr_t" not in self._cache:
            a = self.arcs
            order = np.argsort(a[:, 1], kind="stable")
            indices = a[order, 0]
            counts = np.bincount(a[:, 1], minlength=self.n)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            self._cache["csr_t"] = (indptr, indices)
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
    """Spark view of a :class:`LocalGraph`: a matvec provider plus an arc
    DataFrame.

    The matvecs ``spmv``, ``spmv_t`` and ``pmv`` have the signatures of the
    unweighted ``LocalGraph`` ones and return the same bits. The CSR
    adjacency and its transpose are cut once into arc-balanced row blocks,
    one per ``defaultParallelism``, and cached as RDDs. Each product
    broadcasts the driver-side X (n x k, the size of its output), maps
    :func:`segment_sum` over the blocks, collects the block results in row
    order, and destroys the broadcast.

    ``arcs`` is a cached DataFrame ``(src: long, dst: long)``, built on
    first use; the helper methods return pure DataFrame results so every
    one is checkable against the DuckDB oracle. :meth:`unpersist` releases
    the cached blocks and arcs.
    """

    def __init__(self, spark: SparkSession, local: LocalGraph):
        self.spark = spark
        self.local = local
        self.n = local.n
        self.directed = local.directed
        self._blocks = self._cache_blocks(*local.csr())
        self._blocks_t = self._cache_blocks(*local.csr_t())

    def _cache_blocks(self, indptr: np.ndarray, indices: np.ndarray) -> RDD:
        """RDD of (indptr, indices) row blocks with about equal arc counts;
        block indptr arrays start at 0."""
        sc = self.spark.sparkContext
        parts = sc.defaultParallelism
        cuts = np.searchsorted(indptr, indices.size * np.arange(1, parts) / parts)
        bounds = np.concatenate([[0], cuts, [self.n]])
        blocks = [
            (indptr[lo : hi + 1] - indptr[lo], indices[indptr[lo] : indptr[hi]])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        return sc.parallelize(blocks, len(blocks)).cache()

    def _product(self, blocks: RDD, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X.T).T
        bX = self.spark.sparkContext.broadcast(X)

        def run(part):
            for indptr, indices in part:
                yield segment_sum(bX.value, indptr, indices)

        try:
            return np.concatenate(blocks.mapPartitions(run).collect())
        finally:
            bX.destroy()

    def spmv(self, X: np.ndarray) -> np.ndarray:
        """``A @ X``."""
        return self._product(self._blocks, X)

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``."""
        return self._product(self._blocks_t, X)

    def pmv(self, X: np.ndarray) -> np.ndarray:
        """``P @ X`` with P the transition matrix (dangling rows -> 0)."""
        return self.spmv(X) / _row_divisor(self.local.d_out)

    @cached_property
    def arcs(self) -> DataFrame:
        """Cached ``(src, dst)`` DataFrame of the arcs."""
        a = self.local.arcs
        pdf = pd.DataFrame({"src": a[:, 0], "dst": a[:, 1]})
        df = self.spark.createDataFrame(pdf).cache()
        df.count()  # materialize
        return df

    def out_degrees(self) -> DataFrame:
        """(id, d_out) for every node, including zero-out-degree nodes."""
        nodes = self.spark.range(self.n).withColumnRenamed("id", "id")
        deg = self.arcs.groupBy(F.col("src").alias("id")).agg(
            F.count("*").alias("d_out")
        )
        return nodes.join(deg, "id", "left").fillna({"d_out": 0})

    def in_degrees(self) -> DataFrame:
        nodes = self.spark.range(self.n)
        deg = self.arcs.groupBy(F.col("dst").alias("id")).agg(
            F.count("*").alias("d_in")
        )
        return nodes.join(deg, "id", "left").fillna({"d_in": 0})

    def transition_arcs(self) -> DataFrame:
        """(src, dst, p) with p = 1/d_out(src): the sparse transition matrix."""
        deg = self.arcs.groupBy(F.col("src").alias("u")).agg(
            F.count("*").alias("d")
        )
        return (
            self.arcs.join(deg, self.arcs.src == deg.u)
            .select("src", "dst", (F.lit(1.0) / F.col("d")).alias("p"))
        )

    def transpose_arcs(self) -> DataFrame:
        return self.arcs.select(
            F.col("dst").alias("src"), F.col("src").alias("dst")
        )

    def unpersist(self) -> None:
        self._blocks.unpersist()
        self._blocks_t.unpersist()
        if "arcs" in self.__dict__:
            self.arcs.unpersist()
