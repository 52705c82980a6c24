"""Edge-list graph representations.

Two views of the same graph:

* :class:`LocalGraph` — numpy arrays on the driver. This is the reference
  ("oracle") representation used by the local backends and by inherently
  driver-side steps (edge splits, walk sampling, coordinate descent).
* :class:`SparkGraph` — a Spark view of the same graph. It broadcasts the
  jagged-diagonal plans of A and A^T and the row divisor of P once; each
  :meth:`SparkGraph.columns` call is one Spark job that runs a whole
  column-separable function (the BKSVD Krylov chain, the PPR loop) on
  column slices of X and returns the same bits as the ``LocalGraph`` run.
  The broadcast is all it keeps on Spark; it holds no DataFrame.

Both graphs are *product providers*: they have ``n``, and
``columns(fn, X)`` runs ``fn(ops, X)``, where ``ops`` has
``spmv``/``spmv_t``/``pmv``. Both run their products through one kernel,
:func:`jds_product`, over the jagged-diagonal plans :func:`jds_plan` builds
once per direction from the CSR arrays; :func:`random_walks` is the one
other reader of those arrays. Every column of the result depends only on
the same column of X, so ``fn`` may run on any split of X's columns. Every
row depends only on its own arcs, so ``LocalGraph`` may run a plan's row
blocks on one thread per usable core, with the bits of the serial run; in
a Spark task the blocks run serially, one task per core. ``fn`` is a plain
function, or a ``functools.partial`` of one that binds its parameters.
This module is the one place that decides how code reaches the Spark
workers: it has cloudpickle ship all of ``repro`` by value.

Conventions
-----------
Nodes are integers ``0..n-1``. ``edges`` is the *canonical input edge list*
(each undirected edge stored once with ``u < v``; directed edges stored as
ordered pairs). ``arcs`` is the directed-arc expansion actually walked on:
identical to ``edges`` for directed graphs, both orientations for
undirected ones. Self-loops are dropped and duplicates removed on
construction, and :func:`grow_edges` keeps every edge list that is grown
from drawn pairs (the generators' graphs, the sampled non-edges) canonical
the same way.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np
from pyspark import cloudpickle
from pyspark.sql import SparkSession

import repro

# Spark workers may not have ``src`` on their path (``nrpbench/run.py``
# runs them without it), so the functions a job ships, and the ``repro``
# code they call, travel by value instead of as an import by name.
cloudpickle.register_pickle_by_value(repro)


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


def grow_edges(
    e: np.ndarray,
    target: int,
    draw: Callable[[int], np.ndarray],
    n: int,
    directed: bool,
    tries: int,
) -> tuple[np.ndarray, int]:
    """Grow ``e``, a canonical edge array, to ``target`` distinct edges.

    Each try draws ``draw(target - len(e))``, a batch of candidate pairs,
    and keeps ``canonical_edges`` of ``e`` and the batch, until ``target``
    edges are held or ``tries`` batches have been drawn. A batch's
    self-loops, repeats and held edges are dropped; the held edges stay
    first and new edges follow in the order they were first drawn. Returns
    the edges (possibly more than ``target``) and the batches drawn."""
    drawn = 0
    while len(e) < target and drawn < tries:
        e = canonical_edges(np.vstack([e, draw(target - len(e))]), n, directed)
        drawn += 1
    return e, drawn


def _jds_block(X: np.ndarray, out: np.ndarray, block: tuple) -> None:
    """Write one plan block's rows of ``A @ X`` into ``out``."""
    rows, idx, bounds, tail_idx, tail_starts = block
    acc = np.zeros((rows.size, X.shape[1]))
    for a, b in zip(bounds[:-1], bounds[1:]):
        acc[: b - a] += X.take(idx[a:b], axis=0)
    if tail_starts.size:
        acc[: tail_starts.size] += np.add.reduceat(
            X.take(tail_idx, axis=0), tail_starts, axis=0
        )
    out[rows] = acc


def jds_product(X: np.ndarray, plan: tuple, map: Callable = map) -> np.ndarray:
    """``A @ X`` for the A of a :func:`jds_plan`, one row block at a time.

    A block's sums (its rows in the plan's order) start at zero. Diagonal j
    adds X at the j-th arc of each of its rows, so every row sums its first
    arcs in arc order. A row longer than the last diagonal then adds the
    ``np.add.reduceat`` sum of its remaining arcs: per column, the first of
    them plus numpy's pairwise sum of the rest. Every step works on each
    column of X on its own, so a column of the result does not depend on
    the others. The gathers are ``X.take(..., axis=0)``: the values of the
    fancy index ``X[...]``, about twice as fast.

    The blocks write disjoint rows of the result and each row keeps its
    order, so ``map`` may run them in any order or at once: an executor's
    ``map`` gives the same bits as the serial built-in.
    """
    n, blocks = plan
    out = np.zeros((n, X.shape[1]))
    for _ in map(partial(_jds_block, X, out), blocks):
        pass
    return out


#: rows per plan block: a block's sums at width 16 are 512 KB, which stay
#: in L2 while every diagonal adds into them
JDS_BLOCK_ROWS = 4096
#: a diagonal with fewer rows costs more in numpy calls than it saves; the
#: arcs it would hold are summed by the block's one reduceat
JDS_MIN_DIAG_ROWS = 64


def jds_plan(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """Jagged-diagonal plan (Saad 1989) of the CSR matrix (indptr, indices),
    for :func:`jds_product`.

    The rows are cut into blocks of ``JDS_BLOCK_ROWS``. A block keeps its
    non-empty rows sorted by degree, descending and stable. Diagonal j
    holds the j-th arc of every row of degree > j, so its rows are a prefix
    of the block. Only diagonals of at least ``JDS_MIN_DIAG_ROWS`` rows are
    kept; the arcs past them, of the block's longest rows, are its tail.
    Returns ``(n, blocks)``, each block ``(rows, idx, bounds, tail_idx,
    tail_starts)``: ``idx[bounds[j]:bounds[j + 1]]`` is diagonal j, and
    ``tail_starts`` starts the tail segment of each of the block's first
    ``tail_starts.size`` rows in ``tail_idx``. Row and arc indices are
    int32.
    """
    n = indptr.size - 1
    if n >= 2**31:
        raise ValueError(f"n = {n} does not fit the plan's int32 indices")
    deg = np.diff(indptr)
    blocks = []
    for lo in range(0, n, JDS_BLOCK_ROWS):
        d = deg[lo:lo + JDS_BLOCK_ROWS]
        order = np.argsort(-d, kind="stable")[: np.count_nonzero(d)]
        if not order.size:
            continue
        d = d[order]
        starts = indptr[lo + order]
        # diagonal j has count_nonzero(d > j) rows, so the diagonals of at
        # least JDS_MIN_DIAG_ROWS rows are those below that row's degree
        J = int(d[JDS_MIN_DIAG_ROWS - 1]) if d.size >= JDS_MIN_DIAG_ROWS else 0
        counts = np.searchsorted(-d, -np.arange(J))
        bounds = np.concatenate([[0], np.cumsum(counts)])
        # the arc of diagonal j in its i-th row sits at starts[i] + j
        i = np.arange(bounds[-1]) - np.repeat(bounds[:-1], counts)
        diags = starts[i] + np.repeat(np.arange(J), counts)
        lengths = d[d > J] - J
        tail_starts = np.cumsum(lengths) - lengths
        tail = np.repeat(starts[: lengths.size] + J - tail_starts, lengths)
        blocks.append((
            (lo + order).astype(np.int32),
            indices[diags].astype(np.int32),
            bounds.tolist(),
            indices[tail + np.arange(tail.size)].astype(np.int32),
            tail_starts,
        ))
    return n, blocks


class CSRProducts:
    """The unweighted ``LocalGraph`` products over fixed jagged-diagonal
    plans of A and A^T; the ``ops`` a column-separable function gets in a
    Spark task, which builds one from the graph broadcast. Its products
    run their row blocks serially: Spark already runs one task per core."""

    def __init__(self, plan, plan_t, divisor):
        self.plan, self.plan_t, self.divisor = plan, plan_t, divisor

    def spmv(self, X: np.ndarray) -> np.ndarray:
        return jds_product(X, self.plan)

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        return jds_product(X, self.plan_t)

    def pmv(self, X: np.ndarray) -> np.ndarray:
        return self.spmv(X) / self.divisor


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


@cache
def _block_pool() -> ThreadPoolExecutor:
    """One thread per usable core, made on first use, that runs the row
    blocks of the ``LocalGraph`` products: ``take`` and the in-place adds
    on a block's L2-sized sums release the GIL. Only ``LocalGraph`` reads
    it, so nothing a Spark job ships reaches it (an executor does not
    pickle); Spark already runs one task per core."""
    return ThreadPoolExecutor(len(os.sched_getaffinity(0)))


# a forked child has none of its parent's threads, so it makes its own pool
os.register_at_fork(after_in_child=_block_pool.cache_clear)


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
        return self.adjacency() / _row_divisor(self.d_out)

    def _product(self, X: np.ndarray, plan: tuple) -> np.ndarray:
        X = np.atleast_2d(X.T).T  # ensure 2-D (n, k)
        pooled = len(plan[1]) > 1  # one block has nothing to overlap
        return jds_product(X, plan, _block_pool().map if pooled else map)

    def spmv(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` without materializing A:
        ``(A X)[u] = sum over arcs (u, v) of X[v]``. The plan's row blocks
        run on a pool of one thread per usable core when there are more than
        one, with the bits of the serial :func:`jds_product`."""
        return self._product(X, self.jds())

    def spmv_t(self, X: np.ndarray) -> np.ndarray:
        """``A.T @ X``; its blocks run as in :meth:`spmv`."""
        return self._product(X, self.jds_t())

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
        :meth:`jds` and :func:`random_walks`."""
        if "csr" not in self._cache:
            self._cache["csr"] = _csr(self.arcs[:, 0], self.arcs[:, 1], self.n)
        return self._cache["csr"]

    def csr_t(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the transposed adjacency (arcs by dst)."""
        if "csr_t" not in self._cache:
            self._cache["csr_t"] = _csr(self.arcs[:, 1], self.arcs[:, 0], self.n)
        return self._cache["csr_t"]

    def jds(self) -> tuple:
        """Jagged-diagonal plan of A (see :func:`jds_plan`), built from
        :meth:`csr` on first use; the products run on it."""
        if "jds" not in self._cache:
            self._cache["jds"] = jds_plan(*self.csr())
        return self._cache["jds"]

    def jds_t(self) -> tuple:
        """Jagged-diagonal plan of A^T: the plan of A when the graph is
        undirected (A = A^T), else built from :meth:`csr_t`."""
        if not self.directed:
            return self.jds()
        if "jds_t" not in self._cache:
            self._cache["jds_t"] = jds_plan(*self.csr_t())
        return self._cache["jds_t"]


def random_walks(
    g: LocalGraph,
    starts: np.ndarray,
    length: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized uniform random walks. Returns (len(starts), length + 1)
    node ids; -1 marks steps after the walk hit a dangling node."""
    indptr, indices = g.csr()
    deg = np.diff(indptr)
    walks = np.full((len(starts), length + 1), -1, dtype=np.int64)
    walks[:, 0] = starts
    cur = starts.copy()
    alive = np.ones(len(starts), dtype=bool)
    for t in range(1, length + 1):
        alive = alive & (deg[np.where(alive, cur, 0)] > 0) & (cur >= 0)
        if not alive.any():
            break
        c = cur[alive]
        step = indptr[c] + (rng.random(len(c)) * deg[c]).astype(np.int64)
        nxt = indices[step]
        cur = cur.copy()
        cur[alive] = nxt
        walks[alive, t] = nxt
    return walks


class SparkGraph:
    """Spark view of a :class:`LocalGraph`: one broadcast and a product
    provider over it.

    The jagged-diagonal plans of A and A^T (one plan when the graph is
    undirected) and the row divisor of P are broadcast once, so each
    executor holds one copy of them. A :meth:`columns` call is one Spark
    job: it ships column slices of X, each task runs the whole function on
    its slice over the broadcast arrays, and the driver joins the slices'
    outputs. Every result has the same bits as the in-process run.
    :meth:`unpersist` destroys the broadcast.
    """

    def __init__(self, spark: SparkSession, local: LocalGraph):
        self.spark = spark
        self.n = local.n
        self._graph = spark.sparkContext.broadcast(
            (local.jds(), local.jds_t(), _row_divisor(local.d_out))
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

    def unpersist(self) -> None:
        self._graph.destroy()
