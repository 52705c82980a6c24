"""Long-format distributed dense matrices.

An ``n x k`` dense matrix (node embeddings, Krylov blocks) is a DataFrame
``(i: long, j: int, v: double)``. ``k`` is small (<= a few hundred) while
``n`` is large, so every op below is a Catalyst join/aggregation:

* ``spmm(arcs, X)``       — sparse adjacency times dense: one join + groupBy.
* ``gram(X, Y) = X^T Y``  — k x k' aggregate collected to the driver.
* ``mm_small(X, W)``      — dense times a small driver-side matrix.

Zero rows are kept implicit: a node with no entries is a zero row;
``to_numpy`` fills it in. ``checkpoint()`` truncates lineage between
iterations (localCheckpoint), which is what keeps 20-iteration PPR plans
from blowing up the optimizer.

NRP no longer uses this module: its Spark products are the column-slice
jobs of :class:`repro.graphs.edgelist.SparkGraph`.
It is kept for its own tests and for the benchmark's tracer.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F


class LongMatrix:
    """Wrapper around a ``(i, j, v)`` DataFrame with fixed (n_rows, n_cols)."""

    def __init__(self, df: DataFrame, n_rows: int, n_cols: int):
        self.df = df
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)

    # -- construction -------------------------------------------------------
    @classmethod
    def from_numpy(cls, spark: SparkSession, arr: np.ndarray) -> "LongMatrix":
        arr = np.asarray(arr, dtype=np.float64)
        n, k = arr.shape
        i = np.repeat(np.arange(n, dtype=np.int64), k)
        j = np.tile(np.arange(k, dtype=np.int32), n)
        pdf = pd.DataFrame({"i": i, "j": j, "v": arr.ravel()})
        pdf = pdf[pdf.v != 0.0]  # keep zero rows implicit
        if pdf.empty:  # degenerate but legal: the all-zero matrix
            pdf = pd.DataFrame({"i": [0], "j": [0], "v": [0.0]})
        return cls(spark.createDataFrame(pdf), n, k)

    def to_numpy(self) -> np.ndarray:
        pdf = self.df.toPandas()
        out = np.zeros((self.n_rows, self.n_cols))
        out[pdf["i"].to_numpy(), pdf["j"].to_numpy()] = pdf["v"].to_numpy()
        return out

    # -- ops ----------------------------------------------------------------
    def spmm(
        self, arcs: DataFrame, n_out: int, weight_col: str | None = None
    ) -> "LongMatrix":
        """``Y[src] = sum over arcs (src, dst) of w * X[dst]``.

        ``arcs`` must have columns (src, dst) and optionally ``weight_col``.
        This computes ``A @ X`` when arcs are the adjacency, or ``P @ X``
        when ``weight_col`` carries 1/d_out(src).
        """
        x = self.df
        joined = arcs.join(x, arcs.dst == x.i)
        val = F.col("v") * F.col(weight_col) if weight_col else F.col("v")
        out = (
            joined.select(F.col("src").alias("i"), "j", val.alias("v"))
            .groupBy("i", "j")
            .agg(F.sum("v").alias("v"))
        )
        return LongMatrix(out, n_out, self.n_cols)

    def axpy(self, alpha: float, other: "LongMatrix") -> "LongMatrix":
        """``alpha * self + other`` (elementwise, union + re-aggregate)."""
        assert (self.n_rows, self.n_cols) == (other.n_rows, other.n_cols)
        a = self.df.select("i", "j", (F.col("v") * F.lit(alpha)).alias("v"))
        out = (
            a.unionByName(other.df.select("i", "j", "v"))
            .groupBy("i", "j")
            .agg(F.sum("v").alias("v"))
        )
        return LongMatrix(out, self.n_rows, self.n_cols)

    def scale(self, alpha: float) -> "LongMatrix":
        return LongMatrix(
            self.df.select("i", "j", (F.col("v") * F.lit(alpha)).alias("v")),
            self.n_rows,
            self.n_cols,
        )

    def scale_rows(self, row_weights: DataFrame) -> "LongMatrix":
        """Multiply row i by ``row_weights`` (columns: id, w)."""
        out = (
            self.df.join(row_weights, self.df.i == row_weights.id)
            .select("i", "j", (F.col("v") * F.col("w")).alias("v"))
        )
        return LongMatrix(out, self.n_rows, self.n_cols)

    def gram(self, other: "LongMatrix") -> np.ndarray:
        """``self.T @ other`` as a small numpy array (k x k')."""
        assert self.n_rows == other.n_rows
        a = self.df.select(
            F.col("i"), F.col("j").alias("ja"), F.col("v").alias("va")
        )
        b = other.df.select(
            F.col("i").alias("ib"), F.col("j").alias("jb"), F.col("v").alias("vb")
        )
        pdf = (
            a.join(b, a.i == b.ib)
            .groupBy("ja", "jb")
            .agg(F.sum(F.col("va") * F.col("vb")).alias("v"))
            .toPandas()
        )
        out = np.zeros((self.n_cols, other.n_cols))
        out[pdf["ja"].to_numpy(), pdf["jb"].to_numpy()] = pdf["v"].to_numpy()
        return out

    def mm_small(self, spark: SparkSession, w: np.ndarray) -> "LongMatrix":
        """``self @ w`` for a small driver-side (n_cols x k2) matrix."""
        w = np.asarray(w, dtype=np.float64)
        assert w.shape[0] == self.n_cols
        k2 = w.shape[1]
        jj, j2 = np.nonzero(np.ones_like(w, dtype=bool))
        wdf = spark.createDataFrame(
            pd.DataFrame(
                {"jw": jj.astype(np.int32), "j2": j2.astype(np.int32),
                 "w": w.ravel()}
            )
        )
        out = (
            self.df.join(F.broadcast(wdf), self.df.j == wdf.jw)
            .select("i", F.col("j2").alias("j"), (F.col("v") * F.col("w")).alias("v"))
            .groupBy("i", "j")
            .agg(F.sum("v").alias("v"))
        )
        return LongMatrix(out, self.n_rows, k2)

    def hstack(self, other: "LongMatrix") -> "LongMatrix":
        """Column-wise concatenation [self | other]."""
        assert self.n_rows == other.n_rows
        shifted = other.df.select(
            "i", (F.col("j") + F.lit(self.n_cols)).cast("int").alias("j"), "v"
        )
        return LongMatrix(
            self.df.unionByName(shifted), self.n_rows, self.n_cols + other.n_cols
        )

    def checkpoint(self) -> "LongMatrix":
        """Materialize and truncate lineage (eager localCheckpoint)."""
        return LongMatrix(
            self.df.localCheckpoint(eager=True), self.n_rows, self.n_cols
        )
