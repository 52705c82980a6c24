"""Long-format distributed dense matrices, kept for the benchmark tracer.

An ``n x k`` dense matrix is a DataFrame ``(i: long, j: int, v: double)``;
a node with no entries is a zero row, which ``to_numpy`` fills in. NRP
does not use this module: its Spark products are the column-slice jobs of
:class:`repro.graphs.edgelist.SparkGraph`. The five ops left are the ones
``nrpbench/spans.py`` imports and patches by name, so they stay until the
tracer stops patching them:

* ``from_numpy`` / ``to_numpy`` — to and from a driver-side array;
* ``spmm(arcs, n_out[, weight_col])`` — sparse times dense, one join +
  groupBy over an ``(src, dst[, weight])`` DataFrame;
* ``gram(X, Y) = X^T Y``  — a k x k' aggregate collected to the driver;
* ``checkpoint()`` — materialize and truncate lineage (localCheckpoint).
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

    def checkpoint(self) -> "LongMatrix":
        """Materialize and truncate lineage (eager localCheckpoint)."""
        return LongMatrix(
            self.df.localCheckpoint(eager=True), self.n_rows, self.n_cols
        )
