"""Bench for paper Table 1: PPR on the Fig. 1 graph (exact + Spark)."""
import numpy as np

from repro.experiments.harness import TABLE1_PAPER, run


def test_table1_ppr(benchmark, spark):
    df = benchmark.pedantic(
        lambda: run("table1_ppr", spark), rounds=1, iterations=1
    )
    # rows v2/v4/v9 must match the paper to table rounding; spark == exact
    for src in ("v2", "v4", "v9"):
        sub = df[df.source == src]
        assert np.allclose(sub.exact, TABLE1_PAPER[src], atol=1.5e-3)
    assert np.allclose(df.exact, df.spark, atol=1e-3)
