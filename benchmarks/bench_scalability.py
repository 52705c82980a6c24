"""Bench for paper Appendix Fig. 10: NRP runtime on Erdos-Renyi graphs
(near-linear scaling in n and in m) on the ~3x-shrunk grid of the
``fig10_scalability`` run."""
import numpy as np

from repro.experiments.harness import run


def test_fig10_scalability_local(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig10_scalability"), rounds=1, iterations=1
    )
    # near-linear: tripling the size must not blow up superlinearly (allow
    # 6x for cache effects at this small scale)
    for vary in ("n", "m"):
        sub = df[df.vary == vary].sort_values(vary)
        assert sub.seconds.iloc[-1] <= 6.0 * max(sub.seconds.iloc[0], 0.5)


def test_fig10_scalability_spark_point(benchmark, spark):
    """One distributed end-to-end point: the NRP dataflow on Spark."""
    df = benchmark.pedantic(
        lambda: run("fig10_scalability_spark_point", spark),
        rounds=1, iterations=1,
    )
    assert len(df) == 1 and np.isfinite(df.seconds.iloc[0])
