"""Bench for paper Appendix Fig. 11: NRP runtime vs alpha, eps, l1, l2.

Run on tweibo_lite (n = 15K). The paper's l2-dominance appears only at
n ~ 10^6, where the O(n k'^2 l2) sweeps rival the PPR phase; at lite
scale the sweeps are trivially cheap, so only the direction of the l1
effect is asserted (EXPERIMENTS.md E-RTP).
"""
from repro.experiments.harness import run


def test_fig11_runtime_params(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig11_runtime_params"), rounds=1, iterations=1
    )
    assert (df.seconds > 0).all()
    l1 = df[df.param == "l1"].set_index("value").seconds
    assert l1[40] > 1.3 * l1[5]  # 35 extra PPR supersteps must show up
