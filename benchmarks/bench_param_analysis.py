"""Bench for paper Fig. 8: NRP AUC vs alpha, eps, l1, l2 on wiki_lite."""
from repro.experiments.harness import run


def test_fig8_param_analysis(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig8_param_analysis"), rounds=1, iterations=1
    )
    # shape claims from the paper:
    al = df[df.param == "alpha"].set_index("value").auc
    assert al[0.15] > al[0.9]          # large alpha kills high-order proximity
    l1 = df[df.param == "l1"].set_index("value").auc
    assert l1[20] > l1[1]              # more PPR orders help, then plateau
    l2 = df[df.param == "l2"].set_index("value").auc
    assert l2[10] > l2[0]              # reweighting (l2>0) beats vanilla PPR
    assert abs(l2[20] - l2[10]) < 0.02  # converged by ~10 epochs
