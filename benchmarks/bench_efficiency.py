"""Bench for paper Fig. 7: embedding construction time, including the
billion-edge stand-ins on which only scalable methods run."""
from repro.experiments.harness import run


def test_fig7_efficiency_small(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig7_efficiency_small"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["seconds"])
    nrp_t = float(ok[ok.method == "nrp"].seconds.iloc[0])
    # shape: the SGNS / neural group is slower than the PPR-factorization
    # core by a large factor (paper: orders of magnitude)
    slow = ok[ok.method.isin(["deepwalk", "gae"])].seconds.min()
    assert slow > nrp_t


def test_fig7_efficiency_billion_edge_standins(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig7_efficiency_large"), rounds=1, iterations=1
    )
    # the paper's headline: NRP finishes the billion-edge graphs; the
    # dense/neural methods are excluded
    ok = df.dropna(subset=["seconds"])
    assert set(ok[ok.method == "nrp"].dataset) == {
        "twitter_lite", "friendster_lite"
    }
    assert (df[df.method.isin(["netmf", "gae"])].note == "excluded (scale cap)").all()
