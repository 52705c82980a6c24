"""Bench for paper Appendix Fig. 9: link prediction on evolving graphs."""
from repro.experiments.harness import run


def test_fig9_evolving(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig9_evolving"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["auc"])
    assert (ok.auc > 0.5).all()  # everyone beats chance on future edges
    # shape: the PPR-based dual-vector group (NRP/STRAP/ApproxPPR) leads
    # the single-vector methods on both evolving graphs. (On our synthetic
    # triadic-closure growth STRAP's transpose proximity edges out NRP on
    # digg_lite — a documented deviation from the paper's real-Digg margin,
    # see EXPERIMENTS.md.)
    for ds, sub in ok.groupby("dataset"):
        nrp = float(sub[sub.method == "nrp"].auc.iloc[0])
        single = sub[sub.method.isin(["verse", "randne"])]
        if len(single):
            assert nrp > single.auc.max(), ds
        assert nrp >= sub.auc.max() - 0.1, ds
