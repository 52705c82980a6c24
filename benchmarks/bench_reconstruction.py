"""Bench for paper Fig. 5: graph reconstruction precision@K."""
from repro.experiments.harness import run


def test_fig5_reconstruction_all_pairs(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig5_reconstruction_all_pairs"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["precision"])
    # shape claims (paper Sec 5.3): NRP is near-perfect at small K and
    # degrades the slowest — best method at K = 10^4 on every dataset.
    # (absolute precision@10^4 is lower than the paper's >= 0.9 because the
    # lite graphs have ~2x fewer edges than K at that point)
    nrp10 = ok[(ok.method == "nrp") & (ok.K == 10)]
    assert (nrp10.precision >= 0.9).all()
    for ds, sub in ok[ok.K == 10_000].groupby("dataset"):
        assert float(sub[sub.method == "nrp"].precision.iloc[0]) == sub.precision.max()


def test_fig5_reconstruction_sampled(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig5_reconstruction_sampled"), rounds=1, iterations=1
    )
    assert df.precision.notna().all()
