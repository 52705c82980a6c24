"""Bench for paper Fig. 6: node classification micro/macro F1."""
from repro.experiments.harness import run


def test_fig6_classification(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig6_classification"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["micro_f1"])
    # shape: NRP is at or near the top (within 3% of the best method,
    # which per the paper may be ProNE on undirected graphs)
    for (ds, r), sub in ok.groupby(["dataset", "ratio"]):
        nrp = float(sub[sub.method == "nrp"].micro_f1.iloc[0])
        assert nrp >= sub.micro_f1.max() - 0.05, (ds, r)
    # more training data must not hurt much on average
    m = ok[ok.method == "nrp"].groupby("ratio").micro_f1.mean()
    assert m[0.9] >= m[0.1] - 0.02
