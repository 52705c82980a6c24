"""Bench for paper Fig. 4: link-prediction AUC.

wiki_lite / blogcatalog_lite run the full method roster (k sweep on wiki);
tweibo_lite runs the scalable subset. Every method embeds locally.
"""
from repro.experiments.harness import run


def test_fig4_link_prediction_small(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig4_link_prediction_small"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["auc"])
    # headline shape: NRP beats its own unweighted baseline on every dataset
    for ds, sub in ok.groupby("dataset"):
        nrp = float(sub[sub.method == "nrp"].auc.iloc[0])
        app_ = float(sub[sub.method == "approxppr"].auc.iloc[0])
        assert nrp > app_, f"{ds}: reweighting did not help"
        assert nrp == sub.auc.max(), f"{ds}: NRP not best"


def test_fig4_link_prediction_k_sweep(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig4_link_prediction_k_sweep"), rounds=1, iterations=1
    )
    assert df.auc.notna().all()


def test_fig4_link_prediction_large(benchmark):
    df = benchmark.pedantic(
        lambda: run("fig4_link_prediction_large"), rounds=1, iterations=1
    )
    ok = df.dropna(subset=["auc"])
    nrp = float(ok[ok.method == "nrp"].auc.iloc[0])
    assert nrp == ok.auc.max()  # directed graph: NRP's dual vectors win
    # scale caps mirror the paper: verse is excluded at this size
    assert (df[df.method == "verse"].note.str.contains("excluded")).all()
