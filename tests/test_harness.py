"""Harness smoke tests on tiny configurations (full runs live in
benchmarks/; these verify row shapes, eligibility handling, and the
Table 1 reproduction end to end)."""
import io
import json

import numpy as np
import pandas as pd
import pytest

from repro.baselines.registry import Method, get_method
from repro.core.nrp import nrp
from repro.experiments import harness as H
from repro.experiments.datasets import load_dataset


def test_table1_exact_matches_paper_rows():
    df = H.table1_ppr()
    for src in ("v2", "v4", "v9"):
        sub = df[df.source == src]
        np.testing.assert_allclose(sub.exact, sub.paper, atol=1.5e-3)
    # the paper's v7 row is a typo (DESIGN.md §4): our exact value for
    # pi(v7, v9) obeys the reversibility identity instead
    v7 = df[(df.source == "v7") & (df.target == "v9")]
    assert float(v7.exact.iloc[0]) == pytest.approx(0.084, abs=1.5e-3)


def test_table1_with_spark(spark):
    # the whole PPR matrix is one column job over the identity
    sc = spark.sparkContext
    sc.setJobGroup("test-table1-jobs", "table1 job count")
    try:
        df = H.table1_ppr(spark)
    finally:
        for key in ("spark.jobGroup.id", "spark.job.description"):
            sc.setLocalProperty(key, None)
    assert len(sc.statusTracker().getJobIdsForGroup("test-table1-jobs")) == 1
    np.testing.assert_allclose(df.exact, df.spark, atol=1e-3)


def test_datasets_table_shape():
    df = H.datasets_table()
    assert list(df.paper_dataset) == [
        "Wiki", "BlogCatalog", "Youtube", "TWeibo", "Orkut", "Twitter",
        "Friendster",
    ]


def test_evolving_datasets_table_shape():
    df = H.evolving_datasets_table()
    assert set(df.paper_dataset) == {"VK", "Digg"}


def test_eligibility_and_protocol():
    g = load_dataset("tweibo_lite").graph  # n = 15000, directed
    assert not get_method("gae").fits(g)
    assert get_method("nrp").fits(g)
    assert H.protocol_for(get_method("nrp"), g) == "inner"
    assert H.protocol_for(get_method("deepwalk"), g) == "edge_features"
    gu = load_dataset("blogcatalog_lite").graph  # undirected
    assert H.protocol_for(get_method("deepwalk"), gu) == "inner"
    assert H.protocol_for(get_method("randne"), g) == "inner"


def test_link_prediction_table_excludes_capped_methods():
    df = H.link_prediction_table(["tweibo_lite"], ["gae"], [8])
    assert df.auc.isna().all()
    assert df.note.str.contains("excluded").all()


# one method under its scale cap (approxppr) and one over it (gae: n <= 2500)
# on the same dataset, through each method table
METHOD_TABLES = {
    "fig4": (lambda m: H.link_prediction_table(["blogcatalog_lite"], m, [8]),
             ["k"]),
    "fig5": (lambda m: H.reconstruction_table(["blogcatalog_lite"], m,
                                              [10, 100]), ["K"]),
    "fig6": (lambda m: H.classification_table(["blogcatalog_lite"], m, [0.5],
                                              k=8), []),
    "fig7": (lambda m: H.efficiency_table(["blogcatalog_lite"], m, [8]),
             ["k", "repeats"]),
    "fig9": (lambda m: H.evolving_table(["vk_lite"], m, k=8), []),
}


@pytest.mark.parametrize("fig", sorted(METHOD_TABLES))
def test_method_tables_exclude_alike(fig):
    table, int_cols = METHOD_TABLES[fig]
    df = table(["approxppr", "gae"])
    excluded = df[df.method == "gae"]
    assert list(excluded.note) == ["excluded (scale cap)"]
    scored = [c for c in df if c not in ("dataset", "method", "note")]
    assert excluded[scored].isna().all(axis=None)
    assert (df[df.method == "approxppr"].note == "").all()
    # integer columns are written as integers next to the empty fields of
    # the excluded row
    written = pd.read_csv(io.StringIO(df.to_csv(index=False)), dtype=str)
    for col in int_cols:
        assert written[col].dropna().str.isdigit().all()


def test_efficiency_table_timed_tiny(monkeypatch):
    # Fig. 7 is timed as Figs. 10 and 11 are: one warm-up, then the repeats
    # of each row
    calls = []
    real = Method.embed

    def spy(self, *args, **kwargs):
        calls.append(self.name)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Method, "embed", spy)
    df = H.efficiency_table(["blogcatalog_lite"], ["approxppr", "gae"],
                            [8, 16])
    assert len(calls) == 1 + 2 * H.TIMING_REPEATS
    timed = df.dropna(subset=["seconds"])
    assert len(timed) == 2 and (timed.seconds > 0).all()
    assert (timed.repeats == H.TIMING_REPEATS).all()


def test_param_sweep_tiny():
    df = H.param_sweep_table(
        "wiki_lite",
        grid={"alpha": (0.15,), "eps": (0.2,), "l1": (5,), "l2": (0, 2)}, k=8,
    )
    assert set(df.param) == {"alpha", "eps", "l1", "l2"}
    assert df.auc.between(0, 1).all()


def test_scalability_table_tiny(monkeypatch):
    # timings describe the lam = 1 configuration of the quality tables
    lams = []

    def spy(*args, **kwargs):
        lams.append(kwargs["lam"])
        return nrp(*args, **kwargs)

    monkeypatch.setattr(H, "nrp", spy)
    df = H.scalability_table(
        None, points=[("n", 2000, 4000), ("m", 2000, 4000)], k=8,
    )
    assert len(df) == 2 and (df.seconds > 0).all()
    assert (df.repeats == H.TIMING_REPEATS).all()
    # one discarded warm-up, then the repeats of each row
    assert lams == [1.0] * (1 + 2 * H.TIMING_REPEATS)


def test_param_sweep_timed_tiny(monkeypatch):
    # Fig. 11 is timed as Fig. 10 is: one warm-up, then the repeats of each
    # grid point
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return nrp(*args, **kwargs)

    monkeypatch.setattr(H, "nrp", spy)
    df = H.param_sweep_table(
        "wiki_lite",
        grid={"alpha": (0.15,), "eps": (0.2,), "l1": (5,), "l2": (0, 2)},
        k=8, measure_time=True,
    )
    assert len(df) == 5 and (df.seconds > 0).all()
    assert (df.repeats == H.TIMING_REPEATS).all()
    assert len(calls) == 1 + 5 * H.TIMING_REPEATS


def test_evolving_table_tiny():
    df = H.evolving_table(["vk_lite"], ["approxppr"], k=8)
    assert len(df) == 1 and 0 <= float(df.auc.iloc[0]) <= 1


def test_run_rebuilds_datasets(monkeypatch, tmp_path):
    # a run's manifest seconds include its dataset builds, whatever ran
    # before it in the same process
    from repro.experiments import datasets

    real = datasets.evolving_graph
    builds = []

    def spy(*args, **kwargs):
        builds.append(kwargs["name"])
        return real(*args, **kwargs)

    monkeypatch.setattr(datasets, "evolving_graph", spy)
    monkeypatch.setattr(H, "RESULTS_DIR", tmp_path)
    H.run("table4_evolving_datasets")
    H.run("table4_evolving_datasets")
    assert builds == ["vk_lite", "digg_lite"] * 2
    assert (tmp_path / "table4_evolving_datasets.csv").exists()
    assert "table4_evolving_datasets" in json.loads(
        (tmp_path / "MANIFEST.json").read_text()
    )
