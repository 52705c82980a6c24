"""Per-table experiment runners (DESIGN.md §6).

Each function reproduces one table/figure of the paper's evaluation: it
runs the workload, prints the table rows, and returns them as a pandas
DataFrame. :data:`RUNS` names the one configuration behind each
``results/<name>.csv``; :func:`run` builds it, for both the command line
(``python -m repro.experiments``) and the benchmarks.

Protocol notes (paper Section 5.2):
* dual-vector methods (NRP, ApproxPPR, STRAP, APP) score (u, v) as
  forward(u) . backward(v);
* single-vector factorization methods (AROPE, RandNE, ProNE, NetMF, GAE)
  use the plain inner product;
* single-vector SGNS methods (DeepWalk, LINE, VERSE) use the inner product
  on undirected graphs and the edge-features logistic regression on
  directed graphs, where the inner product cannot represent direction.
"""
from __future__ import annotations

import json
import os
import subprocess
import time
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.baselines.registry import Method, get_method
from repro.core.approxppr import ppr_cols
from repro.core.nrp import nrp
from repro.embedding import Embedding
from repro.experiments.datasets import (
    DATASETS,
    EVOLVING,
    load_dataset,
    load_evolving,
)
from repro.graphs.edgelist import LocalGraph, SparkGraph
from repro.graphs.generators import erdos_renyi, example_graph
from repro.graphs.stats import evolving_stats_row, stats_row
from repro.ppr.exact import ppr_dense
from repro.tasks.classification import node_classification_f1
from repro.tasks.linkpred import link_prediction_auc
from repro.tasks.reconstruction import reconstruction_precision
from repro.tasks.split import LinkSplit, link_prediction_split, sample_distinct_pairs

#: paper Table 1 (v7 row is the corrected value — DESIGN.md §4)
TABLE1_PAPER = {
    "v2": [0.15, 0.269, 0.188, 0.118, 0.17, 0.048, 0.029, 0.019, 0.008],
    "v4": [0.15, 0.118, 0.188, 0.269, 0.17, 0.048, 0.029, 0.019, 0.008],
    "v7": [0.036, 0.043, 0.056, 0.043, 0.093, 0.137, 0.29, 0.187, 0.12],
    "v9": [0.02, 0.024, 0.031, 0.024, 0.056, 0.083, 0.168, 0.311, 0.282],
}


def build_session(app: str) -> SparkSession:
    """The SparkSession of every experiment, test and benchmark run. Master
    and driver memory come from the launch (``PYSPARK_SUBMIT_ARGS`` or
    spark-submit), else pyspark's ``local[*]``."""
    return SparkSession.builder.appName(app).getOrCreate()


def _print(df: pd.DataFrame, title: str) -> pd.DataFrame:
    print(f"\n== {title} ==")
    print(df.to_string(index=False))
    return df


def protocol_for(method: Method, g: LocalGraph) -> str:
    if method.dual:
        return "inner"
    if g.directed and method.group == "random-walk":
        return "edge_features"
    return "inner"


# ---------------------------------------------------------------- Table 1
def table1_ppr(spark: SparkSession | None = None) -> pd.DataFrame:
    """Reproduce paper Table 1: PPR values on the Fig. 1 graph, exact oracle
    plus (optionally) Spark, where the whole PPR matrix ``Pi I`` is one
    :meth:`SparkGraph.columns` job over the identity."""
    g = example_graph()
    pi = ppr_dense(g, alpha=0.15)
    sources = {"v2": 1, "v4": 3, "v7": 6, "v9": 8}
    spark_pi = None
    if spark is not None:
        sg = SparkGraph(spark, g)
        try:
            spark_pi = sg.columns(
                partial(ppr_cols, alpha=0.15, iters=60), np.eye(g.n)
            )
        finally:
            sg.unpersist()
    rows = []
    for label, src in sources.items():
        for j in range(9):
            row = {
                "source": label,
                "target": f"v{j + 1}",
                "paper": TABLE1_PAPER[label][j],
                "exact": round(float(pi[src, j]), 3),
            }
            if spark_pi is not None:
                row["spark"] = round(float(spark_pi[src, j]), 3)
            rows.append(row)
    return _print(pd.DataFrame(rows), "Table 1: PPR on the Fig.1 graph (alpha=0.15)")


# ------------------------------------------------------------- Tables 3 & 4
def datasets_table() -> pd.DataFrame:
    rows = []
    for name in DATASETS:
        b = load_dataset(name)
        r = stats_row(
            b.graph,
            None if b.labels is None else len(np.unique(b.labels)),
        )
        r["paper_dataset"] = b.paper_name
        r["paper_n"] = b.paper_n
        r["paper_m"] = b.paper_m
        rows.append(r)
    return _print(pd.DataFrame(rows), "Table 3: datasets (lite stand-ins)")


def evolving_datasets_table() -> pd.DataFrame:
    rows = []
    for name in EVOLVING:
        g_old, new, paper = load_evolving(name)
        r = evolving_stats_row(g_old, new, name)
        r["paper_dataset"] = paper
        rows.append(r)
    return _print(pd.DataFrame(rows), "Table 4: evolving datasets (lite)")


# ------------------------------------------------------------- method tables
def _method_table(
    datasets: list[str], methods: list[str], setup: Callable,
    columns: dict[str, str], title: str,
) -> pd.DataFrame:
    """The method loop of Figs. 4-7 and 9. ``setup(ds)`` gives a dataset's
    graph and its ``score(method)``, which yields the method's rows of the
    scored ``columns`` (name: dtype). A method over its scale cap on the
    graph gets one excluded row instead, with those columns empty, as the
    paper drops the methods that miss its 7-day cutoff."""
    rows = []
    for ds in datasets:
        g, score = setup(ds)
        for name in methods:
            m = get_method(name)
            if not m.fits(g):
                rows.append({"dataset": ds, "method": name,
                             "note": "excluded (scale cap)"})
                continue
            rows += ({"dataset": ds, "method": name, **r, "note": ""}
                     for r in score(m))
    df = pd.DataFrame(rows, columns=["dataset", "method", *columns, "note"])
    return _print(df.astype(columns), title)


# ------------------------------------------------------------- Fig 4 (LP)
def link_prediction_table(
    datasets: list[str],
    methods: list[str],
    ks: list[int],
) -> pd.DataFrame:
    """Fig. 4: link-prediction AUC vs embedding dimensionality k."""
    def setup(ds):
        g = load_dataset(ds).graph
        split = link_prediction_split(g, frac=0.3)

        def score(m):
            for k in ks:
                emb = m.embed(split.train, k)
                auc = link_prediction_auc(
                    emb, split, protocol=protocol_for(m, g)
                )
                yield {"k": k, "auc": round(auc, 4)}
        return g, score

    return _method_table(datasets, methods, setup,
                         {"k": "Int64", "auc": "float64"},
                         "Fig 4: link prediction AUC")


# ------------------------------------------------------------- Fig 5 (GR)
def reconstruction_table(
    datasets: list[str],
    methods: list[str],
    ks_eval: list[int],
) -> pd.DataFrame:
    """Fig. 5: graph reconstruction precision@K of k = 32 embeddings (all
    pairs on graphs up to n = 4000, a 1%-of-pairs sample on larger ones —
    the paper's protocol)."""
    def setup(ds):
        g = load_dataset(ds).graph
        sample = None
        if g.n > 4000:
            sample = min(int(0.01 * g.n * (g.n - 1) / 2), 2_000_000)

        def score(m):
            prec = reconstruction_precision(
                m.embed(g, 32), g, ks_eval, sample=sample
            )
            for K, p in prec.items():
                yield {"K": K, "precision": round(p, 4)}
        return g, score

    return _method_table(datasets, methods, setup,
                         {"K": "Int64", "precision": "float64"},
                         "Fig 5: graph reconstruction precision@K")


# ------------------------------------------------------------- Fig 6 (NC)
def classification_table(
    datasets: list[str],
    methods: list[str],
    ratios: list[float],
    *,
    k: int = 32,
) -> pd.DataFrame:
    """Fig. 6: node classification micro/macro F1 vs train ratio, on the
    labelled ``datasets``."""
    def setup(ds):
        b = load_dataset(ds)

        def score(m):
            emb = m.embed(b.graph, k)
            for r in ratios:
                micro, macro = node_classification_f1(
                    emb, b.labels, train_ratio=r
                )
                yield {"ratio": r, "micro_f1": round(micro, 4),
                       "macro_f1": round(macro, 4)}
        return b.graph, score

    labelled = [ds for ds in datasets if load_dataset(ds).labels is not None]
    return _method_table(
        labelled, methods, setup,
        {"ratio": "float64", "micro_f1": "float64", "macro_f1": "float64"},
        "Fig 6: node classification F1",
    )


# ------------------------------------------------------------- timing
#: timed embeds per row of a timed table (Figs. 7, 10, 11); the row reports
#: their median
TIMING_REPEATS = 3


def _median_seconds(embed: Callable, *, warm_up: bool) -> tuple[float, object]:
    """Median seconds of ``TIMING_REPEATS`` calls of ``embed``, and the
    output of the last call. With ``warm_up``, one discarded call comes
    first, so a table's first row is not timed cold (imports, the session's
    first Spark jobs)."""
    if warm_up:
        embed()
    secs = []
    for _ in range(TIMING_REPEATS):
        t0 = time.perf_counter()
        out = embed()
        secs.append(time.perf_counter() - t0)
    return float(np.median(secs)), out


# ------------------------------------------------------------- Fig 7 (time)
def efficiency_table(
    datasets: list[str],
    methods: list[str],
    ks: list[int],
) -> pd.DataFrame:
    """Fig. 7: embedding construction time vs k. A row's seconds are timed
    as :func:`_median_seconds` times them, with the one warm-up before the
    table's first row."""
    warm_up = True

    def setup(ds):
        g = load_dataset(ds).graph

        def score(m):
            nonlocal warm_up
            for k in ks:
                secs, _ = _median_seconds(partial(m.embed, g, k),
                                          warm_up=warm_up)
                warm_up = False
                yield {"k": k, "seconds": round(secs, 3),
                       "repeats": TIMING_REPEATS}
        return g, score

    return _method_table(
        datasets, methods, setup,
        {"k": "Int64", "seconds": "float64", "repeats": "Int64"},
        "Fig 7: embedding construction time (s)",
    )


# ------------------------------------------------------------- Fig 8 / 11
def param_sweep_table(
    dataset: str,
    *,
    grid: dict[str, tuple],
    k: int = 32,
    measure_time: bool = False,
) -> pd.DataFrame:
    """Fig. 8 (AUC) / Fig. 11 (runtime) parameter analysis for NRP: vary
    each nrp parameter of ``grid`` (name -> values) in turn, with the others
    at paper defaults (lam=1 is the lite-scale analogue of the paper's
    lam=10 — see registry). With ``measure_time``, a point's seconds are
    timed as :func:`_median_seconds` times them, with the one warm-up
    before the first point."""
    b = load_dataset(dataset)
    split = link_prediction_split(b.graph, frac=0.3)
    defaults = dict(alpha=0.15, eps=0.2, l1=20, l2=10, lam=1.0)
    points = [(pname, val) for pname, vals in grid.items() for val in vals]
    rows = []
    for i, (pname, val) in enumerate(points):
        kw = {**defaults, pname: val}

        def embed():
            return nrp(split.train, k, **kw)

        if measure_time:
            secs, res = _median_seconds(embed, warm_up=i == 0)
        else:
            res = embed()
        emb = Embedding(X=res.X, Y=res.Y, name="nrp")
        auc = link_prediction_auc(emb, split)
        row = {"dataset": dataset, "param": pname, "value": val,
               "auc": round(auc, 4)}
        if measure_time:
            row["seconds"] = round(secs, 3)
            row["repeats"] = TIMING_REPEATS
        rows.append(row)
    title = "Fig 11: NRP runtime vs parameters" if measure_time else \
        "Fig 8: NRP link-prediction AUC vs parameters"
    return _print(pd.DataFrame(rows), title)


# ------------------------------------------------------------- Fig 9 (evolving)
def evolving_table(
    datasets: list[str],
    methods: list[str],
    *,
    k: int = 32,
) -> pd.DataFrame:
    """Appendix Fig. 9: predict real future edges from the old snapshot."""
    def setup(ds):
        g_old, new_edges, _ = load_evolving(ds)
        rng = np.random.default_rng(0)
        # negatives: pairs absent from both snapshots
        neg = sample_distinct_pairs(
            g_old, len(new_edges), rng, np.vstack([g_old.edges, new_edges])
        )
        pairs = np.vstack([new_edges, neg])
        labels = np.concatenate(
            [np.ones(len(new_edges), dtype=np.int64),
             np.zeros(len(neg), dtype=np.int64)]
        )
        split = LinkSplit(train=g_old, test_pairs=pairs, test_labels=labels)

        def score(m):
            auc = link_prediction_auc(
                m.embed(g_old, k), split, protocol=protocol_for(m, g_old)
            )
            yield {"auc": round(auc, 4)}
        return g_old, score

    return _method_table(datasets, methods, setup, {"auc": "float64"},
                         "Fig 9: link prediction on evolving graphs")


# ------------------------------------------------------------- Fig 10 (scal.)
def scalability_table(
    spark: SparkSession | None,
    *,
    points: list[tuple[str, int, int]],
    k: int = 32,
) -> pd.DataFrame:
    """Appendix Fig. 10: NRP runtime on Erdos-Renyi graphs of n nodes and m
    edges, one row per ``(vary, n, m)`` of ``points``, where ``vary`` names
    the size the row varies (paper used n up to 1e6, m up to 1e8; we scale
    both down 10x — DESIGN.md §3). ``lam=1`` as in every quality table. NRP
    runs on the Spark backend when ``spark`` is given. A row's seconds
    are timed as :func:`_median_seconds` times them, with the one warm-up
    before the first row; each embed runs on a fresh view of the graph, so
    each pays its graph's CSR and plan builds."""
    backend = "spark" if spark is not None else "local"
    kw = dict(lam=1.0, backend=backend, spark=spark)
    rows = []
    for i, (vary, n, m) in enumerate(points):
        g = erdos_renyi(n, m)

        def embed():
            return nrp(LocalGraph(g.edges, g.n, g.directed), k, **kw)

        secs, _ = _median_seconds(embed, warm_up=i == 0)
        rows.append({"vary": vary, "n": n, "m": m,
                     "seconds": round(secs, 2), "repeats": TIMING_REPEATS})
    return _print(
        pd.DataFrame(rows),
        f"Fig 10: NRP scalability on Erdos-Renyi graphs ({backend} backend)",
    )


# ------------------------------------------------------------- named runs
RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"

ALL_METHODS = ["nrp", "approxppr", "strap", "arope", "randne", "prone",
               "netmf", "deepwalk", "line", "app", "verse", "gae"]
SCALABLE = ["nrp", "approxppr", "arope", "randne", "prone"]


class Run(NamedTuple):
    table: Callable[..., pd.DataFrame]  # one harness call, seed 0
    spark: bool = False                 # called with spark=<session>


#: The configuration behind each ``results/<name>.csv``.
RUNS: dict[str, Run] = {
    "table1_ppr": Run(table1_ppr, spark=True),
    "table3_datasets": Run(datasets_table),
    "table4_evolving_datasets": Run(evolving_datasets_table),
    "fig4_link_prediction_small": Run(partial(
        link_prediction_table, ["wiki_lite", "blogcatalog_lite"],
        ALL_METHODS, [32],
    )),
    "fig4_link_prediction_k_sweep": Run(partial(
        link_prediction_table, ["wiki_lite"],
        ["nrp", "approxppr", "arope", "prone"], [16, 32, 64],
    )),
    "fig4_link_prediction_large": Run(partial(
        link_prediction_table, ["tweibo_lite"], SCALABLE + ["verse"], [32],
    )),
    "fig5_reconstruction_all_pairs": Run(partial(
        reconstruction_table, ["wiki_lite", "blogcatalog_lite"],
        ["nrp", "approxppr", "strap", "arope", "randne", "prone", "verse"],
        [10, 100, 1000, 10_000, 100_000],
    )),
    "fig5_reconstruction_sampled": Run(partial(
        reconstruction_table, ["youtube_lite"], SCALABLE, [10, 100, 1000],
    )),
    # k=64 (k'=32 per side) keeps the dual methods' per-side dimension
    # above the 13-20 label counts, as the paper's k=128 does at full scale
    "fig6_classification": Run(partial(
        classification_table, ["wiki_lite", "blogcatalog_lite"],
        ["nrp", "approxppr", "strap", "arope", "randne", "prone", "verse",
         "deepwalk", "gae"],
        [0.1, 0.5, 0.9], k=64,
    )),
    "fig7_efficiency_small": Run(partial(
        efficiency_table, ["wiki_lite"], ALL_METHODS, [32],
    )),
    "fig7_efficiency_large": Run(partial(
        efficiency_table, ["twitter_lite", "friendster_lite"],
        SCALABLE + ["netmf", "gae"], [32],
    )),
    "fig8_param_analysis": Run(partial(
        param_sweep_table, "wiki_lite",
        grid={"alpha": (0.1, 0.15, 0.3, 0.5, 0.9), "eps": (0.1, 0.2, 0.5, 0.9),
              "l1": (1, 5, 10, 20, 30), "l2": (0, 2, 5, 10, 20)},
        k=32,
    )),
    "fig9_evolving": Run(partial(
        evolving_table, ["vk_lite", "digg_lite"],
        ["nrp", "approxppr", "strap", "arope", "randne", "prone", "verse",
         "app"],
        k=32,
    )),
    # the full grid shrunk ~3x to keep the run short
    "fig10_scalability": Run(partial(
        scalability_table, None,
        points=[("n", n, 600_000) for n in (20_000, 40_000, 60_000)]
        + [("m", 60_000, m) for m in (200_000, 400_000, 600_000)],
        k=32,
    )),
    "fig10_scalability_spark_point": Run(partial(
        scalability_table, points=[("n", 20_000, 200_000)], k=16,
    ), spark=True),
    # tweibo_lite (n = 15K) is large enough that the l1 effect (matvec
    # count) dominates timing noise (EXPERIMENTS.md E-RTP)
    "fig11_runtime_params": Run(partial(
        param_sweep_table, "tweibo_lite",
        grid={"alpha": (0.15, 0.9), "eps": (0.2, 0.9), "l1": (5, 40),
              "l2": (0, 30)},
        k=32, measure_time=True,
    )),
}


def _commit() -> str:
    """HEAD's hash, suffixed ``-dirty`` when the tree outside results/
    differs from it."""
    root = RESULTS_DIR.parent
    try:
        head = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(root), "status", "--porcelain", "--", ".",
             ":(exclude)results"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("-dirty" if dirty else "")


def run(name: str, spark: SparkSession | None = None) -> pd.DataFrame:
    """Build the table of ``RUNS[name]``, write ``results/<name>.csv`` and
    record the commit, machine and seconds under ``name`` in
    ``results/MANIFEST.json``."""
    entry = RUNS[name]
    if entry.spark and spark is None:
        raise ValueError(f"run {name!r} needs a SparkSession")
    # rebuild the datasets, so the seconds do not depend on the runs before
    load_dataset.cache_clear()
    load_evolving.cache_clear()
    if spark is not None:
        # one discarded job over every task slot, so the session's first
        # jobs (JVM warm-up, Python worker start) are not timed
        slots = spark.sparkContext.defaultParallelism
        spark.sparkContext.parallelize(range(slots), slots).count()
    t0 = time.perf_counter()
    df = entry.table(spark=spark) if entry.spark else entry.table()
    seconds = time.perf_counter() - t0
    RESULTS_DIR.mkdir(exist_ok=True)
    df.to_csv(RESULTS_DIR / f"{name}.csv", index=False)
    path = RESULTS_DIR / "MANIFEST.json"
    manifest = json.loads(path.read_text()) if path.exists() else {}
    manifest[name] = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "mem_gb": round(
            os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1
        ),
        "seconds": round(seconds, 2),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return df
