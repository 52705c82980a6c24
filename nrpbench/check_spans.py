#!/usr/bin/env python3
"""Self-checks for the benchmark's tracer and helpers.

    python3 nrpbench/check_spans.py           # local backend, a few seconds
    python3 nrpbench/check_spans.py --spark   # adds Spark job-group checks

Plain asserts, not pytest: the repository's test collection does not pick
this file up. Exits non-zero on the first failed check.
"""
from __future__ import annotations

import importlib
import sys

import run  # sets up paths and the environment through configure_env()


def check_local():
    import numpy as np
    from repro.core.nrp import nrp
    from repro.graphs.edgelist import LocalGraph
    from repro.graphs.generators import dcsbm
    from repro.linalg.longmat import LongMatrix
    from spans import UNITS, Tracer

    nrp_mod = importlib.import_module("repro.core.nrp")
    ppr_mod = importlib.import_module("repro.core.approxppr")
    before = (nrp_mod.approxppr, ppr_mod.bksvd_local, ppr_mod.SparkGraph,
              LocalGraph.__dict__["csr"], LocalGraph.spmv,
              LongMatrix.__dict__["from_numpy"])
    g, _ = dcsbm(300, 3000, 4, directed=True, seed=3)
    plain = nrp(LocalGraph(g.edges, g.n, True), 16, lam=1.0, l2=2, q=2)

    tracer = Tracer()
    with tracer.installed(), tracer.embed() as root:
        res = nrp(LocalGraph(g.edges, g.n, True), 16, lam=1.0, l2=2, q=2)
    after = (nrp_mod.approxppr, ppr_mod.bksvd_local, ppr_mod.SparkGraph,
             LocalGraph.__dict__["csr"], LocalGraph.spmv,
             LongMatrix.__dict__["from_numpy"])
    assert all(a is b for a, b in zip(before, after)), "patches not restored"
    assert np.array_equal(res.X, plain.X) and np.array_equal(res.Y, plain.Y)

    byid = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        assert s.embed == 0 and s.end >= s.start
        if s.parent is not None:
            p = byid[s.parent]
            assert p.start <= s.start and s.end <= p.end, (p.name, s.name)
    m = tracer.layer_metrics(0)
    assert set(m) == set(UNITS) - {"reweight.objective"}
    assert m["nrp.coverage"] >= 0.95, m["nrp.coverage"]
    assert m["approxppr.ppr_steps"] == 19
    assert m["bksvd.matvecs"] == 2 * 2 + 3  # mv, q x (rmv, mv), rmv(Q), rmv(U)
    assert m["bksvd.kept_rank"] == 8
    assert m["reweight.sweeps"] == 4
    assert m["edgelist.spmv_calls"] == 7 + 19
    assert len([s for s in tracer.spans if s.name == "edgelist.ingest"]) == 2
    assert all(m[k] == 0 for k in m if k.startswith(("longmat.", "spark.")))
    assert 0 < m["trace.overhead_s"] < root.dur
    assert run.percentile_tail([1.0] * 19) is None
    assert run.percentile_tail(list(range(100))) == (90, 89)
    print("local checks ok")


def check_spark():
    from jobs._common import build_session
    from repro.core.nrp import nrp
    from repro.graphs.generators import dcsbm
    from spans import Tracer

    spark = build_session("nrpbench-check")
    try:
        sc = spark.sparkContext
        sc.setLogLevel("ERROR")
        g, _ = dcsbm(100, 600, 3, directed=True, seed=4)
        tracer = Tracer(spark)
        sc.setJobGroup("outer", "outer")
        with tracer.installed(), tracer.embed():
            nrp(g, 8, lam=1.0, l1=3, l2=1, q=1, backend="spark", spark=spark)
        assert sc.getLocalProperty("spark.jobGroup.id") == "outer"
        m = tracer.layer_metrics(0)
        parts = m["bksvd.spark_jobs"] + m["approxppr.spark_jobs"]
        assert m["bksvd.spark_jobs"] > 0 and m["approxppr.spark_jobs"] > 0
        assert parts <= m["spark.jobs"] and m["spark.tasks"] > 0
        assert m["approxppr.ppr_steps"] == 2 and m["longmat.checkpoint_calls"] > 0
        assert m["nrp.coverage"] >= 0.95
    finally:
        run.stop_spark(spark)
    print("spark checks ok")


if __name__ == "__main__":
    run.configure_env()
    check_local()
    if "--spark" in sys.argv[1:]:
        check_spark()
