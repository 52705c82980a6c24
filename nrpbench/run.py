#!/usr/bin/env python3
"""NRP embedding benchmark.

Closed loop, one client: one ``nrp(g, k, lam=1.0, seed=s, backend=...)``
call at a time from this process, each on a fresh ``LocalGraph`` (cold
caches), until ``--seconds`` have passed. Every embed is checked (width
k/2, finite values, weights >= 1/n, bit-identical to the run's first embed
on the local backend, XY^T equal to the local one on Spark).

    python3 nrpbench/run.py --workload er60k-local --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
embed and reports the per-layer metrics of ``nrpbench/spans.py``. Human-readable lines and the run metadata come
first; the last stdout line is one JSON object. Spans, samples and
metadata are also written to ``nrpbench/out/``.

Run from the repository root; it imports ``src/repro`` and
``jobs/_common.py`` from the checkout it sits in.
"""
from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Spark local[N]: at most 4, never more than the usable cores
N = min(4, len(os.sched_getaffinity(0)))
#: idle OpenBLAS threads spin on the small per-sweep products and take
#: cores from the main thread; one thread measured as fast and steadier
BLAS_THREADS = 1
K = 32
LAM = 1.0
#: XY^T agreement of the Spark and local backends (measured ~3e-9)
SPARK_RTOL = 1e-6


@dataclass(frozen=True)
class Workload:
    graph: str      # "er" or "dcsbm"
    backend: str    # "local" or "spark"


#: why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    "er60k-local": Workload("er", "local"),
    "dcsbm2k-local": Workload("dcsbm", "local"),
    "dcsbm2k-spark": Workload("dcsbm", "spark"),
}


def configure_env() -> None:
    """Thread counts, Spark launch arguments and scratch dirs, all set
    before numpy or the JVM start; every file written stays under OUT."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        # keep every job and stage of a run so task counts repeat
        "spark.ui.retainedJobs": "100000",
        "spark.ui.retainedStages": "100000",
        "spark.driver.extraJavaOptions": f"-Djava.io.tmpdir={tmp}",
    }
    args = ["--master", f"local[{N}]", "--driver-memory", "2g"]
    for k, v in conf.items():
        args += ["--conf", f"{k}={v}"]
    os.environ["PYSPARK_SUBMIT_ARGS"] = shlex.join(args + ["pyspark-shell"])
    for p in (str(ROOT), str(ROOT / "src")):
        sys.path.insert(0, p)


def percentile_tail(xs: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(xs)
    if n < 20:
        return None
    q = (100 * (n - 10)) // n
    return q, sorted(xs)[max(0, -(-q * n // 100) - 1)]


def hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("VmHWM:", 1)[1].split()[0]) / 1024


def metadata(name, wl, g) -> dict:
    import numpy as np
    import pyspark

    commit = "unknown"  # a checkout without .git is identified by src_sha256
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for p in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(p.read_bytes())
    mem = Path("/proc/meminfo").read_text().split("\n", 1)[0].split()[1]
    return {
        "workload": name, "backend": wl.backend,
        "n": g.n, "m": g.m, "k": K, "lam": LAM, "directed": g.directed,
        "commit": commit, "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "mem_total_mb": int(mem) // 1024,
        "python": platform.python_version(), "numpy": np.__version__,
        "spark": pyspark.__version__,
        "blas_threads": {v: os.environ[v] for v in (  # at most local[N]
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "spark_master": f"local[{N}]" if wl.backend == "spark" else None,
        "bytes_note": "byte counts are computed from array sizes, not measured",
    }


def make_inputs(wl: Workload, seed: int):
    """The graph given to nrp() and the pairs its AUC is scored on."""
    import numpy as np
    from repro.graphs.edgelist import LocalGraph
    from repro.graphs.generators import dcsbm, erdos_renyi
    from repro.tasks.split import (
        LinkSplit, link_prediction_split, sample_negative_pairs)

    if wl.graph == "dcsbm":
        g, _ = dcsbm(2000, 30_000, 10, directed=True, p_in=0.5,
                     closure=0.25, seed=seed)
        return link_prediction_split(g, frac=0.3, seed=seed)
    # er60k has no held-out edges: score 20K input edges against 20K
    # uniform non-edges (reconstruction AUC)
    g = erdos_renyi(60_000, 600_000, seed=seed)
    rng = np.random.default_rng([seed, 1])  # not the generator's stream
    pos = g.edges[rng.choice(g.m, 20_000, replace=False)]
    # a throwaway view, so its edge-key set is freed before the embeds
    neg = sample_negative_pairs(LocalGraph(g.edges, g.n, False), 20_000, rng)
    labels = np.repeat([1, 0], 20_000)
    return LinkSplit(train=g, test_pairs=np.vstack([pos, neg]), test_labels=labels)


def check(res, n: int, ref=None, ref_xyt=None) -> str | None:
    """Output contract of one embed; returns the first violation."""
    import numpy as np

    for name in ("X", "Y"):
        a = getattr(res, name)
        if a.shape != (n, K // 2):
            return f"{name} has shape {a.shape}, want {(n, K // 2)}"
        if not np.isfinite(a).all():
            return f"{name} has non-finite values"
    for name in ("wf", "wb"):
        if not (getattr(res, name) >= 1.0 / n).all():
            return f"{name} below 1/n"
    if ref is not None and not (
        np.array_equal(res.X, ref.X) and np.array_equal(res.Y, ref.Y)
    ):
        return "X, Y differ from the run's first embed of the same seed"
    if ref_xyt is not None:
        err = np.abs(res.X @ res.Y.T - ref_xyt).max() / np.abs(ref_xyt).max()
        if not err <= SPARK_RTOL:
            return f"XY^T differs from the local backend (rel err {err:.2e})"
    return None


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM to exit."""
    from pyspark import SparkContext

    gw = SparkContext._gateway
    spark.stop()
    if gw is not None:
        proc = getattr(gw, "proc", None)
        gw.shutdown()
        if proc is not None:
            proc.stdin.close()  # the JVM exits when its stdin closes
            proc.wait(timeout=60)
        SparkContext._gateway = None
        SparkContext._jvm = None


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    configure_env()
    import repro
    from repro.core.nrp import nrp
    from repro.core.reweight import objective
    from repro.embedding import Embedding
    from repro.graphs.edgelist import LocalGraph
    from repro.tasks.linkpred import link_prediction_auc

    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"repro imported from {repro.__file__}, not {ROOT}")
    from spans import UNITS, Tracer

    split = make_inputs(wl, seed)
    g = split.train

    def fresh() -> LocalGraph:
        return LocalGraph(g.edges, g.n, g.directed, name=g.name)

    spark = None
    kw = {}
    ref = ref_xyt = None  # local: the first timed embed; Spark: local XY^T
    try:
        if wl.backend == "spark":
            from jobs._common import build_session

            local = nrp(fresh(), K, lam=LAM, seed=seed)
            ref_xyt = local.X @ local.Y.T
            spark = build_session("nrpbench")
            spark.sparkContext.setLogLevel("ERROR")
            kw = dict(backend="spark", spark=spark)
        # discarded warm-up: every layer and Spark query shape once (JVM
        # class loading and codegen), on truncated iterations
        nrp(fresh(), K, lam=LAM, seed=seed, q=1, l1=2, l2=1, **kw)
        tracer = Tracer(spark)
        setup_s = time.perf_counter() - T0
        samples, aucs, layers = [], [], []
        attempted = failed = 0
        start = time.perf_counter()
        # local runs embed at least twice: same seed, bit-identical output
        min_embeds = 1 if spark else 2
        while attempted < min_embeds or time.perf_counter() - start < seconds:
            attempted += 1
            try:
                if trace:
                    with tracer.installed(), tracer.embed() as root:
                        res = nrp(fresh(), K, lam=LAM, seed=seed, **kw)
                    dt = root.dur
                else:
                    t = time.perf_counter()
                    res = nrp(fresh(), K, lam=LAM, seed=seed, **kw)
                    dt = time.perf_counter() - t
                err = check(res, g.n, ref, ref_xyt)
            except Exception:  # one failed embed must not end the run
                err = traceback.format_exc()
            if err:
                failed += 1
                print(f"embed {attempted} failed: {err}", file=sys.stderr)
                continue
            samples.append(dt)
            if spark is None and ref is None:
                ref = res
            aucs.append(link_prediction_auc(Embedding(res.X, res.Y), split))
            if trace:
                lm = tracer.layer_metrics(tracer.embeds - 1)
                lm["reweight.objective"] = objective(
                    res.X0, res.Y0, res.wf, res.wb, g.d_out, g.d_in, LAM)
                layers.append(lm)
        peak = hwm_mb()
        # the JVM's RSS follows its GC heap sizing (1.7-2.2 GB over runs of
        # one seed), too loose for a bound: reported, not a metric
        jvm_peak = hwm_mb(spark.sparkContext._gateway.proc.pid) if spark else None
    finally:
        if spark is not None:
            stop_spark(spark)

    metrics = {}
    if trace and layers:
        metrics = {k: {"value": statistics.median(lm[k] for lm in layers),
                       "unit": u} for k, u in UNITS.items()}
    elif not trace and samples:
        embed_s = statistics.median(samples)
        metrics = {
            "embed_s": {"value": embed_s, "unit": "s"},
            "edges_per_s": {"value": g.m / embed_s, "unit": "edges/s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
            "auc": {"value": statistics.median(aucs), "unit": "ratio"},
        }
    meta = metadata(name, wl, g)
    tail = percentile_tail(samples)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{name} seed={seed} trace={int(trace)}: failed_runs {failed}/"
          f"{attempted}, output check {'ok' if not failed else 'FAILED'}")
    print(f"{'traced ' if trace else ''}embed_s median "
          f"{statistics.median(samples) if samples else float('nan'):.6g} s, "
          f"samples={len(samples)}, tail="
          + (f"p{tail[0]}:{tail[1]:.6g}s" if tail else "n/a (<20 samples)"))
    for k, v in metrics.items():
        print(f"{k} {v['value']:.6g} {v['unit']}")
    if jvm_peak is not None:
        print(f"spark JVM peak RSS {jvm_peak:.6g} MB (not in peak_rss_mb)")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}-s{seed}-t{int(trace)}.json").write_text(json.dumps({
        "meta": meta, "trace": trace, "setup_s": setup_s,
        "jvm_peak_rss_mb": jvm_peak,
        "embed_s": samples, "auc": aucs, "layers": layers,
        "spans": tracer.dump(),
    }))
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    result = run(a.workload, a.seed, a.seconds, bool(a.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
