"""Span tracer for the NRP benchmark (``nrpbench/run.py --trace 1``).

The tracer wraps the public entry points of each layer at their call
sites, from outside the program:

* ``repro.core.nrp``       — ``approxppr``, ``update_backward_weights``,
  ``update_forward_weights`` (the names ``nrp()`` calls);
* ``repro.core.approxppr`` — ``bksvd_local``, ``bksvd_spark``,
  ``SparkGraph`` (the names ``approxppr_*`` call);
* ``LocalGraph``           — ``csr``/``csr_t`` (first build = ingest),
  ``spmv``/``spmv_t``/``pmv`` (the matvecs);
* ``LongMatrix``           — ``spmm`` (plan only), ``checkpoint``,
  ``gram``, ``to_numpy``, ``from_numpy`` (where Spark work happens).

``repro.core`` re-exports the functions ``approxppr`` and ``nrp`` under the
names of their own submodules, so the modules are reached through
``importlib.import_module``.

Every span records name, start, end and parent, plus the id of the embed
it belongs to. Spans stay in memory; the caller writes them out at the
end. With a SparkSession, each layer span runs under its own Spark job
group and restores the enclosing group on exit, so job, stage and task
counts can be charged to the layer that issued them.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

MATVECS = ("edgelist.spmv", "edgelist.spmv_t", "edgelist.pmv")
REWEIGHT = ("reweight.backward", "reweight.forward")
_GROUP_KEYS = ("spark.jobGroup.id", "spark.job.description")

#: Per-layer metric name -> unit, in report order.
UNITS = {
    "edgelist.ingest_s": "s",
    "edgelist.spmv_calls": "count",
    "edgelist.spmv_cols": "cols",
    "edgelist.spmv_s": "s",
    "edgelist.bytes_computed": "B",
    "edgelist.gbps_computed": "GB/s",
    "bksvd.s": "s",
    "bksvd.self_s": "s",
    "bksvd.matvecs": "count",
    "bksvd.matvec_cols": "cols",
    "bksvd.kept_rank": "count",
    "bksvd.spark_jobs": "count",
    "approxppr.ppr_s": "s",
    "approxppr.ppr_steps": "count",
    "approxppr.step_s": "s",
    "approxppr.spark_jobs": "count",
    "longmat.spmm_calls": "count",
    "longmat.checkpoint_calls": "count",
    "longmat.checkpoint_s": "s",
    "longmat.gram_calls": "count",
    "longmat.gram_s": "s",
    "longmat.collect_s": "s",
    "longmat.from_numpy_s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.failed_tasks": "count",
    "spark.s_per_job": "s",
    "reweight.s": "s",
    "reweight.sweeps": "count",
    "reweight.sweep_s": "s",
    "reweight.node_updates_per_s": "1/s",
    "reweight.objective": "eq6",
    "nrp.coverage": "ratio",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    embed: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _width(x) -> int:
    return int(x.shape[1]) if np.ndim(x) == 2 else 1


class Tracer:
    """Collects spans for traced embeds; ``spark`` enables job groups."""

    def __init__(self, spark=None):
        self.spark = spark
        self.spans: list[Span] = []
        self.groups: dict[int, list[str]] = {}
        self.overhead: dict[int, float] = {}  # embed -> bookkeeping seconds
        self.embeds = 0  # embeds started; the current one is embeds - 1
        self._stack: list[Span] = []

    # -- spans ---------------------------------------------------------------
    @contextmanager
    def span(self, name: str, group: str | None = None, **attrs):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, time.perf_counter(), float("nan"),
                 parent, self.embeds - 1, attrs)
        self.spans.append(s)
        self._stack.append(s)
        restore = self._enter_group(group) if group else None
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if restore:
                restore()

    def _enter_group(self, layer: str):
        if self.spark is None:
            return None
        sc = self.spark.sparkContext
        prev = [sc.getLocalProperty(k) for k in _GROUP_KEYS]
        gid = f"nrpbench-{self.embeds - 1}-{layer}"
        self.groups.setdefault(self.embeds - 1, []).append(gid)
        sc.setJobGroup(gid, layer)

        def restore():
            for k, v in zip(_GROUP_KEYS, prev):
                sc.setLocalProperty(k, v)  # None removes the property

        return restore

    def _charge(self, seconds: float) -> None:
        e = self.embeds - 1
        self.overhead[e] = self.overhead.get(e, 0.0) + seconds

    @contextmanager
    def embed(self):
        """Span around one ``nrp()`` call; yields the root span."""
        self.embeds += 1
        t0 = time.perf_counter()
        with self.span("nrp", group="nrp") as root:
            t1 = time.perf_counter()
            try:
                yield root
            finally:
                t2 = time.perf_counter()
        self._charge(t1 - t0 + time.perf_counter() - t2)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, fn, name, *, group=None, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            attrs = before(*args, **kwargs) if before else {}
            with self.span(name, group=group, **attrs) as s:
                t1 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t2 = time.perf_counter()
                if after:
                    s.attrs.update(after(out))
            self._charge(t1 - t0 + time.perf_counter() - t2)
            return out

        return traced

    def _ingest(self, key, fn):
        traced = self._wrap(fn, "edgelist.ingest")

        @functools.wraps(fn)
        def first_build(g):
            return traced(g) if key not in g._cache else fn(g)

        return first_build

    def _patches(self):
        nrp_mod = importlib.import_module("repro.core.nrp")
        ppr_mod = importlib.import_module("repro.core.approxppr")
        from repro.graphs.edgelist import LocalGraph
        from repro.linalg.longmat import LongMatrix

        def rank(out):
            return {"kept_rank": int(np.count_nonzero(out[1]))}

        def sweep(X, *a, **k):
            return {"n": int(X.shape[0])}

        def mv(g, X, *a, **k):
            # arcs = canonical edges, doubled when undirected (no build)
            return {"cols": _width(X), "n": g.n,
                    "arcs": g.m if g.directed else 2 * g.m}

        yield nrp_mod, "approxppr", dict(name="approxppr", group="approxppr")
        yield nrp_mod, "update_backward_weights", dict(
            name="reweight.backward", before=sweep)
        yield nrp_mod, "update_forward_weights", dict(
            name="reweight.forward", before=sweep)
        yield ppr_mod, "bksvd_local", dict(name="bksvd", after=rank)
        yield ppr_mod, "bksvd_spark", dict(
            name="bksvd", group="bksvd", after=rank)
        yield ppr_mod, "SparkGraph", dict(
            name="edgelist.ingest", group="edgelist")
        for meth in ("spmv", "spmv_t", "pmv"):
            yield LocalGraph, meth, dict(name=f"edgelist.{meth}", before=mv)
        yield LongMatrix, "spmm", dict(
            name="longmat.spmm",
            before=lambda x, arcs, n_out, weight_col=None: {
                "cols": x.n_cols, "weighted": weight_col is not None})
        for meth, name in (("checkpoint", "checkpoint"), ("gram", "gram"),
                           ("to_numpy", "collect")):
            yield LongMatrix, meth, dict(name=f"longmat.{name}")

    @contextmanager
    def installed(self):
        """Patch every traced call site; restore the originals on exit."""
        from repro.graphs.edgelist import LocalGraph
        from repro.linalg.longmat import LongMatrix

        saved = []
        try:
            for owner, attr, spec in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(getattr(owner, attr), **spec))
            for key in ("csr", "csr_t"):
                saved.append((LocalGraph, key, LocalGraph.__dict__[key]))
                setattr(LocalGraph, key, self._ingest(key, getattr(LocalGraph, key)))
            raw = LongMatrix.__dict__["from_numpy"]
            saved.append((LongMatrix, "from_numpy", raw))
            LongMatrix.from_numpy = classmethod(
                self._wrap(raw.__func__, "longmat.from_numpy"))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    # -- metrics -------------------------------------------------------------
    def _spark_counts(self, embed: int) -> dict:
        """Jobs, stages and tasks of one embed's job groups. Raises if the
        status store evicted a stage, which would undercount tasks."""
        jobs = stages = tasks = failed = 0
        if self.spark is None:
            return dict(jobs=0, stages=0, tasks=0, failed=0, by_group={})
        st = self.spark.sparkContext.statusTracker()
        by_group = {}
        for gid in dict.fromkeys(self.groups.get(embed, [])):
            ids = st.getJobIdsForGroup(gid)
            by_group[gid.rsplit("-", 1)[1]] = len(ids)
            jobs += len(ids)
            for j in ids:
                info = st.getJobInfo(j)
                if info is None:
                    raise RuntimeError(f"job {j} evicted from the status store")
                for sid in info.stageIds:
                    si = st.getStageInfo(sid)
                    if si is None:
                        raise RuntimeError(
                            f"stage {sid} evicted; raise spark.ui.retainedStages")
                    stages += 1
                    tasks += si.numCompletedTasks
                    failed += si.numFailedTasks
        return dict(jobs=jobs, stages=stages, tasks=tasks, failed=failed,
                    by_group=by_group)

    def layer_metrics(self, embed: int) -> dict[str, float]:
        """Per-layer metrics of one traced embed, except
        ``reweight.objective``, which the caller adds."""
        sp = [s for s in self.spans if s.embed == embed]
        kids: dict[int, list[Span]] = {}
        for s in sp:
            kids.setdefault(s.parent, []).append(s)
        byid = {s.id: s for s in sp}

        def self_s(s):
            return s.dur - sum(c.dur for c in kids.get(s.id, []))

        def named(*names):
            return [s for s in sp if s.name in names]

        def tot(spans):
            return float(sum(s.dur for s in spans))

        root = named("nrp")[0]
        outer_mv = [s for s in named(*MATVECS)
                    if byid[s.parent].name not in MATVECS]
        mv_bytes = 0
        for s in outer_mv:
            n, cols, arcs = s.attrs["n"], s.attrs["cols"], s.attrs["arcs"]
            # gathered X rows + int64 indices read, output rows written
            mv_bytes += 8 * (arcs * (cols + 1) + n * cols)
        spmv_s = float(sum(self_s(s) for s in named(*MATVECS)))
        bk = named("bksvd")
        bk_mv = [c for b in bk for c in kids.get(b.id, [])
                 if c.name in MATVECS or c.name == "longmat.spmm"]
        ap = named("approxppr")
        ppr_s = float(sum(
            a.dur - tot(c for c in kids.get(a.id, [])
                        if c.name in ("bksvd", "edgelist.ingest"))
            for a in ap))
        steps = [c for a in ap for c in kids.get(a.id, [])
                 if c.name == "edgelist.pmv"
                 or (c.name == "longmat.spmm" and c.attrs["weighted"])]
        rw = named(*REWEIGHT)
        rw_s = tot(rw)
        sc = self._spark_counts(embed)
        return {
            "edgelist.ingest_s": tot(named("edgelist.ingest")),
            "edgelist.spmv_calls": len(outer_mv),
            "edgelist.spmv_cols": sum(s.attrs["cols"] for s in outer_mv),
            "edgelist.spmv_s": spmv_s,
            "edgelist.bytes_computed": mv_bytes,
            "edgelist.gbps_computed": mv_bytes / spmv_s / 1e9 if spmv_s else 0.0,
            "bksvd.s": tot(bk),
            "bksvd.self_s": float(sum(self_s(b) for b in bk)),
            "bksvd.matvecs": len(bk_mv),
            "bksvd.matvec_cols": sum(c.attrs["cols"] for c in bk_mv),
            "bksvd.kept_rank": sum(b.attrs.get("kept_rank", 0) for b in bk),
            "bksvd.spark_jobs": sc["by_group"].get("bksvd", 0),
            "approxppr.ppr_s": ppr_s,
            "approxppr.ppr_steps": len(steps),
            "approxppr.step_s": ppr_s / len(steps) if steps else 0.0,
            "approxppr.spark_jobs": sc["by_group"].get("approxppr", 0),
            "longmat.spmm_calls": len(named("longmat.spmm")),
            "longmat.checkpoint_calls": len(named("longmat.checkpoint")),
            "longmat.checkpoint_s": tot(named("longmat.checkpoint")),
            "longmat.gram_calls": len(named("longmat.gram")),
            "longmat.gram_s": tot(named("longmat.gram")),
            "longmat.collect_s": tot(named("longmat.collect")),
            "longmat.from_numpy_s": tot(named("longmat.from_numpy")),
            "spark.jobs": sc["jobs"],
            "spark.stages": sc["stages"],
            "spark.tasks": sc["tasks"],
            "spark.failed_tasks": sc["failed"],
            "spark.s_per_job": tot(ap) / sc["jobs"] if sc["jobs"] else 0.0,
            "reweight.s": rw_s,
            "reweight.sweeps": len(rw),
            "reweight.sweep_s": rw_s / len(rw) if rw else 0.0,
            "reweight.node_updates_per_s": (
                sum(s.attrs["n"] for s in rw) / rw_s if rw_s else 0.0),
            "nrp.coverage": tot(kids.get(root.id, [])) / root.dur,
            # time the wrappers spend outside the calls they wrap
            "trace.overhead_s": self.overhead.get(embed, 0.0),
        }

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
