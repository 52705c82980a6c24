"""The benchmark tracer (``nrpbench/spans.py``) patches call sites by name.
Every name it patches must exist, be restored after a traced run, and be
the one the run actually calls, so a traced embed gives the untraced bits
and the spans of every layer. A rename or deletion of a traced name fails
here instead of in the benchmark."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from repro.core.nrp import nrp
from repro.graphs.edgelist import LocalGraph
from repro.graphs.generators import dcsbm
from repro.linalg.longmat import LongMatrix

SPANS = Path(__file__).resolve().parents[1] / "nrpbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["spans"] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_exist_restore_and_are_called():
    Tracer = _load_spans().Tracer
    targets = [(owner, attr) for owner, attr, _ in Tracer()._patches()]
    targets += [(LocalGraph, "csr"), (LocalGraph, "csr_t"),
                (LongMatrix, "from_numpy")]
    before = [owner.__dict__[attr] for owner, attr in targets]

    g, _ = dcsbm(300, 3000, 4, directed=True, seed=3)
    plain = nrp(LocalGraph(g.edges, g.n, True), 16, lam=1.0, l2=2, q=2)
    tracer = Tracer()
    with tracer.installed(), tracer.embed():
        res = nrp(LocalGraph(g.edges, g.n, True), 16, lam=1.0, l2=2, q=2)

    after = [owner.__dict__[attr] for owner, attr in targets]
    assert all(a is b for a, b in zip(before, after)), "patches not restored"
    assert np.array_equal(res.X, plain.X) and np.array_equal(res.Y, plain.Y)
    names = {s.name for s in tracer.spans}
    assert {"nrp", "approxppr", "bksvd", "edgelist.ingest", "edgelist.spmv",
            "reweight.backward", "reweight.forward"} <= names, names
