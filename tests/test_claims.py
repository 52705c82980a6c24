"""Every paper claim of ``benchmarks/bench_runs.py`` holds on its committed
``results/<run>.csv``, so a results file that breaks its claim fails here
without a re-run."""
import pandas as pd
import pytest

from benchmarks.bench_runs import CLAIMS
from repro.experiments.harness import RESULTS_DIR, RUNS

#: NRP trails STRAP at K = 10^4 on blogcatalog_lite; the claim is open
#: (ROADMAP item 5). Strict, so the day the CSV meets it this fails.
OPEN = {"fig5_reconstruction_all_pairs": pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="NRP is not best at K = 10^4 on blogcatalog_lite (ROADMAP item 5)",
)}


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=OPEN.get(n, ()))
    for n in sorted(RUNS.keys() | CLAIMS.keys())
])
def test_committed_csv_meets_its_claim(name):
    # pytest.fail, not assert: an open claim's xfail must not absorb it
    if name not in RUNS or name not in CLAIMS:
        pytest.fail(f"{name!r} needs both a run and a claim")
    CLAIMS[name](pd.read_csv(RESULTS_DIR / f"{name}.csv"))
