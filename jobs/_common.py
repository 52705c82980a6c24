# nrpbench/run.py and nrpbench/check_spans.py import build_session from
# here, until the benchmark change of ROADMAP item 1 retargets them.
from repro.experiments.harness import build_session  # noqa: F401
