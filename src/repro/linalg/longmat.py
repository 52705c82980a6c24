"""Names the benchmark tracer patches, with nothing behind them.

NRP's Spark products are the column-slice jobs of
:class:`repro.graphs.edgelist.SparkGraph`; no code path builds a
``LongMatrix``. ``nrpbench/spans.py`` still wraps these five methods by
name (``from_numpy`` as a classmethod) and reports their ``longmat.*``
metrics, which read 0 on every workload. The class goes with those patches
(ROADMAP item 1).
"""
from __future__ import annotations


class LongMatrix:
    """Patch targets only; every method raises ``NotImplementedError``."""

    @classmethod
    def from_numpy(cls, *args, **kwargs):
        raise NotImplementedError

    def to_numpy(self, *args, **kwargs):
        raise NotImplementedError

    def spmm(self, *args, **kwargs):
        raise NotImplementedError

    def gram(self, *args, **kwargs):
        raise NotImplementedError

    def checkpoint(self, *args, **kwargs):
        raise NotImplementedError
