"""Randomized block-Krylov SVD over matvec callables, plus long-format
DataFrame matrices (no longer on the NRP path; kept for their tests and the
benchmark tracer)."""
from repro.linalg.longmat import LongMatrix  # noqa: F401
