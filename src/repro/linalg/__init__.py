"""Randomized block-Krylov SVD over matvec callables, plus long-format
DataFrame matrices (not on the NRP path; kept for the benchmark tracer)."""
