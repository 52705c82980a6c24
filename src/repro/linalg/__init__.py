"""Randomized block-Krylov SVD over a product provider, plus long-format
DataFrame matrices (not on the NRP path; kept for the benchmark tracer)."""
