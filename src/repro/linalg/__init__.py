"""Randomized block-Krylov SVD over a product provider, plus the
``LongMatrix`` method names the benchmark tracer patches (no code behind
them)."""
