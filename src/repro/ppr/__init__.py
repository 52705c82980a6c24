"""Personalized PageRank oracle: dense numpy PPR (Eq. 1) and its truncated,
diagonal-free form (Eq. 3), for small graphs. PPR on Spark is a
column-separable function (:func:`repro.core.approxppr.ppr_cols`)."""
