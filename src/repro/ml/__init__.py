"""Minimal ML substrate (no sklearn offline): logistic regression used by
the node-classification task and the edge-features link-prediction scorer."""
