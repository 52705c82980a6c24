"""Evaluation tasks: link prediction (AUC), graph reconstruction
(precision@K), node classification (micro/macro F1)."""
