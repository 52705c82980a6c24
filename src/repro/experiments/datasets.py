"""Lite synthetic stand-ins for the paper's datasets (DESIGN.md §3).

Every dataset is a DC-SBM (or evolving DC-SBM) matched to the original's
directedness, average degree, and label count, scaled to container size.
Builders are deterministic and cached.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.graphs.edgelist import LocalGraph
from repro.graphs.generators import dcsbm, evolving_graph


@dataclass
class DatasetBundle:
    graph: LocalGraph
    labels: np.ndarray | None
    name: str
    paper_name: str
    paper_n: str
    paper_m: str


_SPECS = {
    # name: (paper_name, paper_n, paper_m, n, m, n_comm, directed, p_in)
    # p_in ~ 0.5 keeps community labels learnable-but-not-trivial, so the
    # classification table discriminates between methods (paper Fig. 6's
    # Micro-F1 spans ~0.4-0.8, not 1.0)
    "wiki_lite": ("Wiki", "4.78K", "184.81K", 2400, 93_000, 20, True, 0.45),
    "blogcatalog_lite": ("BlogCatalog", "10.31K", "333.98K", 3000, 97_000, 13, False, 0.45),
    "youtube_lite": ("Youtube", "1.13M", "2.99M", 12_000, 31_000, 12, False, 0.6),
    "tweibo_lite": ("TWeibo", "2.32M", "50.65M", 15_000, 327_000, 16, True, 0.5),
    "orkut_lite": ("Orkut", "3.1M", "234M", 10_000, 750_000, 10, False, 0.5),
    "twitter_lite": ("Twitter", "41.6M", "1.2B", 40_000, 1_160_000, 0, True, 0.5),
    "friendster_lite": ("Friendster", "65.6M", "1.8B", 50_000, 1_370_000, 0, False, 0.5),
}

#: name: (paper_name, n, m_old, m_new, n_comm, directed)
_EVOLVING_SPECS = {
    "vk_lite": ("VK", 4000, 60_000, 30_000, 8, False),
    "digg_lite": ("Digg", 6000, 22_000, 15_000, 8, True),
}

DATASETS = tuple(_SPECS)
EVOLVING = tuple(_EVOLVING_SPECS)


@lru_cache(maxsize=None)
def load_dataset(name: str) -> DatasetBundle:
    """Build (and cache) a lite dataset by name."""
    paper_name, pn, pm, n, m, n_comm, directed, p_in = _SPECS[name]
    seed = {k: i * 101 + 7 for i, k in enumerate(_SPECS)}[name]
    # closure=0.25 layers triadic closure over the block structure; see
    # generators.dcsbm — this is what gives PPR-style local proximity its
    # role beyond the global spectrum, as in the real corpora. The unlabeled
    # datasets (n_comm = 0: Twitter/Friendster in the paper) get 25 blocks.
    g, labels = dcsbm(
        n, m, n_comm or 25, directed=directed, p_in=p_in, closure=0.25,
        seed=seed, name=name,
    )
    return DatasetBundle(
        g, labels if n_comm else None, name, paper_name, pn, pm
    )


@lru_cache(maxsize=None)
def load_evolving(name: str) -> tuple[LocalGraph, np.ndarray, str]:
    """(old_graph, new_edges, paper_name) for an evolving dataset."""
    paper_name, n, m_old, m_new, n_comm, directed = _EVOLVING_SPECS[name]
    seed = {k: i * 37 + 13 for i, k in enumerate(_EVOLVING_SPECS)}[name]
    g_old, new = evolving_graph(
        n, m_old, m_new, n_comm, directed=directed, seed=seed, name=name
    )
    return g_old, new, paper_name
