"""Lite dataset registry: specs honored, caching, determinism."""
import hashlib

import numpy as np

from repro.experiments.datasets import (
    _EVOLVING_SPECS,
    _SPECS,
    DATASETS,
    EVOLVING,
    load_dataset,
    load_evolving,
)
from repro.graphs.generators import dcsbm, erdos_renyi
from repro.tasks.split import link_prediction_split


def test_specs_cover_paper_tables():
    assert set(_SPECS) == {
        "wiki_lite", "blogcatalog_lite", "youtube_lite", "tweibo_lite",
        "orkut_lite", "twitter_lite", "friendster_lite",
    }
    assert set(_EVOLVING_SPECS) == {"vk_lite", "digg_lite"}


def test_small_dataset_matches_spec():
    b = load_dataset("wiki_lite")
    assert b.graph.n == 2400 and b.graph.m == 93_000
    assert b.graph.directed
    assert b.labels is not None and len(np.unique(b.labels)) == 20
    assert b.paper_name == "Wiki"


def test_directedness_matches_paper():
    assert load_dataset("tweibo_lite").graph.directed
    assert not load_dataset("blogcatalog_lite").graph.directed


def test_unlabeled_datasets():
    # Twitter/Friendster carry no labels in the paper (Table 3)
    assert load_dataset("twitter_lite").labels is None


def test_caching_returns_same_object():
    assert load_dataset("wiki_lite") is load_dataset("wiki_lite")


def test_evolving_dataset():
    g_old, new, paper = load_evolving("digg_lite")
    assert paper == "Digg" and g_old.directed
    assert g_old.m == 22_000 and new.shape == (15_000, 2)


def test_directed_dataset_has_asymmetric_roles():
    # directed DC-SBM draws independent in/out propensities, so in- and
    # out-degree sequences must decorrelate (direction carries signal)
    g = load_dataset("wiki_lite").graph
    r = np.corrcoef(g.d_out, g.d_in)[0, 1]
    assert r < 0.9


def _sha(*arrays) -> str:
    """First 16 hex digits of the SHA-256 of the arrays' dtypes, shapes and
    bytes, in order; ``None`` (an unlabeled dataset) hashes as a marker."""
    h = hashlib.sha256()
    for a in arrays:
        if a is None:
            h.update(b"None")
            continue
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


#: hashes of every generated input that a results CSV or the benchmark reads
PINNED = {
    "wiki_lite": "84cb10970c0debfa",
    "blogcatalog_lite": "3e0f62331de64944",
    "youtube_lite": "5259c86da29a390d",
    "tweibo_lite": "d852f8bb691db115",
    "orkut_lite": "d3c09e385aa0b95d",
    "twitter_lite": "94197287b4832586",
    "friendster_lite": "7d3dc44afada4853",
    "vk_lite": "726874a8510e424f",
    "digg_lite": "48f6f9e4dcc00622",
    "er60k seed 1": "974463db4b08df22",
    "dcsbm2k split seed 1": "49097c5a8b604e11",
}


def test_generated_inputs_keep_their_bits():
    """The edges and labels of every lite dataset, the (old edges, new
    edges) of both evolving sets, and the benchmark's two inputs at seed 1
    hash as pinned. A change to a generator or a sampler that moves a bit
    fails here, although every results CSV reads these graphs. The hashes
    pin numpy's RNG streams as well (numpy 1.26.4 here): another numpy may
    draw other bits, and then the pins are retaken, not the code changed."""
    got = {}
    for name in DATASETS:
        b = load_dataset(name)
        got[name] = _sha(b.graph.edges, b.labels)
    for name in EVOLVING:
        g_old, new, _ = load_evolving(name)
        got[name] = _sha(g_old.edges, new)
    got["er60k seed 1"] = _sha(erdos_renyi(60_000, 600_000, seed=1).edges)
    g, _ = dcsbm(2000, 30_000, 10, directed=True, p_in=0.5, closure=0.25,
                 seed=1)
    sp = link_prediction_split(g, frac=0.3, seed=1)
    got["dcsbm2k split seed 1"] = _sha(
        sp.train.edges, sp.test_pairs, sp.test_labels
    )
    assert got == PINNED
