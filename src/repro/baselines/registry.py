"""Method registry: one entry per embedding method evaluated in the
reproduction, with the capability flags the harness needs (dual vectors,
scale caps mirroring the paper's 7-day cutoff, category)."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.factorization import arope, netmf, prone, randne, strap
from repro.baselines.neural import gae
from repro.baselines.walkers import app, deepwalk, line, verse
from repro.core.approxppr import approxppr
from repro.core.nrp import nrp
from repro.embedding import Embedding
from repro.graphs.edgelist import LocalGraph


def _nrp_embed(g: LocalGraph, k: int, *, seed: int) -> Embedding:
    # lam=1 is the lite-scale analogue of the paper's lam=10: the
    # regularizer must stay small against degree-residual terms that are
    # ~2 orders of magnitude smaller on graphs 40-1000x below paper scale
    res = nrp(g, k, lam=1.0, seed=seed)
    return Embedding(X=res.X, Y=res.Y, name="nrp")


def _approxppr_embed(g: LocalGraph, k: int, *, seed: int) -> Embedding:
    X, Y = approxppr(g, max(k // 2, 1), seed=seed)
    return Embedding(X=X, Y=Y, name="approxppr")


@dataclass(frozen=True)
class Method:
    name: str
    fn: Callable[..., Embedding]      # (g, k, *, seed) -> Embedding
    group: str                        # paper's category
    dual: bool                        # produces forward + backward vectors
    max_n: int | None = None          # scale cap (paper's 7-day analogue)

    def fits(self, g: LocalGraph) -> bool:
        """Whether ``g`` is within the scale cap; the harness reports the
        graphs that are not as excluded rows."""
        return self.max_n is None or g.n <= self.max_n

    def embed(self, g: LocalGraph, k: int, seed: int = 0) -> Embedding:
        if not self.fits(g):
            raise ValueError(
                f"{self.name} capped at n <= {self.max_n} (got {g.n})"
            )
        return self.fn(g, k, seed=seed)


METHODS: dict[str, Method] = {
    "nrp": Method("nrp", _nrp_embed, "ours", True, None),
    "approxppr": Method("approxppr", _approxppr_embed, "ours", True, None),
    "strap": Method("strap", strap, "factorization", True, 6000),
    "arope": Method("arope", arope, "factorization", False, None),
    "randne": Method("randne", randne, "factorization", False, None),
    "prone": Method("prone", prone, "factorization", False, None),
    "netmf": Method("netmf", netmf, "factorization", False, 4000),
    # SGNS / neural caps mirror the paper's 7-day cutoff at our scale:
    # numpy SGD over walks is exactly the cost the paper's Fig. 7 punishes
    "deepwalk": Method("deepwalk", deepwalk, "random-walk", False, 5000),
    "line": Method("line", line, "random-walk", False, 12000),
    "app": Method("app", app, "random-walk", True, 5000),
    "verse": Method("verse", verse, "random-walk", False, 5000),
    "gae": Method("gae", gae, "neural", False, 2500),
}


def get_method(name: str) -> Method:
    try:
        return METHODS[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; available: {sorted(METHODS)}"
        ) from None
