"""Coarsening via randomized heavy-edge matching (the METIS recipe).

One coarsening level = (i) a maximal matching preferring heavy edges,
(ii) contraction of matched pairs into coarse vertices whose weights add
and whose parallel edges merge.  Heavy-edge matching keeps large edge
weights *inside* coarse vertices, so the coarse graph's cuts track the
fine graph's cuts — the property multilevel partitioning rests on.

The matching visits vertices one at a time, so it runs on plain lists
(the CSR arrays are converted once per call); contraction is vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import PartGraph

__all__ = ["heavy_edge_matching", "contract", "CoarseLevel"]


class CoarseLevel:
    """One level of the coarsening hierarchy: the coarse graph plus the
    fine→coarse vertex map needed to project partitions back down."""

    __slots__ = ("graph", "fine_to_coarse")

    def __init__(self, graph: PartGraph, fine_to_coarse: np.ndarray):
        self.graph = graph
        self.fine_to_coarse = fine_to_coarse


def heavy_edge_matching(g: PartGraph, rng) -> np.ndarray:
    """Maximal matching; ``match[v]`` is v's partner (or v if unmatched).

    Vertices are visited in random order; each unmatched vertex grabs its
    heaviest unmatched neighbor.  Random visiting order is what makes
    repeated multilevel runs explore different hierarchies.
    """
    match = list(range(g.n))
    visited = [False] * g.n
    xadj = g.xadj.tolist()
    adjncy = g.adjncy.tolist()
    adjwgt = g.adjwgt.tolist()
    for v in rng.permutation(g.n).tolist():
        if visited[v]:
            continue
        visited[v] = True
        best, best_w = -1, -1
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if not visited[u]:
                w = adjwgt[idx]
                if w > best_w:
                    best, best_w = u, w
        if best >= 0:
            visited[best] = True
            match[v] = best
            match[best] = v
    return np.array(match, dtype=np.int64)


def contract(g: PartGraph, match: np.ndarray) -> CoarseLevel:
    """Contract matched pairs into a coarse :class:`PartGraph`."""
    # Coarse id: pairs share the id of their smaller endpoint.
    rep = np.minimum(np.arange(g.n, dtype=np.int64), match)
    uniq, fine_to_coarse = np.unique(rep, return_inverse=True)
    nc = uniq.size

    # Coarse vertex weights: sum of constituents.
    cvwgt = np.zeros(nc, dtype=np.int64)
    np.add.at(cvwgt, fine_to_coarse, g.vwgt)

    # Coarse edges: map every fine directed CSR entry, drop intra-pair
    # entries, merge the rest.  PartGraph.from_edges handles merging, but
    # the CSR holds each edge twice; halve by keeping src < dst.
    csrc = fine_to_coarse[g.rows]
    cdst = fine_to_coarse[g.adjncy]
    keep = csrc < cdst
    edges = np.stack([csrc[keep], cdst[keep]], axis=1)
    weights = g.adjwgt[keep]
    coarse = PartGraph.from_edges(nc, edges, edge_weights=weights, node_weights=cvwgt)
    return CoarseLevel(coarse, fine_to_coarse)
