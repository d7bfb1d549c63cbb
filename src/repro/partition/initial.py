"""Initial bisection of the coarsest graph: greedy graph growing (GGGP).

Grow one side from a random seed, always absorbing the frontier vertex
whose move improves the cut most (max gain), until the side reaches its
target weight.  Several seeds are tried and the best cut wins.  On the
~100-vertex coarsest graphs this is both fast and close to optimal, and
FM refinement cleans up the rest during uncoarsening.

Growth absorbs one vertex at a time, so it runs on plain lists (the CSR
arrays are converted once per try).
"""

from __future__ import annotations

from heapq import heappush, heappop

import numpy as np

from repro.partition.graph import PartGraph

__all__ = ["greedy_graph_growing", "bisection_cut"]


def bisection_cut(g: PartGraph, side: np.ndarray) -> int:
    """Total weight of edges crossing the bisection ``side`` (bool array)."""
    cross = side[g.rows] != side[g.adjncy]
    # CSR stores each undirected edge twice.
    return int(g.adjwgt[cross].sum() // 2)


def greedy_graph_growing(
    g: PartGraph,
    target_weight: int,
    rng,
    tries: int = 4,
) -> np.ndarray:
    """Bisect ``g``; returns a bool array, True = side 1.

    Side 1 is grown to weight ``>= target_weight`` (but a single vertex
    never splits, so the achieved weight can overshoot by one vertex).
    """
    best_side = None
    best_cut = None
    total = g.total_vertex_weight
    target_weight = int(min(max(target_weight, 0), total))
    for _ in range(max(tries, 1)):
        side = _grow_once(g, target_weight, rng)
        cut = bisection_cut(g, side)
        if best_cut is None or cut < best_cut:
            best_side, best_cut = side, cut
    return best_side


def _grow_once(g: PartGraph, target_weight: int, rng) -> np.ndarray:
    if g.n == 0 or target_weight == 0:
        return np.zeros(g.n, dtype=bool)
    xadj = g.xadj.tolist()
    adjncy = g.adjncy.tolist()
    adjwgt = g.adjwgt.tolist()
    vwgt = g.vwgt.tolist()
    side = [False] * g.n
    grown = 0
    # gain[v] = (weight to side 1) - (weight to side 0); larger = better.
    gain = [0] * g.n
    heap = [(0, int(rng.integers(g.n)))]
    while grown < target_weight:
        v = None
        while heap:
            negg, cand = heappop(heap)
            if not side[cand] and -negg == gain[cand]:
                v = cand
                break
        if v is None:
            # Disconnected remainder: restart from an unabsorbed vertex.
            left = [u for u in range(g.n) if not side[u]]
            if not left:
                break
            v = left[rng.integers(len(left))]
        side[v] = True
        grown += vwgt[v]
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if not side[u]:
                gain[u] += 2 * adjwgt[idx]  # u's edge to v flips from cut to internal
                heappush(heap, (-gain[u], u))
    return np.array(side, dtype=bool)
