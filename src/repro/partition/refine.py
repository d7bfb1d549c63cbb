"""Fiduccia–Mattheyses boundary refinement for a bisection.

Each pass tentatively moves unlocked vertices one at a time — always the
best-gain move that keeps the bisection inside the balance tolerance —
recording the cumulative cut after every move, then rolls back to the
best prefix.  Passes repeat until a pass fails to improve the cut.

Gains update incrementally (only a moved vertex's neighbors change), and
an early-exit counter abandons a pass after a long non-improving streak,
which keeps refinement near-linear per level in practice.

The move loop is per-vertex Python, so it runs on plain lists: the CSR
arrays are converted once per :func:`fm_refine` call, and side, gain and
lock flags are lists inside a pass.  Only the initial gains are a numpy
pass.  Heap keys are ``(-gain, v)``, which are totally ordered, so pop
order (and with it every label) does not depend on how a heap was built.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

import numpy as np

from repro.partition.graph import PartGraph

__all__ = ["fm_refine"]


def fm_refine(
    g: PartGraph,
    side: np.ndarray,
    target_weight: int,
    imbalance: float = 0.05,
    max_passes: int = 8,
) -> np.ndarray:
    """Refine bisection ``side``; returns the improved array.

    Parameters
    ----------
    side:
        Bool array, ``True`` = side 1.  Not mutated; a copy is returned.
    target_weight:
        Desired total vertex weight of side 1.
    imbalance:
        Allowed relative deviation of side 1 from ``target_weight``.
    """
    side = side.copy()
    if g.n <= 1:
        return side
    total = g.total_vertex_weight
    max_vw = int(g.vwgt.max())
    # Side-1 weight must stay inside [lo, hi]; a single heavy vertex can
    # force overshoot, so widen by the largest vertex weight.
    lo = max(0, int(target_weight * (1 - imbalance)) - max_vw)
    hi = min(total, int(target_weight * (1 + imbalance)) + max_vw)

    csr = (g.xadj.tolist(), g.adjncy.tolist(), g.adjwgt.tolist(), g.vwgt.tolist())
    for _ in range(max_passes):
        sides, improved = _one_pass(g, csr, side, lo, hi)
        side[:] = sides
        if not improved:
            break
    return side


def _gains(g: PartGraph, side: np.ndarray) -> np.ndarray:
    """gain[v] = (cut weight removed) - (cut weight added) if v moves."""
    cross = side[g.rows] != side[g.adjncy]
    signed = np.where(cross, g.adjwgt, -g.adjwgt)
    return np.bincount(g.rows, weights=signed, minlength=g.n).astype(np.int64)


def _one_pass(g: PartGraph, csr, side_arr: np.ndarray, lo: int, hi: int):
    """One FM pass; returns ``(side as a list, whether the cut improved)``."""
    xadj, adjncy, adjwgt, vwgt = csr
    side = side_arr.tolist()
    gain_arr = _gains(g, side_arr)
    gain = gain_arr.tolist()
    locked = [False] * g.n
    w1 = int(g.vwgt[side_arr].sum())
    # One heap per side, indexed by the vertex's current side.
    heaps = tuple(
        list(zip((-gain_arr[ids]).tolist(), ids.tolist()))
        for ids in (np.flatnonzero(~side_arr), np.flatnonzero(side_arr))
    )
    for heap in heaps:
        heapify(heap)

    moves: list[int] = []
    cum = 0
    best_cum = 0
    best_len = 0
    stall = 0
    stall_limit = 64 + g.n // 16

    while stall < stall_limit:
        v = _pop_feasible(heaps, gain, locked, side, vwgt, w1, lo, hi)
        if v is None:
            break
        from_side = side[v]
        locked[v] = True
        cum += gain[v]
        side[v] = to_side = not from_side
        w1 += -vwgt[v] if from_side else vwgt[v]
        moves.append(v)
        # Incremental gain update: v's own gain flips sign; each unlocked
        # neighbor's gain shifts by ±2w depending on whether it now shares
        # v's side.
        gain[v] = -gain[v]
        for idx in range(xadj[v], xadj[v + 1]):
            u = adjncy[idx]
            if locked[u]:
                continue
            su = side[u]
            if su == to_side:
                gu = gain[u] - 2 * adjwgt[idx]
            else:
                gu = gain[u] + 2 * adjwgt[idx]
            gain[u] = gu
            heappush(heaps[su], (-gu, u))
        if cum > best_cum:
            best_cum = cum
            best_len = len(moves)
            stall = 0
        else:
            stall += 1

    # Roll back moves past the best prefix.
    for v in moves[best_len:]:
        side[v] = not side[v]
    return side, best_cum > 0


def _pop_feasible(heaps, gain, locked, side, vwgt, w1, lo, hi):
    """Best-gain unlocked vertex whose move keeps side-1 weight in [lo, hi].

    Moving from side 1 shrinks w1; from side 0 grows it.  Tries both heaps
    and returns the better feasible candidate, larger ``(gain, v)`` first
    (lazy-invalidation pops).
    """
    best = None
    for from_side in (True, False):
        heap = heaps[from_side]
        while heap:
            negg, v = heap[0]
            if locked[v] or side[v] != from_side or -negg != gain[v]:
                heappop(heap)
                continue
            new_w1 = w1 - vwgt[v] if from_side else w1 + vwgt[v]
            if lo <= new_w1 <= hi and (best is None or (-negg, v) > best):
                best = (-negg, v)
            break
    if best is None:
        return None
    v = best[1]
    # Remove it from its heap (it is at the top).
    heappop(heaps[side[v]])
    return v
