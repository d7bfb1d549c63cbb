"""Spectral bisection (Fiedler vector) — the classic partitioner.

Splits a graph at the median of the second-smallest eigenvector of its
Laplacian.  Included as a second serious partitioner beside the
multilevel pipeline: spectral cuts are globally informed (no coarsening
artifacts) but ignore balance constraints beyond the median split and
cost an eigensolve.  Recursive application yields k-way partitions.

Uses ``scipy.sparse.linalg.eigsh`` on the shifted Laplacian, with a
dense ``numpy.linalg.eigh`` fallback for tiny or ill-conditioned
subproblems — robust across the disconnected subgraphs recursion can
produce.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.partition.graph import PartGraph
from repro.partition.refine import fm_refine
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = ["fiedler_vector", "spectral_bisect", "spectral_partition"]


def _laplacian(g: PartGraph):
    src = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.xadj))
    data = g.adjwgt.astype(np.float64)
    adj = coo_matrix((data, (src, g.adjncy)), shape=(g.n, g.n)).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    from scipy.sparse import diags

    return diags(deg) - adj


def fiedler_vector(g: PartGraph) -> np.ndarray:
    """Second-smallest Laplacian eigenvector.

    For disconnected graphs the algebraic connectivity is 0 and the
    "Fiedler" vector separates components, which is exactly the split a
    partitioner wants, so no special-casing is needed.
    """
    if g.n < 2:
        raise PartitionError("Fiedler vector needs at least 2 vertices")
    lap = _laplacian(g)
    if g.n <= 64:
        _vals, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, 1]
    from scipy.sparse.linalg import eigsh

    # A fixed start makes ARPACK, and so the partition, reproducible.
    # Not the all-ones vector: that is the Laplacian's null vector, an
    # invariant start on which the Lanczos iteration breaks down.
    v0 = as_rng(0).random(g.n)
    try:
        # Shift-invert around 0 converges fast for the smallest modes.
        _vals, vecs = eigsh(lap, k=2, sigma=-1e-3, which="LM", v0=v0)
    except Exception:
        _vals, vecs = np.linalg.eigh(lap.toarray())
        return vecs[:, 1]
    order = np.argsort(_vals)
    return vecs[:, order[1]]


def spectral_bisect(g: PartGraph, refine: bool = True) -> np.ndarray:
    """Median split along the Fiedler vector (optionally FM-polished)."""
    fied = fiedler_vector(g)
    # Median split with deterministic tie-breaking by vertex id.
    order = np.lexsort((np.arange(g.n), fied))
    side = np.zeros(g.n, dtype=bool)
    side[order[g.n // 2 :]] = True
    if refine:
        target = int(g.vwgt[side].sum())
        side = fm_refine(g, side, target)
    return side


def spectral_partition(g: PartGraph, n_parts: int, refine: bool = True) -> np.ndarray:
    """k-way partition by recursive spectral bisection."""
    if n_parts <= 0:
        raise PartitionError(f"n_parts must be positive, got {n_parts}")
    out = np.zeros(g.n, dtype=np.int64)
    _recurse(g, np.arange(g.n, dtype=np.int64), n_parts, 0, out, refine)
    return out


def _recurse(g, vertices, n_parts, first, out, refine):
    if n_parts == 1 or vertices.size <= 1:
        out[vertices] = first
        return
    from repro.partition.multilevel import _subgraph

    sub = _subgraph(g, vertices)
    if sub.num_undirected_edges == 0:
        # No structure to cut: split by count.
        half = vertices.size * (n_parts // 2) // n_parts
        left, right = vertices[: vertices.size - half], vertices[vertices.size - half :]
    else:
        side = spectral_bisect(sub, refine=refine)
        # Proportional target: put ~right/total weight on side True.
        left, right = vertices[~side], vertices[side]
    lp = n_parts // 2
    rp = n_parts - lp
    _recurse(g, left, lp, first, out, refine)
    _recurse(g, right, rp, first + lp, out, refine)
