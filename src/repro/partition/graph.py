"""Undirected weighted graph container for partitioning.

Partitioning operates on the *cell graph* of the mesh (vertices = cells,
edges = shared faces).  The container is METIS-style CSR: ``xadj`` /
``adjncy`` / ``adjwgt`` plus vertex weights ``vwgt``.  Construction
symmetrises the input edge list, merges parallel edges (summing weights),
and drops self-loops — the invariants every downstream pass relies on.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import PartitionError

__all__ = ["PartGraph"]


class PartGraph:
    """CSR undirected weighted graph.

    Attributes
    ----------
    n:
        Vertex count.
    xadj, adjncy:
        CSR offsets and neighbor lists; every undirected edge appears in
        both endpoints' lists.
    adjwgt:
        Edge weights aligned with ``adjncy``.
    vwgt:
        Vertex weights (coarse vertices accumulate the weights of the
        fine vertices they contract).
    rows:
        Source vertex of every CSR entry (aligned with ``adjncy``), for
        vectorised passes over all directed edges.
    """

    __slots__ = ("n", "xadj", "adjncy", "adjwgt", "vwgt", "rows")

    def __init__(self, n, xadj, adjncy, adjwgt, vwgt, rows=None):
        self.n = int(n)
        self.xadj = xadj
        self.adjncy = adjncy
        self.adjwgt = adjwgt
        self.vwgt = vwgt
        if rows is None:
            rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(xadj))
        self.rows = rows

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: np.ndarray,
        edge_weights: np.ndarray | None = None,
        node_weights: np.ndarray | None = None,
    ) -> "PartGraph":
        """Build from an undirected edge list (any orientation, dups ok)."""
        if n < 0:
            raise PartitionError(f"vertex count must be >= 0, got {n}")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise PartitionError(f"edge endpoints must lie in [0, {n})")
        if edge_weights is None:
            edge_weights = np.ones(edges.shape[0], dtype=np.int64)
        else:
            edge_weights = np.asarray(edge_weights, dtype=np.int64)
            if edge_weights.shape != (edges.shape[0],):
                raise PartitionError("edge_weights must match the edge count")
        if node_weights is None:
            node_weights = np.ones(n, dtype=np.int64)
        else:
            node_weights = np.asarray(node_weights, dtype=np.int64)
            if node_weights.shape != (n,):
                raise PartitionError("node_weights must have one entry per vertex")

        keep = edges[:, 0] != edges[:, 1]
        edges = edges[keep]
        edge_weights = edge_weights[keep]

        # Canonicalise (lo, hi), merge parallel edges by summing weights.
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        if lo.size:
            key = lo * n + hi
            uniq, inv = np.unique(key, return_inverse=True)
            w = np.zeros(uniq.size, dtype=np.int64)
            np.add.at(w, inv, edge_weights)
            lo, hi = uniq // n, uniq % n
        else:
            w = edge_weights

        # Symmetric CSR: each edge contributes both (lo→hi) and (hi→lo).
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        ww = np.concatenate([w, w])
        order = np.argsort(src, kind="stable")
        adjncy = dst[order]
        adjwgt = ww[order]
        counts = np.bincount(src, minlength=n)
        xadj = np.empty(n + 1, dtype=np.int64)
        xadj[0] = 0
        np.cumsum(counts, out=xadj[1:])
        return cls(n, xadj, adjncy, adjwgt, node_weights, rows=src[order])

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights_of(self, v: int) -> np.ndarray:
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    @property
    def total_vertex_weight(self) -> int:
        return int(self.vwgt.sum())

    @property
    def num_undirected_edges(self) -> int:
        return int(self.adjncy.size // 2)

    def __repr__(self) -> str:
        return f"PartGraph(n={self.n}, edges={self.num_undirected_edges})"
