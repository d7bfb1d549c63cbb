"""Multilevel k-way partitioning by recursive bisection (METIS stand-in).

Pipeline per bisection: coarsen with heavy-edge matching until the graph
is small (or stops shrinking), bisect the coarsest graph with greedy
graph growing, then uncoarsen — projecting the bisection up one level at
a time and running FM refinement at every level.  k-way partitions come
from recursive bisection with proportional weight targets, which handles
any k (not just powers of two).

The paper uses METIS to partition meshes into blocks of a given size
before assigning blocks to processors; :func:`partition_mesh_blocks` is
that entry point.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.partition.coarsen import contract, heavy_edge_matching
from repro.partition.graph import PartGraph
from repro.partition.initial import greedy_graph_growing
from repro.partition.refine import fm_refine
from repro.util.errors import PartitionError
from repro.util.rng import as_rng

__all__ = ["multilevel_bisect", "partition_graph", "partition_mesh_blocks"]

#: Stop coarsening below this many vertices.
COARSEST_SIZE = 64
#: Stop coarsening when a level shrinks the graph by less than this factor.
MIN_SHRINK = 0.95


def multilevel_bisect(
    g: PartGraph,
    target_weight: int,
    seed=None,
    imbalance: float = 0.05,
) -> np.ndarray:
    """Bisect ``g``; returns bool array (True = side 1 of ~target_weight)."""
    rng = as_rng(seed)
    # Coarsening phase.
    levels = []
    current = g
    while current.n > COARSEST_SIZE:
        match = heavy_edge_matching(current, rng)
        level = contract(current, match)
        if level.graph.n >= current.n * MIN_SHRINK:
            break  # matching stalled (e.g. star graphs); give up coarsening
        levels.append(level)
        current = level.graph

    side = greedy_graph_growing(current, target_weight, rng)
    side = fm_refine(current, side, target_weight, imbalance=imbalance)

    # Uncoarsening with per-level refinement.
    for li in range(len(levels) - 1, -1, -1):
        side = side[levels[li].fine_to_coarse]
        finer = levels[li - 1].graph if li > 0 else g
        side = fm_refine(finer, side, target_weight, imbalance=imbalance)
    return side


def partition_graph(
    g: PartGraph,
    n_parts: int,
    seed=None,
    imbalance: float = 0.05,
) -> np.ndarray:
    """k-way partition by recursive bisection; returns part id per vertex."""
    if n_parts <= 0:
        raise PartitionError(f"n_parts must be positive, got {n_parts}")
    rng = as_rng(seed)
    out = np.zeros(g.n, dtype=np.int64)
    if n_parts > 1 and g.n:
        _recurse(g, np.arange(g.n, dtype=np.int64), n_parts, 0, out, rng, imbalance)
    return out


def _recurse(
    g: PartGraph,
    vertices: np.ndarray,
    n_parts: int,
    first_part: int,
    out: np.ndarray,
    rng,
    imbalance: float,
) -> None:
    """Label ``vertices`` with parts ``first_part..first_part+n_parts-1``.

    ``g`` is the subgraph induced on ``vertices``, so each recursion level
    extracts its halves from its own graph, not from the whole one.
    """
    left_parts = n_parts // 2
    right_parts = n_parts - left_parts
    # Proportional target: the right side receives right/total of the weight.
    target = int(round(g.total_vertex_weight * right_parts / n_parts))
    side = multilevel_bisect(g, target, seed=rng, imbalance=imbalance)
    for half, parts, first in (
        (~side, left_parts, first_part),
        (side, right_parts, first_part + left_parts),
    ):
        if parts == 1 or not half.any():
            out[vertices[half]] = first
        else:
            _recurse(_subgraph(g, half), vertices[half], parts, first, out, rng, imbalance)


def _subgraph(g: PartGraph, keep: np.ndarray) -> PartGraph:
    """Induced subgraph on the vertices where ``keep`` is True, relabelled
    0..k-1 in order.

    The relabelling is monotone, so filtering the CSR keeps the order
    :meth:`PartGraph.from_edges` gives each row (higher neighbors
    ascending, then lower ones ascending): the result is array for array
    the graph ``from_edges`` would build from the induced edge list.
    """
    n = int(np.count_nonzero(keep))
    remap = np.cumsum(keep, dtype=np.int64) - 1
    entries = keep[g.rows] & keep[g.adjncy]
    rows = remap[g.rows[entries]]
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=xadj[1:])
    return PartGraph(
        n, xadj, remap[g.adjncy[entries]], g.adjwgt[entries], g.vwgt[keep], rows=rows
    )


def partition_mesh_blocks(
    n_cells: int,
    cell_edges: np.ndarray,
    block_size: int,
    seed=None,
    imbalance: float = 0.05,
    cell_weights: np.ndarray | None = None,
) -> np.ndarray:
    """Partition a cell graph into blocks of roughly ``block_size`` cells.

    The paper's experiments sweep block sizes 64/128/256; a block size of
    1 degenerates to one cell per block (i.e. the per-cell assignment of
    Algorithms 1–3).  Returns the cell→block labelling to feed
    :func:`repro.core.assignment.block_assignment`.

    ``cell_weights`` balances blocks by *work* instead of cell count —
    pass per-cell sweep costs (or volumes) for heterogeneous meshes; the
    block count still comes from ``n_cells / block_size``.  Weights must
    be positive integers (scale floats before quantising).
    """
    if block_size <= 0:
        raise PartitionError(f"block_size must be positive, got {block_size}")
    n_blocks = max(1, math.ceil(n_cells / block_size))
    with obs.span(
        "partition.blocks",
        cat="partition",
        args_fn=lambda: {
            "n": n_cells,
            "block_size": block_size,
            "levels": (n_blocks - 1).bit_length(),  # bisection depth
        },
    ):
        if n_cells == 0:
            return np.empty(0, dtype=np.int64)
        if block_size == 1:
            return np.arange(n_cells, dtype=np.int64)
        if n_blocks == 1:
            return np.zeros(n_cells, dtype=np.int64)
        if cell_weights is not None:
            cell_weights = np.asarray(cell_weights)
            if cell_weights.shape != (n_cells,):
                raise PartitionError("cell_weights must have one entry per cell")
            if not np.issubdtype(cell_weights.dtype, np.integer):
                raise PartitionError("cell_weights must be integers (quantise first)")
            if n_cells and cell_weights.min() <= 0:
                raise PartitionError("cell_weights must be positive")
        g = PartGraph.from_edges(n_cells, cell_edges, node_weights=cell_weights)
        return partition_graph(g, n_blocks, seed=seed, imbalance=imbalance)
