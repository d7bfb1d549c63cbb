"""Frozen crc32 goldens of the multilevel partitioner's block labels.

Every grid cell with a block size > 1 schedules on these labels, so a
change to coarsening, initial growth or refinement that moves one cell
to another block changes every blocked result.  The goldens pin the
labels of each mesh family at about 600 cells (block sizes 16 and 64)
and of one paper-scale mesh; a rewrite of the partitioner for speed
must keep them.  Further goldens reach the paths the mesh cases miss:
non-unit vertex weights, a non-default imbalance, and a disconnected
graph, whose greedy growing restarts from a random unabsorbed vertex.
The build cache is an exact substitute: a disk hit
returns the bytes a fresh partition computes.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro import cache as build_cache
from repro.experiments import runner
from repro.mesh import Mesh
from repro.mesh.generators import MESH_GENERATORS, make_mesh
from repro.partition import PartGraph
from repro.partition.multilevel import partition_graph, partition_mesh_blocks

#: (mesh, target_cells, block_size) -> (n_cells, crc32 of int64 labels),
#: mesh seed 0 and partition seed 0.
LABEL_CRC32 = {
    ("tetonly", 600, 16): (444, 2538374741),
    ("tetonly", 600, 64): (444, 1302774354),
    ("well_logging", 600, 16): (457, 348668925),
    ("well_logging", 600, 64): (457, 543316363),
    ("long", 600, 16): (438, 3144917808),
    ("long", 600, 64): (438, 2514931256),
    ("prismtet", 600, 16): (442, 2735336586),
    ("prismtet", 600, 64): (442, 4214933791),
    ("graded", 600, 16): (469, 1854390273),
    ("graded", 600, 64): (469, 11584718),
    ("square2d", 600, 16): (582, 3777895976),
    ("square2d", 600, 64): (582, 1426611109),
}

#: The paper-scale cases: tetonly at fig2a's 31,481 target cells, block
#: 64; long at fig3a's 61,737, block 64; well_logging at fig3c's 43,012,
#: block 128.
PAPER_LABEL_CRC32 = {
    ("tetonly", 31481, 64): (30986, 989428130),
    ("long", 61737, 64): (60810, 616101580),
    ("well_logging", 43012, 128): (44794, 2702943129),
}

#: tetonly at 600 cells, block 64, with integer cell weights in [1, 4]
#: drawn from ``default_rng(1)``.
WEIGHTED_CRC32 = (444, 1905592095)
#: tetonly at 600 cells, block 64, ``imbalance=0.2``.
IMBALANCE_CRC32 = (444, 1996186649)
#: ``partition_graph(_disconnected_graph(), 6, seed=0)``.
DISCONNECTED_CRC32 = (114, 3304943620)


def _fresh_labels(mesh: str, cells: int, block_size: int) -> np.ndarray:
    m = make_mesh(mesh, target_cells=cells, seed=0)
    return partition_mesh_blocks(m.n_cells, m.adjacency, block_size, seed=0)


def _crc(labels: np.ndarray) -> tuple[int, int]:
    assert labels.dtype == np.int64
    return len(labels), zlib.crc32(np.ascontiguousarray(labels).tobytes())


def _disconnected_graph() -> PartGraph:
    """Six disjoint grids of uneven size plus seven isolated vertices."""
    edges, offset = [], 0
    for shape in [(6, 5), (3, 3), (9, 4), (2, 2), (5, 5), (1, 3)]:
        grid = Mesh.structured_grid(shape)
        edges.append(np.asarray(grid.adjacency) + offset)
        offset += grid.n_cells
    return PartGraph.from_edges(offset + 7, np.concatenate(edges))


def test_goldens_cover_every_mesh_family():
    assert {mesh for mesh, _, _ in LABEL_CRC32} == set(MESH_GENERATORS)


@pytest.mark.parametrize("case", sorted(LABEL_CRC32))
def test_labels_match_golden(case):
    assert _crc(_fresh_labels(*case)) == LABEL_CRC32[case]


def test_weighted_labels_match_golden():
    m = make_mesh("tetonly", target_cells=600, seed=0)
    weights = np.random.default_rng(1).integers(1, 5, m.n_cells)
    labels = partition_mesh_blocks(
        m.n_cells, m.adjacency, 64, seed=0, cell_weights=weights
    )
    assert _crc(labels) == WEIGHTED_CRC32


def test_imbalance_labels_match_golden():
    m = make_mesh("tetonly", target_cells=600, seed=0)
    labels = partition_mesh_blocks(m.n_cells, m.adjacency, 64, seed=0, imbalance=0.2)
    assert _crc(labels) == IMBALANCE_CRC32


def test_disconnected_labels_match_golden():
    assert _crc(partition_graph(_disconnected_graph(), 6, seed=0)) == DISCONNECTED_CRC32


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(PAPER_LABEL_CRC32))
def test_paper_scale_labels_match_golden(case):
    assert _crc(_fresh_labels(*case)) == PAPER_LABEL_CRC32[case]


@pytest.mark.parametrize("mesh", ["tetonly", "square2d"])
def test_disk_hit_returns_fresh_partition_bytes(mesh, tmp_path, monkeypatch):
    monkeypatch.setenv(build_cache.DIR_ENV, str(tmp_path))
    build_cache.reset_counters()
    try:
        _, stored = runner.load_or_build(mesh, 600, 0, None, (16, 64))
        _, loaded = runner.load_or_build(mesh, 600, 0, None, (16, 64))
        assert build_cache.COUNTERS["blocks.miss"] == 2
        assert build_cache.COUNTERS["blocks.hit"] == 2
    finally:
        build_cache.reset_counters()
    for size in (16, 64):
        fresh = _fresh_labels(mesh, 600, size)
        assert not loaded[size].flags.writeable
        assert loaded[size].dtype == fresh.dtype
        assert loaded[size].tobytes() == stored[size].tobytes() == fresh.tobytes()
        assert _crc(loaded[size]) == LABEL_CRC32[(mesh, 600, size)]
