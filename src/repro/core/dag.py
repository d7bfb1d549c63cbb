"""Compressed-sparse-row DAG used throughout the scheduler.

Every per-direction dependency graph :math:`G_i` of the sweep-scheduling
problem is stored as a :class:`Dag`: a fixed vertex set ``0..n-1`` plus a
directed edge array.  Adjacency is kept in CSR form (offsets + targets) so
the hot loops of the schedulers — indegree updates, level construction,
longest-path passes — are numpy-vectorised rather than per-edge Python.

Terminology follows the paper:

* *levels* (a.k.a. layers): ``L_j`` is the set of vertices with no
  predecessors once ``L_1 .. L_{j-1}`` are removed (Section 3).  We store
  them 0-indexed.
* a *root* (source) has indegree 0; a *leaf* (sink) has outdegree 0.
* the *b-level* of a vertex is the number of vertices on the longest path
  from it to a leaf (counting both endpoints), as used by DFDS [Pautz 02].
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # for annotations only; networkx stays a lazy import
    import networkx as nx

import numpy as np

from repro import obs
from repro.util.errors import InvalidInstanceError

__all__ = [
    "Dag",
    "csr_from_edges",
    "batch_csr_from_edges",
    "batch_levels",
    "level_groups",
    "DESC_CHUNK_BITS",
]

#: Column width of one bitset chunk in :meth:`Dag.descendant_counts`:
#: 64 words of 64 bits, 512 bytes per vertex row.
DESC_CHUNK_BITS = 64 * 64

#: Test-only fault-injection point for the reverse-level mutation-kill
#: suite (``tests/test_priority_reduction.py``).  One of ``None``
#: (production) or ``"level_off_by_one"`` (every level boundary of
#: :meth:`Dag.reverse_level_layout` slips by one parent, so each level's
#: first parent is reduced with the level below it, before its children
#: are final).  Never set outside tests.
_MUTATION = None


def csr_from_edges(
    n: int, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR adjacency (offsets, targets) from parallel edge arrays.

    Returns ``(offsets, targets)`` where the successors of ``v`` are
    ``targets[offsets[v]:offsets[v+1]]``.  Runs in O(E log E) (one argsort).
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise InvalidInstanceError(
            f"src and dst must have matching shapes; got {src.shape} and {dst.shape}"
        )
    order = np.argsort(src, kind="stable")
    targets = np.ascontiguousarray(dst[order])
    counts = np.bincount(src, minlength=n)
    offsets = np.empty(n + 1, dtype=np.int64)
    offsets[0] = 0
    np.cumsum(counts, out=offsets[1:])
    return offsets, targets


def batch_csr_from_edges(
    n: int, edges: np.ndarray, counts: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Successor CSR for ``k`` same-vertex-set DAGs in one stable argsort.

    ``edges`` is the ``(sum(counts), 2)`` concatenation of the per-DAG
    edge arrays (each on vertices ``0..n-1``, in DAG order) and
    ``counts[i]`` is DAG ``i``'s edge count.  One stable argsort over the
    union keys ``i * n + src`` sorts every DAG's edges by source at once;
    within a DAG the relative order of equal sources matches that DAG's
    own stable sort, so each returned ``(offsets, targets)`` pair is
    bit-identical to :func:`csr_from_edges` on that DAG's edges alone —
    while every ``targets`` array is a contiguous slice of one shared
    buffer (the batched construction path's memory layout).
    """
    counts = np.asarray(counts, dtype=np.int64)
    k = counts.shape[0]
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if int(counts.sum()) != edges.shape[0]:
        raise InvalidInstanceError(
            f"counts sum to {int(counts.sum())} but edges has "
            f"{edges.shape[0]} rows"
        )
    dag_of_edge = np.repeat(np.arange(k, dtype=np.int64), counts)
    keys = dag_of_edge * np.int64(n) + edges[:, 0]
    order = np.argsort(keys, kind="stable")
    targets_all = np.ascontiguousarray(edges[:, 1][order])
    per_vertex = np.bincount(keys, minlength=k * n).reshape(k, n)
    edge_starts = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(counts, out=edge_starts[1:])
    out = []
    for i in range(k):
        offsets = np.empty(n + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(per_vertex[i], out=offsets[1:])
        out.append(
            (offsets, targets_all[edge_starts[i] : edge_starts[i + 1]])
        )
    return out


def batch_levels(dags: list["Dag"]) -> np.ndarray:
    """Level structure of ``k`` same-size DAGs in one frontier sweep.

    Runs the level-peeling loop of :meth:`Dag._compute_levels` once over
    the block-diagonal union of all DAGs (task ids ``i * n + v``) instead
    of once per DAG: the union frontier advances every direction's
    wavefront simultaneously, so the Python-loop iteration count drops
    from ``sum_i depth_i`` to ``max_i depth_i``.  Levels are canonical
    (determined by graph structure alone) and each frontier chunk is
    sorted ascending, so the per-DAG ``level_of`` / ``num_levels`` /
    ``topological_order`` caches installed here are bit-identical to what
    each DAG would compute for itself; ``level_of`` views share one flat
    buffer, which is returned (it doubles as
    :meth:`repro.core.instance.SweepInstance.task_levels`).  Cyclic DAGs
    (possible only with ``validate=False`` construction) keep the ``-1``
    sentinel and ``num_levels == -1``, exactly like the per-DAG pass.
    """
    if not dags:
        return np.empty(0, dtype=np.int64)
    n = dags[0].n
    k = len(dags)
    for g in dags:
        if g.n != n:
            raise InvalidInstanceError(
                f"batch_levels needs same-size DAGs; got {g.n} and {n}"
            )
    level = np.full(k * n, -1, dtype=np.int64)
    if n == 0:
        for g in dags:
            g._level_of = level[:0]
            g._num_levels = 0
            g._topo_order = np.empty(0, dtype=np.int64)
        return level
    # Flat union CSR in task-id coordinates, assembled from the per-DAG
    # successor CSRs (already shared-buffer slices on the batched path).
    off_u = np.empty(k * n + 1, dtype=np.int64)
    off_u[0] = 0
    tgt_parts = []
    indeg_parts = []
    base = np.int64(0)
    for i, g in enumerate(dags):
        off, tgt = g.successor_csr()
        off_u[i * n + 1 : (i + 1) * n + 1] = off[1:] + base
        tgt_parts.append(tgt + np.int64(i * n))
        indeg_parts.append(g.indegree())
        base += np.int64(tgt.shape[0])
    tgt_u = (
        np.concatenate(tgt_parts) if tgt_parts else np.empty(0, dtype=np.int64)
    )
    indeg = np.concatenate(indeg_parts)
    frontier = np.flatnonzero(indeg == 0)
    depth = 0
    while frontier.size:
        level[frontier] = depth
        succ = _gather_csr(off_u, tgt_u, frontier)
        if succ.size:
            frontier = _decrement_indegrees(indeg, succ)
        else:
            frontier = np.empty(0, dtype=np.int64)
        depth += 1
    for i, g in enumerate(dags):
        lev = level[i * n : (i + 1) * n]
        g._level_of = lev
        if lev.min(initial=0) < 0:
            g._num_levels = -1
        else:
            g._num_levels = int(lev.max()) + 1
            g._topo_order = np.argsort(lev, kind="stable")
    return level


class Dag:
    """Immutable directed acyclic graph on vertices ``0..n-1``.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        ``(E, 2)`` integer array of ``(src, dst)`` pairs.  Parallel edges
        are allowed (they are harmless for scheduling) but self-loops are
        rejected.
    validate:
        When true (default), check vertex ranges and acyclicity eagerly.
        Pass ``False`` only for internally-constructed graphs that are
        already known to be valid.
    """

    __slots__ = (
        "n",
        "edges",
        "_succ_off",
        "_succ_tgt",
        "_pred_off",
        "_pred_tgt",
        "_indegree",
        "_outdegree",
        "_level_of",
        "_num_levels",
        "_topo_order",
        "_b_level",
        "_desc_exact",
        "_succ_lists",
        "_indeg_list",
        "_adopted",
    )

    def __init__(self, n: int, edges: np.ndarray, validate: bool = True):
        if n < 0:
            raise InvalidInstanceError(f"vertex count must be >= 0, got {n}")
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise InvalidInstanceError(
                f"edges must be an (E, 2) array, got shape {edges.shape}"
            )
        self.n = int(n)
        self.edges = edges
        self._succ_off = None
        self._succ_tgt = None
        self._pred_off = None
        self._pred_tgt = None
        self._indegree = None
        self._outdegree = None
        self._level_of = None
        self._num_levels = None
        self._topo_order = None
        self._b_level = None
        self._desc_exact = None
        self._succ_lists = None
        self._indeg_list = None
        self._adopted = False
        if validate:
            self._validate()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edge_list(cls, n: int, pairs, validate: bool = True) -> "Dag":
        """Build from an iterable of ``(u, v)`` tuples."""
        arr = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
        return cls(n, arr, validate=validate)

    @classmethod
    def from_networkx(cls, g) -> "Dag":
        """Build from a :class:`networkx.DiGraph` with integer nodes 0..n-1."""
        n = g.number_of_nodes()
        nodes = sorted(g.nodes())
        if nodes != list(range(n)):
            raise InvalidInstanceError(
                "networkx graph must have nodes exactly 0..n-1; "
                f"got {nodes[:5]}..."
            )
        return cls.from_edge_list(n, g.edges())

    def to_networkx(self) -> "nx.DiGraph":
        """Convert to a :class:`networkx.DiGraph` (for tests/visualisation)."""
        import networkx as nx

        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(map(tuple, self.edges.tolist()))
        return g

    def _validate(self) -> None:
        if self.edges.size:
            lo = self.edges.min()
            hi = self.edges.max()
            if lo < 0 or hi >= self.n:
                raise InvalidInstanceError(
                    f"edge endpoints must lie in [0, {self.n}); "
                    f"found range [{lo}, {hi}]"
                )
            if np.any(self.edges[:, 0] == self.edges[:, 1]):
                raise InvalidInstanceError("self-loops are not allowed")
        # Acyclicity: level assignment visits every vertex iff acyclic.
        if self.level_of().min(initial=0) < 0:
            raise InvalidInstanceError("graph contains a cycle")

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def _note_build(self) -> None:
        """Record a cache build on a DAG that adopted a shared snapshot.

        A worker that attached to the shared-memory instance plane should
        find every cache its workload needs already materialised; each
        build it performs anyway is a rebuild the warm-up failed to ship.
        ``tests/test_parallel_rss.py`` pins this counter at zero for the
        vector-engine grid.
        """
        if self._adopted:
            obs.inc("dag.cache.rebuild")

    def _build_succ(self) -> None:
        if self._succ_off is None:
            self._note_build()
            self._succ_off, self._succ_tgt = csr_from_edges(
                self.n, self.edges[:, 0], self.edges[:, 1]
            )

    def _build_pred(self) -> None:
        if self._pred_off is None:
            self._note_build()
            self._pred_off, self._pred_tgt = csr_from_edges(
                self.n, self.edges[:, 1], self.edges[:, 0]
            )

    def successor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(offsets, targets)`` CSR arrays for successors."""
        obs.inc(
            "dag.cache.succ_csr.hit"
            if self._succ_off is not None
            else "dag.cache.succ_csr.miss"
        )
        self._build_succ()
        return self._succ_off, self._succ_tgt

    def predecessor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(offsets, targets)`` CSR arrays for predecessors."""
        self._build_pred()
        return self._pred_off, self._pred_tgt

    def successors(self, v: int) -> np.ndarray:
        self._build_succ()
        return self._succ_tgt[self._succ_off[v] : self._succ_off[v + 1]]

    def predecessors(self, v: int) -> np.ndarray:
        self._build_pred()
        return self._pred_tgt[self._pred_off[v] : self._pred_off[v + 1]]

    def indegree(self) -> np.ndarray:
        """Indegree of every vertex (fresh copy; callers may mutate)."""
        if self._indegree is None:
            self._note_build()
            if self.num_edges:
                self._indegree = np.bincount(
                    self.edges[:, 1], minlength=self.n
                ).astype(np.int64)
            else:
                self._indegree = np.zeros(self.n, dtype=np.int64)
        return self._indegree.copy()

    def outdegree(self) -> np.ndarray:
        """Outdegree of every vertex (fresh copy)."""
        if self._outdegree is None:
            self._note_build()
            if self.num_edges:
                self._outdegree = np.bincount(
                    self.edges[:, 0], minlength=self.n
                ).astype(np.int64)
            else:
                self._outdegree = np.zeros(self.n, dtype=np.int64)
        return self._outdegree.copy()

    def successor_lists(self) -> tuple[list[int], list[int]]:
        """Successor CSR as plain Python lists ``(offsets, targets)``.

        The heap engine walks edges one at a time in Python; indexing
        lists is ~3x faster than indexing numpy scalars, and the
        conversion is worth caching because schedulers run many times per
        instance (once per seed / per m).
        """
        if self._succ_lists is None:
            obs.inc("dag.cache.succ_lists.miss")
            self._note_build()
            off, tgt = self.successor_csr()
            self._succ_lists = (off.tolist(), tgt.tolist())
        else:
            obs.inc("dag.cache.succ_lists.hit")
        return self._succ_lists

    def indegree_list(self) -> list[int]:
        """Indegree of every vertex as a plain Python list (fresh copy)."""
        if self._indeg_list is None:
            self._note_build()
            self._indeg_list = self.indegree().tolist()
        return self._indeg_list.copy()

    # ------------------------------------------------------------------
    # memo-cache export / adoption (the shared-memory instance plane)
    # ------------------------------------------------------------------

    #: Array-valued memo slots that :meth:`export_caches` snapshots.  Keys
    #: are the wire names; values are the backing ``__slots__`` attributes.
    _CACHE_ARRAY_SLOTS = {
        "level_of": "_level_of",
        "topo_order": "_topo_order",
        "indegree": "_indegree",
        "outdegree": "_outdegree",
        "b_level": "_b_level",
        "desc_exact": "_desc_exact",
        "succ_off": "_succ_off",
        "succ_tgt": "_succ_tgt",
        "pred_off": "_pred_off",
        "pred_tgt": "_pred_tgt",
    }

    def export_caches(self) -> tuple[dict[str, object], dict[str, np.ndarray]]:
        """Snapshot every *materialised* memo cache as plain arrays.

        Returns ``(scalars, arrays)``: a JSON-able dict of scalar cache
        values and a dict of numpy arrays.  Only caches that have already
        been computed are included, so the cost of the export is zero —
        callers (the shared-memory instance plane) warm exactly the caches
        their workload needs, then ship the snapshot.  The inverse is
        :meth:`adopt_caches`.
        """
        scalars: dict = {}
        arrays: dict[str, np.ndarray] = {}
        if self._num_levels is not None:
            scalars["num_levels"] = int(self._num_levels)
        for key, slot in self._CACHE_ARRAY_SLOTS.items():
            value = getattr(self, slot)
            if value is not None:
                arrays[key] = value
        return scalars, arrays

    def adopt_caches(
        self, scalars: dict, arrays: dict, adopted: bool = True
    ) -> None:
        """Install a cache snapshot produced by :meth:`export_caches`.

        Arrays are adopted by reference (zero-copy — the point of the
        shared-memory plane); they may be read-only views.  Unknown keys
        raise so a manifest/version skew fails loudly instead of silently
        dropping caches.  ``adopted=False`` installs the snapshot without
        arming the ``dag.cache.rebuild`` counter — used by the disk build
        cache (:mod:`repro.cache`), where a later lazy build is a normal
        cache-entry gap, not a shared-memory warm-up failure.
        """
        for key in scalars:
            if key != "num_levels":
                raise InvalidInstanceError(f"unknown cache scalar {key!r}")
        for key in arrays:
            if key not in self._CACHE_ARRAY_SLOTS:
                raise InvalidInstanceError(f"unknown cache array {key!r}")
        self._adopted = adopted
        if "num_levels" in scalars:
            self._num_levels = int(scalars["num_levels"])
        for key, slot in self._CACHE_ARRAY_SLOTS.items():
            if key in arrays:
                setattr(self, slot, arrays[key])

    def roots(self) -> np.ndarray:
        """Vertices with indegree 0 (sources)."""
        return np.flatnonzero(self.indegree() == 0)

    def leaves(self) -> np.ndarray:
        """Vertices with outdegree 0 (sinks)."""
        return np.flatnonzero(self.outdegree() == 0)

    # ------------------------------------------------------------------
    # levels / topological structure
    # ------------------------------------------------------------------

    def level_of(self) -> np.ndarray:
        """0-indexed level (layer) of every vertex.

        ``level_of()[v] == j`` means ``v`` is in layer ``L_{j+1}`` of the
        paper's 1-indexed notation.  Vertices on a cycle (only possible when
        ``validate=False`` was used) keep the sentinel ``-1``.
        """
        if self._level_of is None:
            self._compute_levels()
        return self._level_of

    def num_levels(self) -> int:
        """Number of levels ``D_i`` of this DAG (0 for an empty graph)."""
        if self._num_levels is None:
            obs.inc("dag.cache.levels.miss")
            self._compute_levels()
        else:
            obs.inc("dag.cache.levels.hit")
        return self._num_levels

    def _compute_levels(self) -> None:
        self._note_build()
        level = np.full(self.n, -1, dtype=np.int64)
        if self.n == 0:
            self._level_of = level
            self._num_levels = 0
            self._topo_order = np.empty(0, dtype=np.int64)
            return
        indeg = self.indegree()
        off, tgt = self.successor_csr()
        frontier = np.flatnonzero(indeg == 0)
        depth = 0
        topo_chunks = []
        while frontier.size:
            level[frontier] = depth
            topo_chunks.append(frontier)
            # Gather all successor slices of the frontier in one shot; a
            # vertex enters the next frontier when its indegree first hits
            # zero.  The decrement is exact either way, so test == 0 on
            # the touched vertices only.
            succ = _gather_csr(off, tgt, frontier)
            if succ.size:
                frontier = _decrement_indegrees(indeg, succ)
            else:
                frontier = np.empty(0, dtype=np.int64)
            depth += 1
        self._level_of = level
        self._num_levels = depth if level.min(initial=0) >= 0 else -1
        if self._num_levels >= 0:
            self._topo_order = np.concatenate(topo_chunks) if topo_chunks else np.empty(0, dtype=np.int64)

    def topological_order(self) -> np.ndarray:
        """A topological order (level by level)."""
        if self._topo_order is None:
            self._compute_levels()
            if self._topo_order is None:
                raise InvalidInstanceError("graph contains a cycle")
        return self._topo_order

    def levels(self) -> list[np.ndarray]:
        """List of levels; ``levels()[j]`` is the vertex array of layer j."""
        lev = self.level_of()
        d = self.num_levels()
        order = np.argsort(lev, kind="stable")
        sorted_lev = lev[order]
        bounds = np.searchsorted(sorted_lev, np.arange(d + 1))
        return [order[bounds[j] : bounds[j + 1]] for j in range(d)]

    # ------------------------------------------------------------------
    # reverse-level reductions
    # ------------------------------------------------------------------

    def reverse_level_layout(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The successor CSR laid out deepest level first.

        Returns ``(parents, children, seg, bounds)``:

        * ``parents`` — every vertex with at least one child, grouped by
          level, deepest level first;
        * ``children`` — their successors, gathered in that order;
        * ``seg`` — ``parents[j]``'s children are
          ``children[seg[j]:seg[j + 1]]`` (``len(parents) + 1`` entries);
        * ``bounds`` — group ``g`` is ``parents[bounds[g]:bounds[g + 1]]``,
          one group per level that has children.

        Every child sits on a deeper level than its parent, so once the
        groups before ``g`` are reduced, all children of group ``g`` hold
        final values: a bottom-up quantity costs one ``ufunc.reduceat``
        per level (see :func:`level_groups`) instead of one step per
        vertex.  Built per call from the CSR and level caches.
        """
        if self.num_levels() < 0:
            raise InvalidInstanceError("graph contains a cycle")
        off, tgt = self.successor_csr()
        deg = np.diff(off)
        deepest_first = self.topological_order()[::-1]  # it is level-major
        parents = deepest_first[deg[deepest_first] > 0]
        children = _gather_csr(off, tgt, parents)
        seg = np.zeros(parents.size + 1, dtype=np.int64)
        np.cumsum(deg[parents], out=seg[1:])
        pl = self.level_of()[parents]
        bounds = np.zeros(1, dtype=np.int64)
        if parents.size:
            cut = np.flatnonzero(pl[1:] != pl[:-1]) + 1
            bounds = np.concatenate((bounds, cut, [parents.size]))
        if _MUTATION == "level_off_by_one":
            bounds[1:-1] += 1
            bounds = np.unique(bounds)
        return parents, children, seg, bounds

    def b_levels(self) -> np.ndarray:
        """Longest path (in vertices) from each vertex down to a leaf.

        A leaf has b-level 1; a vertex one hop above a leaf has b-level 2.
        This matches Pautz's definition used by DFDS priorities.  One
        ``np.maximum.reduceat`` per level over
        :meth:`reverse_level_layout`.
        """
        if self._b_level is None:
            self._note_build()
            b = np.ones(self.n, dtype=np.int64)
            parents, children, seg, bounds = self.reverse_level_layout()
            for ps, es, starts in level_groups(seg, bounds):
                b[parents[ps]] = np.maximum.reduceat(b[children[es]], starts) + 1
            self._b_level = b
        return self._b_level.copy()

    def critical_path_length(self) -> int:
        """Number of vertices on the longest path in the DAG."""
        if self.n == 0:
            return 0
        return int(self.b_levels().max())

    # ------------------------------------------------------------------
    # reachability
    # ------------------------------------------------------------------

    def descendant_counts(self) -> np.ndarray:
        """Number of distinct descendants of each vertex (excluding itself).

        Exact at every ``n``: reachability as packed ``uint64`` bitsets,
        one ``np.bitwise_or.reduceat(..., axis=0)`` per level over
        :meth:`reverse_level_layout`, popcounted.  The target vertices are
        split into column chunks of :data:`DESC_CHUNK_BITS`, numbered in
        topological order, so a chunk skips every level deeper than its
        own columns and its bitset matrix holds at most
        ``n * DESC_CHUNK_BITS / 8`` bytes (512 bytes per vertex), plus one
        level's gathered child rows.  Total work is ``O(E * n / 64)``
        word operations.
        """
        if self._desc_exact is None:
            self._note_build()
            n = self.n
            parents, children, seg, bounds = self.reverse_level_layout()
            groups = [
                (parents[ps], children[es], starts)
                for ps, es, starts in level_groups(seg, bounds)
            ]
            topo = self.topological_order()
            lev = self.level_of()
            # The groups' levels (descending), negated for searchsorted.
            neg_level = -lev[parents[bounds[:-1]]]
            counts = np.full(n, -1, dtype=np.int64)  # own bit counted once
            for c0 in range(0, n, DESC_CHUNK_BITS):
                cols = topo[c0 : c0 + DESC_CHUNK_BITS]
                bit = np.arange(cols.size, dtype=np.uint64)
                reach = np.zeros((n, (cols.size + 63) >> 6), dtype=np.uint64)
                reach[cols, bit >> np.uint64(6)] = (
                    np.uint64(1) << (bit & np.uint64(63))
                )
                # Only levels above the chunk's deepest column reach it.
                first = int(
                    np.searchsorted(neg_level, -lev[cols[-1]], side="right")
                )
                for p, c, starts in groups[first:]:
                    rows = np.bitwise_or.reduceat(
                        reach.take(c, axis=0), starts, axis=0
                    )
                    rows |= reach.take(p, axis=0)  # a parent's own bit
                    reach[p] = rows
                counts += _popcount_rows(reach)
            self._desc_exact = counts
        return self._desc_exact.copy()

    def reachable_from(self, v: int) -> np.ndarray:
        """All vertices reachable from ``v`` (excluding ``v``), via BFS."""
        off, tgt = self.successor_csr()
        seen = np.zeros(self.n, dtype=bool)
        frontier = tgt[off[v] : off[v + 1]]
        out = []
        while frontier.size:
            frontier = np.unique(frontier)
            frontier = frontier[~seen[frontier]]
            if not frontier.size:
                break
            seen[frontier] = True
            out.append(frontier)
            frontier = _gather_csr(off, tgt, frontier)
        return np.concatenate(out) if out else np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # dunder sugar
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __repr__(self) -> str:
        return f"Dag(n={self.n}, edges={self.num_edges})"


def level_groups(seg: np.ndarray, bounds: np.ndarray):
    """Walk a :meth:`Dag.reverse_level_layout` one level at a time.

    Yields ``(parent_slice, edge_slice, starts)`` per group of
    ``bounds``: the group's parents are ``parents[parent_slice]``, their
    children (and any edge-aligned array) ``children[edge_slice]``, and
    ``starts`` are the ``reduceat`` indices of each parent's children
    within that slice.
    """
    lo, hi = bounds[:-1], bounds[1:]
    starts = seg[:-1] - np.repeat(seg[lo], hi - lo)
    for a, b, e0, e1 in zip(
        lo.tolist(), hi.tolist(), seg[lo].tolist(), seg[hi].tolist()
    ):
        yield slice(a, b), slice(e0, e1), starts[a:b]


def _decrement_indegrees(indeg: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Subtract each vertex's multiplicity in ``succ`` from ``indeg``.

    Returns the (sorted, unique) vertices whose indegree reached zero.
    Hybrid formulation: a dense ``np.bincount`` histogram when the batch
    rivals the vertex count — O(n), branch-free, ~20x faster than
    ``np.subtract.at`` on multi-million-edge frontiers — and
    ``np.unique(..., return_counts=True)`` when the batch is sparse.
    """
    if succ.size >= indeg.size // 4:
        counts = np.bincount(succ, minlength=indeg.size)
        touched = np.flatnonzero(counts)
        indeg[touched] -= counts[touched]
        return touched[indeg[touched] == 0]
    uniq, counts = np.unique(succ, return_counts=True)
    indeg[uniq] -= counts
    return uniq[indeg[uniq] == 0]


def _gather_csr(off: np.ndarray, tgt: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Concatenate CSR slices ``tgt[off[v]:off[v+1]]`` for all ``v`` in nodes.

    Fully vectorised (no per-node Python loop): builds a flat index via
    ``repeat`` + cumulative offsets.
    """
    starts = off[nodes]
    lengths = off[nodes + 1] - starts
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=tgt.dtype)
    # index[i] is a ramp over the output, shifted per slice to its CSR
    # start; built in place, so the peak is two output-sized arrays.
    index = np.arange(total, dtype=np.int64)
    index += np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return tgt[index]


def _popcount_rows(bits: np.ndarray) -> np.ndarray:
    """Population count of each row of a uint64 matrix."""
    # numpy >= 2.0 has bitwise_count; keep a fallback for older versions.
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(bits).sum(axis=1).astype(np.int64)
    v = bits.view(np.uint8)
    table = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
    return table[v].sum(axis=1).astype(np.int64)
