"""The sweep-scheduling instance model.

An instance (Section 3 of the paper) is a cell set ``V = {0..n-1}``, ``k``
DAGs :math:`G_i(V_i, E_i)` — one per sweep direction, all over the same
cells — and a processor count ``m`` (which we keep as a *scheduler*
parameter so one instance can be scheduled at many processor counts, as the
paper's experiments do).

A *task* is a (cell, direction) pair ``(v, i)``.  Tasks are flattened to
integer ids ``tid = i * n + v`` so schedules are plain numpy arrays.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.core.dag import Dag
from repro.util.errors import InvalidInstanceError

__all__ = ["SweepInstance", "unique_pairs"]


def unique_pairs(first: np.ndarray, second: np.ndarray, n: int) -> np.ndarray:
    """Distinct ``(first[j], second[j])`` rows, sorted lexicographically.

    Returns exactly ``np.unique(np.stack([first, second], axis=1), axis=0)``
    — same rows, order and dtype — for ids in ``[0, n)``.  Each row packs
    into one int64 key ``first * n + second``; because ``second < n`` the
    key order is the row order, so one in-place sort and an
    adjacent-difference mask replace ``np.unique``'s structured-row sort.
    """
    dtype = np.result_type(first, second)
    if len(first) == 0:
        return np.empty((0, 2), dtype=dtype)
    key = np.asarray(first, dtype=np.int64) * n
    key += second
    key.sort()
    keep = np.empty(len(key), dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    a, b = np.divmod(key[keep], n)
    return np.stack([a, b], axis=1).astype(dtype, copy=False)


class SweepInstance:
    """A sweep-scheduling problem: ``n`` cells and ``k`` per-direction DAGs.

    Parameters
    ----------
    n_cells:
        Number of mesh cells ``n``.
    dags:
        One :class:`~repro.core.dag.Dag` per direction, each on exactly
        ``n_cells`` vertices.
    cell_graph_edges:
        Optional ``(E, 2)`` undirected mesh-adjacency edges, used by block
        partitioning and communication-cost accounting.  When omitted it is
        derived as the union of all DAG edges (ignoring orientation), on
        first read of :attr:`cell_graph_edges`.
    name:
        Optional label for reports.
    """

    def __init__(
        self,
        n_cells: int,
        dags: list[Dag],
        cell_graph_edges: np.ndarray | None = None,
        name: str = "instance",
    ):
        if n_cells < 0:
            raise InvalidInstanceError(f"n_cells must be >= 0, got {n_cells}")
        if not dags:
            raise InvalidInstanceError("an instance needs at least one direction DAG")
        for i, g in enumerate(dags):
            if g.n != n_cells:
                raise InvalidInstanceError(
                    f"DAG for direction {i} has {g.n} vertices, expected {n_cells}"
                )
        self.n_cells = int(n_cells)
        self.dags = list(dags)
        self.name = name
        self._cell_edges: np.ndarray | None = (
            None
            if cell_graph_edges is None
            else np.asarray(cell_graph_edges, dtype=np.int64).reshape(-1, 2)
        )
        self._union_dag: Dag | None = None
        self._task_level: np.ndarray | None = None

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------

    @property
    def k(self) -> int:
        """Number of sweep directions."""
        return len(self.dags)

    @property
    def n_tasks(self) -> int:
        """Total number of (cell, direction) tasks, ``n * k``."""
        return self.n_cells * self.k

    def task_id(self, cell: int, direction: int) -> int:
        """Flatten task ``(cell, direction)`` to its integer id."""
        return direction * self.n_cells + cell

    def task_cell(self, tid) -> np.ndarray | int:
        """Cell of a task id (vectorised over arrays)."""
        return tid % self.n_cells

    def task_direction(self, tid) -> np.ndarray | int:
        """Direction of a task id (vectorised over arrays)."""
        return tid // self.n_cells

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------

    @property
    def cell_graph_edges(self) -> np.ndarray:
        """``(E, 2)`` int64 undirected cell-graph edges, ``lo < hi``.

        The explicit edges given to the constructor, or else the union of
        all DAG edges with orientation dropped, derived (and cached) on
        first read.  Block partitioning and the export formats read it;
        the schedulers do not, so building and scheduling an instance
        never pays for the derivation.
        """
        if self._cell_edges is None:
            self._cell_edges = self._derive_cell_edges()
        return self._cell_edges

    def _derive_cell_edges(self) -> np.ndarray:
        chunks = [g.edges for g in self.dags if g.num_edges]
        n_in = sum(len(c) for c in chunks)
        out = np.empty((0, 2), dtype=np.int64)
        with obs.span(
            "instance.cell_graph",
            cat="build",
            args_fn=lambda: {"n_edges_in": n_in, "n_edges_out": len(out)},
        ):
            if chunks:
                e = np.concatenate(chunks, axis=0)
                lo = np.minimum(e[:, 0], e[:, 1])
                hi = np.maximum(e[:, 0], e[:, 1])
                out = unique_pairs(lo, hi, self.n_cells)
        return out

    def union_dag(self) -> Dag:
        """The DAG ``H`` over all ``n*k`` tasks, copies of a cell distinct.

        This is the graph the Improved Random Delay algorithm preprocesses
        (Algorithm 3, step 1) and the graph every list scheduler runs on.
        """
        if self._union_dag is None:
            n = self.n_cells
            chunks = []
            for i, g in enumerate(self.dags):
                if g.num_edges:
                    chunks.append(g.edges + i * n)
            edges = (
                np.concatenate(chunks, axis=0)
                if chunks
                else np.empty((0, 2), dtype=np.int64)
            )
            self._union_dag = Dag(self.n_tasks, edges, validate=False)
        return self._union_dag

    def task_levels(self) -> np.ndarray:
        """Level of every task within its own direction DAG (0-indexed).

        ``task_levels()[i*n + v]`` is the layer of ``(v, i)`` in ``G_i``.
        """
        if self._task_level is None:
            out = np.empty(self.n_tasks, dtype=np.int64)
            n = self.n_cells
            for i, g in enumerate(self.dags):
                out[i * n : (i + 1) * n] = g.level_of()
            self._task_level = out
        return self._task_level

    def warm_levels(self) -> np.ndarray:
        """Materialise all per-direction levels in one batched sweep.

        Runs :func:`repro.core.dag.batch_levels` over the block-diagonal
        union of the direction DAGs — one frontier loop of ``max_i D_i``
        iterations instead of ``k`` separate loops of ``D_i`` each — and
        installs the (bit-identical) ``level_of`` / ``num_levels`` /
        ``topological_order`` caches on every DAG plus the flat
        :meth:`task_levels` array.  Idempotent; returns ``task_levels``.
        The batched construction path
        (:func:`repro.sweeps.dag_builder.build_instance_batched`) calls
        this at build time; call it directly on hand-built instances
        (e.g. the synthetic families) to pre-pay the level structure.
        """
        if self._task_level is None:
            from repro.core.dag import batch_levels

            self._task_level = batch_levels(self.dags)
        return self._task_level

    def depth(self) -> int:
        """``D``: the maximum number of levels over all directions."""
        return max(g.num_levels() for g in self.dags)

    # ------------------------------------------------------------------
    # flat-array export / reconstruction (shared-memory instance plane)
    # ------------------------------------------------------------------

    def export_arrays(self) -> tuple[dict[str, object], dict[str, np.ndarray]]:
        """Flatten the instance (and materialised caches) to plain arrays.

        Returns ``(meta, arrays)``: a JSON-able ``meta`` dict and a dict
        mapping slash-separated keys to numpy arrays — the wire format of
        :class:`repro.parallel.SharedInstanceStore`.  Structural arrays
        (per-direction edges, mesh adjacency) are always included; memo
        caches (levels, CSR adjacency, b-levels, descendant counts) are
        included exactly when they are already materialised, on the
        per-direction DAGs and on the union DAG alike.
        :meth:`from_arrays` is the zero-copy inverse.
        """
        meta: dict = {
            "n_cells": self.n_cells,
            "k": self.k,
            "name": self.name,
            "dag_scalars": [],
        }
        arrays: dict = {"cell_edges": self.cell_graph_edges}
        for i, g in enumerate(self.dags):
            scalars, cache_arrays = g.export_caches()
            meta["dag_scalars"].append(scalars)
            arrays[f"dag{i}/edges"] = g.edges
            for key, arr in cache_arrays.items():
                arrays[f"dag{i}/{key}"] = arr
        if self._union_dag is not None:
            scalars, cache_arrays = self._union_dag.export_caches()
            meta["union_scalars"] = scalars
            arrays["union/edges"] = self._union_dag.edges
            for key, arr in cache_arrays.items():
                arrays[f"union/{key}"] = arr
        if self._task_level is not None:
            arrays["task_level"] = self._task_level
        return meta, arrays

    @classmethod
    def from_arrays(
        cls, meta: dict, arrays: dict, adopted: bool = True
    ) -> "SweepInstance":
        """Rebuild an instance from :meth:`export_arrays` output, zero-copy.

        The returned instance references the given arrays directly (no
        validation pass, no cache recomputation), so attaching a worker to
        a shared-memory manifest costs microseconds regardless of mesh
        size.  Behaviour is bit-identical to the originally exported
        instance: same edges, same adopted memo caches.  ``adopted``
        (default true, the shared-memory plane's contract) arms the
        ``dag.cache.rebuild`` counter on every DAG; the disk build cache
        passes ``False`` — see :meth:`repro.core.dag.Dag.adopt_caches`.
        """
        n_cells = int(meta["n_cells"])
        k = int(meta["k"])
        per_dag: list[dict] = [{} for _ in range(k)]
        union_arrays: dict = {}
        for key, arr in arrays.items():
            head, _, rest = key.partition("/")
            if head == "union":
                union_arrays[rest] = arr
            elif head.startswith("dag"):
                per_dag[int(head[3:])][rest] = arr
        dags = []
        for i in range(k):
            cache = per_dag[i]
            g = Dag(n_cells, cache.pop("edges"), validate=False)
            g.adopt_caches(meta["dag_scalars"][i], cache, adopted=adopted)
            dags.append(g)
        inst = cls(
            n_cells,
            dags,
            cell_graph_edges=arrays["cell_edges"],
            name=meta.get("name", "instance"),
        )
        if union_arrays:
            union = Dag(inst.n_tasks, union_arrays.pop("edges"), validate=False)
            union.adopt_caches(
                meta.get("union_scalars", {}), union_arrays, adopted=adopted
            )
            inst._union_dag = union
        if "task_level" in arrays:
            inst._task_level = arrays["task_level"]
        return inst

    def validate(self) -> None:
        """Re-check all structural invariants (ranges, acyclicity)."""
        for i, g in enumerate(self.dags):
            try:
                g._validate()
            except InvalidInstanceError as exc:
                raise InvalidInstanceError(f"direction {i}: {exc}") from exc

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"SweepInstance(name={self.name!r}, n_cells={self.n_cells}, "
            f"k={self.k}, n_tasks={self.n_tasks})"
        )
