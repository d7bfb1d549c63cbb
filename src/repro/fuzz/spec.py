"""Fuzz-case specs: seeded, JSON-serialisable instance descriptions.

A *spec* is a plain dict ``{"family": str, "seed": int, "m": int,
"params": {...}}`` that deterministically rebuilds one fuzz case — a
:class:`~repro.core.instance.SweepInstance` plus a processor count.
Specs, not pickled instances, are what the corpus persists: they stay
human-readable and survive refactors of the instance classes.

The case families deliberately cover the degenerate and adversarial
regimes the normal experiment grids never visit:

* ``single_cell`` — n = 1 with many directions (the same-processor
  constraint at its tightest: OPT = k exactly);
* ``single_direction`` — k = 1 random DAG (delays degenerate to 0);
* ``edgeless`` — no precedence at all (pure balls-into-bins);
* ``chain`` — identical / rotated / opposing chains (depth-dominated,
  the Lemma 2 worst case);
* ``wide_layer`` — depth-2 bipartite with high fan-out (width-dominated);
* ``disconnected`` — several components with no edges between them
  (per-direction random chains inside each component);
* ``heterogeneous`` — wildly different DAG density per direction: some
  directions dense layered graphs, some chains, some empty (the
  heterogeneous-cost regime: per-direction critical paths differ by
  orders of magnitude);
* ``random_dags`` — k independent random DAGs over a hidden topological
  order (the `tests/strategies.py` construction, numpy-only);
* ``family`` — one of the named :data:`repro.instances.INSTANCE_FAMILIES`;
* ``mesh`` — a real (small) generated mesh with geometric directions.

Processor counts are drawn adversarially too: m = 1, m far larger than
the task count, and ordinary mid-range values.
"""

from __future__ import annotations

import numpy as np

from repro.core.dag import Dag
from repro.core.instance import SweepInstance, unique_pairs
from repro.instances.families import INSTANCE_FAMILIES, make_instance
from repro.util.errors import ReproError
from repro.util.rng import as_rng

__all__ = ["CASE_FAMILIES", "build_case", "random_spec", "spec_label"]


def _rng_for(spec: dict) -> np.random.Generator:
    return as_rng(int(spec.get("seed", 0)))


def _single_cell(seed: int, k: int = 4) -> SweepInstance:
    dags = [Dag(1, np.empty((0, 2), dtype=np.int64)) for _ in range(max(k, 1))]
    return SweepInstance(1, dags, name=f"fuzz_single_cell_k{k}")


def _single_direction(seed: int, n: int = 12) -> SweepInstance:
    rng = as_rng(seed)
    return SweepInstance(
        n, [_random_dag(rng, n)], name=f"fuzz_single_direction_n{n}"
    )


def _edgeless(seed: int, n: int = 9, k: int = 3) -> SweepInstance:
    empty = np.empty((0, 2), dtype=np.int64)
    dags = [Dag(n, empty) for _ in range(k)]
    return SweepInstance(n, dags, name=f"fuzz_edgeless_n{n}_k{k}")


def _chain(seed: int, n: int = 10, k: int = 3, variant: str = "identical") -> SweepInstance:
    inst = make_instance(
        {"identical": "identical_chains", "rotated": "rotated_chains",
         "opposing": "opposing_chains"}[variant],
        n=max(n, 2), k=k, seed=seed,
    )
    inst.name = f"fuzz_chain_{variant}_n{n}_k{k}"
    return inst


def _wide_layer(seed: int, n: int = 20, k: int = 3) -> SweepInstance:
    inst = make_instance("wide_shallow", n=max(n, 4), k=k, seed=seed)
    inst.name = f"fuzz_wide_layer_n{n}_k{k}"
    return inst


def _disconnected(seed: int, n: int = 12, k: int = 3, parts: int = 3) -> SweepInstance:
    """Several components; each direction chains each component in its own
    random order, so there is never an edge between components."""
    rng = as_rng(seed)
    parts = max(min(parts, n), 1)
    labels = np.arange(n, dtype=np.int64) % parts
    dags = []
    for _ in range(k):
        edges = []
        for c in range(parts):
            cells = np.flatnonzero(labels == c)
            order = rng.permutation(cells)
            if order.size > 1:
                edges.append(np.stack([order[:-1], order[1:]], axis=1))
        arr = (
            np.concatenate(edges, axis=0)
            if edges
            else np.empty((0, 2), dtype=np.int64)
        )
        dags.append(Dag(n, arr))
    return SweepInstance(n, dags, name=f"fuzz_disconnected_n{n}_p{parts}_k{k}")


def _heterogeneous(seed: int, n: int = 14, k: int = 4) -> SweepInstance:
    """Per-direction structure varies wildly: dense / chain / empty / sparse."""
    rng = as_rng(seed)
    dags = []
    kinds = ["dense", "chain", "empty", "sparse"]
    for i in range(k):
        kind = kinds[i % len(kinds)]
        if kind == "empty":
            dags.append(Dag(n, np.empty((0, 2), dtype=np.int64)))
        elif kind == "chain":
            order = rng.permutation(n).astype(np.int64)
            dags.append(Dag(n, np.stack([order[:-1], order[1:]], axis=1)))
        else:
            prob = 0.6 if kind == "dense" else 0.08
            dags.append(_random_dag(rng, n, edge_prob=prob))
    return SweepInstance(n, dags, name=f"fuzz_heterogeneous_n{n}_k{k}")


def _random_dag(rng: np.random.Generator, n: int, edge_prob: float = 0.25) -> Dag:
    """Random DAG over a hidden topological order (always acyclic)."""
    order = rng.permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    if n < 2:
        return Dag(n, np.empty((0, 2), dtype=np.int64))
    mask = rng.random((n, n)) < edge_prob
    u, v = np.nonzero(mask)
    fwd = rank[u] < rank[v]
    lo = np.where(fwd, u, v)
    hi = np.where(fwd, v, u)
    keep = rank[lo] < rank[hi]
    return Dag(n, unique_pairs(lo[keep], hi[keep], n))


def _random_dags(seed: int, n: int = 12, k: int = 3, edge_prob: float = 0.25) -> SweepInstance:
    rng = as_rng(seed)
    dags = [_random_dag(rng, n, edge_prob=edge_prob) for _ in range(k)]
    return SweepInstance(n, dags, name=f"fuzz_random_dags_n{n}_k{k}")


def _family(seed: int, family: str = "fork_join", n: int = 16, k: int = 3) -> SweepInstance:
    inst = make_instance(family, n=max(n, 4), k=k, seed=seed)
    inst.name = f"fuzz_family_{family}"
    return inst


def _mesh(seed: int, mesh: str = "square2d", cells: int = 40, k: int = 4) -> SweepInstance:
    from repro.mesh import make_mesh
    from repro.sweeps import build_instance, directions_for_mesh

    msh = make_mesh(mesh, target_cells=cells, seed=seed)
    inst = build_instance(msh, directions_for_mesh(msh.dim, k))
    inst.name = f"fuzz_mesh_{mesh}_c{msh.n_cells}_k{inst.k}"
    return inst


#: family name -> builder(seed, **params) -> SweepInstance
CASE_FAMILIES = {
    "single_cell": _single_cell,
    "single_direction": _single_direction,
    "edgeless": _edgeless,
    "chain": _chain,
    "wide_layer": _wide_layer,
    "disconnected": _disconnected,
    "heterogeneous": _heterogeneous,
    "random_dags": _random_dags,
    "family": _family,
    "mesh": _mesh,
}


def build_case(spec: dict) -> tuple[SweepInstance, int]:
    """Rebuild ``(instance, m)`` from a spec dict, deterministically."""
    try:
        family = spec["family"]
        builder = CASE_FAMILIES[family]
    except KeyError:
        known = ", ".join(CASE_FAMILIES)
        raise ReproError(
            f"unknown fuzz family {spec.get('family')!r}; known: {known}"
        ) from None
    params = dict(spec.get("params", {}))
    inst = builder(int(spec.get("seed", 0)), **params)
    m = int(spec.get("m", 2))
    if m <= 0:
        raise ReproError(f"spec processor count must be positive, got {m}")
    return inst, m


def spec_label(spec: dict) -> str:
    """Short human-readable identity of a spec (for logs and filenames)."""
    return f"{spec['family']}[seed={spec.get('seed', 0)},m={spec.get('m', 2)}]"


_FAMILY_NAMES = sorted(INSTANCE_FAMILIES)
_MESHES = ["square2d", "tetonly"]


def random_spec(rng, index: int = 0) -> dict:
    """Draw one random spec.

    ``index`` cycles through the family list so every family appears even
    in short runs; sizes and processor counts are drawn from ``rng``.
    Sizes stay small on purpose — the differential runner executes every
    registered algorithm (plus oracles) per case, and small adversarial
    instances shrink better than big ones.
    """
    rng = as_rng(rng)
    names = sorted(CASE_FAMILIES)
    family = names[index % len(names)]
    seed = int(rng.integers(0, 2**31 - 1))
    n = int(rng.integers(2, 33))
    k = int(rng.integers(1, 7))
    params: dict = {}
    if family == "single_cell":
        params = {"k": k}
    elif family == "single_direction":
        params = {"n": n}
    elif family == "edgeless":
        params = {"n": n, "k": k}
    elif family == "chain":
        params = {
            "n": n,
            "k": k,
            "variant": ["identical", "rotated", "opposing"][int(rng.integers(3))],
        }
    elif family == "wide_layer":
        params = {"n": max(n, 4), "k": k}
    elif family == "disconnected":
        params = {"n": n, "k": k, "parts": int(rng.integers(2, 5))}
    elif family == "heterogeneous":
        params = {"n": n, "k": max(k, 2)}
    elif family == "random_dags":
        params = {
            "n": n,
            "k": k,
            "edge_prob": round(float(rng.uniform(0.05, 0.6)), 3),
        }
    elif family == "family":
        params = {
            "family": _FAMILY_NAMES[int(rng.integers(len(_FAMILY_NAMES)))],
            "n": max(n, 8),
            "k": max(k, 2),
        }
    elif family == "mesh":
        params = {
            "mesh": _MESHES[int(rng.integers(len(_MESHES)))],
            "cells": int(rng.integers(20, 61)),
            "k": max(k, 2),
        }
    # Adversarial processor counts: serial, huge, and mid-range.
    m_choices = [1, 2, 3, 5, 8, 16, n * max(k, 1) + 3]
    m = int(m_choices[int(rng.integers(len(m_choices)))])
    return {"family": family, "seed": seed, "m": m, "params": params}
