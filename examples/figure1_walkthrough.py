"""Walk through the paper's Figure 1 on a tiny 2-D mesh.

Figure 1 shows (a) an unstructured 2-D mesh with the digraph one sweep
direction induces, and (b) the levels of that digraph.  This example
rebuilds the construction step by step on a small triangle mesh and
prints everything a reader needs to connect the code to the figure:
the upwind test per face, the induced edges, the level decomposition,
and how two different directions induce different DAGs over the same
cells.

Run:  python examples/figure1_walkthrough.py
"""

import numpy as np

from repro.core import SweepInstance
from repro.mesh import unit_square_tri
from repro.sweeps import build_instance, circle_directions


def main() -> None:
    mesh = unit_square_tri(target_cells=14, seed=3)
    print(f"mesh: {mesh.n_cells} triangular cells, "
          f"{mesh.n_faces} interior faces\n")

    # Direction i (like the arrow in Figure 1(a)).
    direction = np.array([1.0, 0.35])
    direction /= np.linalg.norm(direction)
    print(f"sweep direction: ({direction[0]:.3f}, {direction[1]:.3f})")

    # The upwind test on each shared face: sign of (normal . direction).
    dots = mesh.face_normals @ direction
    print("\nper-face upwind test (adjacency pair, n.w, induced edge):")
    for (u, v), d in list(zip(mesh.adjacency, dots))[:8]:
        arrow = f"{u} -> {v}" if d > 0 else f"{v} -> {u}" if d < 0 else "none"
        print(f"  cells ({u:2d},{v:2d})   n.w = {d:+.3f}   edge: {arrow}")
    if mesh.n_faces > 8:
        print(f"  ... {mesh.n_faces - 8} more faces")

    # The induced DAG and its levels (Figure 1(b)), built together with
    # the DAG of the opposite direction.
    dag, other_dag = build_instance(mesh, np.stack([direction, -direction])).dags
    print(f"\ninduced DAG: {dag.num_edges} edges, {dag.num_levels()} levels")
    for j, level in enumerate(dag.levels()):
        print(f"  L{j + 1}: cells {sorted(level.tolist())}")

    # A second direction induces a *different* DAG on the same cells.
    shared = set(map(tuple, dag.edges.tolist())) & set(
        map(tuple, other_dag.edges.tolist())
    )
    print(f"\nopposite direction: every edge reverses "
          f"(shared edges: {len(shared)})")

    # Assemble the full instance for a 4-direction fan and show that the
    # schedule must respect all of them at once.
    inst: SweepInstance = build_instance(mesh, circle_directions(4, offset=0.3))
    print(f"\nfull instance: k={inst.k} directions x {inst.n_cells} cells = "
          f"{inst.n_tasks} tasks, depth D = {inst.depth()}")
    print("each cell's k copies must share a processor — the constraint that")
    print("separates sweep scheduling from classical precedence scheduling.")


if __name__ == "__main__":
    main()
