"""Fixed experiment grids that other tools run as inputs.

``CI_SCALE["fig2c"]`` is a small Fig. 2(c) grid; the frozen perfbench
``figures_par`` workload runs it, so its values must not change.  The
paper figures themselves live in :data:`repro.experiments.paper.FIGURES`.
"""

from __future__ import annotations

from repro.experiments.configs import ExperimentConfig

__all__ = ["CI_SCALE"]

#: Fast grids used by tests and default benchmarks.
CI_SCALE: dict[str, ExperimentConfig] = {
    "fig2c": ExperimentConfig(
        mesh="long",
        target_cells=2000,
        k=8,
        m_values=(8, 32, 128),
        algorithms=("random_delay", "random_delay_priority"),
        seeds=(0, 1),
    ),
}
