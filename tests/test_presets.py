"""Tests for the figure table's paper scale and the CI preset."""

from dataclasses import replace

import pytest

from repro.experiments.configs import ExperimentConfig
from repro.experiments.paper import FIGURES, Figure, run_figure
from repro.experiments.presets import CI_SCALE


def _paper(name: str) -> Figure:
    fig = FIGURES[name]
    return replace(fig, **fig.paper)


class TestPresets:
    def test_paper_scale_matches_paper_meshes(self):
        cells = {"tetonly": 31481, "long": 61737, "well_logging": 43012,
                 "prismtet": 118211}
        for name in FIGURES:
            fig = _paper(name)
            for mesh in fig.meshes:
                assert fig.target_cells == cells[mesh], (name, mesh)
        assert _paper("headline").meshes == ("prismtet",)

    def test_paper_block_sizes(self):
        assert _paper("fig2a").block_sizes == (1, 64, 256)
        assert _paper("fig2b").block_sizes == (1, 64, 256)
        assert _paper("fig3a").block_sizes == (64,)
        assert _paper("fig3b").block_sizes == (256,)
        assert _paper("fig3c").block_sizes == (128,)

    def test_every_figure_has_paper_row(self):
        assert len(FIGURES) == 7
        for name, fig in FIGURES.items():
            assert fig.paper, name
            assert set(fig.paper) <= set(Figure.__dataclass_fields__), name
            assert fig.target_cells == 2000, name

    def test_paper_rows_keep_the_figure_setup(self):
        """fig2b is fig2a's setup with comm on; the figure-defining fields
        (algorithms, series, plots) never change with the scale."""
        a, b = _paper("fig2a"), _paper("fig2b")
        assert replace(a, with_comm=True, plots=b.plots, paper=b.paper) == b
        for name, fig in FIGURES.items():
            assert not {"algorithms", "series", "plots", "with_comm",
                        "worst_ratio"} & set(fig.paper), name

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_figure("fig2c", scale="huge")

    def test_ci_fig2c_values_frozen(self):
        """The perfbench ``figures_par`` workload runs this grid."""
        assert CI_SCALE["fig2c"] == ExperimentConfig(
            mesh="long", target_cells=2000, k=8, m_values=(8, 32, 128),
            block_sizes=(1,),
            algorithms=("random_delay", "random_delay_priority"),
            seeds=(0, 1), mesh_seed=0, engine="auto", workers=1,
        )

    def test_ci_preset_runs(self):
        """The CI preset must actually execute end to end (scaled down)."""
        from repro.experiments.runner import run_grid

        config = replace(
            CI_SCALE["fig2c"], target_cells=300, m_values=(4,), seeds=(0,)
        )
        rows = run_grid(config, with_comm=False)
        assert len(rows) == 2
