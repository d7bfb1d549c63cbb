"""Tests for the experiment harness (configs, runner, report, drivers)."""

import pytest

from repro.experiments import (
    ExperimentConfig,
    clear_caches,
    format_series,
    format_table,
    get_blocks,
    get_instance,
    pick,
    run_cell,
    run_figure,
    run_grid,
)

FAST = dict(
    mesh="square2d",
    target_cells=150,
    k=4,
    m_values=(2, 4),
    block_sizes=(1,),
    algorithms=("random_delay_priority",),
    seeds=(0,),
)


class TestConfig:
    def test_defaults(self):
        c = ExperimentConfig()
        assert c.mesh == "tetonly"
        assert 128 in c.m_values

    def test_frozen(self):
        with pytest.raises(Exception):
            ExperimentConfig().mesh = "x"


class TestRunner:
    def test_instance_memoised(self):
        clear_caches()
        c = ExperimentConfig(**FAST)
        assert get_instance(c) is get_instance(c)

    def test_blocks_memoised(self):
        c = ExperimentConfig(**FAST)
        assert get_blocks(c, 8) is get_blocks(c, 8)

    def test_run_cell_summary(self):
        c = ExperimentConfig(**FAST)
        s = run_cell(c, "random_delay_priority", 4, 1, seed=0)
        assert s.m == 4
        assert s.makespan >= s.lower_bound

    def test_run_cell_with_blocks(self):
        c = ExperimentConfig(**FAST)
        s = run_cell(c, "random_delay_priority", 2, 8, seed=0)
        assert s.m == 2

    def test_run_grid_shape(self):
        c = ExperimentConfig(**FAST)
        rows = run_grid(c)
        assert len(rows) == 2  # 1 algo x 1 block size x 2 m values
        assert {r["m"] for r in rows} == {2, 4}
        for r in rows:
            assert r["ratio"] >= 1.0
            assert r["seeds"] == 1

    def test_grid_aggregates_seeds(self):
        c = ExperimentConfig(**{**FAST, "seeds": (0, 1, 2)})
        rows = run_grid(c, with_comm=False)
        assert rows[0]["seeds"] == 3
        assert rows[0]["ratio_max"] >= rows[0]["ratio"]


class TestRowKey:
    """Regression: every grid row carries a stable, parameter-derived key.

    Cell indices are positional (an artifact of one enumeration); the
    ``row_key`` is the shared identity the parallel dispatcher's keyed
    aggregation and the campaign result store join on.  Pinned so a
    change to the key format is a deliberate act — campaign reports and
    run_grid rows must keep agreeing on it.
    """

    def test_rows_carry_stable_row_key(self):
        from repro.experiments.runner import row_key

        c = ExperimentConfig(
            **{**FAST, "m_values": (2, 4), "block_sizes": (1, 8),
               "algorithms": ("random_delay_priority", "fifo")}
        )
        rows = run_grid(c, with_comm=False)
        assert len(rows) == 8
        for r in rows:
            assert r["row_key"] == row_key(
                r["algorithm"], r["m"], r["block_size"]
            )
        # Keys are unique per row and independent of enumeration order.
        assert len({r["row_key"] for r in rows}) == len(rows)

    def test_row_key_format_pinned(self):
        from repro.experiments.runner import row_key

        assert row_key("fifo", 8, 1) == "fifo/b1/m8"

    def test_row_key_identical_across_serial_and_parallel(self):
        c = ExperimentConfig(
            **{**FAST, "seeds": (0, 1), "m_values": (2, 4)}
        )
        serial = run_grid(c, with_comm=False, workers=1)
        parallel = run_grid(c, with_comm=False, workers=2)
        assert [r["row_key"] for r in serial] == [
            r["row_key"] for r in parallel
        ]


class TestReport:
    def test_format_table_aligned(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_series_pivots(self):
        rows = [
            {"m": 2, "algo": "x", "y": 1.0},
            {"m": 2, "algo": "z", "y": 2.0},
            {"m": 4, "algo": "x", "y": 3.0},
        ]
        text = format_series(rows, x="m", y="y", group_by="algo")
        assert "x" in text and "z" in text
        # Missing (m=4, z) cell renders empty without crashing.
        assert text.count("3") >= 1
        # Columns sort with digit runs as numbers, not as strings.
        for series in (
            ("block=1", "block=64", "block=256"),
            ("dfds,k=8", "dfds,k=24", "level,k=8", "level,k=24"),
        ):
            rows = [{"m": 2, "s": s, "y": 1.0} for s in reversed(series)]
            text = format_series(rows, x="m", y="y", group_by="s")
            assert text.splitlines()[0].split() == ["m", *series]

    def test_pick(self):
        rows = [{"m": 2, "k": 8}, {"m": 4, "k": 8}]
        assert pick(rows, m=2) == [{"m": 2, "k": 8}]
        assert pick(rows, m=2, k=9) == []


@pytest.mark.slow
class TestPaperDrivers:
    """Smoke-run every figure row at miniature scale."""

    def test_fig2a(self):
        rows, text = run_figure("fig2a", target_cells=250, m_values=(2, 4),
                                block_sizes=(1, 8), seeds=(0,))
        assert "Fig 2(a)" in text
        assert len(rows) == 4

    def test_fig2b(self):
        rows, text = run_figure("fig2b", target_cells=250, m_values=(2, 4),
                                block_sizes=(1, 8), seeds=(0,))
        assert "C1" in text and "C2" in text
        # Block partitioning cuts C1 at every m.
        for m in (2, 4):
            cell = pick(rows, m=m, block_size=1)[0]
            block = pick(rows, m=m, block_size=8)[0]
            assert block["c1"] < cell["c1"]

    def test_fig2c(self):
        rows, text = run_figure("fig2c", target_cells=250, m_values=(4, 16),
                                k_values=(4,), seeds=(0,))
        assert "Fig 2(c)" in text
        # Priorities never lose to plain random delay at any m.
        for m in (4, 16):
            plain = pick(rows, m=m, algorithm="random_delay")[0]
            prio = pick(rows, m=m, algorithm="random_delay_priority")[0]
            assert prio["ratio"] <= plain["ratio"]

    def test_fig3a(self):
        rows, text = run_figure("fig3a", target_cells=250, m_values=(2, 4),
                                k_values=(4,), seeds=(0,), block_sizes=(8,))
        assert len(rows) == 4

    def test_fig3b(self):
        rows, _ = run_figure("fig3b", target_cells=250, m_values=(2,),
                             k_values=(4,), seeds=(0,), block_sizes=(8,))
        assert {r["algorithm"] for r in rows} == {
            "random_delay_priority", "descendant", "descendant_delays"
        }

    def test_fig3c(self):
        rows, _ = run_figure("fig3c", target_cells=250, m_values=(2,),
                             k_values=(4,), seeds=(0,), block_sizes=(8,))
        assert {r["algorithm"] for r in rows} == {
            "random_delay_priority", "dfds", "dfds_delays"
        }

    def test_headline(self):
        rows, text = run_figure(
            "headline", target_cells=250, meshes=("tetonly",), m_values=(4,),
            k_values=(8,), seeds=(0,),
        )
        assert "within_3x" in text


class TestParallelGrid:
    def test_parallel_matches_serial(self):
        c = ExperimentConfig(**{**FAST, "seeds": (0, 1)})
        serial = run_grid(c, with_comm=False)
        parallel = run_grid(c, with_comm=False, workers=2)
        assert serial == parallel

    def test_workers_one_is_serial_path(self):
        c = ExperimentConfig(**FAST)
        assert run_grid(c, with_comm=False, workers=1) == run_grid(
            c, with_comm=False
        )
