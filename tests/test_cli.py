"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["schedule", "--algorithm", "bogus"])

    def test_rejects_unknown_mesh(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mesh", "--mesh", "bogus"])


class TestScheduleCommand:
    def test_basic_run(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--cells", "300", "-k", "4", "-m", "4",
            "--mesh", "square2d",
        )
        assert code == 0
        assert "makespan:" in out
        assert "ratio" in out

    def test_with_blocks_and_gantt(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--cells", "300", "-k", "4", "-m", "2",
            "--mesh", "square2d", "--block-size", "16", "--gantt",
        )
        assert code == 0
        assert "P0" in out

    def test_wall_clock_estimate(self, capsys):
        code, out, _ = run(
            capsys, "schedule", "--cells", "200", "-k", "4", "-m", "2",
            "--mesh", "square2d", "--comm-cost", "0.2",
        )
        assert code == 0
        assert "wall-clock estimate" in out

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "schedule", "--cells", "200", "--mesh", "square2d",
                      "-k", "4", "-m", "2", "--seed", "7")
        _, b, _ = run(capsys, "schedule", "--cells", "200", "--mesh", "square2d",
                      "-k", "4", "-m", "2", "--seed", "7")
        assert a == b


class TestOtherCommands:
    def test_mesh_report_and_save(self, capsys, tmp_path):
        out_path = tmp_path / "m.npz"
        code, out, _ = run(
            capsys, "mesh", "--cells", "200", "--mesh", "square2d",
            "--out", str(out_path),
        )
        assert code == 0
        assert out_path.exists()
        assert "cells" in out

    def test_partition(self, capsys):
        code, out, _ = run(
            capsys, "partition", "--cells", "300", "--mesh", "square2d",
            "--block-size", "16",
        )
        assert code == 0
        assert "edge cut" in out
        assert "balance" in out

    def test_transport_white_reports_exact(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--cells", "200", "--mesh", "square2d",
            "-k", "4", "-m", "2", "--boundary", "white",
            "--sigma-t", "1.0", "--sigma-s", "0.5", "--source", "2.0",
        )
        assert code == 0
        assert "infinite-medium exact value: 4.0000" in out
        assert "converged" in out

    def test_figures_single(self, capsys):
        code, out, _ = run(capsys, "figures", "fig2a", "--cells", "250")
        assert code == 0
        assert "Fig 2(a)" in out

    def test_figures_all_matches_golden(self, capsys):
        golden = Path(__file__).parent / "goldens" / "figures_cells300.txt"
        code, out, _ = run(capsys, "figures", "all", "--cells", "300")
        assert code == 0
        assert out == golden.read_text()

    def test_compare(self, capsys):
        code, out, _ = run(
            capsys, "compare", "random_delay_priority", "random_delay",
            "--cells", "250", "--mesh", "square2d", "-k", "4", "-m", "4",
            "--trials", "4",
        )
        assert code == 0
        assert "95% CI" in out
        assert "wins" in out

    def test_families(self, capsys):
        code, out, _ = run(capsys, "families", "--size", "32", "-k", "3", "-m", "3")
        assert code == 0
        assert "identical_chains" in out
        assert "rotated_chains" in out

    def test_transport_krylov(self, capsys):
        code, out, _ = run(
            capsys, "transport", "--cells", "200", "--mesh", "square2d",
            "-k", "4", "-m", "2", "--krylov",
        )
        assert code == 0
        assert "GMRES converged" in out


class TestTournamentCommand:
    def test_tournament_default_contenders(self, capsys):
        code, out, _ = run(
            capsys, "tournament", "--cells", "250", "--mesh", "square2d",
            "-k", "4", "-m", "4", "--trials", "4",
        )
        assert code == 0
        assert "ranking" in out
        assert "random_delay_priority" in out

    def test_tournament_explicit_algorithms(self, capsys):
        code, out, _ = run(
            capsys, "tournament", "fifo", "dfds", "--cells", "250",
            "--mesh", "square2d", "-k", "4", "-m", "4", "--trials", "4",
        )
        assert code == 0
        assert "fifo" in out and "dfds" in out
