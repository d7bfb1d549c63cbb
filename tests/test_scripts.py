"""Smoke tests for the repository scripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
class TestScripts:
    def test_regenerate_experiments_tiny(self):
        """The one-shot regeneration script runs end to end at tiny scale
        and emits every experiment's table."""
        out = subprocess.run(
            [sys.executable, "scripts/regenerate_experiments.py", "--cells", "250"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        for marker in ("Fig 2(a)", "Fig 3(c)", "E9 block size",
                       "E16 latency", "E18 hetero costs"):
            assert marker in out.stdout

    def test_figures_paper_scale_fig2c(self):
        """``repro figures --scale paper`` runs a figure at the paper's
        mesh size (fig2c: ~61k cells, about 5 s)."""
        out = subprocess.run(
            [sys.executable, "-m", "repro", "figures", "fig2c",
             "--scale", "paper"],
            cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        assert "Fig 2(c)" in out.stdout
        assert "\n512 " in out.stdout  # the paper-scale m sweep
