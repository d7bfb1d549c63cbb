"""Self-test of the benchmark harness, at tiny input sizes.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from harness.metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _run(*args: str, cwd: Path = ROOT, timeout: float = 600):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tiny(workload: str, *extra: str) -> dict:
    return _result(_run("--workload", workload, "--seed", "2", "--seconds", "1",
                        "--scale", "tiny", *extra))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_pass_emits_every_metric_with_its_unit(trace):
    res = _tiny("all", "--trace", trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    units = END_TO_END if trace == "0" else PER_LAYER
    assert set(res["metrics"]) == {f"{w}.{k}" for w in WORKLOADS for k in units}
    for w in WORKLOADS:
        for name, unit in units.items():
            metric = res["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit
            assert isinstance(metric["value"], (int, float)), (w, name)
            if trace == "0":
                assert metric["value"] > 0, (w, name)


def test_injected_invalid_schedule_is_one_failed_op():
    res = _tiny("grid_paper", "--inject", "bad_schedule")
    assert res["failed"] == 1 and res["correct"] is False
    assert res["attempted"] > 1
    assert res["metrics"]["p50_ms"]["value"] > 0


def test_injected_serve_mismatch_is_one_failed_op():
    res = _tiny("serve_open", "--inject", "serve_mismatch")
    assert res["failed"] == 1 and res["correct"] is False
    assert res["attempted"] > 1
    assert res["metrics"]["p90_ms"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "grid_paper", "--seed", "1", "--seconds", "1",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_design_record_covers_every_workload_and_metric():
    record = json.loads((BENCH / "spec.json").read_text())
    assert [w["name"] for w in record["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in record["per_layer"]} == set(PER_LAYER)
    assert {m["name"] for m in record["end_to_end"]} == set(END_TO_END)


def test_cell_matches_runner_and_alg2_parts():
    from harness.cells import ALG2, alg2_parts, run_cell
    from harness.metrics import GRID_ALGORITHMS
    from harness.trace import Tracer

    from repro.experiments.runner import run_cell_on
    from repro.mesh import make_mesh
    from repro.partition.multilevel import partition_mesh_blocks
    from repro.sweeps.dag_builder import build_instance_batched
    from repro.sweeps.directions import directions_for_mesh

    mesh = make_mesh("tetonly", target_cells=200, seed=4)
    inst = build_instance_batched(mesh, directions_for_mesh(mesh.dim, 8))
    blocks = partition_mesh_blocks(mesh.n_cells, mesh.adjacency, 16, seed=4)
    tr = Tracer(enabled=True, phase="timed")
    for alg in GRID_ALGORITHMS:
        for size, labels in ((1, None), (16, blocks)):
            cell = run_cell(tr, inst, alg, 8, 11, labels)
            assert cell.summary == run_cell_on(inst, alg, 8, size, 11,
                                               blocks=labels)
            if alg == ALG2:
                assert alg2_parts(tr, inst, cell) in ("heap", "bucket", "vector")


def test_timing_keeps_the_fastest_quarter_of_each_input():
    from harness.ledger import Ledger

    led = Ledger()
    for key, latency in [(0, 1.0), (0, 3.0), (0, 2.0), (0, 5.0), (0, 4.0),
                         (1, 10.0), (1, 20.0)]:
        led.ok(key, latency, [], 2, record_digest=False)
    assert sorted(led.kept_latencies()) == [1.0, 2.0, 10.0]
    assert led.rate() == pytest.approx(6 / 13.0)


def test_self_time_subtracts_covered_children():
    from harness.trace import SpanRecord, Tracer

    tr = Tracer()
    tr.spans = [
        SpanRecord("op", 0.0, 10.0, -1, 0, "timed"),
        SpanRecord("a", 1.0, 4.0, 0, 0, "timed"),
        SpanRecord("b", 3.0, 6.0, 0, 0, "timed"),  # overlaps a
        SpanRecord("c", 2.0, 2.5, 1, 0, "timed"),
    ]
    assert tr.self_times() == pytest.approx([5.0, 2.5, 3.0, 0.5])
