"""Smoke test for the benchmark harness (``repro bench --smoke``).

Runs the real harness end to end on a tiny mesh and validates the
schema-v7 report (heap and vector engine timings per family, per-phase timing
breakdowns with the v6 mesh/build/cache construction split, the
parallel grid section, the cold-vs-warm ``construction`` row, and the
v7 ``serve`` section racing the resident daemon against cold process
startup), so CI catches a broken benchmark (or a drifted schema)
without paying for the full ``BENCH_7.json`` regeneration.  The
committed-baseline tests at the bottom are the perf-regression gates:
the batched engine's mesh_large speedup, the structural-only warm on
wide_layer, the worker RSS ceiling, the (cpu-gated) absolute grid
throughput target, the v6 frozen-v5 setup/checksum/warm-construction
gates, and the v7 warm-serve latency gate.  Marked ``bench_smoke`` so CI can also
run it as a dedicated step:

    python -m pytest -q -m bench_smoke
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.bench import (
    BASELINE_SERIAL_ROWS_PER_SEC,
    BENCH_ENGINES,
    BENCH_SCHEMA_VERSION,
    TARGET_GRID_ROWS_FACTOR,
    TARGET_GRID_SPEEDUP,
    SERVE_WORKERS,
    TARGET_SETUP_SPEEDUP,
    TARGET_SPEEDUP,
    TARGET_WARM_CONSTRUCTION_SPEEDUP,
    TARGET_WARM_SERVE_SPEEDUP,
    V5_CASE_CHECKSUMS,
    V5_SETUP_S,
    WORKER_RSS_CEILING_MB,
    run_bench,
    validate_bench,
    write_bench,
)

pytestmark = pytest.mark.bench_smoke

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_7.json"


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True)


@pytest.fixture(scope="module")
def baseline():
    return json.loads(_BASELINE.read_text())


def test_smoke_report_is_schema_valid(smoke_report):
    assert validate_bench(smoke_report) == []
    assert smoke_report["schema_version"] == BENCH_SCHEMA_VERSION
    assert smoke_report["smoke"] is True
    assert smoke_report["cpu_count"] >= 1


def test_smoke_report_covers_all_families(smoke_report):
    families = {case["family"] for case in smoke_report["cases"]}
    assert families == {"mesh_large", "mesh_standard", "chain", "wide_layer"}
    for case in smoke_report["cases"]:
        assert case["n_tasks"] > 0
        assert case["makespan"] > 0
        assert isinstance(case["checksum"], int)
        assert case["auto_engine"] in BENCH_ENGINES
        for eng in BENCH_ENGINES:
            assert case["engines"][eng]["wall_time_s"] > 0
            assert case["engines"][eng]["tasks_per_sec"] > 0


def test_smoke_report_grid_section(smoke_report):
    grid = smoke_report["grid"]
    workers = sorted(run["workers"] for run in grid["runs"])
    assert workers == [1, 2]
    for run in grid["runs"]:
        assert run["identical_to_serial"] is True
        if run["workers"] > 1:
            assert run["n_chunks"] >= 1
            assert run["peak_worker_rss_mb"] > 0
    assert grid["leaked_segments"] == []


def test_smoke_report_case_phases(smoke_report):
    """Schema v6: every case splits acquisition into mesh/build/cache
    next to the v5 setup/warm pair."""
    for case in smoke_report["cases"]:
        phases = case["phases"]
        assert set(phases) >= {
            "mesh_s", "build_s", "cache_s", "setup_s", "warm_s"
        }
        for value in phases.values():
            assert value >= 0.0
        # Cache disabled in the smoke run; synthetic families have no mesh.
        assert phases["cache_s"] == 0.0
        if case["family"] in ("chain", "wide_layer"):
            assert phases["mesh_s"] == 0.0
        assert phases["build_s"] > 0.0


def test_smoke_report_construction_section(smoke_report):
    """The v6 cold-vs-warm construction row: a real cache hit with
    byte-identical arrays, even at smoke size."""
    c = smoke_report["construction"]
    assert c["cold_s"] > 0 and c["warm_s"] > 0
    assert c["cache_hits"] >= 1
    assert c["byte_identical"] is True


def test_smoke_report_serve_section(smoke_report):
    """The v7 serve section: bit-identical daemon runs at workers 1 and
    2, clean SIGTERM drains, no leaked segments, and a measured cold
    one-shot baseline."""
    serve = smoke_report["serve"]
    assert serve["cold"]["ok"] is True
    assert serve["cold"]["wall_time_s"] > 0
    assert sorted(run["workers"] for run in serve["runs"]) == [1, 2]
    for run in serve["runs"]:
        assert run["identical_to_serial"] is True
        assert run["clean_exit"] is True
        assert run["chunks_dispatched"] >= 1
        assert 0 < run["warm_p50_ms"] <= run["warm_p95_ms"]
        assert run["batched_requests_per_sec"] > 0
        assert run["unbatched_requests_per_sec"] > 0
    assert serve["leaked_segments"] == []
    assert serve["warm_vs_cold_speedup"] > 0


def test_full_report_rejects_missing_serve(smoke_report):
    broken = dict(smoke_report, serve=None)
    assert any("serve" in p for p in validate_bench(broken))


def test_validator_gates_warm_serve_speedup(smoke_report):
    """At full fidelity the warm-serve latency gate is enforced."""
    import copy

    report = copy.deepcopy(smoke_report)
    report["smoke"] = False
    report["cells"] = 2000
    report["seed"] = 1  # dodge the frozen-v5 gates; serve gate is not sized
    report["serve"]["warm_vs_cold_speedup"] = (
        TARGET_WARM_SERVE_SPEEDUP / 2.0
    )
    problems = validate_bench(report)
    assert any("warm serve speedup" in p for p in problems)
    assert any(
        f"lacks worker counts {sorted(set(SERVE_WORKERS) - {1, 2})}" in p
        for p in problems
    )


def test_partial_families_report():
    """``--families`` runs the subset only and omits grid/construction."""
    report = run_bench(smoke=True, families=["chain"])
    assert validate_bench(report) == []
    assert report["partial"] is True
    assert report["families"] == ["chain"]
    assert [c["family"] for c in report["cases"]] == ["chain"]
    assert report["grid"] is None
    assert report["construction"] is None
    assert report["serve"] is None


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown bench families"):
        run_bench(smoke=True, families=["no_such_family"])


def test_full_report_rejects_missing_construction(smoke_report):
    broken = dict(smoke_report, construction=None)
    assert any("construction" in p for p in validate_bench(broken))


def test_validator_gates_on_frozen_v5_values(smoke_report):
    """At reference fidelity (non-smoke, default cells, seed 0) the
    validator enforces the frozen-v5 setup and checksum gates."""
    import copy

    report = copy.deepcopy(smoke_report)
    report["smoke"] = False
    report["cells"] = 2000
    report["seed"] = 0
    for case in report["cases"]:
        if case["family"] in V5_SETUP_S:
            case["phases"]["setup_s"] = (
                2.0 * V5_SETUP_S[case["family"]] / TARGET_SETUP_SPEEDUP
            )
        if case["family"] in V5_CASE_CHECKSUMS:
            case["checksum"] = V5_CASE_CHECKSUMS[case["family"]] + 1
    problems = validate_bench(report)
    assert sum("misses the" in p for p in problems) == len(V5_SETUP_S)
    assert sum("frozen v5 value" in p for p in problems) == len(
        V5_CASE_CHECKSUMS
    )


def test_smoke_report_grid_phases(smoke_report):
    """Schema v5: serial runs record ``run_s``; parallel runs record the
    dispatcher's warm/plan/publish/dispatch/wait breakdown, with the
    sub-phases consistent with the run's total wall time."""
    for run in smoke_report["grid"]["runs"]:
        phases = run["phases"]
        if run["workers"] == 1:
            assert set(phases) == {"run_s"}
            assert phases["run_s"] >= 0.0
        else:
            assert set(phases) == {
                "warm_s", "plan_s", "publish_s", "dispatch_s", "wait_s"
            }
            for value in phases.values():
                assert value >= 0.0
            # wait_s is the stalled portion of the pool's lifetime.
            assert phases["wait_s"] <= phases["dispatch_s"] + 1e-9
            setup = (phases["warm_s"] + phases["plan_s"]
                     + phases["publish_s"] + phases["dispatch_s"])
            assert setup <= run["wall_time_s"] * 1.5 + 1e-9


def test_write_bench_round_trips(smoke_report, tmp_path):
    out = tmp_path / "BENCH_7.json"
    write_bench(smoke_report, str(out))
    on_disk = json.loads(out.read_text())
    assert validate_bench(on_disk) == []
    assert on_disk["cases"][0]["checksum"] == smoke_report["cases"][0]["checksum"]


def test_write_bench_rejects_invalid_report(tmp_path):
    broken = {"schema_version": 1, "cases": []}
    with pytest.raises(ValueError, match="invalid bench report"):
        write_bench(broken, str(tmp_path / "bad.json"))


def test_cli_smoke_writes_report(tmp_path):
    out = tmp_path / "BENCH_7.json"
    rc = main(["bench", "--smoke", "--out", str(out)])
    assert rc in (0, None)
    report = json.loads(out.read_text())
    assert validate_bench(report) == []


def test_committed_baseline_is_schema_valid(baseline):
    """The checked-in BENCH_7.json must always parse and validate."""
    assert validate_bench(baseline) == []
    assert baseline["smoke"] is False


def test_committed_baseline_warm_serve_latency(baseline):
    """The serve tentpole's acceptance gate: warm daemon p50 latency
    beats cold one-shot process startup by 5x or better, bit-identical
    to the serial runner, with every daemon drained clean."""
    serve = baseline["serve"]
    assert serve["warm_vs_cold_speedup"] >= TARGET_WARM_SERVE_SPEEDUP
    assert serve["cold"]["ok"] is True
    assert sorted(run["workers"] for run in serve["runs"]) == sorted(
        SERVE_WORKERS
    )
    for run in serve["runs"]:
        assert run["identical_to_serial"] is True
        assert run["clean_exit"] is True
    assert serve["leaked_segments"] == []


def test_committed_baseline_serve_batching_pays(baseline):
    """Pipelining the same requests through the coalescing window must
    beat one-request-per-round-trip throughput on every run — if it
    does not, the batcher is pure overhead."""
    for run in baseline["serve"]["runs"]:
        assert (
            run["batched_requests_per_sec"]
            > run["unbatched_requests_per_sec"]
        ), (
            f"workers={run['workers']}: batched "
            f"{run['batched_requests_per_sec']:.1f} req/s vs unbatched "
            f"{run['unbatched_requests_per_sec']:.1f} req/s"
        )


def test_committed_baseline_setup_speedup(baseline):
    """The batched builder's dividend: setup_s on the gated families
    beats the frozen v5 values by ``TARGET_SETUP_SPEEDUP`` or better."""
    for fam, v5 in V5_SETUP_S.items():
        case = next(c for c in baseline["cases"] if c["family"] == fam)
        assert case["phases"]["setup_s"] <= v5 / TARGET_SETUP_SPEEDUP, (
            f"{fam}: setup_s {case['phases']['setup_s']:.6f}s vs v5 "
            f"{v5:.6f}s"
        )


def test_committed_baseline_checksums_frozen(baseline):
    """Construction got faster; the schedules must be bit-unchanged."""
    for fam, checksum in V5_CASE_CHECKSUMS.items():
        case = next(c for c in baseline["cases"] if c["family"] == fam)
        assert case["checksum"] == checksum


def test_committed_baseline_warm_construction(baseline):
    """Cold-vs-warm: loading the cache entry beats rebuilding by the
    ``TARGET_WARM_CONSTRUCTION_SPEEDUP`` gate, byte-identically."""
    c = baseline["construction"]
    assert c["speedup"] >= TARGET_WARM_CONSTRUCTION_SPEEDUP
    assert c["byte_identical"] is True
    assert c["cache_hits"] >= 1


def test_committed_baseline_auto_picks_winner(baseline):
    """``engine="auto"`` must route every family to (near) its best engine.

    The regression contract from the crossover recalibration: on each
    committed bench family, the engine auto resolves to must be within
    10% of the faster engine's wall time.  A drifted width threshold
    (``_FRONTIER_MIN_WIDTH``) or a changed cost profile shows up here.
    """
    for case in baseline["cases"]:
        engines = case["engines"]
        best = min(engines, key=lambda e: engines[e]["wall_time_s"])
        auto = case["auto_engine"]
        assert (
            engines[auto]["wall_time_s"]
            <= 1.10 * engines[best]["wall_time_s"]
        ), (
            f"{case['family']}: auto picked {auto} "
            f"({engines[auto]['wall_time_s']:.4f}s) but {best} is faster "
            f"({engines[best]['wall_time_s']:.4f}s)"
        )


def test_committed_baseline_bucket_speedup(baseline):
    """The batched engine keeps its mesh_large win over the heap.

    The committed ``BENCH_7.json`` records heap/bucket; reports written
    since the bucket engine was folded into the frontier kernel record
    heap/vector in the same ``speedup`` field.
    """
    large = next(c for c in baseline["cases"] if c["family"] == "mesh_large")
    assert large["speedup"] >= TARGET_SPEEDUP


def test_committed_baseline_grid_criteria(baseline):
    """Grid gates: flat worker RSS always; wall-clock speedup when the
    machine has the cores (``cpu_count >= 4``) — a 1-core container can
    demonstrate correctness and memory flatness but not parallelism."""
    grid = baseline["grid"]
    runs = {run["workers"]: run for run in grid["runs"]}
    assert 1 in runs and len(runs) >= 2
    for run in grid["runs"]:
        assert run["identical_to_serial"] is True
    parallel = [run for w, run in runs.items() if w > 1]
    if len(parallel) >= 2:
        rss = [run["peak_worker_rss_mb"] for run in parallel]
        # Shared instance plane: adding workers must not grow per-worker
        # memory (each attaches the same segment instead of copying).
        assert max(rss) <= 1.25 * min(rss)
    if baseline["cpu_count"] >= 4 and 4 in runs:
        speedup = runs[1]["wall_time_s"] / runs[4]["wall_time_s"]
        assert speedup >= TARGET_GRID_SPEEDUP


def test_committed_baseline_worker_rss_ceiling(baseline):
    """Every parallel run's peak worker RSS sits under the v5 ceiling.

    Spawn-context workers attach to the shared store in a fresh
    interpreter; a regression toward fork-style heap inheritance (the
    old ~860 MiB VmHWM) or a worker-side rebuild of the big caches
    breaches this immediately.
    """
    for run in baseline["grid"]["runs"]:
        if run["workers"] > 1:
            assert 0 < run["peak_worker_rss_mb"] < WORKER_RSS_CEILING_MB, (
                f"workers={run['workers']}: peak worker RSS "
                f"{run['peak_worker_rss_mb']:.1f} MiB vs ceiling "
                f"{WORKER_RSS_CEILING_MB:.0f} MiB"
            )


def test_committed_baseline_wide_layer_warm_is_structural(baseline):
    """The wide_layer warm phase stays under a second.

    Schema v4 charged a dense successor-matrix build plus an
    ``np.subtract.at`` level sweep to this family's warm (6.77 s
    committed); v5's warm is
    the structural trio (CSR, in-degrees, hybrid-decrement levels) and
    must stay two orders of magnitude below that.
    """
    wide = next(
        c for c in baseline["cases"] if c["family"] == "wide_layer"
    )
    assert wide["phases"]["warm_s"] < 1.0


def test_committed_baseline_vector_wins_wide_layer(baseline):
    """The vector engine is the fastest engine on wide_layer and auto
    routes there — the tentpole's raison d'être, pinned."""
    wide = next(
        c for c in baseline["cases"] if c["family"] == "wide_layer"
    )
    engines = wide["engines"]
    best = min(engines, key=lambda e: engines[e]["wall_time_s"])
    assert best == "vector"
    assert wide["auto_engine"] == "vector"


def test_committed_baseline_grid_throughput(baseline):
    """Absolute grid throughput: the best parallel run must reach
    ``TARGET_GRID_ROWS_FACTOR`` x the committed v4 serial baseline —
    gated on ``cpu_count >= 4``, because a 1-core container cannot show
    wall-clock parallel speedup no matter how good the dispatcher is.
    """
    if baseline["cpu_count"] < 4:
        pytest.skip("grid throughput gate needs cpu_count >= 4")
    best = max(
        run["rows_per_sec"]
        for run in baseline["grid"]["runs"]
        if run["workers"] > 1
    )
    assert best >= TARGET_GRID_ROWS_FACTOR * BASELINE_SERIAL_ROWS_PER_SEC
