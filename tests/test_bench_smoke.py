"""Smoke test for the benchmark harness (``repro bench --smoke``) and its gates.

Runs the real harness end to end on a tiny mesh and checks the schema-v8
report against :data:`repro.experiments.bench.GATES`, so CI catches a
broken benchmark (or a drifted schema) without paying for a full run.
Every gate row is also run against the committed ``BENCH_7.json`` (read
as a v8 report) and against a copy doctored past that row's threshold,
which must fail that row and no other.  Marked ``bench_smoke``
so CI can also run it as a dedicated step:

    python -m pytest -q -m bench_smoke
"""

import copy
import json
from pathlib import Path

import pytest

from repro import cache as build_cache
from repro import obs
from repro.cli import main
from repro.experiments import runner
from repro.experiments.bench import (
    BENCH_FAMILIES,
    BENCH_SCHEMA_VERSION,
    GATES,
    V5_CASE_CHECKSUMS,
    V5_SETUP_S,
    evaluate_gates,
    run_bench,
    validate_bench,
    write_bench,
)
from repro.experiments.gates import select

pytestmark = pytest.mark.bench_smoke

_BASELINE = Path(__file__).resolve().parent.parent / "BENCH_7.json"

#: One doctoring per gate: ``(path, value)`` edits that push
#: ``BENCH_7.json`` past that gate's threshold and past no other's.
MUTATIONS = {
    "schema_version": [("schema_version", 7)],
    "all_families": [("families", ["mesh_large", "chain", "wide_layer"])],
    "case_counts": [("cases[family=chain].makespan", 0)],
    "case_engine_timings": [("cases[family=chain].engines.vector.tasks_per_sec", 0)],
    "case_phases": [("cases[family=chain].phases.cache_s", -1.0)],
    "auto_engine_timed": [("cases[family=chain].auto_engine", "no_such_engine")],
    "auto_within_10pct": [("cases[family=mesh_standard].engines.heap.wall_time_s", 1.0)],
    "mesh_large_speedup": [("cases[family=mesh_large].speedup", 1.0)],
    # 5% slower than bucket: no longer fastest, still within auto's 10%.
    "wide_layer_frontier_fastest": [
        ("cases[family=wide_layer].engines.vector.wall_time_s", 0.095)
    ],
    "wide_layer_warm": [("cases[family=wide_layer].phases.warm_s", 2.0)],
    **{
        f"setup_vs_v5_{fam}": [(f"cases[family={fam}].phases.setup_s", 1.0)]
        for fam in V5_SETUP_S
    },
    **{
        f"checksum_{fam}": [(f"cases[family={fam}].checksum", 0)]
        for fam in V5_CASE_CHECKSUMS
    },
    "construction_cache_hit": [("construction.cache_hits", 0)],
    "construction_byte_identical": [("construction.byte_identical", False)],
    "construction_speedup": [("construction.speedup", 4.0)],
}


@pytest.fixture(scope="module")
def smoke_report():
    return run_bench(smoke=True)


@pytest.fixture(scope="module")
def baseline():
    # v8 is v7 minus grid and serve; case and construction code is unchanged.
    report = json.loads(_BASELINE.read_text())
    del report["grid"], report["serve"]
    return dict(report, schema_version=BENCH_SCHEMA_VERSION)


def _statuses(report) -> dict:
    return {gate.name: status for gate, status, _ in evaluate_gates(report)}


def _failing(report) -> set:
    return {name for name, s in _statuses(report).items() if s == "fail"}


def _assert_pass(report, *names):
    statuses = _statuses(report)
    assert {n: statuses[n] for n in names} == dict.fromkeys(names, "pass")


@pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.name)
def test_gate(gate, baseline):
    """Each row passes on the baseline and fails, alone, on a copy
    doctored past its threshold."""
    assert _statuses(baseline)[gate.name] == "pass"
    doctored = copy.deepcopy(baseline)
    for path, value in MUTATIONS[gate.name]:
        for container, key in select(doctored, path):
            container[key] = value
    assert _failing(doctored) == {gate.name}


def test_smoke_report_is_schema_valid(smoke_report):
    assert validate_bench(smoke_report) == []
    assert smoke_report["schema_version"] == BENCH_SCHEMA_VERSION
    assert smoke_report["smoke"] is True


def test_smoke_report_records_built_cells(smoke_report):
    """``cells`` is the size construction built, not the pre-clamp size."""
    cells = smoke_report["cells"]
    assert cells == smoke_report["construction"]["cells"]


def test_smoke_report_covers_all_families(smoke_report):
    assert smoke_report["families"] == list(BENCH_FAMILIES)
    assert [c["family"] for c in smoke_report["cases"]] == list(BENCH_FAMILIES)
    assert all(isinstance(c["checksum"], int) for c in smoke_report["cases"])


def test_smoke_report_case_phases(smoke_report):
    for case in smoke_report["cases"]:
        phases = case["phases"]
        # Cache disabled in the smoke run; synthetic families have no mesh.
        assert phases["cache_s"] == 0.0
        if case["family"] in ("chain", "wide_layer"):
            assert phases["mesh_s"] == 0.0
        assert phases["build_s"] > 0.0
    _assert_pass(smoke_report, "case_phases")


def test_smoke_report_construction_section(smoke_report):
    """A real cache hit with byte-identical arrays, even at smoke size."""
    _assert_pass(smoke_report, "construction_cache_hit",
                 "construction_byte_identical")


def test_full_report_rejects_missing_construction(smoke_report):
    broken = dict(smoke_report, construction=None)
    assert "construction_byte_identical" in _failing(broken)


def test_validator_gates_on_frozen_v5_values(smoke_report):
    """At reference fidelity (non-smoke, default cells, seed 0) the
    frozen-v5 setup and checksum gates apply."""
    report = copy.deepcopy(smoke_report)
    report.update(smoke=False, cells=2000, seed=0)
    for case in report["cases"]:
        case["phases"]["setup_s"] = 1.0
        case["checksum"] += 1
    expected = {f"setup_vs_v5_{fam}" for fam in V5_SETUP_S}
    expected |= {f"checksum_{fam}" for fam in V5_CASE_CHECKSUMS}
    assert expected <= _failing(report)


def test_partial_families_report():
    """``--families`` runs the subset only and omits the construction
    section; its gates skip, the family gates skip the families not run."""
    report = run_bench(smoke=True, families=["chain"])
    assert validate_bench(report) == []
    assert report["partial"] is True
    assert report["families"] == ["chain"]
    assert [c["family"] for c in report["cases"]] == ["chain"]
    assert report["construction"] is None
    statuses = _statuses(dict(report, smoke=False, cells=2000, seed=0))
    assert statuses["construction_byte_identical"] == "skipped: partial report"
    assert statuses["checksum_wide_layer"] == "skipped: wide_layer not benchmarked"
    assert not statuses["checksum_chain"].startswith("skipped")


def test_traced_case_phases_are_their_spans():
    """Every case phase is the ``.elapsed`` of one timed interval —
    ``instance.*`` for acquisition, ``bench.*`` for the rest — so a
    traced run records it as a span of exactly that duration."""
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    try:
        report = run_bench(smoke=True, families=list(BENCH_FAMILIES))
        spans = obs.drain_spans()
    finally:
        obs.reset()
        if not was:
            obs.disable_tracing()
    # Drain order is close order: a case's spans close before the
    # bench.case span that encloses them.
    groups, current = [], []
    for span in spans:
        if span.name == "bench.case":
            groups.append((span.args["family"], current))
            current = []
        else:
            current.append(span)
    assert [fam for fam, _ in groups] == report["families"]
    for case, (_, inner) in zip(report["cases"], groups):
        durs = {}
        for span in inner:
            durs.setdefault(span.name, []).append(span.dur)
        phases = case["phases"]
        assert phases["mesh_s"] == durs.get("instance.mesh", [0.0])[0]
        (build,) = durs["instance.build"]
        (setup,) = durs["bench.setup"]
        (warm,) = durs["bench.warm"]
        cache = 0.0
        for d in durs.get("instance.cache_load", []) + durs.get(
            "instance.cache_store", []
        ):
            cache += d
        assert (phases["build_s"], phases["setup_s"], phases["warm_s"],
                phases["cache_s"]) == (build, setup, warm, cache)
        for engine, timing in case["engines"].items():
            repeats = [s.dur for s in inner if s.name == "bench.engine_repeat"
                       and s.args == {"engine": engine}]
            assert timing["wall_time_s"] == min(repeats)


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="unknown bench families"):
        run_bench(smoke=True, families=["no_such_family"])


def test_build_cache_warm_run_loads_instead_of_building(tmp_path, monkeypatch):
    """Cold run stores the instance; a warm run in a fresh in-memory state
    loads it from disk: same schedule, no build, verified by counters."""
    monkeypatch.setenv(build_cache.DIR_ENV, str(tmp_path))
    runner.clear_caches()
    build_cache.reset_counters()
    try:
        cold = run_bench(smoke=True, families=["mesh_large"])
        assert build_cache.COUNTERS["store"] >= 1, build_cache.COUNTERS
        runner.clear_caches()  # fresh-process simulation: disk only
        build_cache.reset_counters()
        warm = run_bench(smoke=True, families=["mesh_large"])
        assert build_cache.COUNTERS["hit"] > 0, build_cache.COUNTERS
        assert build_cache.list_corrupt_entries() == []
    finally:
        runner.clear_caches()
        build_cache.reset_counters()
    assert validate_bench(cold) == [] and validate_bench(warm) == []
    c, w = cold["cases"][0], warm["cases"][0]
    assert (c["checksum"], c["makespan"]) == (w["checksum"], w["makespan"])
    assert w["phases"]["cache_s"] > 0 and w["phases"]["build_s"] == 0


def test_write_bench_round_trips(smoke_report, tmp_path):
    out = tmp_path / "BENCH_8.json"
    write_bench(smoke_report, str(out))
    on_disk = json.loads(out.read_text())
    assert validate_bench(on_disk) == []
    assert on_disk["cases"][0]["checksum"] == smoke_report["cases"][0]["checksum"]


def test_write_bench_rejects_invalid_report(tmp_path):
    broken = {"schema_version": 1, "cases": []}
    with pytest.raises(ValueError, match="invalid bench report"):
        write_bench(broken, str(tmp_path / "bad.json"))


def test_cli_smoke_writes_report(tmp_path, capsys):
    out = tmp_path / "BENCH_8.json"
    assert main(["bench", "--smoke", "--out", str(out)]) == 0
    assert validate_bench(json.loads(out.read_text())) == []
    assert "construction_byte_identical  pass" in capsys.readouterr().out


def test_cli_fails_on_a_failing_gate(baseline, tmp_path, monkeypatch, capsys):
    """A failing gate exits 1 and writes nothing, for a file and for stdout."""
    doctored = copy.deepcopy(baseline)
    doctored["construction"]["speedup"] = 4.0
    monkeypatch.setattr(
        "repro.experiments.bench.run_bench", lambda **kwargs: doctored
    )
    out = tmp_path / "BENCH_8.json"
    for target in ("-", str(out)):
        assert main(["bench", "--out", target]) == 1
        captured = capsys.readouterr()
        assert "construction_speedup         fail" in captured.out
        assert "construction_speedup: 4 vs >= 5" in captured.err
        assert '"schema_version"' not in captured.out
    assert not out.exists()
