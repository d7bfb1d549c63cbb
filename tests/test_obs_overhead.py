"""Disabled-mode overhead smoke for the ``repro.obs`` instrumentation.

The tracing plane's design center is that instrumentation left in the
scheduler engines costs ~nothing while tracing is off.  Wall-clock A/B
runs of the same engine are too noisy on shared CI boxes to resolve a
small overhead, so this bounds it the robust way: measure the *actual*
per-call cost of the disabled primitives (``span``/``inc``/``gauge_max``
with tracing off), multiply by a generous over-count of the
instrumentation sites one ``mesh_large`` engine run executes, and
require the product to stay under 2% of the measured engine wall time.
Marked ``bench_smoke`` alongside the other timing-sensitive smokes:

    python -m pytest -q -m bench_smoke
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.core.assignment import random_cell_assignment
from repro.core.list_scheduler import list_schedule
from repro.core.random_delay import delayed_task_layers, draw_delays
from repro.experiments.bench import bench_cases
from repro.util.rng import as_rng
from repro.util.timing import now

pytestmark = pytest.mark.bench_smoke

#: Generous over-count of obs primitive calls per engine run.  One run
#: executes a handful (1-2 spans, <=4 counters, <=1 gauge); 64 leaves
#: an order of magnitude of slack for future instrumentation points.
_CALLS_PER_RUN = 64

#: The acceptance bound: disabled-mode instrumentation within 2%.
_MAX_OVERHEAD_FRACTION = 0.02


@pytest.fixture(scope="module")
def mesh_large():
    """The smoke-sized mesh_large bench case, set up like run_bench."""
    case = next(
        c for c in bench_cases(smoke=True) if c["family"] == "mesh_large"
    )
    inst, _phases = case["build"]()
    m = case["m"]
    rng = as_rng(0)
    delays = draw_delays(inst.k, rng)
    assignment = random_cell_assignment(inst.n_cells, m, rng)
    priority = delayed_task_layers(inst, delays)
    union = inst.union_dag()
    union.successor_lists()
    union.successor_csr()
    union.num_levels()
    return inst, m, assignment, priority


@pytest.fixture
def untraced():
    was = obs.tracing_enabled()
    obs.disable_tracing()
    obs.reset()
    yield
    obs.reset()
    if was:
        obs.enable_tracing()


def _disabled_primitive_cost(iterations: int = 20000) -> float:
    """Measured per-call cost of the disabled obs fast path (seconds)."""
    t0 = now()
    for _ in range(iterations):
        with obs.span("overhead.probe", cat="bench"):
            pass
        obs.inc("overhead.probe")
        obs.gauge_max("overhead.probe", 1.0)
    # Three primitives per iteration; charge the dearest uniformly.
    return (now() - t0) / (3 * iterations)


def _engine_wall(inst, m, assignment, priority, engine, repeats=5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = now()
        list_schedule(inst, m, assignment, priority=priority, engine=engine)
        best = min(best, now() - t0)
    return best


class TestDisabledOverhead:
    def test_disabled_primitives_record_nothing(self, untraced):
        _disabled_primitive_cost(iterations=100)
        assert obs.drain_spans() == []
        assert obs.drain_metrics() == {"counters": {}, "gauges": {}}

    @pytest.mark.parametrize("engine", ["heap", "vector"])
    def test_instrumentation_within_two_percent_of_mesh_large(
        self, mesh_large, untraced, engine
    ):
        inst, m, assignment, priority = mesh_large
        # Interleave the measurements so a machine-load drift hits both.
        wall_a = _engine_wall(inst, m, assignment, priority, engine)
        per_call = _disabled_primitive_cost()
        wall_b = _engine_wall(inst, m, assignment, priority, engine)
        wall = min(wall_a, wall_b)
        overhead = _CALLS_PER_RUN * per_call
        assert overhead < _MAX_OVERHEAD_FRACTION * wall, (
            f"disabled obs cost {overhead * 1e6:.1f}us exceeds 2% of the "
            f"{engine} engine's {wall * 1e3:.2f}ms mesh_large run"
        )

    def test_disabled_span_is_allocation_free(self, untraced):
        # The no-op handle is one shared singleton: opening a span with
        # tracing off allocates no object per call.
        handles = {id(obs.span(f"s{i}")) for i in range(32)}
        assert len(handles) == 1
