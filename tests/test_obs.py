"""Unit tests for the ``repro.obs`` tracing & metrics plane.

Covers the tracer (nesting/reentrancy, ring-buffer bounds, the disabled
no-op path, exception flush), the metrics registry (gating, merge
semantics), the cross-process payload round trip (success and exception
paths, through a real pickle), deterministic multi-list merge, and the
three exporters including Chrome trace-event schema validation.  The
multiprocess end-to-end lives in ``test_obs_grid.py``.
"""

from __future__ import annotations

import json
import os
import pickle
import threading

import pytest

from repro import obs
from repro.obs import tracer as tracer_mod


@pytest.fixture
def traced_env():
    """Tracing on, buffers empty; restores prior state afterwards."""
    was = obs.tracing_enabled()
    obs.reset()
    obs.enable_tracing()
    yield obs
    obs.reset()
    if not was:
        obs.disable_tracing()


@pytest.fixture
def untraced_env():
    """Tracing off, buffers empty; restores prior state afterwards."""
    was = obs.tracing_enabled()
    obs.disable_tracing()
    obs.reset()
    yield obs
    obs.reset()
    if was:
        obs.enable_tracing()


def _mk_span(name="s", pid=1, stream=1, start=0.0, dur=1.0, depth=0,
             cat="repro", args=None):
    return obs.Span(name, cat, start, dur, pid, stream, depth, args)


# ---------------------------------------------------------------------------
# Tracer: nesting, reentrancy, buffer, disabled path
# ---------------------------------------------------------------------------


class TestSpanNesting:
    def test_nested_spans_record_depths_and_close_order(self, traced_env):
        with obs.span("outer", cat="t"):
            with obs.span("inner", cat="t"):
                pass
        spans = obs.drain_spans()
        assert [s.name for s in spans] == ["inner", "outer"]
        assert [s.depth for s in spans] == [1, 0]
        assert all(s.pid == os.getpid() for s in spans)
        assert all(s.stream == threading.get_ident() for s in spans)
        # Inner is contained in outer on the shared timeline.
        inner, outer = spans
        assert outer.start <= inner.start
        assert inner.start + inner.dur <= outer.start + outer.dur + 1e-9

    def test_reentrant_recursion_tracks_depth(self, traced_env):
        @obs.traced("fib", cat="t")
        def fib(n):
            return n if n < 2 else fib(n - 1) + fib(n - 2)

        assert fib(4) == 3
        spans = obs.drain_spans()
        assert all(s.name == "fib" for s in spans)
        assert max(s.depth for s in spans) >= 2
        assert min(s.depth for s in spans) == 0

    def test_depth_recovers_after_exception(self, traced_env):
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError
        with obs.span("after"):
            pass
        spans = {s.name: s for s in obs.drain_spans()}
        # The interrupted span still landed in the buffer (flush-on-
        # exception contract), and depth unwound to 0 for the next span.
        assert spans["boom"].depth == 0
        assert spans["after"].depth == 0

    def test_args_fn_evaluated_lazily_at_close(self, traced_env):
        calls = []
        with obs.span("s", args_fn=lambda: calls.append(1) or {"k": 7}):
            assert calls == []  # not yet — only at span close
        (s,) = obs.drain_spans()
        assert calls == [1]
        assert s.args == {"k": 7}

    def test_traced_decorator_defaults_to_qualname(self, traced_env):
        @obs.traced()
        def my_fn():
            return 42

        assert my_fn() == 42
        (s,) = obs.drain_spans()
        assert "my_fn" in s.name
        assert my_fn.__name__ == "my_fn"  # functools.wraps preserved


class TestDisabledPath:
    def test_span_is_shared_noop_and_records_nothing(self, untraced_env):
        h1 = obs.span("a")
        h2 = obs.span("b", cat="x", args_fn=lambda: {"never": True})
        assert h1 is h2  # one shared singleton, zero allocation
        with h1:
            pass
        assert obs.drain_spans() == []

    def test_args_fn_never_called_when_disabled(self, untraced_env):
        calls = []
        with obs.span("s", args_fn=lambda: calls.append(1) or {}):
            pass
        assert calls == []

    def test_traced_function_still_runs(self, untraced_env):
        @obs.traced("t")
        def f(x):
            return x + 1

        assert f(1) == 2
        assert obs.drain_spans() == []

    def test_metrics_are_noops_when_disabled(self, untraced_env):
        obs.inc("c", 5)
        obs.gauge("g", 1.0)
        obs.gauge_max("h", 2.0)
        snap = obs.metrics_snapshot()
        assert snap == {"counters": {}, "gauges": {}}

    def test_export_payload_is_none_when_disabled(self, untraced_env):
        assert obs.export_payload() is None

    def test_env_var_controls_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert tracer_mod._env_enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not tracer_mod._env_enabled()
        monkeypatch.delenv("REPRO_TRACE")
        assert not tracer_mod._env_enabled()


class TestTimed:
    def test_disabled_records_nothing_but_measures(self, untraced_env):
        calls = []
        with obs.timed("t", args_fn=lambda: calls.append(1) or {}) as h:
            sum(range(1000))
        assert h.elapsed > 0
        assert calls == []
        assert obs.drain_spans() == []

    def test_disabled_handle_leaves_depth_alone(self, untraced_env):
        with obs.timed("outer"):
            assert getattr(tracer_mod._LOCAL, "depth", 0) == 0
        obs.enable_tracing()
        try:
            with obs.span("inner"):
                pass
        finally:
            obs.disable_tracing()
        (s,) = obs.drain_spans()
        assert s.depth == 0

    def test_enabled_span_dur_is_elapsed_bit_for_bit(self, traced_env):
        with obs.timed("outer", cat="t", args_fn=lambda: {"a": 1}) as outer:
            with obs.timed("inner", cat="t") as inner:
                pass
        spans = {s.name: s for s in obs.drain_spans()}
        assert spans["inner"].dur == inner.elapsed
        assert spans["outer"].dur == outer.elapsed
        assert spans["outer"].args == {"a": 1}
        assert (spans["outer"].depth, spans["inner"].depth) == (0, 1)

    def test_exception_still_sets_elapsed_and_records(self, traced_env):
        h = obs.timed("boom")
        with pytest.raises(RuntimeError):
            with h:
                raise RuntimeError("x")
        (s,) = obs.drain_spans()
        assert h.elapsed > 0 and s.dur == h.elapsed

    def test_handle_is_never_the_shared_noop(self, untraced_env):
        assert obs.timed("a") is not obs.timed("a")


class TestRingBuffer:
    def test_buffer_keeps_only_the_tail(self, traced_env):
        obs.enable_tracing(buffer_spans=4)
        try:
            for i in range(10):
                with obs.span(f"s{i}"):
                    pass
            names = [s.name for s in obs.drain_spans()]
            assert names == ["s6", "s7", "s8", "s9"]
        finally:
            obs.enable_tracing(buffer_spans=obs.DEFAULT_BUFFER_SPANS)

    def test_peek_does_not_drain(self, traced_env):
        with obs.span("s"):
            pass
        assert len(obs.peek_spans()) == 1
        assert len(obs.peek_spans()) == 1
        assert len(obs.drain_spans()) == 1
        assert obs.peek_spans() == []

    def test_env_buffer_parse(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "128")
        assert tracer_mod._env_buffer() == 128
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "not-a-number")
        assert tracer_mod._env_buffer() == obs.DEFAULT_BUFFER_SPANS
        monkeypatch.setenv("REPRO_TRACE_BUFFER", "-5")
        assert tracer_mod._env_buffer() == obs.DEFAULT_BUFFER_SPANS


# ---------------------------------------------------------------------------
# Deterministic merge
# ---------------------------------------------------------------------------


class TestMerge:
    def test_merge_is_independent_of_list_order(self):
        a = [_mk_span("a1", pid=2, start=1.0), _mk_span("a2", pid=2, start=3.0)]
        b = [_mk_span("b1", pid=1, start=2.0), _mk_span("b2", pid=1, start=0.5)]
        fwd = obs.merge_spans([a, b])
        rev = obs.merge_spans([b, a])
        assert fwd == rev
        assert [s.name for s in fwd] == ["b2", "b1", "a1", "a2"]

    def test_sort_key_orders_pid_stream_start_depth(self):
        spans = [
            _mk_span("d", pid=2, stream=1, start=0.0),
            _mk_span("c", pid=1, stream=2, start=0.0),
            _mk_span("b", pid=1, stream=1, start=1.0),
            _mk_span("a", pid=1, stream=1, start=0.0, depth=1),
            _mk_span("z", pid=1, stream=1, start=0.0, depth=0),
        ]
        merged = obs.merge_spans([spans])
        assert [s.name for s in merged] == ["z", "a", "b", "c", "d"]

    def test_stable_for_identical_keys(self):
        s1 = _mk_span("first")
        s2 = _mk_span("second")
        assert obs.span_sort_key(s1) == obs.span_sort_key(s2)
        assert [s.name for s in obs.merge_spans([[s1, s2]])] == [
            "first", "second"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counters_accumulate_and_drain(self, traced_env):
        obs.inc("c")
        obs.inc("c", 4)
        snap = obs.drain_metrics()
        assert snap["counters"] == {"c": 5}
        assert obs.metrics_snapshot() == {"counters": {}, "gauges": {}}

    def test_gauge_last_write_vs_high_water(self, traced_env):
        obs.gauge("g", 3.0)
        obs.gauge("g", 1.0)
        obs.gauge_max("h", 3.0)
        obs.gauge_max("h", 1.0)
        snap = obs.metrics_snapshot()
        assert snap["gauges"]["g"] == 1.0
        assert snap["gauges"]["h"] == 3.0

    def test_ingest_adds_counters_and_maxes_gauges(self, traced_env):
        obs.inc("c", 2)
        obs.gauge_max("g", 5.0)
        obs.ingest_metrics({"counters": {"c": 3}, "gauges": {"g": 4.0}})
        obs.ingest_metrics({"counters": {"c": 1}, "gauges": {"g": 9.0}})
        snap = obs.metrics_snapshot()
        assert snap["counters"]["c"] == 6
        assert snap["gauges"]["g"] == 9.0

    def test_merge_metrics_is_order_independent(self):
        s1 = {"counters": {"c": 1}, "gauges": {"g": 2.0}}
        s2 = {"counters": {"c": 4, "d": 1}, "gauges": {"g": 1.0, "h": 7.0}}
        fwd = obs.merge_metrics([s1, s2])
        rev = obs.merge_metrics([s2, s1])
        assert fwd == rev
        assert fwd == {"counters": {"c": 5, "d": 1},
                       "gauges": {"g": 2.0, "h": 7.0}}


# ---------------------------------------------------------------------------
# Cross-process payload round trip (through a real pickle)
# ---------------------------------------------------------------------------


class TestPayload:
    def test_export_ingest_round_trip_via_pickle(self, traced_env):
        with obs.span("work", cat="t", args_fn=lambda: {"n": 3}):
            pass
        obs.inc("jobs", 3)
        payload = obs.export_payload()
        assert payload is not None and payload["pid"] == os.getpid()
        # Export drained the local buffers.
        assert obs.peek_spans() == []
        wire = pickle.loads(pickle.dumps(payload))
        obs.ingest_payload(wire)
        spans = obs.drain_spans()
        assert [s.name for s in spans] == ["work"]
        assert spans[0].args == {"n": 3}
        assert obs.drain_metrics()["counters"] == {"jobs": 3}

    def test_ingest_none_is_noop(self, traced_env):
        obs.ingest_payload(None)
        assert obs.drain_spans() == []

    def test_exception_carries_payload_through_pickle(self, traced_env):
        with obs.span("doomed"):
            pass
        exc = RuntimeError("chunk failed")
        obs.attach_payload_to_exception(exc)
        # BaseException.__reduce__ preserves __dict__, so the payload
        # survives the pool's pickle round trip.
        wire_exc = pickle.loads(pickle.dumps(exc))
        assert obs.recover_payload_from_exception(wire_exc)
        assert [s.name for s in obs.drain_spans()] == ["doomed"]
        # Removed from the exception: a retry cannot double-ingest.
        assert not obs.recover_payload_from_exception(wire_exc)

    def test_attach_is_noop_when_disabled(self, untraced_env):
        exc = RuntimeError("x")
        obs.attach_payload_to_exception(exc)
        assert not hasattr(exc, "obs_payload")
        assert not obs.recover_payload_from_exception(exc)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestChromeExport:
    def test_event_structure_and_units(self):
        spans = [
            _mk_span("task", pid=7, stream=11, start=1.5, dur=0.25,
                     args={"m": 8}),
            _mk_span("task", pid=9, stream=12, start=2.0, dur=0.5),
        ]
        payload = obs.chrome_trace(spans, metrics={"counters": {"c": 1}})
        assert obs.validate_chrome_trace(payload) == []
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        complete = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        # One process_name label per pid; min pid is the driver.
        assert {e["pid"] for e in meta} == {7, 9}
        labels = {e["pid"]: e["args"]["name"] for e in meta}
        assert "driver" in labels[7] and "worker" in labels[9]
        ev = complete[0]
        assert ev["ts"] == pytest.approx(1.5e6)  # seconds -> microseconds
        assert ev["dur"] == pytest.approx(0.25e6)
        assert ev["args"] == {"m": 8}
        assert payload["otherData"]["metrics"] == {"counters": {"c": 1}}

    def test_validator_catches_broken_payloads(self):
        assert obs.validate_chrome_trace([]) != []
        assert obs.validate_chrome_trace({}) != []
        assert obs.validate_chrome_trace({"traceEvents": []}) != []
        bad_ph = {"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "tid": 1}]}
        assert any("ph" in p for p in obs.validate_chrome_trace(bad_ph))
        neg = {"traceEvents": [
            {"name": "x", "ph": "X", "pid": 1, "tid": 1, "ts": -1, "dur": 0}]}
        assert any("ts" in p for p in obs.validate_chrome_trace(neg))
        meta_only = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0}]}
        assert any("complete" in p for p in obs.validate_chrome_trace(meta_only))

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        spans = [_mk_span("a"), _mk_span("b", start=2.0)]
        written = obs.write_chrome_trace(str(path), spans)
        loaded = json.loads(path.read_text())
        assert loaded == written
        assert obs.validate_chrome_trace(loaded) == []

    def test_write_refuses_empty_trace(self, tmp_path):
        with pytest.raises(ValueError, match="invalid chrome trace"):
            obs.write_chrome_trace(str(tmp_path / "empty.json"), [])


class TestOtherExports:
    def test_flat_json_round_trips_every_field(self):
        s = _mk_span("n", pid=3, stream=4, start=1.0, dur=2.0, depth=1,
                     cat="c", args={"k": "v"})
        payload = obs.flat_json([s], metrics={"counters": {"x": 1}})
        assert payload["spans"] == [{
            "name": "n", "cat": "c", "start": 1.0, "dur": 2.0,
            "pid": 3, "stream": 4, "depth": 1, "args": {"k": "v"},
        }]
        assert payload["metrics"] == {"counters": {"x": 1}}
        json.dumps(payload)  # must be serialisable as-is

    def test_summary_text_table_and_metrics(self):
        spans = [_mk_span("hot", dur=0.010)] * 3 + [_mk_span("cold", dur=0.001)]
        text = obs.summary_text(
            spans,
            metrics={"counters": {"c": 2}, "gauges": {"g": 1.5}},
            top=10,
        )
        lines = text.splitlines()
        assert "span" in lines[0] and "p95_ms" in lines[0]
        # Sorted by total time: hot (30ms) above cold (1ms).
        assert lines[1].startswith("hot") and "3" in lines[1]
        assert lines[2].startswith("cold")
        assert "c = 2" in text and "g = 1.5" in text

    def test_summary_truncates_to_top_n(self):
        spans = [_mk_span(f"s{i}") for i in range(8)]
        text = obs.summary_text(spans, top=3)
        assert "... 5 more span names" in text
