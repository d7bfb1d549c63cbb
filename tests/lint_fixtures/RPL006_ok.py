# repro-lint-fixture: path=core/vector_scheduler.py
# Near-miss fixture for RPL006 (obs-discipline): nothing here may be
# flagged, even on the (virtual) hot path.
from repro.obs import span, timed
from repro.util.timing import now


def choked_timer(fn):
    # Measurement through the chokepoint, not time.perf_counter().
    t0 = now()
    fn()
    return now() - t0


def context_timer(fn):
    # A constant-named timed interval whose args hide behind a callable.
    with timed("call", args_fn=lambda: {"fn": fn.__name__}) as t:
        fn()
    return t.elapsed


def traced_cells(cells):
    for tid in cells:
        # Constant name; the dict hides behind a lazy callable.
        with span("cell", args_fn=lambda tid=tid: {"tid": tid}):
            pass


def formatted_elsewhere(tid):
    # f-strings outside span calls are fine — only the span annotation
    # itself must stay allocation-free.
    return f"cell {tid}"
