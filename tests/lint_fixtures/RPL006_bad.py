# repro-lint-fixture: path=core/vector_scheduler.py
# Known-bad fixture for RPL006 (obs-discipline): raw clock reads outside
# the timing chokepoint, plus eager span annotations in a file the
# directive places on the benchmarked hot path.
import time

from repro.obs import span, timed


def handrolled_timer(fn):
    t0 = time.perf_counter()  # raw clock read #1
    fn()
    return time.perf_counter() - t0  # raw clock read #2


def traced_cells(cells):
    for tid in cells:
        with span(f"cell {tid}"):  # f-string formatted per iteration
            pass


def traced_with_eager_args(cells):
    for tid in cells:
        with span("cell", args_fn={"tid": tid}):  # dict built per iteration
            pass


def timed_with_eager_args(cells):
    for tid in cells:
        with timed("cell", args_fn={"tid": tid}):  # dict built per iteration
            pass
