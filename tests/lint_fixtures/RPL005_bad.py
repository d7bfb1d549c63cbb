# repro-lint-fixture: path=core/vector_scheduler.py
# Known-bad fixture for RPL005 (hot-path hygiene): all three banned
# idioms, inside a file the directive places on the benchmarked hot
# path.
import numpy as np


def growing_pool(pool, newly):
    for tid in newly:
        pool = np.append(pool, tid)  # O(n) copy per element
    return pool


def fifo_ready(ready, tid):
    ready.insert(0, tid)  # shifts the whole list
    return ready


def stepwise_concat(chunks):
    out = np.empty(0, dtype=np.int64)
    while chunks:
        out = np.concatenate([out, chunks.pop()])  # quadratic in steps
    return out
