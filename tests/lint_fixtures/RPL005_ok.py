# repro-lint-fixture: path=core/vector_scheduler.py
# Near-miss fixture for RPL005 (hot-path hygiene): nothing here may be
# flagged, even on the (virtual) hot path.
import numpy as np


def batched_insert(rest, codes):
    # np.insert is the sanctioned batched re-insertion, not list.insert.
    return np.insert(rest, np.searchsorted(rest, codes), codes)


def appended_ready(ready, tid):
    ready.append(tid)  # amortised O(1)
    return ready


def positional_insert(ready, tid):
    ready.insert(1, tid)  # not the head-insert anti-pattern
    return ready


def one_shot_concat(chunks):
    parts = []
    for chunk in chunks:
        parts.append(chunk)
    return np.concatenate(parts)  # single concatenate after the loop
