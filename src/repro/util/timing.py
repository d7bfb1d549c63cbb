"""Wall-clock timing: the repo's single raw-clock chokepoint.

:func:`now` is the only place the package reads ``time.perf_counter``
directly (lint rule RPL006 enforces this outside :mod:`repro.obs`).
Everything that measures wall-clock time — :func:`repro.obs.timed`,
the :mod:`repro.obs` span tracer, tests and scripts — goes through it, so
timestamps from different layers land on one comparable monotonic
timeline.  On Linux ``perf_counter`` is ``CLOCK_MONOTONIC``, which is
system-wide, so readings taken in different processes of one grid run
are directly comparable after a cross-process trace merge.
"""

from __future__ import annotations

import time

__all__ = ["now"]


def now() -> float:
    """Current monotonic reading in seconds (the raw-clock chokepoint)."""
    return time.perf_counter()
