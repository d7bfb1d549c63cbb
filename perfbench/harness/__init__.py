"""The sweep-scheduling benchmark harness.

``run.py`` (next to this package) is the entry point; see
``perfbench/spec.json`` for what each workload stresses and which
end-to-end metric each per-layer metric should move.
"""
