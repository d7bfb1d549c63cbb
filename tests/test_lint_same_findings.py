"""Same-findings golden: every lint fixture target, every rule at once.

Each target — one flat ``tests/lint_fixtures/*.py`` file or one
``tests/lint_fixtures/deep/*`` package — is linted on its own with every
registered rule, file-local and whole-program alike.  The sorted
``(rule, file name, line, col)`` list is pinned per target, so any change
to what the linter reports on a fixture, including a finding from a rule
other than the one the fixture was written for, is a reviewable diff.
"""

from __future__ import annotations

import os

import pytest

from repro.lint import lint_paths

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "lint_fixtures")

#: Target (relative to ``tests/lint_fixtures``) → sorted findings.
EXPECTED_FINDINGS = {
    "RPL001_bad.py": [
        ("RPL001", "RPL001_bad.py", 3, 0),
        ("RPL001", "RPL001_bad.py", 11, 4),
        ("RPL001", "RPL001_bad.py", 16, 11),
        ("RPL001", "RPL001_bad.py", 20, 11),
        ("RPL001", "RPL001_bad.py", 24, 11),
        ("RPL001", "RPL001_bad.py", 28, 11),
    ],
    "RPL001_ok.py": [],
    "RPL002_bad.py": [
        ("RPL002", "RPL002_bad.py", 9, 11),
        ("RPL002", "RPL002_bad.py", 15, 11),
        ("RPL002", "RPL002_bad.py", 20, 11),
    ],
    "RPL002_ok.py": [],
    # The owning create at line 10 is unpaired program-wide too (RPL102).
    "RPL003_bad.py": [
        ("RPL003", "RPL003_bad.py", 10, 10),
        ("RPL003", "RPL003_bad.py", 16, 11),
        ("RPL102", "RPL003_bad.py", 10, 10),
    ],
    "RPL003_ok.py": [],
    "RPL004_bad.py": [
        ("RPL004", "RPL004_bad.py", 9, 11),
        ("RPL004", "RPL004_bad.py", 13, 19),
        ("RPL004", "RPL004_bad.py", 17, 11),
        ("RPL004", "RPL004_bad.py", 21, 11),
    ],
    "RPL004_ok.py": [],
    "RPL005_bad.py": [
        ("RPL005", "RPL005_bad.py", 10, 15),
        ("RPL005", "RPL005_bad.py", 15, 4),
        ("RPL005", "RPL005_bad.py", 22, 14),
    ],
    "RPL005_ok.py": [],
    "RPL006_bad.py": [
        ("RPL006", "RPL006_bad.py", 11, 9),
        ("RPL006", "RPL006_bad.py", 13, 11),
        ("RPL006", "RPL006_bad.py", 18, 18),
        ("RPL006", "RPL006_bad.py", 24, 34),
        ("RPL006", "RPL006_bad.py", 30, 35),
    ],
    "RPL006_ok.py": [],
    "RPL007_bad.py": [
        ("RPL007", "RPL007_bad.py", 15, 8),
        ("RPL007", "RPL007_bad.py", 19, 11),
        ("RPL007", "RPL007_bad.py", 20, 4),
        ("RPL007", "RPL007_bad.py", 21, 11),
        ("RPL007", "RPL007_bad.py", 25, 11),
        ("RPL007", "RPL007_bad.py", 26, 11),
    ],
    "RPL007_ok.py": [],
    "deep/RPL101_bad": [
        ("RPL101", "worker.py", 8, 4),
        ("RPL101", "worker.py", 12, 4),
    ],
    "deep/RPL101_ok": [],
    # The unpaired creates are outside any with/owner class (RPL003) too.
    "deep/RPL102_bad": [
        ("RPL003", "store.py", 18, 19),
        ("RPL003", "store.py", 25, 10),
        ("RPL102", "store.py", 18, 19),
        ("RPL102", "store.py", 25, 10),
    ],
    "deep/RPL102_ok": [],
    "deep/RPL103_bad": [
        ("RPL103", "driver.py", 9, 11),
        ("RPL103", "driver.py", 13, 11),
    ],
    "deep/RPL103_ok": [],
    "deep/RPL104_bad": [
        ("RPL104", "tasks.py", 8, 13),
    ],
    "deep/RPL104_ok": [],
    # The RNG constructor the seed escapes into is itself an RPL001.
    "deep/RPL105_bad": [
        ("RPL001", "noise.py", 9, 10),
        ("RPL105", "driver.py", 9, 11),
        ("RPL105", "driver.py", 13, 11),
    ],
    "deep/RPL105_ok": [],
    "deep/callgraph": [],
}


def test_targets_cover_every_fixture():
    flat = [n for n in os.listdir(FIXTURE_DIR) if n.endswith(".py")]
    deep = os.listdir(os.path.join(FIXTURE_DIR, "deep"))
    found = sorted(flat) + sorted(f"deep/{n}" for n in deep)
    assert sorted(found) == sorted(EXPECTED_FINDINGS)
    assert len(EXPECTED_FINDINGS) == 25
    assert sum(len(v) for v in EXPECTED_FINDINGS.values()) == 42


@pytest.mark.parametrize("target", sorted(EXPECTED_FINDINGS))
def test_target_findings_are_pinned(target):
    report = lint_paths([os.path.join(FIXTURE_DIR, target)])
    found = sorted(
        (d.rule, os.path.basename(d.path), d.line, d.col)
        for d in report.diagnostics
    )
    assert found == EXPECTED_FINDINGS[target]
