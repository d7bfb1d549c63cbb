"""Tests for the whole-program lint rules (RPL101–105 in ``repro lint``).

Mirrors the layering of ``tests/test_lint.py`` at the program level:

* **clean-tree gate** — the whole-program rules must be clean on
  ``src/repro``, making RPL101–105 repo-wide invariants;
* **fixture pairs** — each ``tests/lint_fixtures/deep/RPL10X_bad/``
  package (multi-file: the violation only exists *across* files) must
  trigger exactly rule RPL10X with the expected count, each
  ``RPL10X_ok/`` package must be silent;
* **mutation self-tests** — neuter each deep rule's ``check_program``
  (and the root/fact derivations they depend on) and assert the bad
  fixture goes quiet, proving the fixtures exercise live checkers;
* **graph mechanics** — the pinned call-graph golden (edge triples for
  the ``callgraph/`` fixture package) and fixpoint propagation;
* **CLI surface** — exit codes for whole-program findings, the
  path-error contract (missing / unreadable / no python files → exit 2),
  and the <30 s full-tree timing budget the CI job relies on.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.cli import main
from repro.lint import (
    Program,
    build_program,
    get_rule,
    iter_python_files,
    lint_paths,
    parse_paths,
)
from repro.lint.dataflow import propagate_any, worker_entrypoints

DEEP_FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "lint_fixtures", "deep"
)
CALLGRAPH_GOLDEN = os.path.join(
    os.path.dirname(__file__), "goldens", "callgraph_edges.json"
)
SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: Rule code → number of findings its known-bad fixture package must
#: produce.  Exact counts so a checker that half-breaks still fails.
EXPECTED_DEEP_BAD = {
    "RPL101": 2,
    "RPL102": 2,
    "RPL103": 2,
    "RPL104": 1,
    "RPL105": 2,
}

DEEP_CODES = sorted(EXPECTED_DEEP_BAD)


def _package(code: str, kind: str) -> str:
    return os.path.join(DEEP_FIXTURE_DIR, f"{code}_{kind}")


def _lint_package(code: str, kind: str):
    return lint_paths([_package(code, kind)], rules=[get_rule(code)])


def _program(path: str) -> Program:
    contexts, _ = parse_paths([path])
    return build_program(contexts)


# ---------------------------------------------------------------------------
# Clean-tree gate
# ---------------------------------------------------------------------------


class TestCleanTree:
    def test_src_repro_is_deep_clean(self):
        report = lint_paths(
            [SRC_REPRO], rules=[get_rule(code) for code in DEEP_CODES]
        )
        assert report.files_checked > 50
        assert report.ok, "\n" + report.format_text()

    def test_deep_rules_are_registered_and_marked(self):
        for code in DEEP_CODES:
            rule = get_rule(code)
            assert rule.deep is True
            assert rule.check(None) == []  # file-local pass: no-op

    def test_worker_entrypoints_exist_in_tree(self):
        # The spawn-safety and span-safety rules are vacuous without
        # roots; the real tree must provide them.
        program = _program(SRC_REPRO)
        roots = worker_entrypoints(program)
        assert any(q.endswith(".init_worker") for q in roots)
        assert any(q.endswith(".run_chunk") for q in roots)

    def test_the_one_pool_initializer_is_a_root(self):
        # src/repro builds exactly one worker pool; the initializer every
        # worker runs must be in the table RPL101 roots its walk at.
        import ast

        from repro.lint.dataflow import WORKER_ENTRYPOINT_NAMES

        initializers = []
        for path in iter_python_files([SRC_REPRO]):
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)
                ) == "ProcessPoolExecutor":
                    initializers += [
                        kw.value.id for kw in node.keywords
                        if kw.arg == "initializer"
                    ]
        assert initializers == ["init_worker"]
        assert set(initializers) <= WORKER_ENTRYPOINT_NAMES

    def test_tree_has_engine_taker_call_sites(self):
        # RPL103 must actually be checking edges on the real tree.
        program = _program(SRC_REPRO)
        checked = 0
        for fn in program.functions.values():
            if not fn.accepts_engine:
                continue
            for site in fn.calls:
                if any(
                    c in program.functions
                    and program.functions[c].accepts_engine
                    for c in site.callees
                ):
                    checked += 1
        assert checked >= 10


# ---------------------------------------------------------------------------
# Fixture pairs (multi-file packages)
# ---------------------------------------------------------------------------


class TestFixturePairs:
    @pytest.mark.parametrize("code", DEEP_CODES)
    def test_bad_package_triggers_its_rule(self, code):
        report = _lint_package(code, "bad")
        assert len(report.diagnostics) == EXPECTED_DEEP_BAD[code], (
            "\n" + report.format_text()
        )
        for diag in report.diagnostics:
            assert diag.rule == code
            assert diag.line > 0
            assert os.path.exists(diag.path)

    @pytest.mark.parametrize("code", DEEP_CODES)
    def test_ok_package_is_silent(self, code):
        report = _lint_package(code, "ok")
        assert report.ok, "\n" + report.format_text()

    @pytest.mark.parametrize("code", DEEP_CODES)
    def test_bad_findings_sit_on_distinct_lines(self, code):
        report = _lint_package(code, "bad")
        locations = {(d.path, d.line) for d in report.diagnostics}
        assert len(locations) == len(report.diagnostics)

    def test_violations_are_cross_file(self):
        # Each bad package really needs the whole-program view: the file
        # containing the finding must not be self-sufficient (it imports
        # a sibling fixture file that completes the violation).
        for code in DEEP_CODES:
            report = _lint_package(code, "bad")
            package_files = iter_python_files([_package(code, "bad")])
            assert len(package_files) >= 2
            flagged = {d.path for d in report.diagnostics}
            assert flagged < set(package_files)


# ---------------------------------------------------------------------------
# Mutation self-tests
# ---------------------------------------------------------------------------


class TestMutation:
    @pytest.mark.parametrize("code", DEEP_CODES)
    def test_neutered_checker_fails_the_fixture_expectation(
        self, code, monkeypatch
    ):
        rule = get_rule(code)
        monkeypatch.setattr(
            type(rule), "check_program", lambda self, program: []
        )
        report = _lint_package(code, "bad")
        assert len(report.diagnostics) != EXPECTED_DEEP_BAD[code]

    def test_emptied_banned_set_fails_spawn_safety(self, monkeypatch):
        import repro.lint.rules.deep.spawn_safety as mod

        monkeypatch.setattr(mod, "SPAWN_BANNED_NAMES", frozenset())
        report = _lint_package("RPL101", "bad")
        assert not report.diagnostics

    def test_removed_roots_fail_span_safety(self, monkeypatch):
        import repro.lint.rules.deep.span_safety as mod

        monkeypatch.setattr(mod, "worker_entrypoints", lambda program: [])
        report = _lint_package("RPL104", "bad")
        assert not report.diagnostics


# ---------------------------------------------------------------------------
# Graph mechanics: golden, propagation
# ---------------------------------------------------------------------------


class TestGraph:
    def _fixture_program(self) -> Program:
        return _program(os.path.join(DEEP_FIXTURE_DIR, "callgraph"))

    def test_callgraph_matches_golden(self):
        # Regenerate with:
        #   PYTHONPATH=src python scripts/regenerate_goldens.py --write
        with open(CALLGRAPH_GOLDEN, encoding="utf-8") as fh:
            stored = json.load(fh)
        current = self._fixture_program().edges_json()
        assert current == stored, (
            "call-graph resolution drifted — review and regenerate the "
            "golden if intended"
        )

    def test_golden_covers_every_edge_kind(self):
        kinds = {kind for _, _, kind in self._fixture_program().edges_json()}
        assert kinds == {"direct", "method", "init", "registry", "fallback"}

    def test_propagate_any_reaches_fixpoint_over_cycles(self):
        # Two functions calling each other: a local fact on one must
        # propagate to the other without looping forever.
        program = self._fixture_program()
        any_q = sorted(program.functions)[0]
        facts = propagate_any(program, {any_q: True})
        assert facts[any_q] is True
        assert set(facts) == set(program.functions)


# ---------------------------------------------------------------------------
# Pragmas on deep findings
# ---------------------------------------------------------------------------


class TestDeepPragmas:
    def _write_package(self, tmp_path, driver_body: str):
        (tmp_path / "sched.py").write_text(
            "# repro-lint-fixture: path=core/sched.py\n"
            "def schedule(inst, m, engine=None):\n"
            "    return inst\n"
        )
        (tmp_path / "driver.py").write_text(driver_body)
        return str(tmp_path)

    def test_justified_pragma_suppresses_deep_finding(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            "# repro-lint-fixture: path=experiments/driver.py\n"
            "from repro.core.sched import schedule\n"
            "def run(inst, m, engine=None):\n"
            "    return schedule(inst, m)  "
            "# repro-lint: disable=RPL103 -- benchmark pins the default\n",
        )
        report = lint_paths([pkg], rules=[get_rule("RPL103")])
        assert report.ok
        assert report.suppressed == 1

    def test_unjustified_pragma_does_not_suppress(self, tmp_path):
        pkg = self._write_package(
            tmp_path,
            "# repro-lint-fixture: path=experiments/driver.py\n"
            "from repro.core.sched import schedule\n"
            "def run(inst, m, engine=None):\n"
            "    return schedule(inst, m)  # repro-lint: disable=RPL103\n",
        )
        report = lint_paths([pkg], rules=[get_rule("RPL103")])
        # The finding stands, and the one pragma scan reports the missing
        # justification once, as for any rule selection.
        assert [(d.rule, d.line) for d in report.diagnostics] == [
            ("RPL103", 4), ("RPL000", 4),
        ]
        assert report.suppressed == 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_deep_clean_tree_exits_zero(self, capsys):
        assert main(["lint", SRC_REPRO]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_deep_bad_package_exits_one(self, capsys):
        assert main(["lint", _package("RPL103", "bad")]) == 1
        assert "RPL103" in capsys.readouterr().out

    def test_rule_list_mixes_file_local_and_deep_codes(self, capsys):
        code = main([
            "lint", _package("RPL102", "bad"), "--rule", "RPL003",
            "--rule", "RPL102", "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = sorted(f["rule"] for f in payload["findings"])
        assert rules == ["RPL003", "RPL003", "RPL102", "RPL102"]

    def test_deep_json_format(self, capsys):
        code = main([
            "lint", _package("RPL101", "bad"), "--rule", "RPL101",
            "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert {f["rule"] for f in payload["findings"]} == {"RPL101"}

    def test_list_rules_marks_scope(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in DEEP_CODES:
            assert f"{code} " in out or f"{code}  " in out
        assert "[deep]" in out and "[file]" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_no_python_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "README.md").write_text("not python\n")
        assert main(["lint", str(tmp_path)]) == 2
        assert "no python files" in capsys.readouterr().err

    def test_unreadable_file_exits_two(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "locked.py"
        target.write_text("x = 1\n")
        real_access = os.access
        monkeypatch.setattr(
            os, "access",
            lambda path, mode, **kw: (
                False if str(path) == str(target)
                else real_access(path, mode, **kw)
            ),
        )
        assert main(["lint", str(target)]) == 2
        assert "unreadable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Timing budget
# ---------------------------------------------------------------------------


class TestTiming:
    def test_full_tree_deep_pass_under_budget(self):
        # CI runs `repro lint` on every push; the whole pass — parse,
        # file-local rules, graph build, deep rules — must stay well
        # under 30 s or the lint job becomes the critical path.
        start = time.monotonic()
        report = lint_paths([SRC_REPRO])
        elapsed = time.monotonic() - start
        assert report.files_checked > 50
        assert elapsed < 30.0, f"deep pass took {elapsed:.1f}s"
