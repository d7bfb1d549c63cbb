"""Tests for the AST invariant linter (``repro.lint``).

Four layers of coverage:

* **clean-tree gate** — ``repro lint src/repro`` must be clean; this is
  the test that makes every rule a repo-wide invariant;
* **fixture pairs** — each ``tests/lint_fixtures/RPL00X_bad.py`` must
  trigger exactly rule RPL00X (with the expected finding count and real
  line numbers), each ``RPL00X_ok.py`` must be silent;
* **mutation self-tests** — neuter each rule's checker and assert the
  bad fixture goes quiet, proving the fixture actually exercises that
  checker (a rule whose ``check`` silently broke would fail here);
* **engine mechanics** — pragmas (suppression, required justification,
  JSON accounting), fixture path directives, syntax-error handling, and
  the CLI surface (exit codes, output formats).
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.cli import main
from repro.lint import (
    LintReport,
    all_rules,
    get_rule,
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
    package_relpath,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "lint_fixtures")
SRC_REPRO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro"
)

#: Rule code → number of findings its known-bad fixture must produce.
#: Exact counts (not ``> 0``) so a checker that half-breaks — stops
#: seeing one of the banned forms — still fails the suite.
EXPECTED_BAD = {
    "RPL001": 6,
    "RPL002": 3,
    "RPL003": 2,
    "RPL004": 4,
    "RPL005": 3,
    "RPL006": 5,
    "RPL007": 6,
}


def _fixture(code: str, kind: str) -> str:
    return os.path.join(FIXTURE_DIR, f"{code}_{kind}.py")


# ---------------------------------------------------------------------------
# Clean-tree gate
# ---------------------------------------------------------------------------


class TestCleanTree:
    def test_src_repro_is_lint_clean(self):
        # Every registered rule, file-local and whole-program, in one pass.
        report = lint_paths([SRC_REPRO])
        assert report.files_checked > 50
        assert report.ok, "\n" + report.format_text()

    def test_every_pragma_in_tree_is_justified(self):
        report = lint_paths([SRC_REPRO])
        for pragma in report.pragmas:
            assert pragma.justification, f"{pragma.path}:{pragma.line}"

    def test_registry_has_the_shipped_rules(self):
        codes = [r.code for r in all_rules()]
        assert codes == sorted(codes)
        assert set(EXPECTED_BAD) <= set(codes)


# ---------------------------------------------------------------------------
# Fixture pairs
# ---------------------------------------------------------------------------


class TestFixturePairs:
    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
    def test_bad_fixture_triggers_only_its_rule(self, code):
        report = lint_file(_fixture(code, "bad"))
        assert len(report.diagnostics) == EXPECTED_BAD[code], (
            "\n" + report.format_text()
        )
        assert {d.rule for d in report.diagnostics} == {code}
        for diag in report.diagnostics:
            assert diag.line > 0
            assert diag.path.endswith(f"{code}_bad.py")
            # file:line:col prefix is what editors and CI jump on.
            assert diag.format().startswith(f"{diag.path}:{diag.line}:")

    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
    def test_ok_fixture_is_silent(self, code):
        report = lint_file(_fixture(code, "ok"))
        assert report.ok, "\n" + report.format_text()

    def test_bad_fixtures_flag_distinct_lines(self):
        # Findings must carry real positions, not all point at line 1.
        for code in sorted(EXPECTED_BAD):
            report = lint_file(_fixture(code, "bad"))
            lines = {d.line for d in report.diagnostics}
            assert len(lines) > 1, code


# ---------------------------------------------------------------------------
# Mutation self-tests: break each checker, the fixtures must notice
# ---------------------------------------------------------------------------


class TestMutation:
    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
    def test_neutered_checker_fails_the_fixture_expectation(
        self, code, monkeypatch
    ):
        """If RPL00X's ``check`` stopped reporting, its bad fixture would
        lint clean — exactly the condition
        ``test_bad_fixture_triggers_only_its_rule`` asserts against."""
        rule = get_rule(code)
        before = lint_file(_fixture(code, "bad"))
        assert len(before.diagnostics) == EXPECTED_BAD[code]

        monkeypatch.setattr(rule, "check", lambda ctx: [])
        after = lint_file(_fixture(code, "bad"))
        assert len(after.diagnostics) == 0
        assert len(after.diagnostics) != EXPECTED_BAD[code]

    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
    def test_descoped_rule_fails_the_fixture_expectation(
        self, code, monkeypatch
    ):
        """A rule whose ``applies`` predicate broke (never in scope) is as
        dead as one whose checker broke; the fixtures catch that too."""
        rule = get_rule(code)
        monkeypatch.setattr(rule, "applies", lambda relpath: False)
        after = lint_file(_fixture(code, "bad"))
        assert after.ok


# ---------------------------------------------------------------------------
# Pragmas
# ---------------------------------------------------------------------------

_BAD_CALL = "import random\n\n\ndef f():\n    return random.random()\n"


class TestPragmas:
    def test_justified_pragma_suppresses_on_its_line(self):
        source = (
            "import random\n\n\ndef f():\n"
            "    return random.random()  "
            "# repro-lint: disable=RPL001 -- fixture exercising suppression\n"
        )
        report = lint_source(source, path="src/repro/core/x.py")
        # The import finding survives; only the call's line is covered.
        assert [d.line for d in report.diagnostics] == [1]
        assert report.suppressed == 1
        assert len(report.pragmas) == 1
        assert report.pragmas[0].rules == ("RPL001",)
        assert "suppression" in report.pragmas[0].justification

    def test_pragma_without_justification_is_itself_a_finding(self):
        source = "x = 1  # repro-lint: disable=RPL001\n"
        report = lint_source(source, path="src/repro/core/x.py")
        assert [d.rule for d in report.diagnostics] == ["RPL000"]
        assert "justification" in report.diagnostics[0].message
        assert report.pragmas == []

    def test_unjustified_pragma_does_not_suppress(self):
        source = _BAD_CALL.replace(
            "return random.random()",
            "return random.random()  # repro-lint: disable=RPL001",
        )
        report = lint_source(source, path="src/repro/core/x.py")
        codes = sorted(d.rule for d in report.diagnostics)
        assert "RPL000" in codes and "RPL001" in codes
        assert report.suppressed == 0

    def test_pragma_only_silences_listed_rules(self):
        source = _BAD_CALL.replace(
            "return random.random()",
            "return random.random()  "
            "# repro-lint: disable=RPL005 -- wrong rule on purpose",
        )
        report = lint_source(source, path="src/repro/core/x.py")
        assert {d.rule for d in report.diagnostics} == {"RPL001"}
        assert report.suppressed == 0

    def test_multi_rule_pragma(self):
        source = (
            "import random  "
            "# repro-lint: disable=RPL001,RPL005 -- multi-code pragma\n"
        )
        report = lint_source(source, path="src/repro/core/x.py")
        assert report.ok
        assert report.pragmas[0].rules == ("RPL001", "RPL005")

    def test_pragma_inside_string_literal_is_ignored(self):
        source = 's = "# repro-lint: disable=RPL001"\n'
        report = lint_source(source, path="src/repro/core/x.py")
        assert report.ok
        assert report.pragmas == []

    def test_pragmas_counted_in_json(self):
        source = (
            "import numpy as np\n"
            "g = np.random.default_rng(0)  "
            "# repro-lint: disable=RPL001 -- json accounting test\n"
        )
        report = lint_source(source, path="src/repro/core/x.py")
        payload = json.loads(report.format_json())
        assert payload["ok"] is True
        assert payload["pragma_count"] == 1
        assert payload["suppressed"] == 1
        assert payload["pragmas"][0]["rules"] == ["RPL001"]
        assert payload["pragmas"][0]["justification"] == "json accounting test"


# ---------------------------------------------------------------------------
# Engine mechanics
# ---------------------------------------------------------------------------


class TestEngine:
    def test_package_relpath(self):
        assert package_relpath("src/repro/core/dag.py") == "core/dag.py"
        assert package_relpath("/a/b/repro/util/rng.py") == "util/rng.py"
        assert package_relpath("tests/test_lint.py") is None
        assert package_relpath("src/repro") is None

    def test_fixture_directive_sets_virtual_path(self):
        # RPL005 only applies to hot-path files; the directive opts a
        # fixture in from anywhere on disk.
        body = "import numpy as np\n\n\ndef f(pool, tid):\n    return np.append(pool, tid)\n"
        silent = lint_source(body, path="tests/x.py")
        assert silent.ok
        opted_in = lint_source(
            "# repro-lint-fixture: path=core/vector_scheduler.py\n" + body,
            path="tests/x.py",
        )
        assert [d.rule for d in opted_in.diagnostics] == ["RPL005"]

    def test_syntax_error_is_reported_not_raised(self):
        report = lint_source("def broken(:\n", path="src/repro/core/x.py")
        assert not report.ok
        assert report.diagnostics[0].rule == "RPL000"
        assert "syntax error" in report.diagnostics[0].message

    def test_rule_subset_restricts_checking(self):
        report = lint_file(
            _fixture("RPL001", "bad"), rules=[get_rule("RPL005")]
        )
        assert report.ok

    def test_report_extend_and_sort(self):
        total = LintReport()
        for code in sorted(EXPECTED_BAD):
            total.extend(lint_file(_fixture(code, "bad")))
        total.sort()
        assert len(total.diagnostics) == sum(EXPECTED_BAD.values())
        assert total.files_checked == len(EXPECTED_BAD)
        keys = [(d.path, d.line, d.col) for d in total.diagnostics]
        assert keys == sorted(keys)

    def test_lint_paths_walks_directories(self):
        # The fixture tree is many independent packages (their module
        # names collide), so only the file-local rules make sense over
        # all of it at once.
        file_rules = [r for r in all_rules() if not r.deep]
        report = lint_paths([FIXTURE_DIR], rules=file_rules)
        # The walk recurses into the deep/ fixture packages too, so the
        # file count exceeds the flat pairs; the exact-count contract
        # applies to the flat fixtures (deep packages have their own
        # suite, tests/test_lint_deep.py).
        assert report.files_checked > 2 * len(EXPECTED_BAD)
        counts: dict[str, int] = {}
        for diag in report.diagnostics:
            if os.path.dirname(diag.path) == FIXTURE_DIR:
                counts[diag.rule] = counts.get(diag.rule, 0) + 1
        assert counts == EXPECTED_BAD

    def test_one_pass_parses_each_file_once(self, monkeypatch):
        package = os.path.join(FIXTURE_DIR, "deep", "RPL103_bad")
        n_files = len(iter_python_files([package]))
        calls = []
        real_parse = ast.parse

        def counting_parse(*args, **kwargs):
            calls.append(args[0] if args else kwargs.get("source"))
            return real_parse(*args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        report = lint_paths([package])
        assert {d.rule for d in report.diagnostics} == {"RPL103"}
        assert n_files >= 2
        assert len(calls) == n_files

    def test_duplicate_module_name_is_reported_not_dropped(self, tmp_path):
        body = (
            "# repro-lint-fixture: path=core/sched.py\n"
            "def schedule(inst, m, engine=None):\n"
            "    return inst\n"
        )
        (tmp_path / "a.py").write_text(body)
        (tmp_path / "b.py").write_text(body)
        report = lint_paths([str(tmp_path)])
        (diag,) = report.diagnostics
        assert diag.rule == "RPL000"
        assert diag.path == str(tmp_path / "b.py")
        assert (diag.line, diag.col) == (1, 0)
        assert "repro.core.sched" in diag.message
        assert str(tmp_path / "a.py") in diag.message
        # The later file is still linted by the file-local rules.
        assert report.files_checked == 2
        # Without whole-program rules nothing is left out, so nothing to say.
        file_rules = [r for r in all_rules() if not r.deep]
        assert lint_paths([str(tmp_path)], rules=file_rules).ok


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_path_exits_zero(self, capsys):
        assert main(["lint", _fixture("RPL001", "ok")]) == 0
        out = capsys.readouterr().out
        assert "0 findings" in out

    def test_bad_fixture_exits_nonzero_with_locations(self, capsys):
        assert main(["lint", _fixture("RPL003", "bad")]) == 1
        out = capsys.readouterr().out
        assert "RPL003" in out
        # file:line:col diagnostics, one per RPL003 finding (the CLI runs
        # every rule, so the unpaired create is also an RPL102).
        rpl003_lines = [
            ln for ln in out.splitlines()
            if ln.startswith(_fixture("RPL003", "bad") + ":")
            and ": RPL003 " in ln
        ]
        assert len(rpl003_lines) == EXPECTED_BAD["RPL003"]

    @pytest.mark.parametrize("code", sorted(EXPECTED_BAD))
    def test_every_bad_fixture_fails_from_the_cli(self, code, capsys):
        assert main(["lint", _fixture(code, "bad")]) == 1
        capsys.readouterr()

    def test_json_format(self, capsys):
        assert main(
            ["lint", "--format=json", _fixture("RPL004", "bad")]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert len(payload["findings"]) == EXPECTED_BAD["RPL004"]
        assert all(f["rule"] == "RPL004" for f in payload["findings"])

    def test_github_format(self, capsys):
        assert main(
            ["lint", "--format=github", _fixture("RPL005", "bad")]
        ) == 1
        out = capsys.readouterr().out
        assert out.count("::error file=") == EXPECTED_BAD["RPL005"]
        assert "title=RPL005" in out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in EXPECTED_BAD:
            assert code in out

    def test_rule_filter(self, capsys):
        assert main(
            ["lint", "--rule", "RPL005", _fixture("RPL001", "bad")]
        ) == 0
        capsys.readouterr()

    def test_unknown_rule_exits_two(self, capsys):
        assert main(["lint", "--rule", "RPL999", FIXTURE_DIR]) == 2
        assert "RPL999" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "does/not/exist.py"]) == 2
        assert "no such path" in capsys.readouterr().err
