"""Docs-vs-code consistency: names the documentation promises must exist.

Documentation drift is the silent killer of reproduction repos; these
tests parse the public names referenced by the README / usage guide /
API reference and verify each resolves against the live package.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro.core",
    "repro.heuristics",
    "repro.mesh",
    "repro.sweeps",
    "repro.partition",
    "repro.comm",
    "repro.analysis",
    "repro.transport",
    "repro.instances",
    "repro.experiments",
    "repro.parallel",
    "repro.campaign",
    "repro.cache",
    "repro.obs",
    "repro.serve",
    "repro.util",
]


class TestPackageExports:
    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_all_exports_resolve(self, pkg):
        module = importlib.import_module(pkg)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{pkg}.__all__ lists missing {name}"

    @pytest.mark.parametrize("pkg", PACKAGES)
    def test_exports_have_docstrings(self, pkg):
        module = importlib.import_module(pkg)
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(name)
        assert not undocumented, f"{pkg}: missing docstrings on {undocumented}"


def _code_names(markdown: str) -> set[str]:
    """Backticked identifiers that look like repro API names."""
    names = set()
    for token in re.findall(r"`([A-Za-z_][A-Za-z0-9_.]*)`", markdown):
        if token.startswith("repro."):
            names.add(token)
    return names


class TestDocReferences:
    @pytest.mark.parametrize(
        "doc", ["README.md", "docs/usage.md", "docs/deviations.md",
                "docs/architecture.md", "docs/linting.md",
                "docs/observability.md", "docs/campaigns.md",
                "docs/serving.md"]
    )
    def test_repro_paths_in_docs_resolve(self, doc):
        text = (ROOT / doc).read_text()
        for name in _code_names(text):
            parts = name.split(".")
            # Find the longest importable prefix, then getattr the rest.
            obj = None
            for cut in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:cut]))
                    rest = parts[cut:]
                    break
                except ImportError:
                    continue
            assert obj is not None, f"{doc}: cannot import any prefix of {name}"
            for attr in rest:
                assert hasattr(obj, attr), f"{doc} references missing {name}"
                obj = getattr(obj, attr)

    def test_registry_names_in_usage_doc_exist(self):
        from repro.heuristics import ALGORITHMS

        text = (ROOT / "docs" / "usage.md").read_text()
        # The usage doc enumerates registry names with [_delays] shorthand.
        for base in ("random_delay", "level", "descendant", "dfds", "blevel",
                     "fifo"):
            assert base in text
            assert base in ALGORITHMS

    def test_bench_gates_in_testing_doc(self):
        """Every bench gate row appears in the testing guide's gate table."""
        from repro.experiments.bench import GATES

        text = (ROOT / "docs" / "testing.md").read_text()
        missing = [gate.name for gate in GATES if f"`{gate.name}`" not in text]
        assert not missing, f"docs/testing.md lacks gates {missing}"

    def test_design_experiment_benches_exist(self):
        """Every bench target DESIGN.md names must be a real file."""
        text = (ROOT / "DESIGN.md").read_text()
        for match in re.findall(r"`benchmarks/([a-z0-9_]+\.py)`", text):
            assert (ROOT / "benchmarks" / match).exists(), f"missing {match}"

    def test_lint_rule_tables_match_registry(self):
        """The two rule tables in the linting guide list every rule."""
        from repro.lint import all_rules

        text = (ROOT / "docs" / "linting.md").read_text()
        documented = set(re.findall(r"^\| (RPL\d{3}) \|", text, re.MULTILINE))
        assert documented == {rule.code for rule in all_rules()}
