"""Documentation quality gates.

Every module, public class and public function in ``repro`` must carry
a docstring (deliverable (e) of the reproduction: doc comments on every
public item), the README's quickstart snippet must actually run, and
the rule tables in ``docs/architecture.md`` must list exactly the
codes the analysis registries define (no phantom or undocumented
rules).
"""

import ast
import pathlib
import re

import pytest

from repro.analysis.checkers import SAN_RULES
from repro.analysis.lint import RULES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(SRC.rglob("*.py"))


def _public_defs(tree):
    """Top-level and class-level public defs in a module AST."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        if not sub.name.startswith("_"):
                            yield sub


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_module_has_docstring(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{path} lacks a module docstring"


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(m.relative_to(SRC)) for m in MODULES])
def test_public_items_have_docstrings(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    for node in _public_defs(tree):
        if ast.get_docstring(node) is None:
            # trivial dunder-ish accessors are exempt by convention
            if node.name in ("main",):
                continue
            missing.append(f"{node.name} (line {node.lineno})")
    assert not missing, f"{path}: missing docstrings: {missing}"


def test_readme_quickstart_runs():
    """The README's quickstart code must execute as written."""
    readme = (SRC.parent.parent / "README.md").read_text("utf-8")
    start = readme.index("```python") + len("```python")
    end = readme.index("```", start)
    snippet = readme[start:end]
    # shrink the workload so the doc test stays fast
    snippet = snippet.replace("num_requests=30_000",
                              "num_requests=1_000")
    snippet = snippet.replace("warmup_requests=8_000",
                              "warmup_requests=200")
    namespace = {}
    exec(compile(snippet, "<README quickstart>", "exec"), namespace)


def test_design_and_experiments_docs_exist():
    root = SRC.parent.parent
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = root / name
        assert path.exists(), name
        assert len(path.read_text("utf-8")) > 500, name


def _documented_codes(text, prefix):
    """Rule codes introduced as ``* **CODE — ...`` bullets."""
    return set(re.findall(rf"^\* \*\*({prefix}\d+) — ",
                          text, flags=re.MULTILINE))


def test_architecture_rule_tables_match_registries():
    """docs/architecture.md documents exactly the registered rules.

    Adding a rule without documenting it — or documenting a rule that
    no longer exists — fails here, keeping the rule tables (TP lint,
    TP flow, TP domain, TP typestate, SAN sanitizer) from drifting out
    of sync with the one static table ``RULES`` and ``SAN_RULES``.
    """
    text = (SRC.parent.parent / "docs" / "architecture.md").read_text(
        "utf-8")
    documented_tp = _documented_codes(text, "TP")
    documented_san = _documented_codes(text, "SAN")
    assert documented_tp == set(RULES)
    assert documented_san == set(SAN_RULES)
