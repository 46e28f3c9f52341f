"""Documentation quality gates.

Every module, public class and public function in ``repro`` must carry
a docstring (deliverable (e) of the reproduction: doc comments on every
public item), the README's quickstart snippet and the trace-replay
example must actually run, and
the rule tables in ``docs/architecture.md`` must list exactly the
codes the analysis registries define (no phantom or undocumented
rules), EXPERIMENTS.md must count the claim rows the claims table
holds, and ``docs/ftls.md`` must give one section to each registered
FTL and one hook-table row to each policy hook the FTLs override,
every ``repro.…`` path DESIGN.md names must exist, and every option the
user docs name for the experiments CLI must be one it accepts.
"""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import pytest

from repro.analysis.checkers import SAN_RULES
from repro.analysis.lint import RULES
from repro.experiments.claims import CLAIMS
from repro.ftl import DFTL, FTL_NAMES, SFTL, TPFTL
from repro.ftl.base import BaseFTL

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


def test_replay_trace_example_leaves_nothing_behind(tmp_path):
    """``examples/replay_trace.py`` with no trace writes its demo SPC
    file to a temporary directory: run from an empty one, it exits 0
    and leaves it empty.  End to end, this is the SPC parser, a
    ``Trace(requests=...)`` turned into columns, and a replay."""
    script = SRC.parent.parent / "examples" / "replay_trace.py"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert "mean_response_us" in done.stdout
    assert list(tmp_path.iterdir()) == []


def test_design_and_experiments_docs_exist():
    root = SRC.parent.parent
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = root / name
        assert path.exists(), name
        assert len(path.read_text("utf-8")) > 500, name


def _resolves(dotted):
    """True if ``dotted`` names a module or package under ``src/`` or
    an attribute of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        if not pathlib.Path(found.__file__).is_relative_to(SRC):
            return False
        for name in parts[cut:]:
            if not hasattr(found, name):
                return False
            found = getattr(found, name)
        return True
    return False


def test_design_module_paths_resolve():
    """The inventory and the decision tables name real code: a row
    left behind by a deleted module fails here."""
    text = (SRC.parent.parent / "DESIGN.md").read_text("utf-8")
    paths = sorted(set(re.findall(r"`(repro(?:\.\w+)+)", text)))
    assert len(paths) > 20
    assert [path for path in paths if not _resolves(path)] == []


def _documented_codes(text, prefix):
    """Rule codes introduced as ``* **CODE — ...`` bullets."""
    return set(re.findall(rf"^\* \*\*({prefix}\d+) — ",
                          text, flags=re.MULTILINE))


def test_experiments_claim_counts_match_the_claims_table():
    """EXPERIMENTS.md's count of claim rows and artifacts is the
    table's own (no simulation runs)."""
    text = (SRC.parent.parent / "EXPERIMENTS.md").read_text("utf-8")
    match = re.search(r"\((\d+) rows over the (\d+) artifacts and the\s+"
                      r"threshold sweep\)", text)
    assert match, "EXPERIMENTS.md no longer states the claim counts"
    rows = sum(map(len, CLAIMS.values()))
    assert "threshold-sweep" in CLAIMS
    assert [int(n) for n in match.groups()] == [rows, len(CLAIMS) - 1]
    assert {int(n) for n in re.findall(r"every one of the (\d+) rows",
                                       text)} == {rows}


def test_architecture_rule_tables_match_registries():
    """docs/architecture.md documents exactly the registered rules.

    Adding a rule without documenting it — or documenting a rule that
    no longer exists — fails here, keeping the rule tables (TP lint,
    SAN sanitizer) from drifting out of sync with ``RULES`` and
    ``SAN_RULES``.
    """
    text = (SRC.parent.parent / "docs" / "architecture.md").read_text(
        "utf-8")
    documented_tp = _documented_codes(text, "TP")
    documented_san = _documented_codes(text, "SAN")
    assert documented_tp == set(RULES)
    assert documented_san == set(SAN_RULES)


#: markers of the project's other command lines: a paragraph that names
#: one may document that CLI's options
OTHER_CLIS = ("tpftl-sim", "repro.tools", "repro.analysis", "`lint")


def test_documented_experiment_options_exist():
    """The user docs name only options the experiments CLI accepts.

    README.md, EXPERIMENTS.md and docs/architecture.md are read one
    paragraph at a time; a paragraph naming another command line
    (``tpftl-sim``, the analysis CLI) documents that one. Every other
    ``--option`` must be in ``repro.experiments.cli.build_parser()``,
    so a retired flag left behind in the prose fails here.
    """
    from repro.experiments.cli import build_parser
    accepted = set(re.findall(r"--[a-z][\w-]*",
                              build_parser().format_help()))
    stale = []
    for name in ("README.md", "EXPERIMENTS.md", "docs/architecture.md"):
        text = (SRC.parent.parent / name).read_text("utf-8")
        for paragraph in re.split(r"\n\s*\n", text):
            if any(marker in paragraph for marker in OTHER_CLIS):
                continue
            stale += [f"{name}: {option}" for option
                      in re.findall(r"(?<![\w-])--[a-z][\w-]*", paragraph)
                      if option not in accepted]
    assert stale == []


def test_ftl_guide_sections_match_registry():
    """docs/ftls.md has one ``## <name>`` section per registered FTL.

    The per-FTL sections sit between the data-path section and the GC
    policy section; an FTL added without a section, or a section left
    behind by a removed FTL, fails here.
    """
    text = (SRC.parent.parent / "docs" / "ftls.md").read_text("utf-8")
    start = text.index("\n## The data path")
    end = text.index("\n## Choosing GC policies")
    headings = re.findall(r"^## (\S+)", text[start:end], flags=re.MULTILINE)
    del headings[0]  # the data-path section itself
    assert sorted(headings) == list(FTL_NAMES)


def test_ftl_hook_table_matches_the_overrides():
    """docs/ftls.md's hook table names exactly the policy hooks.

    Every hook a row names is a ``BaseFTL`` method, and every
    ``BaseFTL`` method that DFTL, S-FTL or TPFTL overrides (apart from
    ``__init__`` and ``name``) is a row: renaming a hook without its row,
    or adding an override without documenting it, fails here.
    """
    text = (SRC.parent.parent / "docs" / "ftls.md").read_text("utf-8")
    rows = set(re.findall(r"^\| `(\w+)\(", text, flags=re.MULTILINE))
    assert rows and all(callable(getattr(BaseFTL, row, None))
                        for row in rows), rows
    overridden = {name for cls in (DFTL, SFTL, TPFTL) for name in vars(cls)
                  if name in vars(BaseFTL) and not name.startswith("__")}
    assert overridden - {"name"} == rows
