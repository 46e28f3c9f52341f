"""The lint CLI: formats, rule/path selection, input errors.

Covers the acceptance surface: ``--format json`` round-trips through
``json.loads``, ``--disable``/``--exclude`` select rules and trees, and
input the analysis cannot run on (a missing path, no Python files, a
syntax error, an unknown rule code, ``--output`` without a document
format) exits 2 with a one-line message instead of a green ``lint
clean``.
"""

import json
import pathlib

import pytest

from repro.analysis.__main__ import main
from repro.analysis.lint import RULES

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
AST_FIXTURE = FIXTURES / "tp_violations.py"


def _lint(args, capsys):
    code = main(["lint", *args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# json format
# ----------------------------------------------------------------------
def test_json_round_trips(capsys):
    code, out, err = _lint(
        [str(AST_FIXTURE), "--format", "json"], capsys)
    assert code == 1
    document = json.loads(out)
    assert document["tool"] == "repro.analysis"
    assert document["findings"]
    for finding in document["findings"]:
        assert set(finding) == {"rule", "path", "line", "col",
                                "message", "snippet"}
        assert finding["rule"] in RULES
    # status chatter goes to stderr, keeping stdout machine-parseable
    assert "finding(s)" in err


def test_json_clean_tree(capsys):
    code, out, _ = _lint(
        [str(SRC), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["findings"] == []


# ----------------------------------------------------------------------
# --disable / --exclude / --output
# ----------------------------------------------------------------------
def test_disable_filters_rules(capsys):
    code, out, _ = _lint(
        [str(AST_FIXTURE), "--format", "json",
         "--disable", "TP003"], capsys)
    assert code == 1
    rules = {f["rule"] for f in json.loads(out)["findings"]}
    assert rules == set(RULES) - {"TP003"}


def test_disable_accepts_comma_separated_codes(capsys):
    code, out, _ = _lint(
        [str(AST_FIXTURE),
         "--format", "json", "--disable", ",".join(sorted(RULES))],
        capsys)
    assert code == 0
    assert json.loads(out)["findings"] == []


def test_exclude_prunes_subtrees(capsys):
    """The CI test-tree invocation: fixtures excluded, and the one
    rule tests legitimately break (assert) disabled."""
    code, _, _ = _lint(
        [str(ROOT / "tests"), str(ROOT / "benchmarks"),
         "--exclude", str(FIXTURES), "--disable", "TP003"], capsys)
    assert code == 0


def test_output_writes_document_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = _lint(
        [str(AST_FIXTURE), "--format", "json",
         "--output", str(target)], capsys)
    assert code == 1
    assert out == ""
    document = json.loads(target.read_text(encoding="utf-8"))
    assert document["tool"] == "repro.analysis"


def test_unknown_format_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["lint", str(SRC), "--format", "xml"])


def test_unknown_disable_code_rejected(capsys):
    """A typo'd code must not silently disable nothing: the error
    names the code and the valid ones from the rule table."""
    with pytest.raises(SystemExit) as excinfo:
        main(["lint", str(AST_FIXTURE), "--disable", "TP001,TP9999"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "TP9999" in err
    assert all(code in err for code in RULES)


@pytest.mark.parametrize("argv", [
    ["lint", str(AST_FIXTURE), "--output", "report.json"],
    ["lint", str(AST_FIXTURE), "--format", "text",
     "--output", "report.json"],
])
def test_output_without_document_format_rejected(
        argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "--output" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# ----------------------------------------------------------------------
# input the analysis cannot run on: exit 2, one line, never "lint clean"
# ----------------------------------------------------------------------
def test_missing_path_is_an_error_not_a_clean_lint(tmp_path, capsys):
    code, out, err = _lint(
        [str(SRC / "repro" / "types.py"), str(tmp_path / "no_such_dir")],
        capsys)
    assert code == 2
    assert "lint clean" not in out + err
    assert err.startswith("error:") and "no_such_dir" in err
    assert len(err.splitlines()) == 1


def test_path_set_without_python_files_is_an_error(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not python\n", encoding="utf-8")
    code, out, err = _lint([str(tmp_path), "--format", "json"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: no Python files")
    assert len(err.splitlines()) == 1


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("x = 1\ndef f(:\n    pass\n", encoding="utf-8")
    code, out, err = _lint([str(tmp_path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {broken.resolve().as_posix()}:2: ")
    assert len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# default tree pruning and path normalization
# ----------------------------------------------------------------------
_WALL_CLOCK = "import time\n\n\ndef now():\n    return time.time()\n"


def test_pycache_and_hidden_dirs_pruned_by_default(tmp_path, capsys):
    """Walking a tree skips __pycache__/hidden/egg-info subtrees even
    without --exclude, so stale bytecode siblings and vendored venvs
    never pollute the report."""
    tree = tmp_path / "pkg"
    for trap in ("__pycache__", ".hidden", "dist.egg-info"):
        (tree / trap).mkdir(parents=True)
        (tree / trap / "trap.py").write_text(_WALL_CLOCK,
                                             encoding="utf-8")
    (tree / "ok.py").write_text('"""Clean."""\nX = 1\n',
                                encoding="utf-8")
    code, out, _ = _lint(
        [str(tree), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["findings"] == []


def test_explicit_file_argument_bypasses_default_pruning(
        tmp_path, capsys):
    """Naming a file directly lints it even inside a pruned dir."""
    trap = tmp_path / "__pycache__" / "trap.py"
    trap.parent.mkdir()
    trap.write_text(_WALL_CLOCK, encoding="utf-8")
    code, out, _ = _lint(
        [str(trap), "--format", "json"], capsys)
    assert code == 1
    assert json.loads(out)["findings"]


def test_finding_paths_normalize_to_repo_relative(
        monkeypatch, capsys):
    """Findings are keyed by repo-relative POSIX paths, even when the
    CLI is invoked with absolute arguments."""
    monkeypatch.chdir(ROOT)
    code, out, _ = _lint(
        [str(AST_FIXTURE), "--format", "json"], capsys)
    assert code == 1
    paths = {f["path"] for f in json.loads(out)["findings"]}
    assert paths == {"tests/fixtures/tp_violations.py"}


# ----------------------------------------------------------------------
# rules listing
# ----------------------------------------------------------------------
def test_rules_listing_grouped_and_sorted(capsys):
    """Snapshot of the rules subcommand structure: a TP block, then a
    SAN block, each sorted by code."""
    from repro.analysis.checkers import SAN_RULES
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    for block, codes in zip(blocks, (sorted(RULES), sorted(SAN_RULES))):
        header, *entries = block.splitlines()
        assert header.endswith(":")
        assert [line.split()[0] for line in entries] == codes
    assert blocks[1].startswith("SANxxx")
