"""The seeded-mutant harness: every mutant fails its named tier-1 twin.

The acceptance gate for the test suite itself: every seeded mutant in
``repro.analysis.mutants`` must make its twin test fail on a mutated
copy of the tree, while every twin passes on a pristine copy.  One
harness run copies the tree and runs one twin per mutant (~25 s on two
CPUs); the edge cases of the harness run on a one-module tree under
``tmp_path``, and everything else here is cheap corpus and plumbing
checks.
"""

import pathlib
import subprocess
import sys

import pytest

from conftest import analyze_source
from repro.analysis.__main__ import main
from repro.analysis.mutants import (MUTANTS, Mutant, MutantApplyError,
                                    _apply, run_mutants)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Corpus shape
# ----------------------------------------------------------------------
def test_corpus_is_well_formed():
    assert len(MUTANTS) == 24
    assert len({m.mid for m in MUTANTS}) == len(MUTANTS)
    for mutant in MUTANTS:
        assert mutant.mid[0] in "MPFW", mutant.mid
        assert mutant.before != mutant.after
        assert (ROOT / "src" / mutant.path).is_file()
        assert mutant.twin.startswith("tests/test_"), mutant.twin
        assert "::" in mutant.twin, mutant.twin


def test_corpus_covers_every_protocol_rule():
    """The file-handle mutants are TP007's corpus: linting each mutated
    file finds a TP007 the pristine one lacks, which is how their twin,
    ``test_src_tree_is_lint_clean``, fails."""
    protocol = [m for m in MUTANTS if m.mid.startswith("P")]
    assert protocol
    for mutant in protocol:
        assert mutant.twin.endswith("::test_src_tree_is_lint_clean")
        path = f"src/{mutant.path}"
        text = (ROOT / path).read_text(encoding="utf-8")
        mutated = _apply({path: text}, path, mutant)[path]
        assert "TP007" not in {f.rule for f in analyze_source(text, path)}
        assert "TP007" in {f.rule for f in analyze_source(mutated, path)}


def test_protocol_corpus_spans_the_advertised_bug_classes():
    """The named mutant classes are all represented: a with block
    rewritten as manual open/close, a double release, and an early
    return before the release.  (The dropped spawn-failure cleanup is
    caught by ``test_runner_chaos.py::TestDegradeToSerial``'s
    ``test_failed_spawn_closes_both_pipe_ends`` and
    ``test_failed_start_terminates_the_started_worker``, the dropped
    per-run reset by ``test_ssd_parallel.py::TestQueueStateReset``.)"""
    blurbs = " | ".join(m.description.lower() for m in MUTANTS
                        if m.mid.startswith("P"))
    for needle in ("manual open/close", "double release",
                   "early return"):
        assert needle in blurbs, needle


def test_before_text_matches_head_exactly_once():
    """The drift guard the harness relies on, checked directly so a
    stale mutant fails fast with the offending file named."""
    for mutant in MUTANTS:
        text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.before) == 1, mutant.mid


def test_every_twin_is_collected():
    """Each twin is a node id pytest collects from the repository root
    (a typo would otherwise surface only as a harness error)."""
    twins = sorted({m.twin for m in MUTANTS})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only",
         "-p", "no:cacheprovider", *twins],
        cwd=ROOT, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
    collected = set(done.stdout.split())
    assert set(twins) <= collected, set(twins) - collected


def test_apply_rejects_drifted_before_text():
    sources = {"src/mod.py": "x = 1\n"}
    drifted = Mutant(mid="MX", path="mod.py", twin="tests/t.py::t",
                     description="drifted", before="y = 2", after="y")
    with pytest.raises(MutantApplyError, match="MX"):
        _apply(sources, "src/mod.py", drifted)
    with pytest.raises(MutantApplyError, match="MX"):
        _apply(sources, "src/moved.py", drifted)


def test_apply_and_restore_round_trip():
    """Applying a mutant yields a mutated copy; the pristine sources
    need no restoring because they were never touched."""
    sources = {"src/mod.py": "x = 1\n", "src/other.py": "y = 1\n"}
    mutant = Mutant(mid="MY", path="mod.py", twin="tests/t.py::t",
                    description="swap", before="x = 1", after="x = 2")
    mutated = _apply(sources, "src/mod.py", mutant)
    assert mutated == {"src/mod.py": "x = 2\n", "src/other.py": "y = 1\n"}
    assert sources["src/mod.py"] == "x = 1\n"


def test_cli_reports_a_drifted_mutant_as_a_one_line_error(
        tmp_path, capsys):
    """A tree the corpus does not apply to exits 2, not a traceback."""
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "mod.py").write_text("x = 1\n",
                                               encoding="utf-8")
    assert main(["mutants", "--src", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: M01:")
    assert len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# Harness edges, on a one-module tree
# ----------------------------------------------------------------------
def _tiny_tree(root: pathlib.Path, expected: int) -> pathlib.Path:
    """``root/src/repro/mod.py`` and a test asserting its value."""
    (root / "src" / "repro").mkdir(parents=True)
    (root / "src" / "repro" / "mod.py").write_text(
        "VALUE = 1\n", encoding="utf-8")
    (root / "tests").mkdir()
    (root / "tests" / "test_mod.py").write_text(
        "from repro.mod import VALUE\n\n\n"
        f"def test_value():\n    assert VALUE == {expected}\n",
        encoding="utf-8")
    return root / "src"


def _tiny_mutant(twin: str = "tests/test_mod.py::test_value") -> Mutant:
    return Mutant(mid="MT", path="repro/mod.py", twin=twin,
                  description="off by one", before="VALUE = 1",
                  after="VALUE = 2")


def test_real_kill_is_reported_killed(tmp_path):
    src = _tiny_tree(tmp_path, expected=1)
    report = run_mutants(src_root=str(src), mutants=[_tiny_mutant()])
    assert report.pristine_failure == ""
    assert [(r.mutant.mid, r.exit_code) for r in report.results] == [
        ("MT", 1)]
    assert report.ok
    # the harness mutated a copy, never the tree itself
    assert (src / "repro" / "mod.py").read_text() == "VALUE = 1\n"


def test_unknown_twin_is_an_error_not_a_kill(tmp_path, monkeypatch,
                                             capsys):
    src = _tiny_tree(tmp_path, expected=1)
    monkeypatch.setattr(
        "repro.analysis.__main__.MUTANTS",
        (_tiny_mutant("tests/test_mod.py::test_no_such_test"),))
    assert main(["mutants", "--src", str(src)]) == 2
    captured = capsys.readouterr()
    assert "killed" not in captured.out
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_twin_failing_on_the_pristine_tree_is_not_ok(tmp_path):
    src = _tiny_tree(tmp_path, expected=2)
    report = run_mutants(src_root=str(src), mutants=[_tiny_mutant()])
    assert report.pristine_failure
    assert not report.ok


# ----------------------------------------------------------------------
# The acceptance gate (one full harness run)
# ----------------------------------------------------------------------
def test_every_mutant_killed_and_head_clean():
    report = run_mutants(src_root=str(ROOT / "src"))
    assert report.pristine_failure == "", report.pristine_failure
    survivors = [(r.mutant.mid, r.exit_code, r.output)
                 for r in report.survivors]
    assert survivors == []
    assert [r.mutant for r in report.results] == list(MUTANTS)
    assert report.ok


# ----------------------------------------------------------------------
# CLI plumbing (cheap paths only)
# ----------------------------------------------------------------------
def test_cli_list_prints_corpus_without_running(capsys):
    assert main(["mutants", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(MUTANTS)
    assert lines[0].startswith("M01")
