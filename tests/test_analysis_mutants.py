"""Mutation self-validation of the TP1xx, TP2xx and TP3xx passes.

The acceptance gate for the flow analyses: every seeded mutant in
``repro.analysis.mutants`` — the TP2xx domain corpus, the TP3xx
protocol corpus and the TP1xx flow corpus alike — must be killed by its
expected rule while the pristine ``src`` tree stays clean.  One harness
run parses and analyzes the in-memory sources once per mutant plus once
pristine (~25 s); everything else here is cheap corpus and plumbing
checks.
"""

import pathlib

import pytest

from repro.analysis import RULES
from repro.analysis.__main__ import main
from repro.analysis.mutants import (DOMAIN_MUTANTS, FLOW_MUTANTS,
                                    MUTANTS, PROTOCOL_MUTANTS, Mutant,
                                    MutantApplyError, _apply,
                                    run_mutants)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOMAIN_RULES = {code for code in RULES if code.startswith("TP2")}
PROTOCOL_RULES = {code for code in RULES if code.startswith("TP3")}
FLOW_RULES = {code for code in RULES if code.startswith("TP1")}


# ----------------------------------------------------------------------
# Corpus shape
# ----------------------------------------------------------------------
def test_corpus_is_well_formed():
    assert len(DOMAIN_MUTANTS) >= 10
    assert len(PROTOCOL_MUTANTS) >= 5
    assert len(FLOW_MUTANTS) >= 3
    assert MUTANTS == DOMAIN_MUTANTS + PROTOCOL_MUTANTS + FLOW_MUTANTS
    assert len({m.mid for m in MUTANTS}) == len(MUTANTS)
    for mutant in DOMAIN_MUTANTS:
        assert mutant.rule in DOMAIN_RULES
        assert mutant.path.startswith(("repro/ftl/", "repro/ssd/"))
    for mutant in PROTOCOL_MUTANTS:
        assert mutant.rule in PROTOCOL_RULES
        assert mutant.path.startswith(
            ("repro/ftl/", "repro/ssd/", "repro/experiments/"))
    for mutant in FLOW_MUTANTS:
        assert mutant.rule in FLOW_RULES
    for mutant in MUTANTS:
        assert mutant.before != mutant.after
        assert (ROOT / "src" / mutant.path).is_file()


def test_corpus_covers_every_domain_rule():
    assert {m.rule for m in DOMAIN_MUTANTS} == DOMAIN_RULES


def test_corpus_covers_every_protocol_rule():
    assert {m.rule for m in PROTOCOL_MUTANTS} == PROTOCOL_RULES


def test_every_rule_beyond_the_lexical_family_has_a_mutant():
    """A TP1xx-TP3xx rule nothing in the corpus is killed by has no
    evidence that it works: give it a mutant or retire it."""
    assert {m.rule for m in MUTANTS} == {
        code for code in RULES if not code.startswith("TP0")}


def test_protocol_corpus_spans_the_advertised_bug_classes():
    """The named mutant classes are all represented: a dropped
    lifecycle cleanup, a dropped per-run reset, a with block rewritten
    as manual open/close, a double release, and an early return before
    the release."""
    blurbs = " | ".join(m.description.lower() for m in PROTOCOL_MUTANTS)
    for needle in ("dropped spawn-failure cleanup", "dropped per-run",
                   "manual open/close", "double release",
                   "early return"):
        assert needle in blurbs, needle


def test_before_text_matches_head_exactly_once():
    """The drift guard the harness relies on, checked directly so a
    stale mutant fails fast with the offending file named."""
    for mutant in MUTANTS:
        text = (ROOT / "src" / mutant.path).read_text(encoding="utf-8")
        assert text.count(mutant.before) == 1, mutant.mid


def test_apply_rejects_drifted_before_text():
    sources = {"src/mod.py": "x = 1\n"}
    drifted = Mutant(mid="MX", path="mod.py", rule="TP201",
                     description="drifted", before="y = 2", after="y")
    with pytest.raises(MutantApplyError, match="MX"):
        _apply(sources, "src/mod.py", drifted)
    with pytest.raises(MutantApplyError, match="MX"):
        _apply(sources, "src/moved.py", drifted)


def test_apply_and_restore_round_trip():
    """Applying a mutant yields a mutated copy; the pristine sources
    need no restoring because they were never touched."""
    sources = {"src/mod.py": "x = 1\n", "src/other.py": "y = 1\n"}
    mutant = Mutant(mid="MY", path="mod.py", rule="TP201",
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
# The acceptance gate (one full harness run)
# ----------------------------------------------------------------------
def test_every_mutant_killed_and_head_clean():
    report = run_mutants(src_root=str(ROOT / "src"))
    assert report.pristine == [], report.pristine
    survivors = [(r.mutant.mid, r.mutant.rule)
                 for r in report.survivors]
    assert survivors == []
    # each mutant is killed by its *expected* rule, not a bystander
    for result in report.results:
        rules = {f.rule for f in result.delta}
        assert result.mutant.rule in rules, (result.mutant.mid, rules)
    assert report.ok


# ----------------------------------------------------------------------
# CLI plumbing (cheap paths only)
# ----------------------------------------------------------------------
def test_cli_list_prints_corpus_without_running(capsys):
    assert main(["mutants", "--list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == len(MUTANTS)
    assert lines[0].startswith("M01")
