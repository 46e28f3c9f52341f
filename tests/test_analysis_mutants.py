"""Mutation self-validation of the TP2xx domain and TP3xx protocol passes.

The acceptance gate for the flow analyses: every seeded mutant in
``repro.analysis.mutants`` — the TP2xx domain corpus and the TP3xx
protocol corpus alike — must be killed by its expected rule while the
pristine ``src`` tree stays clean.  One harness run analyzes the tree
once per mutant plus once pristine (~1 min); everything else here is
cheap corpus and plumbing checks.
"""

import pathlib

import pytest

from repro.analysis.__main__ import main
from repro.analysis.flow.domains import DOMAIN_RULES
from repro.analysis.flow.typestate import PROTOCOL_RULES
from repro.analysis.mutants import (DOMAIN_MUTANTS, MUTANTS,
                                    PROTOCOL_MUTANTS, Mutant,
                                    MutantApplyError, _apply,
                                    run_mutants)

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Corpus shape
# ----------------------------------------------------------------------
def test_corpus_is_well_formed():
    assert len(DOMAIN_MUTANTS) >= 10
    assert len(PROTOCOL_MUTANTS) >= 5
    assert MUTANTS == DOMAIN_MUTANTS + PROTOCOL_MUTANTS
    assert len({m.mid for m in MUTANTS}) == len(MUTANTS)
    for mutant in DOMAIN_MUTANTS:
        assert mutant.rule in DOMAIN_RULES
        assert mutant.path.startswith(("repro/ftl/", "repro/ssd/"))
    for mutant in PROTOCOL_MUTANTS:
        assert mutant.rule in PROTOCOL_RULES
        assert mutant.path.startswith(
            ("repro/ftl/", "repro/ssd/", "repro/experiments/"))
    for mutant in MUTANTS:
        assert mutant.before != mutant.after
        assert (ROOT / "src" / mutant.path).is_file()


def test_corpus_covers_every_domain_rule():
    assert {m.rule for m in DOMAIN_MUTANTS} == set(DOMAIN_RULES)


def test_corpus_covers_every_protocol_rule():
    assert {m.rule for m in PROTOCOL_MUTANTS} == set(PROTOCOL_RULES)


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


def test_apply_rejects_drifted_before_text(tmp_path):
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    drifted = Mutant(mid="MX", path="mod.py", rule="TP201",
                     description="drifted", before="y = 2", after="y")
    with pytest.raises(MutantApplyError, match="MX"):
        _apply(tmp_path, drifted)


def test_apply_and_restore_round_trip(tmp_path):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    mutant = Mutant(mid="MY", path="mod.py", rule="TP201",
                    description="swap", before="x = 1", after="x = 2")
    original = _apply(tmp_path, mutant)
    assert target.read_text(encoding="utf-8") == "x = 2\n"
    target.write_text(original, encoding="utf-8")
    assert target.read_text(encoding="utf-8") == "x = 1\n"


# ----------------------------------------------------------------------
# The acceptance gate (one full harness run)
# ----------------------------------------------------------------------
def test_every_mutant_killed_and_head_clean():
    report = run_mutants(
        src_root=str(ROOT / "src"),
        baseline=str(ROOT / ".analysis-baseline.json"))
    assert report.pristine_new == [], report.pristine_new
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
