"""The TP-rule AST lint pass: rules, pragmas, baseline, CLI exit codes."""

import pathlib

import pytest

from repro.analysis import RULES, lint_paths, lint_source
from repro.analysis.__main__ import main
from repro.analysis.lint import (load_baseline, partition_findings,
                                 write_baseline)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "tp_violations.py"


# ----------------------------------------------------------------------
# The two acceptance gates: src lints clean, the fixture lints dirty
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    assert lint_paths([str(SRC)]) == []


def test_fixture_triggers_every_rule():
    findings = lint_paths([str(FIXTURE)])
    fired = {finding.rule for finding in findings}
    assert fired == set(RULES)
    # exactly one violation was planted per rule
    assert len(findings) == len(RULES)


def test_cli_exit_codes(capsys):
    assert main(["lint", str(SRC), "--no-baseline"]) == 0
    assert main(["lint", str(FIXTURE), "--no-baseline"]) == 1
    out = capsys.readouterr().out
    assert "[TP003]" in out
    assert "tp_violations.py" in out


# ----------------------------------------------------------------------
# Per-rule unit checks
# ----------------------------------------------------------------------
def _codes(source, path="src/repro/sim.py"):
    return {finding.rule for finding in lint_source(source, path)}


def test_tp001_unseeded_random_instance():
    assert "TP001" in _codes("rng = random.Random()\n")
    assert "TP001" not in _codes("rng = random.Random(1215)\n")


def test_tp001_numpy_global_rng():
    assert "TP001" in _codes("x = np.random.rand(4)\n")


def test_tp002_wall_clock_variants():
    assert "TP002" in _codes("t = time.perf_counter()\n")
    assert "TP002" in _codes("t = datetime.now()\n")


def test_tp003_reports_position():
    findings = lint_source("x = 1\nassert x\n", "src/repro/sim.py")
    assert [(f.rule, f.line) for f in findings] == [("TP003", 2)]
    assert findings[0].render().startswith("src/repro/sim.py:2:0 [TP003]")


def test_tp004_setattr_and_augassign():
    assert "TP004" in _codes("object.__setattr__(cfg, 'x', 1)\n")
    assert "TP004" in _codes("self.config.interval += 1\n")
    assert "TP004" not in _codes("self.metrics.hits += 1\n")


def test_tp006_only_flags_non_flash_receivers():
    assert "TP006" in _codes("block.erase()\n")
    assert "TP006" not in _codes("self.flash.erase(3)\n")
    # modules inside the flash package implement the ops themselves
    assert "TP006" not in _codes("block.erase()\n",
                                 path="src/repro/flash/flash.py")


def test_pragma_suppression():
    dirty = "t = time.time()\n"
    allowed = "t = time.time()  # tp: allow=TP002 - progress display\n"
    assert "TP002" in _codes(dirty)
    assert _codes(allowed) == set()


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
def test_baseline_roundtrip(tmp_path):
    findings = lint_paths([str(FIXTURE)])
    baseline_path = tmp_path / "baseline.json"
    write_baseline(baseline_path, findings)
    baseline = load_baseline(baseline_path)
    new, grandfathered = partition_findings(findings, baseline)
    assert new == []
    assert len(grandfathered) == len(findings)
    # the CLI accepts the grandfathered state as clean
    assert main(["lint", str(FIXTURE),
                 "--baseline", str(baseline_path)]) == 0


def test_missing_baseline_is_empty(tmp_path):
    assert load_baseline(tmp_path / "absent.json") == set()


def test_rules_subcommand(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "TP001" in out and "TP006" in out
    assert "SAN001" in out and "SAN009" in out
