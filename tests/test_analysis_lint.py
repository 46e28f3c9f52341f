"""The lexical TP0xx rules: per-rule checks, pragmas, CLI exit codes."""

import io
import pathlib
import re
import tokenize

from conftest import analyze_paths, analyze_source
from repro.analysis import RULES, Project, analyze
from repro.analysis.__main__ import main
from repro.analysis.flow import read_sources

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "tp_violations.py"
TP0XX = {code for code in RULES if code.startswith("TP0")}


# ----------------------------------------------------------------------
# The two acceptance gates: src lints clean, the fixture lints dirty
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    """Every pass, one parse: no findings and nothing grandfathered."""
    assert analyze_paths([SRC]) == []


def test_fixture_triggers_every_rule():
    findings = analyze_paths([FIXTURE])
    fired = {finding.rule for finding in findings}
    assert fired == TP0XX == {"TP001", "TP002", "TP003", "TP004"}
    # exactly one violation was planted per rule
    assert len(findings) == len(TP0XX)


def test_every_allow_pragma_in_src_suppresses_exactly_one_finding():
    """Pragma exactness: strip every ``# tp: allow=CODE`` comment from
    ``src/`` in memory and the analysis must report exactly the
    stripped ``(path, line, CODE)`` set — a pragma that no longer
    suppresses anything (or names the wrong code) fails here."""
    pragma = re.compile(r"#\s*tp:\s*allow=([A-Z0-9,]+)")
    expected = set()
    stripped = {}
    for path, text in read_sources([str(SRC)]).items():
        lines = text.splitlines(keepends=True)
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            match = pragma.match(token.string)
            if token.type != tokenize.COMMENT or match is None:
                continue
            row, col = token.start
            expected.update((path, row, code)
                            for code in match.group(1).split(","))
            lines[row - 1] = lines[row - 1][:col].rstrip() + "\n"
        stripped[path] = "".join(lines)
    assert len(expected) >= 10, "src/ is known to carry pragmas"
    findings = analyze(Project.from_sources(stripped))
    assert {(f.path, f.line, f.rule) for f in findings} == expected


def test_cli_exit_codes(capsys):
    assert main(["lint", str(SRC)]) == 0
    assert main(["lint", str(FIXTURE)]) == 1
    out = capsys.readouterr().out
    assert "[TP003]" in out
    assert "tp_violations.py" in out


# ----------------------------------------------------------------------
# Per-rule unit checks
# ----------------------------------------------------------------------
def _codes(source, path="src/repro/sim.py"):
    return {finding.rule for finding in analyze_source(source, path)}


def test_tp001_unseeded_random_instance():
    assert "TP001" in _codes("rng = random.Random()\n")
    assert "TP001" not in _codes("rng = random.Random(1215)\n")


def test_tp001_numpy_global_rng():
    assert "TP001" in _codes("x = np.random.rand(4)\n")


def test_tp002_wall_clock_variants():
    assert "TP002" in _codes("t = time.perf_counter()\n")
    assert "TP002" in _codes("t = datetime.now()\n")


def test_tp003_reports_position():
    findings = analyze_source("x = 1\nassert x\n", "src/repro/sim.py")
    assert [(f.rule, f.line) for f in findings] == [("TP003", 2)]
    assert findings[0].render().startswith("src/repro/sim.py:2:0 [TP003]")


def test_tp004_setattr_and_augassign():
    assert "TP004" in _codes("object.__setattr__(cfg, 'x', 1)\n")
    assert "TP004" in _codes("self.config.interval += 1\n")
    assert "TP004" not in _codes("self.metrics.hits += 1\n")


def test_tp006_only_flags_non_flash_receivers():
    """The retired TP006 lives on as the direct form of TP102: a direct
    page operation, even at module level, is the chain of length zero."""
    assert _codes("block.erase()\n") == {"TP102"}
    assert "TP102" not in _codes("self.flash.erase(3)\n")
    # modules inside the flash package implement the ops themselves
    assert "TP102" not in _codes("block.erase()\n",
                                 path="src/repro/flash/flash.py")


def test_pragma_suppression():
    dirty = "t = time.time()\n"
    allowed = "t = time.time()  # tp: allow=TP002 - progress display\n"
    assert "TP002" in _codes(dirty)
    assert _codes(allowed) == set()


def test_rules_subcommand(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "TP001" in out and "TP102" in out and "TP006" not in out
    assert "SAN001" in out and "SAN009" in out
