"""The lexical TP0xx rules: per-rule checks, pragmas, CLI exit codes."""

import io
import pathlib
import re
import tokenize

import pytest

from conftest import analyze_paths, analyze_source
from repro.analysis import RULES, analyze, read_sources
from repro.analysis.__main__ import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "tp_violations.py"
TP0XX = {code for code in RULES if code.startswith("TP0")}


# ----------------------------------------------------------------------
# The two acceptance gates: src lints clean, the fixture lints dirty
# ----------------------------------------------------------------------
def test_src_tree_is_lint_clean():
    """No findings and nothing grandfathered."""
    assert analyze_paths([SRC]) == []


def test_fixture_triggers_every_rule():
    findings = analyze_paths([FIXTURE])
    fired = {finding.rule for finding in findings}
    assert fired == TP0XX == {"TP001", "TP002", "TP003", "TP004",
                              "TP007"}
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
    findings = analyze(stripped)
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


_MANUAL_CLOSE = (
    "def save(path, payload):\n"
    "    handle = open(path, 'w')\n"
    "    handle.write(payload)\n"
    "    handle.close()\n"
)


@pytest.mark.parametrize("source", [
    _MANUAL_CLOSE,
    ("def save(path, payload):\n"
     "    handle = open(path, 'w')\n"
     "    if not payload:\n"
     "        return 1\n"
     "    handle.write(payload)\n"
     "    handle.close()\n"),
    ("def save(path, payload):\n"
     "    handle = open(path, 'w')\n"
     "    try:\n"
     "        handle.write(payload)\n"
     "        handle.close()\n"
     "    finally:\n"
     "        handle.close()\n"),
    ("def save(path, payload):\n"
     "    handle = open(path, 'w')\n"
     "    try:\n"
     "        handle.write(payload)\n"
     "    finally:\n"
     "        handle.close()\n"),
], ids=["manual-close", "early-return", "double-close", "try-finally"])
def test_tp007_flags_open_outside_with(source):
    findings = analyze_source(source, "src/repro/sim.py")
    assert [(f.rule, f.line) for f in findings] == [("TP007", 2)]


@pytest.mark.parametrize("source", [
    ("def save(path, payload):\n"
     "    with open(path, 'w') as handle:\n"
     "        handle.write(payload)\n"),
    ("def copy(src, dst):\n"
     "    with open(src) as inp, open(dst, 'w') as out:\n"
     "        out.write(inp.read())\n"),
    ("def save(path, fd, payload):\n"
     "    handle = path.open('w')\n"
     "    handle.write(payload)\n"
     "    handle.close()\n"
     "    os.fdopen(fd, 'w').write(payload)\n"),
], ids=["with", "two-item-with", "path-open-and-fdopen"])
def test_tp007_accepts_with_and_non_builtin_opens(source):
    assert _codes(source) == set()


def test_tp007_pragma_suppression():
    allowed = _MANUAL_CLOSE.replace(
        "open(path, 'w')", "open(path, 'w')  # tp: allow=TP007 - demo")
    assert "TP007" in _codes(_MANUAL_CLOSE)
    assert _codes(allowed) == set()


def test_pragma_suppression():
    dirty = "t = time.time()\n"
    allowed = "t = time.time()  # tp: allow=TP002 - progress display\n"
    assert "TP002" in _codes(dirty)
    assert _codes(allowed) == set()


def test_rules_subcommand(capsys):
    assert main(["rules"]) == 0
    out = capsys.readouterr().out
    assert "TP001" in out and "TP007" in out and "TP006" not in out
    assert "SAN001" in out and "SAN009" in out
