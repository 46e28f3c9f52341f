"""The static analysis: one parse and one lexical ``TP0xx`` pass.

The simulator's correctness claims rest on properties a generic linter
cannot know about: deterministic replay (PR 1's ``FaultPlan`` re-fires
the same faults only if nothing consults wall-clock time or a shared
RNG), invariant checks that must survive ``python -O`` (so no bare
``assert`` in ``src/``), frozen configuration (results are only
comparable if a run cannot mutate its config mid-flight), and file
handles that cannot leak on an early return.

This module is the whole static half: :func:`read_sources` reads the
tree, :func:`analyze` parses each module once and runs the rules over
it, :class:`Finding` is what it reports and :data:`RULES` is the one
rule table (the ``rules`` subcommand, ``--disable`` validation and the
documentation test all read it).  ``TP005``, ``TP006``, ``TP101``–
``TP104``, ``TP201``–``TP204`` and ``TP301``–``TP305`` are retired and
not reused; ``docs/architecture.md`` names the tier-1 test that now
fails on each one's bug class, and :mod:`repro.analysis.mutants`
re-checks those tests:

========  ==============================================================
TP001     unseeded / process-global randomness in simulation code
TP002     wall-clock time in simulation code (breaks deterministic replay)
TP003     bare ``assert`` (stripped under ``python -O``)
TP004     mutation of a frozen config dataclass
TP007     builtin ``open()`` outside a ``with`` statement
========  ==============================================================

Suppression, for every rule: append ``# tp: allow=TP0xx`` (comma-
separated for several codes) to the offending line with a short
justification.  There is no other suppression mechanism.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set

#: every static rule, code -> one-line description
RULES: Dict[str, str] = {
    "TP001": ("unseeded or process-global randomness in simulation code "
              "(use random.Random(seed) so FaultPlan replay stays "
              "deterministic)"),
    "TP002": ("wall-clock time in simulation code (time.time / "
              "datetime.now break deterministic replay; derive time from "
              "op counts)"),
    "TP003": ("bare assert (stripped under python -O); raise a typed "
              "error from repro.errors instead"),
    "TP004": "mutation of a frozen config dataclass",
    "TP007": ("builtin open() outside a with statement (an early return "
              "or an exception before close() leaks the handle)"),
}

#: process-global random functions (module-level ``random.*``)
_GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "getrandbits", "seed", "triangular", "vonmisesvariate",
})

#: dotted call names that read the wall clock
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})

#: attribute names whose receivers are frozen config objects by
#: project convention (SimulationConfig / SSDConfig / TPFTLConfig ...)
_CONFIG_NAMES = frozenset({
    "config", "cfg", "ssd_config", "sim_config", "cache_cfg", "ssd",
    "tpftl",
})

_ALLOW_RE = re.compile(r"tp:\s*allow=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One diagnostic, printable as ``path:line:col CODE message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: the stripped source line
    snippet: str

    def render(self) -> str:
        """Human-readable ``path:line:col [CODE] message`` diagnostic."""
        return (f"{self.path}:{self.line}:{self.col} [{self.rule}] "
                f"{self.message}")


def _dotted(node: ast.AST) -> Optional[str]:
    """Dotted source form of a Name/Attribute chain, or None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _allowed_codes(source_lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line suppression pragmas: ``# tp: allow=TP001,TP004``."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _ALLOW_RE.search(text)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")
                     if code.strip()}
            allowed[lineno] = codes
    return allowed


class _FileVisitor(ast.NodeVisitor):
    """Single-pass TP0xx rule evaluation over one module's AST."""

    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.source_lines = source_lines
        #: line -> suppressed rule codes (``# tp: allow=TP001,TP004``)
        self.allowed = _allowed_codes(source_lines)
        self.findings: List[Finding] = []
        #: context expressions of ``with`` items seen so far (TP007)
        self._managed: Set[ast.AST] = set()

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        if rule in self.allowed.get(line, ()):
            return
        snippet = ""
        if 1 <= line <= len(self.source_lines):
            snippet = self.source_lines[line - 1].strip()
        self.findings.append(Finding(
            rule=rule, path=self.path, line=line,
            col=getattr(node, "col_offset", 0), message=message,
            snippet=snippet))

    # -- TP003 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        """Flag every ``assert`` statement (TP003)."""
        self._flag("TP003", node,
                   "bare assert; raise SimInvariantError/FTLError from "
                   "repro.errors instead")
        self.generic_visit(node)

    # -- TP007 ---------------------------------------------------------
    def visit_With(self, node: ast.With) -> None:
        """Mark the items' context expressions: the one place a
        builtin ``open()`` may appear (TP007)."""
        self._managed.update(item.context_expr for item in node.items)
        self.generic_visit(node)

    # -- TP001 / TP002 / TP004 / TP007 (calls) -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Check call sites for TP001/TP002/TP004/TP007."""
        if (isinstance(node.func, ast.Name) and node.func.id == "open"
                and node not in self._managed):
            self._flag("TP007", node,
                       "open() outside a with statement; an early "
                       "return or an exception before close() leaks "
                       "the handle — use `with open(...)`")
        name = _dotted(node.func)
        if name is not None:
            self._check_random_call(node, name)
            self._check_clock_call(node, name)
            if name == "object.__setattr__":
                self._flag("TP004", node,
                           "object.__setattr__ mutates a frozen "
                           "dataclass")
        self.generic_visit(node)

    def _check_random_call(self, node: ast.Call, name: str) -> None:
        if name.startswith("numpy.random") or name.startswith("np.random"):
            self._flag("TP001", node,
                       f"{name} uses numpy's global RNG; seed an "
                       "explicit Generator instead")
            return
        parts = name.split(".")
        if (len(parts) == 2 and parts[0] == "random"
                and parts[1] in _GLOBAL_RANDOM_FNS):
            self._flag("TP001", node,
                       f"{name}() draws from the process-global RNG; "
                       "use a seeded random.Random instance")
            return
        if name.endswith("random.Random") or name == "random.Random":
            if not node.args and not node.keywords:
                self._flag("TP001", node,
                           "random.Random() without a seed is "
                           "non-deterministic; pass an explicit seed")

    def _check_clock_call(self, node: ast.Call, name: str) -> None:
        for clock in _WALL_CLOCK:
            if name == clock or name.endswith("." + clock):
                self._flag("TP002", node,
                           f"{name}() reads the wall clock; simulation "
                           "time must derive from operation counts")
                return

    # -- TP004 (attribute assignment) ----------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        """Check assignment targets for frozen-config mutation (TP004)."""
        for target in node.targets:
            self._check_config_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Check augmented assignments for frozen-config mutation."""
        self._check_config_target(node.target)
        self.generic_visit(node)

    def _check_config_target(self, target: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        receiver = _dotted(target.value)
        if receiver is None:
            return
        base = receiver.split(".")[-1]
        if base in _CONFIG_NAMES:
            self._flag("TP004", target,
                       f"assignment to {receiver}.{target.attr} mutates "
                       "a frozen config; use dataclasses.replace / "
                       ".scaled() instead")


def analyze(sources: Mapping[str, str]) -> List[Finding]:
    """Every finding in ``{path: source}``, sorted by ``(path, line,
    rule)``; each module is parsed once (a syntax error raises
    :class:`SyntaxError`)."""
    findings: List[Finding] = []
    for path, source in sources.items():
        visitor = _FileVisitor(path, source.splitlines())
        visitor.visit(ast.parse(source, filename=path))
        findings.extend(visitor.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _default_pruned(component: str) -> bool:
    """Path components never worth analyzing when walking a tree:
    bytecode caches, hidden directories (``.git``, ``.venv``, ...) and
    packaging metadata."""
    return (component == "__pycache__" or component.startswith(".")
            or component.endswith(".egg-info"))


def iter_python_files(paths: Sequence[str],
                      exclude: Sequence[str] = ()) -> List[pathlib.Path]:
    """All ``*.py`` files under the given files/directories, sorted.

    Walking a directory prunes ``__pycache__``, hidden and
    ``*.egg-info`` components below it by default (an explicitly named
    file is taken as-is, and so is the walked root itself — only
    components *under* it are filtered).  ``exclude`` is additive on
    top: it prunes whole subtrees by path prefix (posix form), so
    deliberately-dirty fixture directories can sit inside a linted
    tree: ``iter_python_files(["tests"], exclude=["tests/fixtures"])``.
    """
    prefixes = [pathlib.PurePosixPath(e).as_posix().rstrip("/")
                for e in exclude]

    def _excluded(path: pathlib.Path) -> bool:
        posix = path.as_posix()
        return any(posix == p or posix.startswith(p + "/")
                   for p in prefixes)

    files: List[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            files.extend(
                f for f in sorted(path.rglob("*.py"))
                if not _excluded(f)
                and not any(_default_pruned(part)
                            for part in f.relative_to(path).parts))
        elif (path.suffix == ".py" and path.is_file()
              and not _excluded(path)):
            files.append(path)
    return sorted(set(files))


def normalize_path(path: pathlib.Path) -> str:
    """Canonical finding path: repo-relative POSIX when the file sits
    under the current directory, absolute POSIX otherwise.

    Findings are keyed by this string, so invoking the CLI as ``lint
    src`` or ``lint ./src`` or ``lint $PWD/src`` reports the same
    paths.
    """
    resolved = path.resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def read_sources(paths: Sequence[str],
                 exclude: Sequence[str] = ()) -> Dict[str, str]:
    """``{normalized path: source text}`` of every ``*.py`` under
    ``paths`` — the input of :func:`analyze`."""
    return {normalize_path(file): file.read_text(encoding="utf-8")
            for file in iter_python_files(paths, exclude=exclude)}
