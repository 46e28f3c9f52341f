"""Custom AST lint pass enforcing the project's structural rules.

The simulator's correctness claims rest on properties a generic linter
cannot know about: deterministic replay (PR 1's ``FaultPlan`` re-fires
the same faults only if nothing consults wall-clock time or a shared
RNG), invariant checks that must survive ``python -O`` (so no bare
``assert`` in ``src/``), frozen configuration (results are only
comparable if a run cannot mutate its config mid-flight), and a single
flash entry point (every page operation must pass through
:class:`~repro.flash.FlashMemory` so the
:class:`~repro.faults.FaultInjector` sees it).

Each rule has a ``TP0xx`` code (``TP005`` is retired and not reused):

========  ==============================================================
TP001     unseeded / process-global randomness in simulation code
TP002     wall-clock time in simulation code (breaks deterministic replay)
TP003     bare ``assert`` (stripped under ``python -O``)
TP004     mutation of a frozen config dataclass
TP006     flash page operation bypassing ``FlashMemory``/``FaultInjector``
========  ==============================================================

Suppression: append ``# tp: allow=TP0xx`` (comma-separated for several
codes) to the offending line with a short justification.  Grandfathered
findings live in a committed baseline file (see :func:`load_baseline`);
the lint exits non-zero only on findings that are in neither.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: every lint rule, code -> one-line description
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
    "TP006": ("direct flash page operation bypassing FlashMemory (and "
              "therefore the FaultInjector)"),
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

#: page-level flash mutators that must only be called on a FlashMemory
_FLASH_OPS = frozenset({
    "program", "program_into", "erase", "mark_bad", "invalidate",
})

_ALLOW_RE = re.compile(r"tp:\s*allow=([A-Z0-9,\s]+)")


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, printable as ``path:line:col CODE message``."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    #: stripped source line, used for line-number-stable baseline keys
    snippet: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Baseline identity: stable across unrelated line moves."""
        return (self.rule, self.path, self.snippet)

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
    """Single-pass rule evaluation over one module's AST."""

    def __init__(self, path: str, source_lines: Sequence[str],
                 in_flash_pkg: bool) -> None:
        self.path = path
        self.lines = source_lines
        self.in_flash_pkg = in_flash_pkg
        self.findings: List[Finding] = []
        self.allowed = _allowed_codes(source_lines)

    # -- helpers -------------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        if rule in self.allowed.get(line, ()):  # suppressed in-line
            return
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        self.findings.append(Finding(rule=rule, path=self.path,
                                     line=line, col=col,
                                     message=message, snippet=snippet))

    # -- TP003 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        """Flag every ``assert`` statement (TP003)."""
        self._flag("TP003", node,
                   "bare assert; raise SimInvariantError/FTLError from "
                   "repro.errors instead")
        self.generic_visit(node)

    # -- TP001 / TP002 / TP004 / TP006 (calls) -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Check call sites for TP001/TP002/TP004/TP006."""
        name = _dotted(node.func)
        if name is not None:
            self._check_random_call(node, name)
            self._check_clock_call(node, name)
            if name == "object.__setattr__":
                self._flag("TP004", node,
                           "object.__setattr__ mutates a frozen "
                           "dataclass")
        self._check_flash_call(node)
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

    def _check_flash_call(self, node: ast.Call) -> None:
        if self.in_flash_pkg:
            return  # FlashMemory/Block themselves implement the ops
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _FLASH_OPS:
            return
        receiver = _dotted(func.value)
        if receiver is not None and (receiver == "flash"
                                     or receiver.endswith(".flash")):
            return  # routed through FlashMemory: injector consulted
        shown = receiver if receiver is not None else "<expr>"
        self._flag("TP006", node,
                   f"{shown}.{func.attr}() operates on flash pages "
                   "directly; route through FlashMemory so the "
                   "FaultInjector sees the operation")

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
        elif path.suffix == ".py" and not _excluded(path):
            files.append(path)
    return sorted(set(files))


def normalize_path(path: pathlib.Path) -> str:
    """Canonical finding/baseline path: repo-relative POSIX when the
    file sits under the current directory, absolute POSIX otherwise.

    Every pass (TP0xx lint, TP1xx/TP2xx flow) keys findings and
    baseline entries by this string, so invoking the CLI as
    ``lint src`` or ``lint ./src`` or ``lint $PWD/src`` produces
    identical baselines and ``--fail-stale`` never sees phantom
    entries from path-spelling drift.
    """
    resolved = path.resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one module's source text."""
    in_flash = "flash" in pathlib.PurePath(path).parts
    visitor = _FileVisitor(path, source.splitlines(), in_flash)
    visitor.visit(ast.parse(source, filename=path))
    return visitor.findings


def lint_parsed(files: Iterable[Tuple[str, Sequence[str], ast.Module]],
                ) -> List[Finding]:
    """Lint already-parsed modules given as ``(path, lines, tree)``.

    This is the parse-once entry: the CLI parses every file exactly one
    time into the flow pass's project and feeds the same trees here,
    instead of re-reading and re-parsing the whole tree per pass.
    """
    findings: List[Finding] = []
    for path, source_lines, tree in files:
        in_flash = "flash" in pathlib.PurePath(path).parts
        visitor = _FileVisitor(path, list(source_lines), in_flash)
        visitor.visit(tree)
        findings.extend(visitor.findings)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def lint_paths(paths: Sequence[str],
               exclude: Sequence[str] = ()) -> List[Finding]:
    """Lint every Python file under ``paths``; returns all findings."""
    parsed: List[Tuple[str, Sequence[str], ast.Module]] = []
    for file in iter_python_files(paths, exclude=exclude):
        rel = normalize_path(file)
        source = file.read_text(encoding="utf-8")
        parsed.append((rel, source.splitlines(),
                       ast.parse(source, filename=rel)))
    return lint_parsed(parsed)


# ----------------------------------------------------------------------
# Baseline (grandfathered findings)
# ----------------------------------------------------------------------
def load_baseline(path: pathlib.Path) -> Set[Tuple[str, str, str]]:
    """Load the committed baseline; missing file means empty baseline."""
    if not path.exists():
        return set()
    payload = json.loads(path.read_text(encoding="utf-8"))
    return {(item["rule"], item["path"], item["snippet"])
            for item in payload.get("findings", [])}


def write_baseline(path: pathlib.Path,
                   findings: Iterable[Finding]) -> None:
    """Write the current findings as the new grandfathered baseline."""
    payload = {
        "version": 1,
        "comment": ("Grandfathered repro.analysis lint findings; "
                    "regenerate with `python -m repro.analysis lint "
                    "--write-baseline`"),
        "findings": [
            {"rule": f.rule, "path": f.path, "snippet": f.snippet}
            for f in sorted(findings, key=lambda f: f.key)
        ],
    }
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


def partition_findings(
        findings: Sequence[Finding],
        baseline: Set[Tuple[str, str, str]],
) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (new, grandfathered) against a baseline."""
    new: List[Finding] = []
    old: List[Finding] = []
    for finding in findings:
        (old if finding.key in baseline else new).append(finding)
    return new, old
