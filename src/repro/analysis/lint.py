"""The shared analysis vocabulary and the lexical ``TP0xx`` pass.

The simulator's correctness claims rest on properties a generic linter
cannot know about: deterministic replay (PR 1's ``FaultPlan`` re-fires
the same faults only if nothing consults wall-clock time or a shared
RNG), invariant checks that must survive ``python -O`` (so no bare
``assert`` in ``src/``), frozen configuration (results are only
comparable if a run cannot mutate its config mid-flight), and a single
flash entry point (every page operation must pass through
:class:`~repro.flash.FlashMemory` so the
:class:`~repro.faults.FaultInjector` sees it).

This module holds what every static pass shares — the :class:`Finding`
type, the one rule table :data:`RULES` (``TP0xx`` lexical, ``TP1xx``
flow, ``TP2xx`` domain, ``TP3xx`` typestate; the ``rules`` subcommand,
the SARIF driver and the documentation test all read it), the
``# tp: allow=CODE`` pragma parser and the file walker — plus the
single-node ``TP0xx`` rules themselves (``TP005``, ``TP006`` and
``TP103`` are retired and not reused; ``TP006`` lives on as the direct
form of ``TP102``):

========  ==============================================================
TP001     unseeded / process-global randomness in simulation code
TP002     wall-clock time in simulation code (breaks deterministic replay)
TP003     bare ``assert`` (stripped under ``python -O``)
TP004     mutation of a frozen config dataclass
========  ==============================================================

Suppression, for every rule of every pass: append ``# tp: allow=TP0xx``
(comma-separated for several codes) to the offending line with a short
justification.  There is no other suppression mechanism.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from .flow.callgraph import ModuleInfo, Project

#: every static rule of every pass, code -> one-line description
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
    "TP101": ("per-run state mutated on the run path but not "
              "re-initialized on the reset path (state leaks across "
              "run() calls)"),
    "TP102": ("flash page operation bypassing FlashMemory (and "
              "therefore the FaultInjector), directly or through a "
              "chain of helper calls"),
    "TP104": ("unordered set iteration on the simulation path "
              "(replay-visible order is nondeterministic; iterate "
              "sorted(...))"),
    "TP201": ("cross-domain value flow: an address of one domain "
              "(LPN/PPN/VPN/block/offset) reaches a parameter or store "
              "slot typed as another domain"),
    "TP202": ("mixed-domain arithmetic or comparison (e.g. lpn + ppn, "
              "block == ppn) without a conversion idiom such as "
              "* pages_per_block"),
    "TP203": ("time-unit mixing: a microsecond-seeded value meets a "
              "millisecond value across a call, assignment or "
              "arithmetic"),
    "TP204": ("bytes vs page/entry counts mixed in the cache-budget "
              "path (byte budgets and entry counts are different "
              "units)"),
    "TP301": ("resource acquired but not released on every path out of "
              "the function, including exception edges (open() without "
              "close() in a finally)"),
    "TP302": ("release without a dominating acquire: a double release "
              "(a second close()) or a release of a resource that was "
              "never acquired on that path"),
    "TP303": ("worker lifecycle leak: a started Process is not joined "
              "or terminated on all exits, or a Pipe connection is "
              "neither closed nor handed off"),
    "TP304": ("run path entered without the per-run reset dominating "
              "it: serve_request is reachable before _reset_state on "
              "some path"),
    "TP305": ("with-able resource acquired outside with/try-finally: "
              "the normal-path release is skipped when an exception "
              "unwinds"),
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
    #: stripped source line, the line-number-free part of :attr:`key`
    snippet: str

    @property
    def key(self) -> Tuple[str, str, str]:
        """Identity that is stable across unrelated line moves (SARIF
        fingerprints, the mutant harness's before/after delta)."""
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
    """Single-pass TP0xx rule evaluation over one module's AST."""

    def __init__(self, project: "Project", module: "ModuleInfo") -> None:
        self.project = project
        self.module = module
        self.findings: List[Finding] = []

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        found = self.project.finding(
            self.module, rule, getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0), message)
        if found is not None:
            self.findings.append(found)

    # -- TP003 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        """Flag every ``assert`` statement (TP003)."""
        self._flag("TP003", node,
                   "bare assert; raise SimInvariantError/FTLError from "
                   "repro.errors instead")
        self.generic_visit(node)

    # -- TP001 / TP002 / TP004 (calls) ---------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Check call sites for TP001/TP002/TP004."""
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


def check_lexical(project: "Project") -> List[Finding]:
    """Run the TP0xx rules over every module of a parsed project."""
    findings: List[Finding] = []
    for module in project.modules.values():
        visitor = _FileVisitor(project, module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
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

    Every pass keys findings by this string, so invoking the CLI as
    ``lint src`` or ``lint ./src`` or ``lint $PWD/src`` reports the
    same paths (and the same SARIF fingerprints).
    """
    resolved = path.resolve()
    try:
        return resolved.relative_to(pathlib.Path.cwd()).as_posix()
    except ValueError:
        return resolved.as_posix()
