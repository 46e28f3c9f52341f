"""The interprocedural ``TP1xx`` rules and the one pass driver.

Each rule is a function ``(project, engine) -> findings``;
:func:`analyze` runs them together with the lexical ``TP0xx`` pass and
the ``TP2xx`` domain pass over one parsed
:class:`~repro.analysis.flow.callgraph.Project` — the only way to run
the static analysis (the CLI, the mutant harness and the tests all
call it).

========  ==============================================================
TP101     per-run state mutated on the run path but never re-initialized
          on the reset path (the PR-4 channel-queue leak class)
TP102     flash bypass: a direct flash page operation outside the flash
          package (the retired TP006), and every call chain that
          reaches one through helpers (the PR-2
          ``_invalidate_remaining`` class)
TP104     unordered ``set`` iteration feeding simulation-visible state
          on the run path (nondeterministic replay order)
========  ==============================================================

Suppression is the one pragma every pass shares
(``# tp: allow=TP101 - reason``).
"""

from __future__ import annotations

import ast
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..lint import Finding, _dotted, check_lexical
from .callgraph import FunctionInfo, Project
from .domains import check_domains
from .engine import FlowEngine
from .state import AttrEvent, _is_set_expr

__all__ = [
    "RESET_METHODS",
    "RUN_ROOTS",
    "analyze",
    "run_path",
]

#: methods that constitute a class's per-run reset protocol
RESET_METHODS: Tuple[str, ...] = ("_reset_state", "reset")
#: entry points of the serve/run path.  ``_serve_page`` is one because
#: ``serve_request`` calls it through a local alias of the bound method
#: (``serve = self._serve_page``), which the call graph does not follow.
RUN_ROOTS: Tuple[str, ...] = ("run", "serve_request", "_serve_page")

#: page-level flash mutators that must only be called on a FlashMemory
_FLASH_OPS = frozenset({
    "program", "program_into", "erase", "mark_bad", "invalidate",
})


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _in_flash_package(path: str) -> bool:
    return "flash" in path.split("/")


def _self_call_closure(project: Project, cls_qname: str,
                       roots: Sequence[str]) -> Tuple[Set[str], bool]:
    """Method *names* reachable from ``roots`` via ``self.m()`` calls,
    resolved through ``cls_qname``'s effective method table, plus
    whether every self-call resolved (an unresolved target means the
    class is abstract with respect to this protocol — a template hook
    only subclasses implement)."""
    table = project.effective_methods(cls_qname)
    seen: Set[str] = set()
    complete = True
    queue = [r for r in roots if r in table]
    while queue:
        name = queue.pop()
        if name in seen:
            continue
        seen.add(name)
        for site in table[name].calls:
            if site.kind != "self":
                continue
            if site.target in table:
                queue.append(site.target)
            elif not site.target.startswith("__"):
                complete = False
    return seen, complete


def _defining_state(project: Project, cls_qname: str,
                    method: str) -> Optional[Tuple[str, "FunctionInfo"]]:
    """(defining class qname, FunctionInfo) for an effective method."""
    fn = project.effective_methods(cls_qname).get(method)
    if fn is None or fn.cls is None:
        return None
    return fn.cls, fn


# ----------------------------------------------------------------------
# TP101: per-run state reset
# ----------------------------------------------------------------------
def check_state_reset(project: Project,
                      engine: FlowEngine) -> List[Finding]:
    """Flag run-path mutations of attributes the reset path forgets.

    Applies to every class whose effective method table exposes both a
    run root (``run``/``serve_request``) and a reset protocol method
    (``_reset_state``/``reset``) — the :class:`DeviceModel` contract.
    A plain rebinding store on the run path counts as an
    *initialization* (the attribute gets a fresh value every run)
    unless its right-hand side reads the attribute itself, in which
    case the previous run's value flows into this run — exactly the
    PR-4 cursor/queue leak.
    """
    findings: Dict[Tuple[str, int, str], Finding] = {}
    for cls_qname in sorted(project.classes):
        table = project.effective_methods(cls_qname)
        reset_roots = [m for m in RESET_METHODS if m in table]
        run_roots = [m for m in RUN_ROOTS if m in table]
        if not reset_roots or not run_roots:
            continue
        reset_names, reset_complete = _self_call_closure(
            project, cls_qname, reset_roots)
        if not reset_complete:
            continue
        run_names, _ = _self_call_closure(project, cls_qname, run_roots)
        run_names -= reset_names
        run_names.discard("__init__")
        reset_assigned: Set[str] = set()
        for method in reset_names:
            owned = _defining_state(project, cls_qname, method)
            if owned is None:
                continue
            owner, _ = owned
            state = project.classes[owner].state
            if state is not None:
                reset_assigned |= state.assigns.get(method, set())
        fresh_assigned: Set[str] = set()
        leaky_events: List[Tuple[AttrEvent, FunctionInfo]] = []
        for method in sorted(run_names):
            owned = _defining_state(project, cls_qname, method)
            if owned is None:
                continue
            owner, fn = owned
            state = project.classes[owner].state
            if state is None:
                continue
            for event in state.assign_events.get(method, []):
                if event.detail == "selfref":
                    leaky_events.append((event, fn))
                else:
                    fresh_assigned.add(event.attr)
            for event in state.mutations.get(method, []):
                leaky_events.append((event, fn))
        initialized = reset_assigned | fresh_assigned
        for event, fn in leaky_events:
            if event.attr in initialized:
                continue
            key = (fn.path, event.line, event.attr)
            if key in findings:
                continue
            reset_shown = "/".join(f"{m}()" for m in reset_roots)
            found = project.finding(
                project.modules[fn.module], "TP101", event.line,
                event.col,
                f"self.{event.attr} is mutated on the run path "
                f"({event.method}) but never re-initialized on the "
                f"reset path ({reset_shown}); its value leaks across "
                "run() calls")
            if found is not None:
                findings[key] = found
    return list(findings.values())


# ----------------------------------------------------------------------
# TP102: flash bypass, direct and transitive
# ----------------------------------------------------------------------
def _direct_bypass_ops(tree: ast.AST) -> List[Tuple[ast.Call, str]]:
    """``(call, "receiver.op")`` for every flash page operation under
    ``tree`` whose receiver is not a ``...flash`` attribute, i.e. not
    routed through FlashMemory."""
    ops: List[Tuple[ast.Call, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) \
                or func.attr not in _FLASH_OPS:
            continue
        receiver = _dotted(func.value)
        if receiver is not None and (receiver == "flash"
                                     or receiver.endswith(".flash")):
            continue  # routed through FlashMemory: injector consulted
        ops.append((node, f"{receiver or '<expr>'}.{func.attr}"))
    return ops


def check_flash_escape(project: Project,
                       engine: FlowEngine) -> List[Finding]:
    """Flag flash page operations that bypass FlashMemory, and every
    call site whose callee transitively performs one.

    A direct unrouted operation outside the flash package is the chain
    of length zero and is flagged where it stands.  The functions
    holding one are the taint sources; the taint is closed backwards
    over the call graph so every caller that reaches a bypass through
    any number of helpers is reported at its call site — the PR-2
    ``_invalidate_remaining`` shape, where the mutation hid one helper
    away from the merge path.  A justified ``# tp: allow=TP102`` on
    the direct operation clears the whole chain.
    """
    findings: List[Finding] = []
    direct_lines: Dict[str, Set[int]] = {}
    for module in project.modules.values():
        if _in_flash_package(module.path):
            continue  # FlashMemory/Block themselves implement the ops
        for call, shown in _direct_bypass_ops(module.tree):
            found = project.finding(
                module, "TP102", call.lineno, call.col_offset,
                f"{shown}() operates on flash pages directly; route "
                "through FlashMemory so the FaultInjector sees the "
                "operation")
            if found is not None:
                findings.append(found)
                direct_lines.setdefault(module.name, set()).add(
                    call.lineno)
    sources = {
        fn.qname for fn in project.functions.values()
        if any(fn.line <= line <= getattr(fn.node, "end_lineno", fn.line)
               for line in direct_lines.get(fn.module, ()))}
    tainted = engine.reaching(sources)
    for qname in sorted(tainted):
        fn = project.functions[qname]
        if _in_flash_package(fn.path):
            continue
        module = project.modules[fn.module]
        for callee, site in engine.sites_into(qname, tainted):
            found = project.finding(
                module, "TP102", site.line, site.col,
                f"{site.target}() transitively performs a flash page "
                f"operation bypassing FlashMemory (reaches "
                f"{callee}); route the mutation through self.flash "
                "so the FaultInjector observes it")
            if found is not None:
                findings.append(found)
    return findings


# ----------------------------------------------------------------------
# TP104: nondeterministic iteration
# ----------------------------------------------------------------------
def _family_set_attrs(project: Project, cls_qname: str) -> Set[str]:
    attrs: Set[str] = set()
    for owner in [cls_qname] + project.ancestors(cls_qname):
        info = project.classes.get(owner)
        if info is not None and info.state is not None:
            attrs |= info.state.set_attrs
    return attrs


def _set_locals(fn_node: ast.AST) -> Set[str]:
    """Local names bound to set expressions inside one function."""
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _iter_loops(fn_node: ast.AST) -> List[Tuple[ast.AST, ast.expr]]:
    """(loop node, iterated expression) for every for/comprehension."""
    loops: List[Tuple[ast.AST, ast.expr]] = []
    for node in ast.walk(fn_node):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            loops.append((node, node.iter))
        elif isinstance(node, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                loops.append((node, generator.iter))
    return loops


def run_path(project: Project, engine: FlowEngine) -> Set[str]:
    """Qualified names of every function the simulation can reach: the
    forward closure of every method named in :data:`RUN_ROOTS`."""
    return engine.reachable_from(
        [fn.qname for fn in project.functions.values()
         if fn.cls is not None and fn.name in RUN_ROOTS])


def check_unordered_iteration(project: Project,
                              engine: FlowEngine) -> List[Finding]:
    """Flag set iteration in functions reachable from the run path.

    Only functions on :func:`run_path` are checked, so pure
    tooling/reporting code may iterate sets freely.  ``dict``
    iteration is insertion-ordered in the supported interpreters and
    is exempt; wrapping the set in ``sorted(...)`` silences the rule
    structurally.
    """
    findings: List[Finding] = []
    for qname in sorted(run_path(project, engine)):
        fn = project.functions[qname]
        module = project.modules[fn.module]
        set_names = _set_locals(fn.node)
        set_attrs = (_family_set_attrs(project, fn.cls)
                     if fn.cls is not None else set())
        for loop, iterated in _iter_loops(fn.node):
            described: Optional[str] = None
            if _is_set_expr(iterated):
                described = "a set expression"
            elif (isinstance(iterated, ast.Name)
                  and iterated.id in set_names):
                described = f"set {iterated.id!r}"
            elif (isinstance(iterated, ast.Attribute)
                  and isinstance(iterated.value, ast.Name)
                  and iterated.value.id in ("self", "cls")
                  and iterated.attr in set_attrs):
                described = f"set attribute self.{iterated.attr}"
            if described is None:
                continue
            found = project.finding(
                module, "TP104", iterated.lineno, iterated.col_offset,
                f"iterating over {described} on the simulation path; "
                "set order is nondeterministic across processes — "
                "iterate sorted(...) so replay stays deterministic")
            if found is not None:
                findings.append(found)
    return findings


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
_Pass = Callable[[Project, FlowEngine], List[Finding]]

#: ``--stats`` label -> the passes timed under it, in run order
_PASSES: Tuple[Tuple[str, Tuple[_Pass, ...]], ...] = (
    ("lint", (lambda project, _engine: check_lexical(project),)),
    ("flow", (check_state_reset, check_flash_escape,
              check_unordered_iteration)),
    ("domains", (check_domains,)),
)


def analyze(project: Project,
            timings: Optional[Dict[str, float]] = None) -> List[Finding]:
    """Run every static pass (TP0xx lexical, TP1xx flow, TP2xx domain)
    over a parsed project; findings sorted by ``(path, line, rule)``.

    ``timings`` (when given) collects host-side per-pass wall-clock
    seconds under the keys ``lint``/``flow``/``domains`` for the CLI's
    ``--stats`` line.
    """
    engine = FlowEngine(project)
    findings: List[Finding] = []
    for label, passes in _PASSES:
        started = time.perf_counter()  # tp: allow=TP002 - host-side stats
        for pass_fn in passes:
            findings.extend(pass_fn(project, engine))
        if timings is not None:
            timings[label] = time.perf_counter() - started  # tp: allow=TP002 - host-side stats
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings
