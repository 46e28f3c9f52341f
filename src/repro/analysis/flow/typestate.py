"""Typestate checking over CFGs with exception edges (rules TP301-305).

This module is the protocol-analysis pass: it evaluates declarative
:class:`ProtocolSpec` state machines (construct/release pairs,
must-call-before orderings) over the per-function control-flow graphs
built by :mod:`repro.analysis.flow.cfg`, using the same fixed-point
worklist engine that powers the TP1xx pass.  The properties it proves
are *temporal*: not "is this value well-formed" but "does every path out
of this function — including the paths that unwind through exception
edges — restore the invariant".

The repo's real protocols are seeded as built-in specs:

* ``process``/``pipe`` — supervisor worker lifecycles: a started
  ``Process`` must be joined/terminated on all exits and both ``Pipe``
  ends must be closed or handed off (TP303).
* ``file`` — ``open()`` handles must be closed on all paths (TP301),
  exactly once (TP302), and with-able resources should use
  ``with``/``try-finally`` (TP305).
* ``reset-before-run`` — the per-run device reset must dominate every
  ``serve_request`` dispatch on the run path (TP304).

Abstract states per tracked resource key (a local name bound to a
constructor call)::

    virgin --construct--> inst --start--> held --release--> rel
           (specs with a start method; the others construct
            straight into held)
    any --escape--> esc   (stored/passed/returned: ownership left)

The analysis is a *may* analysis (union join).  Exception edges leave a
statement mid-flight, so only release/escape effects are applied along
them — an acquire that raised never acquired.  Escaped resources are
never reported: ownership transfer is the caller's problem, which keeps
the pass FP-safe on handoff patterns like the supervisor's ``_Running``
records.  One level of interprocedural summaries sharpens both edges and
events: "may raise" / "always raises" (over the PR-5 call graph) decides
where exception successors exist, and "releases what it was passed"
turns ``shutdown(conn)``-style calls into releases instead of escapes.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..lint import Finding, _dotted
from .callgraph import FunctionInfo, ModuleInfo, Project, classify_call
from .cfg import CFG, CFGNode, build_cfg, calls_in
from .engine import FlowEngine, fixed_point

__all__ = [
    "PROTOCOL_SPECS",
    "ORDER_SPECS",
    "ProtocolSpec",
    "OrderSpec",
    "check_protocols",
]

@dataclass(frozen=True)
class ProtocolSpec:
    """A paired construct/release protocol evaluated over every function.

    Tracks the local names bound directly to one of the ``constructors``
    (``proc = ctx.Process(...)``), optionally moving through a ``start``
    state before the resource is live, until one of the ``release``
    methods is called on the name or ownership leaves the function.
    """

    name: str
    resource: str
    leak_rule: str
    constructors: Tuple[str, ...]
    release: Tuple[str, ...]
    start: Tuple[str, ...] = ()
    withable: bool = False


@dataclass(frozen=True)
class OrderSpec:
    """A must-call-before ordering: ``before`` dominates ``target``.

    Applies to functions whose name is in ``entry_names`` and that call
    ``target`` at all; methods additionally need a ``before`` method in
    their class's effective method table (so arbitrary ``run`` methods
    on unrelated classes stay out of scope).
    """

    name: str
    rule: str
    entry_names: Tuple[str, ...]
    before: Tuple[str, ...]
    target: Tuple[str, ...]


PROTOCOL_SPECS: Tuple[ProtocolSpec, ...] = (
    ProtocolSpec(
        name="process",
        resource="worker process",
        leak_rule="TP303",
        constructors=("Process",),
        start=("start",),
        release=("join", "terminate", "kill"),
    ),
    ProtocolSpec(
        name="pipe",
        resource="pipe connection",
        leak_rule="TP303",
        constructors=("Pipe",),
        release=("close",),
    ),
    ProtocolSpec(
        name="file",
        resource="file handle",
        leak_rule="TP301",
        constructors=("open",),
        release=("close",),
        withable=True,
    ),
)

ORDER_SPECS: Tuple[OrderSpec, ...] = (
    OrderSpec(
        name="reset-before-run",
        rule="TP304",
        entry_names=("run",),
        before=("_reset_state",),
        target=("serve_request",),
    ),
)

# States a tracked resource key can be in (may-analysis: a key holds a
# *set* of these at each program point).
_VIRGIN = "virgin"
_INST = "inst"
_HELD = "held"
_REL = "rel"
_ESC = "esc"

_TRANSITIONS: Dict[str, Dict[str, str]] = {
    "start": {_VIRGIN: _VIRGIN, _INST: _HELD, _HELD: _HELD, _REL: _REL, _ESC: _ESC},
    "release": {_VIRGIN: _VIRGIN, _INST: _REL, _HELD: _REL, _REL: _REL, _ESC: _ESC},
}

# Event kinds applied along exception edges: the statement blew up
# mid-flight, so only "the resource left our hands" effects are sound.
_EXC_SAFE_KINDS = frozenset({"release", "escape"})


@dataclass(frozen=True)
class _Event:
    """One protocol-relevant action inside a single CFG node."""

    kind: str  # construct|start|release|escape|before|target
    spec: str
    key: str
    line: int
    col: int
    #: state a construct event lands in (held, or inst for start specs).
    to_state: str = _HELD


def _fact(spec: str, key: str, state: str) -> str:
    return f"{spec}|{key}|{state}"


def _order_fact(name: str) -> str:
    return f"order:{name}||missing"


# ---------------------------------------------------------------------------
# Interprocedural summaries


def _has_explicit_raise(fn: FunctionInfo) -> bool:
    """True when the function body contains a ``raise`` statement."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(fn.node))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _may_raise_summary(project: Project, engine: FlowEngine) -> Set[str]:
    """Functions that may raise: explicit raisers plus transitive callers."""
    seeds: Dict[str, FrozenSet[str]] = {}
    for qname, fn in project.functions.items():
        if _has_explicit_raise(fn):
            seeds[qname] = frozenset({"raises"})
    reverse: Dict[str, List[str]] = {}
    for caller, callees in engine.edges.items():
        for callee, _site in callees:
            reverse.setdefault(callee, []).append(caller)
    solved = fixed_point(reverse, seeds)
    return {qname for qname, facts in solved.items() if facts}


def _always_raises_summary(project: Project) -> Set[str]:
    """Functions with no normal exit (every path ends in ``raise``)."""
    always: Set[str] = set()
    for qname, fn in project.functions.items():
        try:
            cfg = build_cfg(fn.node)
        except RecursionError:  # pragma: no cover - pathological nesting
            continue
        if not cfg.exits_normally():
            always.add(qname)
    return always


def _param_names(fn: FunctionInfo) -> List[str]:
    """Positional parameter names, with the self/cls receiver dropped."""
    args = fn.node.args
    names = [arg.arg for arg in args.posonlyargs + args.args]
    if fn.cls is not None and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _release_summary(
    project: Project, release_methods: Set[str]
) -> Dict[str, Set[str]]:
    """Per function: parameter names it calls a release method on.

    This is the "releases what it was passed" summary — passing a
    tracked resource to such a function counts as a release at the call
    site instead of an escape.
    """
    out: Dict[str, Set[str]] = {}
    for qname, fn in project.functions.items():
        params = set(_param_names(fn)) | {
            arg.arg for arg in fn.node.args.kwonlyargs
        }
        released: Set[str] = set()
        for call in calls_in(fn.node):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in release_methods
                and isinstance(func.value, ast.Name)
                and func.value.id in params
            ):
                released.add(func.value.id)
        out[qname] = released
    return out


def _mapped_param(callee: FunctionInfo, index: Optional[int], keyword: Optional[str]) -> Optional[str]:
    """Name of the callee parameter an argument lands in, if resolvable."""
    if keyword is not None:
        names = set(_param_names(callee)) | {
            arg.arg for arg in callee.node.args.kwonlyargs
        }
        return keyword if keyword in names else None
    if index is not None:
        positional = _param_names(callee)
        if index < len(positional):
            return positional[index]
    return None


# ---------------------------------------------------------------------------
# Per-function lexical scans


def _line_span(stmt: ast.stmt) -> range:
    end = getattr(stmt, "end_lineno", None) or stmt.lineno
    return range(stmt.lineno, end + 1)


def _lexical_guards(fn_node: ast.AST) -> Tuple[Set[int], Set[int]]:
    """Lines protected by a try-with-finally, and lines inside finallys."""
    protected: Set[int] = set()
    finally_lines: Set[int] = set()

    def walk(stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.Try) and stmt.finalbody:
                for inner in stmt.body + stmt.orelse:
                    protected.update(_line_span(inner))
                for handler in stmt.handlers:
                    for inner in handler.body:
                        protected.update(_line_span(inner))
                for inner in stmt.finalbody:
                    finally_lines.update(_line_span(inner))
            for name in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, name, None)
                if isinstance(inner, list) and inner and isinstance(inner[0], ast.stmt):
                    walk(inner)
            for handler in getattr(stmt, "handlers", []) or []:
                walk(handler.body)
            for case in getattr(stmt, "cases", []) or []:
                walk(case.body)

    body = getattr(fn_node, "body", [])
    walk([stmt for stmt in body if isinstance(stmt, ast.stmt)])
    return protected, finally_lines


def _names_in(expr: ast.AST) -> Set[str]:
    """Name identifiers appearing in an expression (skipping lambdas)."""
    names: Set[str] = set()
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Lambda):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        stack.extend(ast.iter_child_nodes(node))
    return names


# ---------------------------------------------------------------------------
# The per-function analysis


class _FunctionAnalysis:
    """Builds the CFG, extracts protocol events, and runs the dataflow."""

    def __init__(
        self,
        project: Project,
        fn: FunctionInfo,
        module: ModuleInfo,
        specs: Sequence[ProtocolSpec],
        orders: Sequence[OrderSpec],
        may_raise: Set[str],
        always_raises: Set[str],
        releases: Mapping[str, Set[str]],
    ) -> None:
        self.project = project
        self.fn = fn
        self.module = module
        self.specs = {spec.name: spec for spec in specs}
        self.may_raise = may_raise
        self.always_raises = always_raises
        self.releases = releases
        self.protected_lines, self.finally_lines = _lexical_guards(fn.node)
        # method-name lookup tables for event extraction
        self.release_of: Dict[str, List[str]] = {}
        self.start_of: Dict[str, List[str]] = {}
        self.ctor_of: Dict[str, List[str]] = {}
        for spec in specs:
            for method in spec.release:
                self.release_of.setdefault(method, []).append(spec.name)
            for method in spec.start:
                self.start_of.setdefault(method, []).append(spec.name)
            for ctor in spec.constructors:
                self.ctor_of.setdefault(ctor, []).append(spec.name)
        self.orders = [order for order in orders if self._order_in_scope(order)]
        # keys bound by constructor calls / safely bound inside `with`
        self.ctor_keys: Dict[str, Set[str]] = {name: set() for name in self.specs}
        self.safe_keys: Dict[str, Set[str]] = {name: set() for name in self.specs}
        self._collect_ctor_keys()
        self.events: Dict[int, List[_Event]] = {}

    # -- scoping ----------------------------------------------------------

    def _order_in_scope(self, order: OrderSpec) -> bool:
        fn = self.fn
        if fn.name not in order.entry_names:
            return False
        has_target = any(
            isinstance(call.func, ast.Attribute) and call.func.attr in order.target
            for call in calls_in(fn.node)
        )
        if not has_target:
            return False
        if fn.cls is None:
            return True
        table = self.project.effective_methods(fn.cls)
        return any(method in table for method in order.before)

    # -- constructor key discovery ----------------------------------------

    def _ctor_specs_for(self, call: ast.Call) -> List[str]:
        chain = _dotted(call.func)
        if chain is None:
            return []
        last = chain.rsplit(".", 1)[-1]
        return self.ctor_of.get(last, [])

    def _collect_ctor_keys(self) -> None:
        stack: List[ast.AST] = list(ast.iter_child_nodes(self.fn.node))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for spec_name in self._ctor_specs_for(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.ctor_keys[spec_name].add(target.id)
                        elif isinstance(target, (ast.Tuple, ast.List)):
                            for elt in target.elts:
                                if isinstance(elt, ast.Name):
                                    self.ctor_keys[spec_name].add(elt.id)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if not isinstance(item.context_expr, ast.Call):
                        continue
                    for spec_name in self._ctor_specs_for(item.context_expr):
                        if isinstance(item.optional_vars, ast.Name):
                            self.safe_keys[spec_name].add(item.optional_vars.id)
            stack.extend(ast.iter_child_nodes(node))
        for spec_name in self.ctor_keys:
            self.ctor_keys[spec_name] -= self.safe_keys[spec_name]

    # -- event extraction --------------------------------------------------

    def _tracked_ctor_key(self, name: str) -> List[str]:
        return [
            spec_name
            for spec_name, keys in self.ctor_keys.items()
            if name in keys
        ]

    def _resolved_release_param(
        self, call: ast.Call, index: Optional[int], keyword: Optional[str]
    ) -> bool:
        """True when every resolved callee releases the passed argument."""
        site = classify_call(call)
        if site is None:
            return False
        callees = [
            qname
            for qname in self.project.resolve_call(self.fn, site)
            if qname in self.project.functions
        ]
        if not callees:
            return False
        for qname in callees:
            callee = self.project.functions[qname]
            param = _mapped_param(callee, index, keyword)
            if param is None or param not in self.releases.get(qname, set()):
                return False
        return True

    def _emit_call_events(self, call: ast.Call, events: List[_Event]) -> None:
        line, col = call.lineno, call.col_offset
        # resource arguments: handed off (escape) or released via summary
        tracked_names = {
            name
            for keys in self.ctor_keys.values()
            for name in keys
        }
        def scan_arg(arg: ast.AST, index: Optional[int], keyword: Optional[str]) -> None:
            for name in _names_in(arg) & tracked_names:
                kind = (
                    "release"
                    if isinstance(arg, ast.Name)
                    and self._resolved_release_param(call, index, keyword)
                    else "escape"
                )
                for spec_name in self._tracked_ctor_key(name):
                    events.append(
                        _Event(kind, spec_name, name, line, col)
                    )
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                scan_arg(arg.value, None, None)
            else:
                scan_arg(arg, index, None)
        for kw in call.keywords:
            scan_arg(kw.value, None, kw.arg)
        # protocol method calls on a receiver
        func = call.func
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        receiver = _dotted(func.value)
        if receiver is None:
            return
        for spec_name in self.release_of.get(method, []):
            if receiver in self.ctor_keys[spec_name]:
                events.append(_Event("release", spec_name, receiver, line, col))
        for spec_name in self.start_of.get(method, []):
            if receiver in self.ctor_keys[spec_name]:
                events.append(_Event("start", spec_name, receiver, line, col))
        for order in self.orders:
            if method in order.before:
                events.append(_Event("before", f"order:{order.name}", "", line, col))
            if method in order.target:
                events.append(_Event("target", f"order:{order.name}", "", line, col))

    def _emit_escape(self, expr: ast.AST, events: List[_Event], line: int, col: int) -> None:
        tracked = {
            name for keys in self.ctor_keys.values() for name in keys
        }
        for name in _names_in(expr) & tracked:
            for spec_name in self._tracked_ctor_key(name):
                events.append(_Event("escape", spec_name, name, line, col))

    def _extract_node_events(self, node: CFGNode) -> List[_Event]:
        events: List[_Event] = []
        for effect in node.effects:
            self._walk_effect(effect, events)
        return events

    def _walk_effect(self, item: ast.AST, events: List[_Event]) -> None:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(item, ast.Assign):
            # value side first (evaluation order), then the binding
            self._walk_effect(item.value, events)
            if isinstance(item.value, ast.Call):
                ctor_specs = self._ctor_specs_for(item.value)
            else:
                ctor_specs = []
            line, col = item.lineno, item.col_offset
            for target in item.targets:
                if ctor_specs and isinstance(target, (ast.Name, ast.Tuple, ast.List)):
                    elts = (
                        [target] if isinstance(target, ast.Name) else list(target.elts)
                    )
                    for elt in elts:
                        if not isinstance(elt, ast.Name):
                            continue
                        for spec_name in ctor_specs:
                            if elt.id not in self.ctor_keys[spec_name]:
                                continue
                            spec = self.specs[spec_name]
                            to_state = _INST if spec.start else _HELD
                            events.append(
                                _Event(
                                    "construct",
                                    spec_name,
                                    elt.id,
                                    line,
                                    col,
                                    to_state=to_state,
                                )
                            )
                elif isinstance(target, ast.Name):
                    # plain rebind kills the old binding; aliasing a
                    # tracked resource into a new name is an escape
                    self._emit_escape(item.value, events, line, col)
                    if self._tracked_ctor_key(target.id) and not ctor_specs:
                        self._emit_escape(target, events, line, col)
                else:
                    # store into an attribute/subscript: ownership leaves
                    self._emit_escape(item.value, events, line, col)
            return
        if isinstance(item, ast.AugAssign):
            self._walk_effect(item.value, events)
            self._emit_escape(item.value, events, item.lineno, item.col_offset)
            return
        if isinstance(item, (ast.Return, ast.Yield, ast.YieldFrom)):
            if item.value is not None:
                self._walk_effect(item.value, events)
                self._emit_escape(item.value, events, item.lineno, item.col_offset)
            return
        if isinstance(item, (ast.With, ast.AsyncWith)):
            # a bare `with tracked_handle:` releases it on block exit;
            # the CFG anchors only the items on the head node
            for withitem in item.items:
                self._walk_effect(withitem.context_expr, events)
                if isinstance(withitem.context_expr, ast.Name):
                    name = withitem.context_expr.id
                    for spec_name in self._tracked_ctor_key(name):
                        events.append(
                            _Event(
                                "release",
                                spec_name,
                                name,
                                item.lineno,
                                item.col_offset,
                            )
                        )
            return
        if isinstance(item, ast.withitem):
            self._walk_effect(item.context_expr, events)
            if isinstance(item.context_expr, ast.Name):
                name = item.context_expr.id
                for spec_name in self._tracked_ctor_key(name):
                    events.append(
                        _Event(
                            "release",
                            spec_name,
                            name,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                        )
                    )
            return
        if isinstance(item, ast.Call):
            self._walk_effect(item.func, events)
            for arg in item.args:
                self._walk_effect(arg, events)
            for kw in item.keywords:
                self._walk_effect(kw.value, events)
            self._emit_call_events(item, events)
            return
        for child in ast.iter_child_nodes(item):
            self._walk_effect(child, events)

    # -- exception-edge classification ------------------------------------

    def classify(self, call: ast.Call) -> str:
        """Exception strength of one call site (see EXC_STRENGTHS)."""
        site = classify_call(call)
        if site is None:
            return "weak"
        callees = [
            qname
            for qname in self.project.resolve_call(self.fn, site)
            if qname in self.project.functions
        ]
        if not callees:
            return "weak"
        if all(qname in self.always_raises for qname in callees):
            return "always"
        if any(
            qname in self.may_raise or qname in self.always_raises
            for qname in callees
        ):
            return "strong"
        return "none"

    # -- dataflow ----------------------------------------------------------

    def _step(
        self,
        events: Sequence[_Event],
        buckets: Dict[Tuple[str, str], Set[str]],
        exceptional: bool,
        report: Optional[List[Tuple[str, int, int, str]]] = None,
    ) -> None:
        """Apply a node's events to state buckets, in program order.

        With ``report`` set (the diagnostics pass over the solved entry
        facts) protocol violations are appended as
        ``(rule, line, col, message)`` tuples.
        """
        for event in events:
            if exceptional and event.kind not in _EXC_SAFE_KINDS:
                continue
            bucket_key = (event.spec, event.key)
            if event.kind == "before":
                buckets.pop((event.spec, event.key), None)
                continue
            if event.kind == "target":
                if report is not None and "missing" in buckets.get(bucket_key, ()):
                    report.append(
                        (
                            "TP304",
                            event.line,
                            event.col,
                            f"{self.fn.name}() can reach "
                            f"{self.module.source_lines[event.line - 1].strip()!r} "
                            "before the per-run reset has executed on this "
                            "path; call the reset first on every path",
                        )
                    )
                continue
            states = buckets.get(bucket_key)
            if event.kind == "construct":
                buckets[bucket_key] = {event.to_state}
                continue
            if states is None:
                continue
            if event.kind == "escape":
                buckets[bucket_key] = {_ESC}
                continue
            if event.kind == "release" and report is not None and states:
                if not states & {_HELD, _INST, _ESC}:
                    spec = self.specs[event.spec]
                    flavour = (
                        "already released earlier on this path (double release)"
                        if _REL in states
                        else "never acquired on this path"
                    )
                    report.append(
                        (
                            "TP302",
                            event.line,
                            event.col,
                            f"{self.fn.name}() releases {spec.resource} "
                            f"{event.key!r} which was {flavour}",
                        )
                    )
            transitions = _TRANSITIONS[event.kind]
            buckets[bucket_key] = {transitions[state] for state in states}

    @staticmethod
    def _parse_facts(facts: FrozenSet[str]) -> Dict[Tuple[str, str], Set[str]]:
        buckets: Dict[Tuple[str, str], Set[str]] = {}
        for fact in facts:
            spec, key, state = fact.split("|", 2)
            buckets.setdefault((spec, key), set()).add(state)
        return buckets

    @staticmethod
    def _pack_facts(buckets: Dict[Tuple[str, str], Set[str]]) -> FrozenSet[str]:
        return frozenset(
            _fact(spec, key, state)
            for (spec, key), states in buckets.items()
            for state in states
        )

    def run(self) -> List[Finding]:
        """Build the CFG, solve the dataflow, and report violations."""
        cfg = build_cfg(self.fn.node, classify=self.classify)
        for nid, node in cfg.nodes.items():
            node_events = self._extract_node_events(node)
            if node_events:
                self.events[nid] = node_events
        seeds = self._seed_facts()
        if not seeds and not self.events:
            return []
        solved = self._solve(cfg, seeds)
        return self._diagnose(cfg, solved)

    def _seed_facts(self) -> FrozenSet[str]:
        seeded: Set[str] = set()
        for node_events in self.events.values():
            for event in node_events:
                if event.kind in ("before", "target"):
                    continue
                if event.key in self.ctor_keys[event.spec]:
                    seeded.add(_fact(event.spec, event.key, _VIRGIN))
        for order in self.orders:
            seeded.add(_order_fact(order.name))
        return frozenset(seeded)

    def _solve(
        self, cfg: CFG, seeds: FrozenSet[str]
    ) -> Mapping[str, FrozenSet[str]]:
        graph: Dict[str, List[str]] = {}
        for nid in cfg.nodes:
            graph[f"n{nid}"] = [f"p{nid}", f"e{nid}"]
            graph[f"p{nid}"] = [f"n{succ}" for succ in cfg.normal_succ[nid]]
            graph[f"e{nid}"] = [f"n{succ}" for succ in cfg.exc_succ[nid]]

        def transfer(node: str, facts: FrozenSet[str]) -> FrozenSet[str]:
            if not facts or node.startswith("n"):
                return facts
            nid = int(node[1:])
            node_events = self.events.get(nid)
            if not node_events:
                return facts
            buckets = self._parse_facts(facts)
            self._step(node_events, buckets, exceptional=node.startswith("e"))
            return self._pack_facts(buckets)

        return fixed_point(graph, {f"n{cfg.entry}": seeds}, transfer)

    def _diagnose(
        self, cfg: CFG, solved: Mapping[str, FrozenSet[str]]
    ) -> List[Finding]:
        reports: List[Tuple[str, int, int, str]] = []
        for nid in cfg.nodes:
            node_events = self.events.get(nid)
            if not node_events:
                continue
            facts = solved.get(f"n{nid}")
            if not facts:
                continue
            buckets = self._parse_facts(facts)
            self._step(node_events, buckets, exceptional=False, report=reports)
        reports.extend(self._leak_reports(cfg, solved))
        reports.extend(self._withable_reports())
        findings: List[Finding] = []
        seen: Set[Tuple[str, int, str]] = set()
        for rule, line, col, message in reports:
            dedupe = (rule, line, message)
            if dedupe in seen:
                continue
            seen.add(dedupe)
            found = self.project.finding(self.module, rule, line, col, message)
            if found is not None:
                findings.append(found)
        return findings

    def _acquire_sites(self, spec_name: str, key: str) -> List[Tuple[int, int]]:
        sites: List[Tuple[int, int]] = []
        for node_events in self.events.values():
            for event in node_events:
                if event.spec != spec_name or event.key != key:
                    continue
                if event.kind == "start" or (
                    event.kind == "construct" and event.to_state == _HELD
                ):
                    sites.append((event.line, event.col))
        return sorted(sites)

    def _leak_reports(
        self, cfg: CFG, solved: Mapping[str, FrozenSet[str]]
    ) -> List[Tuple[str, int, int, str]]:
        exit_descs: Dict[Tuple[str, str], List[str]] = {}
        for exit_node, desc in (
            (cfg.exit, "a normal return path"),
            (cfg.raise_exit, "an exception path"),
        ):
            facts = solved.get(f"n{exit_node}")
            if not facts:
                continue
            for (spec_name, key), states in self._parse_facts(facts).items():
                if _HELD in states and not spec_name.startswith("order:"):
                    exit_descs.setdefault((spec_name, key), []).append(desc)
        reports: List[Tuple[str, int, int, str]] = []
        for (spec_name, key), descs in exit_descs.items():
            spec = self.specs[spec_name]
            sites = self._acquire_sites(spec_name, key)
            if not sites:
                continue
            line, col = sites[0]
            release_names = " or ".join(f"{name}()" for name in spec.release)
            reports.append(
                (
                    spec.leak_rule,
                    line,
                    col,
                    f"{self.fn.name}() acquires {spec.resource} {key!r} but "
                    f"{' and '.join(descs)} can leave the function without "
                    f"{release_names}; release it in a finally block "
                    "(or hand it off explicitly)",
                )
            )
        return reports

    def _withable_reports(self) -> List[Tuple[str, int, int, str]]:
        reports: List[Tuple[str, int, int, str]] = []
        for node_events in self.events.values():
            for event in node_events:
                if event.kind != "construct":
                    continue
                spec = self.specs[event.spec]
                if not spec.withable:
                    continue
                releases = [
                    other
                    for evs in self.events.values()
                    for other in evs
                    if other.kind == "release"
                    and other.spec == event.spec
                    and other.key == event.key
                ]
                if not releases:
                    continue  # the no-release case is TP301's leak report
                if event.line in self.protected_lines:
                    continue
                if any(rel.line in self.finally_lines for rel in releases):
                    continue
                reports.append(
                    (
                        "TP305",
                        event.line,
                        event.col,
                        f"{self.fn.name}() acquires {spec.resource} "
                        f"{event.key!r} outside with/try-finally; an "
                        "exception between acquire and release leaks it — "
                        "use a with block",
                    )
                )
        return reports


# ---------------------------------------------------------------------------
# Entry point


def check_protocols(project: Project, engine: FlowEngine) -> List[Finding]:
    """Run the TP3xx typestate pass over every function in the project."""
    may_raise = _may_raise_summary(project, engine)
    always_raises = _always_raises_summary(project)
    release_methods = {method for spec in PROTOCOL_SPECS for method in spec.release}
    releases = _release_summary(project, release_methods)
    findings: List[Finding] = []
    for qname in sorted(project.functions):
        fn = project.functions[qname]
        analysis = _FunctionAnalysis(
            project,
            fn,
            project.modules[fn.module],
            PROTOCOL_SPECS,
            ORDER_SPECS,
            may_raise,
            always_raises,
            releases,
        )
        findings.extend(analysis.run())
    return findings
