"""Per-class mutable-state inventory for the flow analysis.

For every class the project parser walks each method once and records
what happens to ``self.<attr>``:

* **assignments** — plain / annotated stores (``self.x = ...``), the
  events that *(re)initialize* state;
* **mutations** — everything that changes state without rebinding it:
  augmented assigns (``self.x += ...``), subscript stores and deletes
  (``self.busy[ch] = ...``), and in-place mutator calls
  (``self.queue.append(...)``, ``.clear()``, ``.update()`` ...);
* **attribute types** — a light inference (``self.flash =
  FlashMemory(...)``, annotated ``__init__`` parameters) that lets the
  call graph resolve ``self.flash.program(...)`` to a real method;
* **set-typed attributes** — attributes initialized from set
  expressions, the TP104 seed.

Stores one level deeper (``self.ftl.metrics = ...``) are deliberately
*not* treated as mutations of ``ftl``: they mutate the pointed-to
object, which owns its own reset discipline, and counting them would
drown TP101 in false positives.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from ..lint import _dotted

__all__ = [
    "AttrEvent",
    "ClassState",
    "MUTATOR_METHODS",
    "collect_class_state",
]

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "popleft", "remove", "reverse",
    "rotate", "setdefault", "sort", "update",
})

#: assignment value shapes that produce a set
_SET_CTORS = frozenset({"set", "frozenset"})


@dataclass(frozen=True)
class AttrEvent:
    """One store/mutation of ``self.<attr>`` inside a method.

    ``kind`` is one of ``assign`` (rebinding store), ``augassign``,
    ``subscript`` (item store/delete through the attribute) or
    ``mutcall`` (in-place mutator method call); ``detail`` carries the
    mutator name, or ``selfref`` on a self-referential rebind.
    """

    attr: str
    kind: str
    method: str
    line: int
    col: int
    detail: str = ""


@dataclass
class ClassState:
    """Everything the rules need to know about one class's attributes."""

    #: method name -> attrs (re)bound by a plain/annotated assignment
    assigns: Dict[str, Set[str]] = field(default_factory=dict)
    #: method name -> in-place mutation events (no rebinding)
    mutations: Dict[str, List[AttrEvent]] = field(default_factory=dict)
    #: method name -> rebinding-store events (for run-path reporting)
    assign_events: Dict[str, List[AttrEvent]] = field(default_factory=dict)
    #: attr -> inferred class qname (for call resolution)
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attrs initialized from set literals/constructors/comprehensions
    set_attrs: Set[str] = field(default_factory=set)


def _reads_self_attr(node: ast.AST, attr: str) -> bool:
    """True when ``node`` reads ``self.<attr>`` anywhere inside."""
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and sub.attr == attr
                and isinstance(sub.value, ast.Name)
                and sub.value.id in ("self", "cls")):
            return True
    return False


def _self_attr(node: ast.AST) -> Optional[str]:
    """``x`` when ``node`` is exactly ``self.x`` / ``cls.x``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("self", "cls")):
        return node.attr
    return None


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that evaluate to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _SET_CTORS
    return False


class _MethodScanner(ast.NodeVisitor):
    """Collect :class:`AttrEvent` records from one method body."""

    def __init__(self, state: ClassState, method: str,
                 annotations: Dict[str, str],
                 resolve_class: Callable[[str], Optional[str]]) -> None:
        self.state = state
        self.method = method
        self.annotations = annotations
        self.resolve_class = resolve_class

    # -- helpers -------------------------------------------------------
    def _record_assign(self, attr: str, node: ast.AST,
                       value: Optional[ast.AST]) -> None:
        self.state.assigns.setdefault(self.method, set()).add(attr)
        detail = ""
        if value is not None and _reads_self_attr(value, attr):
            # self-referential rebinding (self.x = self.x + 1): the
            # previous value flows in, so this is not a fresh init
            detail = "selfref"
        self.state.assign_events.setdefault(self.method, []).append(
            AttrEvent(attr=attr, kind="assign", method=self.method,
                      line=node.lineno, col=node.col_offset,
                      detail=detail))
        if value is None:
            return
        if _is_set_expr(value):
            self.state.set_attrs.add(attr)
        self._infer_type(attr, value)

    def _infer_type(self, attr: str, value: ast.AST) -> None:
        if attr in self.state.attr_types:
            return
        if isinstance(value, ast.Call):
            dotted = _dotted(value.func)
            if dotted is not None:
                resolved = self.resolve_class(dotted)
                if resolved is not None:
                    self.state.attr_types[attr] = resolved
        elif isinstance(value, ast.Name):
            annotation = self.annotations.get(value.id)
            if annotation is not None:
                resolved = self.resolve_class(annotation)
                if resolved is not None:
                    self.state.attr_types[attr] = resolved

    def _record_mutation(self, attr: str, kind: str, node: ast.AST,
                         detail: str = "") -> None:
        self.state.mutations.setdefault(self.method, []).append(
            AttrEvent(attr=attr, kind=kind, method=self.method,
                      line=node.lineno, col=node.col_offset,
                      detail=detail))

    # -- stores --------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        """Record ``self.x = ...`` and ``self.x[i] = ...`` targets."""
        for target in node.targets:
            self._store_target(target, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Record annotated stores, resolving the annotation's type."""
        attr = _self_attr(node.target)
        if attr is not None:
            self._record_assign(attr, node, node.value)
            dotted = _dotted(node.annotation)
            if dotted is not None and attr not in self.state.attr_types:
                resolved = self.resolve_class(dotted)
                if resolved is not None:
                    self.state.attr_types[attr] = resolved
        elif isinstance(node.target, ast.Subscript):
            base = _self_attr(node.target.value)
            if base is not None:
                self._record_mutation(base, "subscript", node)
        self.generic_visit(node)

    def _store_target(self, target: ast.AST,
                      value: Optional[ast.AST]) -> None:
        attr = _self_attr(target)
        if attr is not None:
            self._record_assign(attr, target, value)
            return
        if isinstance(target, ast.Subscript):
            base = _self_attr(target.value)
            if base is not None:
                self._record_mutation(base, "subscript", target)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._store_target(element, None)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """Record ``self.x += ...`` / ``self.x[i] += ...`` mutations."""
        attr = _self_attr(node.target)
        if attr is not None:
            self._record_mutation(attr, "augassign", node)
        elif isinstance(node.target, ast.Subscript):
            base = _self_attr(node.target.value)
            if base is not None:
                self._record_mutation(base, "subscript", node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        """Record ``del self.x[i]`` as an in-place mutation."""
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                base = _self_attr(target.value)
                if base is not None:
                    self._record_mutation(base, "subscript", node)
        self.generic_visit(node)

    # -- mutator calls -------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Record ``self.x.append(...)``-style in-place mutator calls."""
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in MUTATOR_METHODS):
            base = _self_attr(func.value)
            if base is not None:
                self._record_mutation(base, "mutcall", node,
                                      detail=func.attr)
            elif (isinstance(func.value, ast.Subscript)):
                inner = _self_attr(func.value.value)
                if inner is not None:
                    self._record_mutation(inner, "mutcall", node,
                                          detail=func.attr)
        self.generic_visit(node)

    # -- nested definitions are their own scope ------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Skip nested defs; their stores are not method-level state."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Skip nested defs; their stores are not method-level state."""

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        """Skip nested classes; the project indexes them separately."""


def _param_annotations(node: ast.AST) -> Dict[str, str]:
    """Dotted annotation text per parameter of a function node."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return {}
    out: Dict[str, str] = {}
    args = list(node.args.posonlyargs) + list(node.args.args)
    args += list(node.args.kwonlyargs)
    for arg in args:
        if arg.annotation is None:
            continue
        annotation: ast.AST = arg.annotation
        if isinstance(annotation, ast.Constant) and isinstance(
                annotation.value, str):  # string annotation
            try:
                annotation = ast.parse(annotation.value,
                                       mode="eval").body
            except SyntaxError:
                continue
        if isinstance(annotation, ast.Subscript):  # Optional[T] etc.
            annotation = annotation.slice
        dotted = _dotted(annotation)
        if dotted is not None:
            out[arg.arg] = dotted
    return out


def collect_class_state(
        node: ast.ClassDef,
        resolve_class: Callable[[str], Optional[str]]) -> ClassState:
    """Scan every method of ``node`` into one :class:`ClassState`."""
    state = ClassState()
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        scanner = _MethodScanner(state, stmt.name,
                                 _param_annotations(stmt), resolve_class)
        for body_stmt in stmt.body:
            scanner.visit(body_stmt)
    return state
