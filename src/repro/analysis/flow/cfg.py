"""Per-function control-flow graphs with explicit exception edges.

The typestate pass (:mod:`repro.analysis.flow.typestate`) checks
*temporal* protocols — "the handle is closed on every path out of
this region, including the path where the write raised".  That
question cannot be asked of a syntax tree; it needs a CFG whose edges
include the ways control *abnormally* leaves a statement:

* ``raise`` statements and calls that may raise (classified by the
  caller via a may-raise summary over the project call graph) get
  **exception edges** to the innermost enclosing handlers, or through
  the enclosing ``finally`` blocks to a synthetic ``RAISE_EXIT`` node;
* ``finally`` bodies are **duplicated per continuation kind** (normal
  fall-through, exception propagation, ``return``, ``break``,
  ``continue``) so each path's facts flow through its own copy — the
  textbook way to keep try/finally precise without path explosion
  (one copy per kind per ``try``, not per raising site);
* early ``return``/``break``/``continue`` are routed through every
  ``finally`` between the statement and its target.

Edges are split into **normal** and **exceptional** successor maps: an
exception edge leaves a statement *mid-flight*, so the typestate
transfer applies only the statement's release/escape effects along it
(an acquire that raised never acquired).

The exception model is deliberately two-tier to stay quiet on pristine
code: calls *resolved* (via the call graph) to functions that may
transitively raise always generate exception edges, while *unresolved*
calls (builtins, stdlib, duck-typed receivers) generate them only
inside a ``try`` — outside one, a leaked resource could only be
observed by a crash that unwinds the whole frame anyway, and flagging
every ``dict.get`` would drown the signal.  Attribute access and
arithmetic never raise in the model.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

__all__ = ["CFG", "CFGNode", "build_cfg", "calls_in"]

#: exception strength of one call, as classified by the caller, in
#: increasing order: "none" (cannot raise), "weak" (unknown callee —
#: raises only inside a try), "strong" (resolved callee may raise),
#: "always" (resolved callee never returns normally).
EXC_STRENGTHS = ("none", "weak", "strong", "always")

#: classifier callback: ast.Call -> one of EXC_STRENGTHS
Classifier = Callable[[ast.Call], str]

_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def calls_in(node: ast.AST) -> List[ast.Call]:
    """Every call expression under ``node``, in source order, without
    descending into nested function/lambda bodies (they have their own
    CFGs — or none — and their calls do not run here)."""
    calls: List[ast.Call] = []

    def _walk(current: ast.AST) -> None:
        if isinstance(current, ast.Call):
            calls.append(current)
        for child in ast.iter_child_nodes(current):
            if isinstance(child, _NESTED):
                continue
            _walk(child)

    _walk(node)
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


@dataclass
class CFGNode:
    """One CFG node: a statement (or statement fragment) or a synthetic
    entry/exit/handler marker.

    ``stmt`` anchors the node in the source (line/col, statement
    class); ``effects`` lists the sub-ASTs whose expressions actually
    evaluate *at* this node — for a ``for`` loop that is the iterable,
    not the body, which has its own nodes.
    """

    nid: int
    #: "entry", "exit", "raise_exit", "stmt", "handler"
    kind: str
    stmt: Optional[ast.AST]
    effects: Tuple[ast.AST, ...]
    line: int
    col: int


class CFG:
    """The graph: nodes plus split normal/exceptional successor maps."""

    def __init__(self) -> None:
        self.nodes: Dict[int, CFGNode] = {}
        self.entry: int = 0
        self.exit: int = 0
        self.raise_exit: int = 0
        self.normal_succ: Dict[int, List[int]] = {}
        self.exc_succ: Dict[int, List[int]] = {}

    def add_node(self, kind: str, stmt: Optional[ast.AST] = None,
                 effects: Optional[Sequence[ast.AST]] = None) -> int:
        """Append a node anchored at ``stmt`` and return its id."""
        nid = len(self.nodes)
        line = getattr(stmt, "lineno", 0) if stmt is not None else 0
        col = getattr(stmt, "col_offset", 0) if stmt is not None else 0
        if effects is None:
            effects = (stmt,) if stmt is not None else ()
        self.nodes[nid] = CFGNode(nid=nid, kind=kind, stmt=stmt,
                                  effects=tuple(effects),
                                  line=line, col=col)
        self.normal_succ[nid] = []
        self.exc_succ[nid] = []
        return nid

    def link(self, src: int, dst: int, exceptional: bool = False) -> None:
        """Add a normal (or exceptional) edge, deduplicating."""
        table = self.exc_succ if exceptional else self.normal_succ
        if dst not in table[src]:
            table[src].append(dst)

    def reachable(self) -> Set[int]:
        """Node ids reachable from the entry along any edge kind."""
        seen: Set[int] = set()
        queue = [self.entry]
        while queue:
            nid = queue.pop()
            if nid in seen:
                continue
            seen.add(nid)
            queue.extend(self.normal_succ[nid])
            queue.extend(self.exc_succ[nid])
        return seen

    def exits_normally(self) -> bool:
        """True when the normal exit is reachable from the entry — the
        negation is the "always raises" interprocedural summary."""
        return self.exit in self.reachable()


@dataclass(eq=False)
class _TryFrame:
    """One enclosing ``try`` during construction.

    A ``try`` with both handlers and a ``finally`` is pushed as two
    frames: the handler frame covers only the body, the finally frame
    covers body, handlers and ``else`` alike.
    """

    handlers: List[int] = field(default_factory=list)
    catches_all: bool = False
    finalbody: Optional[List[ast.stmt]] = None
    #: lazily built finally duplicates, continuation kind -> (entry,
    #: frontier); the normal-completion copy is built inline instead.
    copies: Dict[str, Tuple[int, List[int]]] = field(default_factory=dict)


@dataclass(eq=False)
class _LoopFrame:
    """One enclosing loop: where ``continue`` goes and the pending
    ``break`` frontier (linked to the after-loop node by the caller)."""

    head: int
    breaks: List[int] = field(default_factory=list)


_Frame = Union[_TryFrame, _LoopFrame]

_STRENGTH_ORDER = {s: i for i, s in enumerate(EXC_STRENGTHS)}


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    node = handler.type
    name = node.attr if isinstance(node, ast.Attribute) else (
        node.id if isinstance(node, ast.Name) else "")
    return name in ("Exception", "BaseException")


class _Builder:
    """Recursive statement-list walker building one function's CFG."""

    def __init__(self, classify: Classifier) -> None:
        self.cfg = CFG()
        self.classify = classify
        self.frames: List[_Frame] = []

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def build(self, fn: ast.AST) -> CFG:
        """Build and return the CFG of one function definition."""
        graph = self.cfg
        graph.entry = graph.add_node("entry")
        graph.exit = graph.add_node("exit")
        graph.raise_exit = graph.add_node("raise_exit")
        body: List[ast.stmt] = getattr(fn, "body", [])
        frontier = self._body(body, [graph.entry])
        for nid in frontier:
            graph.link(nid, graph.exit)
        return graph

    # ------------------------------------------------------------------
    # Statement dispatch
    # ------------------------------------------------------------------
    def _body(self, stmts: Sequence[ast.stmt],
              frontier: List[int]) -> List[int]:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, ast.While):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if hasattr(ast, "TryStar") and isinstance(
                stmt, ast.TryStar):  # pragma: no cover - py3.11+
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        if isinstance(stmt, ast.Return):
            return self._abrupt_return(stmt, frontier)
        if isinstance(stmt, ast.Break):
            return self._abrupt_loop(stmt, frontier, "break")
        if isinstance(stmt, ast.Continue):
            return self._abrupt_loop(stmt, frontier, "continue")
        if isinstance(stmt, ast.Raise):
            self._linear(stmt, frontier, raises="raise")
            return []
        nid = self._linear(stmt, frontier)
        return [nid] if self._falls_through(nid) else []

    # ------------------------------------------------------------------
    # Simple statements
    # ------------------------------------------------------------------
    def _strength(self, effects: Sequence[ast.AST]) -> str:
        strength = "none"
        for effect in effects:
            for call in calls_in(effect):
                classified = self.classify(call)
                if (_STRENGTH_ORDER.get(classified, 0)
                        > _STRENGTH_ORDER[strength]):
                    strength = classified
        return strength

    def _linear(self, stmt: ast.AST, frontier: List[int],
                effects: Optional[Sequence[ast.AST]] = None,
                raises: Optional[str] = None) -> int:
        """One plain node: link from the frontier, add exception edges
        per the statement's strongest contained call (or an explicit
        ``raise``); returns the node id.  A call classified "always"
        never falls through — the caller sees that via the returned
        node being terminal only when it checks, so ``_stmt`` wraps it:
        see :meth:`_maybe_terminal`."""
        nid = self.cfg.add_node("stmt", stmt, effects)
        for prev in frontier:
            self.cfg.link(prev, nid)
        strength = raises or self._strength(self.cfg.nodes[nid].effects)
        if strength != "none":
            self._route_exception(nid, strength)
        self.cfg.nodes[nid].kind = (
            "noreturn" if strength == "always" else self.cfg.nodes[nid].kind)
        return nid

    def _falls_through(self, nid: int) -> bool:
        return self.cfg.nodes[nid].kind != "noreturn"

    # ------------------------------------------------------------------
    # Exception routing
    # ------------------------------------------------------------------
    def _finally_copy(self, frame: _TryFrame,
                      kind: str) -> Tuple[int, List[int]]:
        """The frame's finally duplicate for one continuation kind,
        built on first use under the frame stack *outside* the frame —
        exactly the stack the ``finally`` body runs under."""
        if kind not in frame.copies:
            index = next(i for i, f in enumerate(self.frames)
                         if f is frame)
            saved = self.frames
            self.frames = saved[:index]
            entry = self.cfg.add_node("stmt", None)
            exits = self._body(frame.finalbody or [], [entry])
            self.frames = saved
            frame.copies[kind] = (entry, exits)
        return frame.copies[kind]

    def _route_exception(self, nid: int, strength: str) -> None:
        """Add exception edges from ``nid`` per the two-tier policy."""
        current = [nid]
        exceptional = True  # the first hop leaves the statement mid-way
        saw_try = False
        for frame in reversed(self.frames):
            if isinstance(frame, _LoopFrame):
                continue
            saw_try = True
            if frame.handlers:
                for handler in frame.handlers:
                    for src in current:
                        self.cfg.link(src, handler, exceptional)
                if strength != "raise" or frame.catches_all:
                    return
                # an explicit raise of a specific exception may slip
                # past specific handlers: keep propagating outward
                continue
            if frame.finalbody is not None:
                entry, exits = self._finally_copy(frame, "exc")
                for src in current:
                    self.cfg.link(src, entry, exceptional)
                current = exits
                exceptional = False
        if strength == "weak" and not saw_try:
            return
        for src in current:
            self.cfg.link(src, self.cfg.raise_exit, exceptional)

    # ------------------------------------------------------------------
    # Abrupt control transfer (return / break / continue)
    # ------------------------------------------------------------------
    def _route_through_finallys(self, start: int, kind: str,
                                until: Optional[_Frame]) -> List[int]:
        """Route an abrupt transfer from ``start`` through every
        ``finally`` between it and ``until`` (exclusive; None = all)."""
        current = [start]
        for frame in reversed(self.frames):
            if frame is until:
                break
            if isinstance(frame, _TryFrame) and frame.finalbody is not None:
                entry, exits = self._finally_copy(frame, kind)
                for src in current:
                    self.cfg.link(src, entry)
                current = exits
        return current

    def _abrupt_return(self, stmt: ast.Return,
                       frontier: List[int]) -> List[int]:
        nid = self._linear(stmt, frontier)
        if self._falls_through(nid):
            for src in self._route_through_finallys(nid, "return", None):
                self.cfg.link(src, self.cfg.exit)
        return []

    def _abrupt_loop(self, stmt: ast.stmt, frontier: List[int],
                     kind: str) -> List[int]:
        nid = self._linear(stmt, frontier)
        loop = next((f for f in reversed(self.frames)
                     if isinstance(f, _LoopFrame)), None)
        if loop is None:  # malformed source; treat as linear
            return [nid]
        terminal = self._route_through_finallys(nid, kind, loop)
        if kind == "break":
            loop.breaks.extend(terminal)
        else:
            for src in terminal:
                self.cfg.link(src, loop.head)
        return []

    # ------------------------------------------------------------------
    # Compound statements
    # ------------------------------------------------------------------
    def _if(self, stmt: ast.If, frontier: List[int]) -> List[int]:
        test = self._linear(stmt, frontier, effects=[stmt.test])
        if not self._falls_through(test):
            return []
        out = self._body(stmt.body, [test])
        if stmt.orelse:
            out = out + self._body(stmt.orelse, [test])
        else:
            out = out + [test]
        return out

    def _loop_exit_is_static(self, test: ast.expr) -> bool:
        """``while True:`` (or any truthy constant) never falls out."""
        return isinstance(test, ast.Constant) and bool(test.value)

    def _while(self, stmt: ast.While, frontier: List[int]) -> List[int]:
        head = self._linear(stmt, frontier, effects=[stmt.test])
        loop = _LoopFrame(head=head)
        self.frames.append(loop)
        body_out = self._body(stmt.body, [head])
        self.frames.pop()
        for src in body_out:
            self.cfg.link(src, head)
        out: List[int] = ([] if self._loop_exit_is_static(stmt.test)
                          else [head])
        if stmt.orelse:
            out = self._body(stmt.orelse, out) if out else []
        return out + loop.breaks

    def _for(self, stmt: Union[ast.For, ast.AsyncFor],
             frontier: List[int]) -> List[int]:
        head = self._linear(stmt, frontier,
                            effects=[stmt.target, stmt.iter])
        loop = _LoopFrame(head=head)
        self.frames.append(loop)
        body_out = self._body(stmt.body, [head])
        self.frames.pop()
        for src in body_out:
            self.cfg.link(src, head)
        out: List[int] = [head]
        if stmt.orelse:
            out = self._body(stmt.orelse, out)
        return out + loop.breaks

    def _with(self, stmt: Union[ast.With, ast.AsyncWith],
              frontier: List[int]) -> List[int]:
        # One node evaluates the context expressions; ``__exit__`` is
        # the language's own guaranteed release, so nothing special is
        # modelled on the exception path (the typestate pass treats
        # with-bound resources as safe).
        head = self._linear(stmt, frontier, effects=list(stmt.items))
        return self._body(stmt.body, [head])

    def _match(self, stmt: ast.Match,
               frontier: List[int]) -> List[int]:
        subject = self._linear(stmt, frontier, effects=[stmt.subject])
        out: List[int] = [subject]  # no case may match
        for case in stmt.cases:
            out = out + self._body(case.body, [subject])
        return out

    def _try(self, stmt: ast.stmt, frontier: List[int]) -> List[int]:
        body: List[ast.stmt] = getattr(stmt, "body")
        handlers: List[ast.ExceptHandler] = getattr(stmt, "handlers")
        orelse: List[ast.stmt] = getattr(stmt, "orelse")
        finalbody: List[ast.stmt] = getattr(stmt, "finalbody")
        fin_frame: Optional[_TryFrame] = None
        if finalbody:
            fin_frame = _TryFrame(finalbody=finalbody)
            self.frames.append(fin_frame)
        handler_entries = [self.cfg.add_node("handler", h, effects=())
                           for h in handlers]
        if handlers:
            frame = _TryFrame(
                handlers=handler_entries,
                catches_all=any(_is_catch_all(h) for h in handlers))
            self.frames.append(frame)
        body_out = self._body(body, frontier)
        if handlers:
            self.frames.pop()
        if orelse:
            body_out = self._body(orelse, body_out)
        merged = list(body_out)
        for handler, entry in zip(handlers, handler_entries):
            merged.extend(self._body(handler.body, [entry]))
        if fin_frame is not None:
            self.frames.pop()
            entry = self.cfg.add_node("stmt", None)
            for src in merged:
                self.cfg.link(src, entry)
            return self._body(finalbody, [entry])
        return merged


def build_cfg(fn: ast.AST, classify: Optional[Classifier] = None) -> CFG:
    """Build the CFG of one function definition node.

    ``classify`` maps each contained call to its exception strength
    (see :data:`EXC_STRENGTHS`); omitted, every call is "weak" — the
    structure-only mode the always-raises pre-pass uses.
    """
    builder = _Builder(classify or (lambda call: "weak"))
    return builder.build(fn)
