"""Project parser and name-resolved call graph for the flow analysis.

The flow pass needs to see the whole program at once: the two worst
bugs this project has shipped were invisible to any single-file visitor
(state initialized in ``__init__`` but forgotten by the reset path;
flash mutation reached through a helper).  :class:`Project` parses
every module under the analyzed roots exactly once and builds

* a **module index** with resolved imports (``from ..ftl.base import
  BaseFTL`` inside ``repro.ssd.device`` resolves to
  ``repro.ftl.base.BaseFTL``, including relative-import levels);
* a **class index** with bases resolved across modules and the derived
  ancestor/descendant relations;
* a **function index** (module functions and methods) with every call
  site extracted and name-resolved: plain names through the import
  map, ``self.m(...)`` through the class hierarchy (including
  subclass overrides — virtual dispatch is a *may* edge), and
  ``self.attr.m(...)`` through the light attribute-type inference in
  :mod:`repro.analysis.flow.state`.

Resolution is best-effort and sound in the may-analysis sense: an
unresolvable call simply contributes no edge.  Calls into classes
(``FlashMemory(...)``) edge to the class's ``__init__`` when it exists.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..lint import (Finding, _allowed_codes, _dotted, iter_python_files,
                    normalize_path)
from .state import ClassState, collect_class_state

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Project",
    "classify_call",
    "read_sources",
]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body.

    ``kind`` distinguishes how the callee was written down:

    * ``"name"`` — a plain or dotted name (``collect(x)``,
      ``module.helper(x)``); ``target`` holds the dotted text.
    * ``"self"`` — a method call on ``self``/``cls``; ``target`` is the
      method name.
    * ``"attr"`` — a method call on a ``self`` attribute
      (``self.flash.program(...)``); ``receiver`` is the attribute
      name, ``target`` the method name.
    """

    kind: str
    target: str
    line: int
    col: int
    receiver: Optional[str] = None


@dataclass
class FunctionInfo:
    """A module-level function or a method, with its call sites."""

    qname: str
    module: str
    name: str
    path: str
    line: int
    node: ast.AST
    cls: Optional[str] = None
    calls: List[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """One class definition with resolved bases and its methods."""

    qname: str
    module: str
    name: str
    path: str
    line: int
    node: ast.ClassDef
    #: base expressions as written (dotted text), pre-resolution
    base_names: List[str] = field(default_factory=list)
    #: base class qnames resolved against the project (subset)
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    state: Optional[ClassState] = None


@dataclass
class ModuleInfo:
    """One parsed module: source, import map, and suppression pragmas."""

    name: str
    path: str
    tree: ast.Module
    source_lines: List[str]
    #: local name -> fully qualified dotted name
    imports: Dict[str, str] = field(default_factory=dict)
    #: line -> suppressed rule codes (``# tp: allow=TP10x,TP20x``)
    allowed: Dict[int, Set[str]] = field(default_factory=dict)


def _module_name(path: pathlib.Path) -> str:
    """Dotted module name for ``path`` (rooted after a ``src`` dir)."""
    parts = list(path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    parts = [p for p in parts if p not in (".", "..", "/")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


def classify_call(node: ast.Call) -> Optional[CallSite]:
    """The :class:`CallSite` for one call expression — self-dispatch,
    attr-call or plain/dotted name — or None when the callee is not
    written as a name (a subscript, a call result, ...)."""
    func = node.func
    line, col = node.lineno, node.col_offset
    if isinstance(func, ast.Name):
        return CallSite("name", func.id, line, col)
    if not isinstance(func, ast.Attribute):
        return None
    value = func.value
    if isinstance(value, ast.Name) and value.id in ("self", "cls"):
        return CallSite("self", func.attr, line, col)
    if (isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in ("self", "cls")):
        return CallSite("attr", func.attr, line, col, receiver=value.attr)
    dotted = _dotted(func)
    return None if dotted is None else CallSite("name", dotted, line, col)


class _CallCollector(ast.NodeVisitor):
    """Extract :class:`CallSite` records from one function body."""

    def __init__(self) -> None:
        self.calls: List[CallSite] = []

    def visit_Call(self, node: ast.Call) -> None:
        """Record the classified call site, then descend."""
        site = classify_call(node)
        if site is not None:
            self.calls.append(site)
        self.generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Do not descend into nested defs; they get their own entry."""

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Do not descend into nested defs; they get their own entry."""


class Project:
    """Whole-program index: modules, classes, functions, call sites."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: simple class name -> qnames (for last-resort base resolution)
        self._by_simple: Dict[str, List[str]] = {}
        self._descendants: Optional[Dict[str, Set[str]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Sequence[str],
                   exclude: Sequence[str] = ()) -> "Project":
        """Parse every ``*.py`` under ``paths`` into one project."""
        return cls.from_sources(read_sources(paths, exclude=exclude))

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "Project":
        """Build a project from ``{path: source}`` (tests use this)."""
        project = cls()
        for path, source in sorted(sources.items()):
            project._add_module(path, source)
        project._resolve_bases()
        project._collect_state()
        return project

    def _add_module(self, path: str, source: str) -> None:
        tree = ast.parse(source, filename=path)
        lines = source.splitlines()
        name = _module_name(pathlib.PurePosixPath(path))
        if name in self.modules:  # same-named module elsewhere: keep both
            name = f"{name}@{len(self.modules)}"
        module = ModuleInfo(name=name, path=path, tree=tree,
                            source_lines=lines,
                            allowed=_allowed_codes(lines))
        self._collect_imports(module, path)
        self.modules[name] = module
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, node, cls_qname=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(module, node)

    def _collect_imports(self, module: ModuleInfo, path: str) -> None:
        is_pkg = pathlib.PurePosixPath(path).name == "__init__.py"
        package = module.name if is_pkg else ".".join(
            module.name.split(".")[:-1])
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    anchor = package.split(".") if package else []
                    anchor = anchor[:len(anchor) - (node.level - 1)]
                    base = ".".join(anchor + ([base] if base else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.imports[local] = (f"{base}.{alias.name}"
                                             if base else alias.name)

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{module.name}.{node.name}"
        info = ClassInfo(qname=qname, module=module.name, name=node.name,
                         path=module.path, line=node.lineno, node=node)
        for b in node.bases:
            dotted = _dotted(b)
            if dotted is None and isinstance(b, ast.Subscript):
                dotted = _dotted(b.value)
            if dotted is not None:
                info.base_names.append(dotted)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, cls_qname=qname,
                                   cls_info=info)
        self.classes[qname] = info
        self._by_simple.setdefault(node.name, []).append(qname)

    def _add_function(self, module: ModuleInfo, node: ast.AST,
                      cls_qname: Optional[str],
                      cls_info: Optional[ClassInfo] = None) -> None:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        owner = cls_qname or module.name
        qname = f"{owner}.{node.name}"
        collector = _CallCollector()
        for stmt in node.body:
            collector.visit(stmt)
        info = FunctionInfo(qname=qname, module=module.name,
                            name=node.name, path=module.path,
                            line=node.lineno, node=node, cls=cls_qname,
                            calls=collector.calls)
        self.functions[qname] = info
        if cls_info is not None:
            cls_info.methods[node.name] = info

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------
    def resolve_name(self, module: ModuleInfo, dotted: str) -> str:
        """Resolve a dotted name against the module's import map."""
        head, _, rest = dotted.partition(".")
        if head in module.imports:
            base = module.imports[head]
            return f"{base}.{rest}" if rest else base
        local = f"{module.name}.{dotted}"
        if local in self.classes or local in self.functions:
            return local
        head_local = f"{module.name}.{head}"
        if head_local in self.classes and rest:
            return f"{head_local}.{rest}"
        return dotted

    def resolve_class(self, module: ModuleInfo,
                      dotted: str) -> Optional[str]:
        """Resolve a dotted name to a known class qname, if any.

        Falls back to unique-simple-name matching so sources analyzed
        without their import closure (a lone fixture file, a test tree
        without ``src``) still see their local hierarchies.
        """
        resolved = self.resolve_name(module, dotted)
        if resolved in self.classes:
            return resolved
        simple = dotted.split(".")[-1]
        candidates = self._by_simple.get(simple, [])
        if len(candidates) == 1:
            return candidates[0]
        for candidate in candidates:
            if candidate.startswith(module.name + "."):
                return candidate
        return None

    def _resolve_bases(self) -> None:
        for info in self.classes.values():
            module = self.modules[info.module]
            for dotted in info.base_names:
                resolved = self.resolve_class(module, dotted)
                if resolved is not None and resolved != info.qname:
                    info.bases.append(resolved)

    def _collect_state(self) -> None:
        for info in self.classes.values():
            module = self.modules[info.module]
            info.state = collect_class_state(
                info.node,
                resolve_class=lambda d, _m=module: self.resolve_class(_m, d))

    # ------------------------------------------------------------------
    # Hierarchy queries
    # ------------------------------------------------------------------
    def ancestors(self, qname: str) -> List[str]:
        """All (transitive) base-class qnames, nearest first."""
        seen: List[str] = []
        queue = list(self.classes[qname].bases)
        while queue:
            base = queue.pop(0)
            if base in seen or base == qname:
                continue
            seen.append(base)
            if base in self.classes:
                queue.extend(self.classes[base].bases)
        return seen

    def descendants(self, qname: str) -> Set[str]:
        """All (transitive) subclass qnames."""
        if self._descendants is None:
            self._descendants = {}
            direct: Dict[str, Set[str]] = {}
            for cls in self.classes.values():
                for base in cls.bases:
                    direct.setdefault(base, set()).add(cls.qname)
            for name in self.classes:
                out: Set[str] = set()
                queue = list(direct.get(name, ()))
                while queue:
                    sub = queue.pop()
                    if sub in out:
                        continue
                    out.add(sub)
                    queue.extend(direct.get(sub, ()))
                self._descendants[name] = out
        return self._descendants.get(qname, set())

    def effective_methods(self, qname: str) -> Dict[str, FunctionInfo]:
        """Method table of ``qname`` with inheritance applied
        (own definitions win over ancestors, nearest ancestor first)."""
        table: Dict[str, FunctionInfo] = {}
        for owner in [qname] + self.ancestors(qname):
            info = self.classes.get(owner)
            if info is None:
                continue
            for name, fn in info.methods.items():
                table.setdefault(name, fn)
        return table

    def attr_type(self, cls_qname: str, attr: str) -> Optional[str]:
        """Inferred class qname of ``self.<attr>`` for a class,
        searching the hierarchy nearest-first."""
        for owner in [cls_qname] + self.ancestors(cls_qname):
            info = self.classes.get(owner)
            if info is None or info.state is None:
                continue
            found = info.state.attr_types.get(attr)
            if found is not None:
                return found
        return None

    # ------------------------------------------------------------------
    # Call-graph edges
    # ------------------------------------------------------------------
    def resolve_call(self, fn: FunctionInfo,
                     site: CallSite) -> Set[str]:
        """Resolve one call site to the set of possible callee qnames.

        Virtual dispatch is modelled as a *may* edge set: a ``self.m``
        call from class ``C`` targets ``m`` as seen by ``C`` **and**
        every override of ``m`` in ``C``'s descendants; an
        ``self.attr.m`` call does the same for the attribute's inferred
        type.
        """
        module = self.modules[fn.module]
        if site.kind == "self" and fn.cls is not None:
            return self._virtual_targets(fn.cls, site.target)
        if site.kind == "attr" and fn.cls is not None:
            receiver = site.receiver or ""
            typ = self.attr_type(fn.cls, receiver)
            if typ is not None:
                return self._virtual_targets(typ, site.target)
            return set()
        if site.kind == "name":
            resolved = self.resolve_name(module, site.target)
            if resolved in self.functions:
                return {resolved}
            if resolved in self.classes:
                init = f"{resolved}.__init__"
                table = self.effective_methods(resolved)
                ctor = table.get("__init__")
                if ctor is not None:
                    return {ctor.qname}
                return {init} if init in self.functions else set()
            simple = site.target.split(".")[-1]
            local = f"{fn.module}.{simple}"
            if local in self.functions:
                return {local}
        return set()

    def _virtual_targets(self, cls_qname: str, method: str) -> Set[str]:
        targets: Set[str] = set()
        table = self.effective_methods(cls_qname)
        if method in table:
            targets.add(table[method].qname)
        for sub in self.descendants(cls_qname):
            info = self.classes.get(sub)
            if info is not None and method in info.methods:
                targets.add(info.methods[method].qname)
        return targets

    def call_edges(self) -> Dict[str, Set[Tuple[str, CallSite]]]:
        """The full call graph: ``caller -> {(callee, site), ...}``."""
        edges: Dict[str, Set[Tuple[str, CallSite]]] = {}
        for fn in self.functions.values():
            out: Set[Tuple[str, CallSite]] = set()
            for site in fn.calls:
                for callee in self.resolve_call(fn, site):
                    out.add((callee, site))
            edges[fn.qname] = out
        return edges

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def finding(self, module: ModuleInfo, rule: str, line: int, col: int,
                message: str) -> Optional[Finding]:
        """The finding for ``rule`` at ``line`` of ``module``, unless a
        ``# tp: allow=<rule>`` pragma on that line suppresses it."""
        if rule in module.allowed.get(line, ()):
            return None
        snippet = ""
        if 1 <= line <= len(module.source_lines):
            snippet = module.source_lines[line - 1].strip()
        return Finding(rule=rule, path=module.path, line=line, col=col,
                       message=message, snippet=snippet)


def read_sources(paths: Sequence[str],
                 exclude: Sequence[str] = ()) -> Dict[str, str]:
    """``{normalized path: source text}`` of every ``*.py`` under
    ``paths`` — the input of :meth:`Project.from_sources`."""
    return {normalize_path(file): file.read_text(encoding="utf-8")
            for file in iter_python_files(paths, exclude=exclude)}
