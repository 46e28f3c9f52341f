"""Address-domain and unit abstract interpretation (the ``TP2xx`` pass).

Every address space in the simulator — logical page (LPN), physical
page (PPN), virtual translation page (VPN/VTPN), block index, in-block
page offset — and every unit (microseconds vs milliseconds, bytes vs
page/entry counts) is a bare ``int``/``float``.  A swapped ``lpn``/
``ppn`` argument or a µs-vs-ms mix therefore corrupts results silently
instead of failing.  This pass gives those ints a *domain* and reports
where two incompatible domains meet.

The lattice is flat: :data:`UNKNOWN` at the bottom, one element per
domain, and :data:`CONFLICT` on top (a slot fed incompatible domains by
different callers — treated as polymorphic, never reported).  Domains
are seeded from

* **parameter names and annotations** — ``lpn``/``base_lpn`` is an
  LPN, ``*_us`` is microseconds, ``*_bytes`` is bytes, an ``lpn: LPN``
  annotation wins over the name (see :func:`domain_from_name`);
* a small **curated signature map** for the core APIs
  (``BaseFTL._translate`` returns a PPN, ``FlashMemory.program`` takes
  polymorphic page metadata, ``ByteBudget.charge`` takes bytes,
  ``AccessResult.service_time`` returns microseconds, ...);
* the special ``flash_table`` contract: it is always indexed by LPN
  and always holds authoritative PPNs.

Seeds are then propagated **interprocedurally** through the
:class:`~repro.analysis.flow.engine.FlowEngine` call graph with a
chaotic-iteration worklist: unseeded parameters join the domains of
their incoming arguments (disagreement → :data:`CONFLICT`), inferred
return domains flow back to callers, until nothing changes.  A final
pass reports four rules:

========  ==============================================================
TP201     cross-domain value flow: an LPN-tainted value reaching a
          PPN-typed parameter / store slot (and any other
          address-domain confusion across a call or assignment)
TP202     mixed-domain arithmetic or comparison (``lpn + ppn``,
          ``block == ppn``) without a conversion idiom
TP203     time-unit mixing: microsecond-seeded values meeting
          millisecond values across calls or arithmetic
TP204     bytes vs page/entry counts meeting in the cache-budget path
========  ==============================================================

**Conversion idioms** deliberately launder domains instead of flagging:
multiplying or dividing two domain-carrying values yields
:data:`UNKNOWN` (``lbn * pages_per_block`` is how a block index
legitimately becomes a page address), adding an address to a plain
count is pointer arithmetic (``base_lpn + i``), and comparing an
address against a count is a bounds check
(``0 <= lpn < logical_pages``).  Named conversion helpers
(``us_to_ms``-style, matched by :data:`_CONVERSION_RE`) type their
result by the target unit and never have their arguments checked.
What the idioms do not cover takes the shared ``# tp: allow=TP20x``
pragma, as for every other rule.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..lint import Finding, _dotted
from .callgraph import FunctionInfo, Project, classify_call
from .engine import FlowEngine
from .state import _param_annotations

__all__ = [
    "Domain",
    "check_domains",
    "domain_from_name",
]

# ----------------------------------------------------------------------
# The domain lattice
# ----------------------------------------------------------------------
Domain = str

LPN: Domain = "LPN"
PPN: Domain = "PPN"
VPN: Domain = "VPN"
BLOCK: Domain = "BLOCK"
PAGE_OFFSET: Domain = "PAGE_OFFSET"
TIME_US: Domain = "TIME_US"
TIME_MS: Domain = "TIME_MS"
BYTES: Domain = "BYTES"
PAGES: Domain = "PAGES"
UNKNOWN: Domain = "UNKNOWN"
CONFLICT: Domain = "CONFLICT"

ADDRESS_DOMAINS = frozenset({LPN, PPN, VPN, BLOCK, PAGE_OFFSET})
TIME_DOMAINS = frozenset({TIME_US, TIME_MS})
COUNT_DOMAINS = frozenset({BYTES, PAGES})
_SILENT = frozenset({UNKNOWN, CONFLICT})


def _join(a: Domain, b: Domain) -> Domain:
    """Interprocedural join: unknowns are ignored, clashes conflict."""
    if a == b:
        return a
    if a in _SILENT:
        return b if a == UNKNOWN else CONFLICT
    if b in _SILENT:
        return a if b == UNKNOWN else CONFLICT
    return CONFLICT


def _soft_join(a: Domain, b: Domain) -> Domain:
    """Expression join (ternaries, ``min``/``max``): clashes go silent."""
    if a == b:
        return a
    if a == UNKNOWN:
        return b
    if b == UNKNOWN:
        return a
    return UNKNOWN


def _clash(a: Domain, b: Domain) -> Optional[str]:
    """Category of an incompatible meeting of ``a`` and ``b``.

    Returns ``None`` when the pair is fine: equal domains, anything
    unknown/polymorphic, and the two whitelisted conversion idioms —
    address vs count (bounds checks, pointer arithmetic) in either
    direction.
    """
    if a in _SILENT or b in _SILENT or a == b:
        return None
    pair = {a, b}
    if pair <= TIME_DOMAINS:
        return "time"
    if pair <= COUNT_DOMAINS:
        return "count"
    if PAGE_OFFSET in pair:
        other = (pair - {PAGE_OFFSET}).pop()
        # an offset is relative: meeting an absolute address (pointer
        # arithmetic, merge checks) or a page count (bounds checks)
        # is the documented idiom; meeting a time or byte value is not
        return "mixed" if other in TIME_DOMAINS or other == BYTES \
            else None
    if pair <= ADDRESS_DOMAINS:
        return "address"
    if pair & ADDRESS_DOMAINS and pair & COUNT_DOMAINS:
        return None  # bounds check / pointer arithmetic idiom
    return "mixed"


#: clash category -> rule code, per context
_FLOW_RULE = {"address": "TP201", "mixed": "TP201",
              "time": "TP203", "count": "TP204"}
_ARITH_RULE = {"address": "TP202", "mixed": "TP202",
               "time": "TP203", "count": "TP204"}


# ----------------------------------------------------------------------
# Name / annotation seeding
# ----------------------------------------------------------------------
#: identifier words that carry a domain (matched per ``_``-split word)
_WORD_DOMAINS: Dict[str, Domain] = {
    "lpn": LPN, "lpns": LPN,
    "ppn": PPN, "ppns": PPN, "ptpn": PPN, "ptpns": PPN,
    "vtpn": VPN, "vtpns": VPN, "vpn": VPN, "mvpn": VPN,
    "lbn": BLOCK, "pbn": BLOCK, "block": BLOCK, "blocks": BLOCK,
    "offset": PAGE_OFFSET, "offsets": PAGE_OFFSET,
    "bytes": BYTES, "nbytes": BYTES,
    "pages": PAGES, "npages": PAGES,
    "entries": PAGES, "nentries": PAGES,
}

#: unit suffixes: only meaningful as the *last* word of an identifier
_SUFFIX_DOMAINS: Dict[str, Domain] = {"us": TIME_US, "ms": TIME_MS}

#: exact-name overrides (highest priority, beats the word heuristics)
_NAME_DOMAINS: Dict[str, Domain] = {
    "arrival": TIME_US,      # Request arrival clock
    "col_offset": UNKNOWN,   # ast coordinates, not a page offset
    "end_col_offset": UNKNOWN,
}

#: ``self.<attr>`` / ``x.<attr>`` reads with a known domain by name
_ATTR_DOMAINS: Dict[str, Domain] = {
    "arrival": TIME_US,
    "response_time": TIME_US,
    "queue_delay": TIME_US,
    "service_time": TIME_US,
    "makespan": TIME_US,
}

#: type-alias annotations from repro.types, mapped onto the lattice
_ANNOTATION_DOMAINS: Dict[str, Domain] = {
    "LPN": LPN, "PPN": PPN, "VTPN": VPN, "PTPN": PPN, "BlockId": BLOCK,
}

#: ``to_ms`` / ``us_to_ms`` / ``as_pages`` style conversion helpers
_CONVERSION_RE = re.compile(r"(?:^|_)(?:to|as)_([a-z]+)$")

#: conversion-helper target tokens (the ``X`` of ``to_X``) -> domain
_TOKEN_DOMAINS: Dict[str, Domain] = {
    "lpn": LPN, "ppn": PPN, "ptpn": PPN, "vpn": VPN, "vtpn": VPN,
    "mvpn": VPN, "block": BLOCK, "offset": PAGE_OFFSET, "us": TIME_US,
    "ms": TIME_MS, "bytes": BYTES, "pages": PAGES, "entries": PAGES,
}


def domain_from_name(name: str) -> Domain:
    """Best-effort domain of an identifier, from its ``_``-split words.

    ``base_lpn`` → LPN, ``service_us`` → TIME_US, ``budget_bytes`` →
    BYTES, ``capacity_entries`` → PAGES.  Ratio-style names
    (``pages_per_block``, ``entries_per_page``) and names matching two
    different domains are conversion factors, not members of either
    domain, and map to :data:`UNKNOWN`.
    """
    if name.isupper():  # UNMAPPED, PPN_BYTES, type-alias constants
        return UNKNOWN
    lowered = name.lower()
    if lowered in _NAME_DOMAINS:
        return _NAME_DOMAINS[lowered]
    words = lowered.split("_")
    if "per" in words:
        return UNKNOWN  # pages_per_block and friends are ratios
    found = {_WORD_DOMAINS[w] for w in words if w in _WORD_DOMAINS}
    if words[-1] in _SUFFIX_DOMAINS:
        found.add(_SUFFIX_DOMAINS[words[-1]])
    if len(found) == 1:
        return next(iter(found))
    return UNKNOWN


def _conversion_target(name: str) -> Optional[Domain]:
    """Result domain of a named conversion helper, if it is one."""
    match = _CONVERSION_RE.search(name.lower())
    if match is None:
        return None
    return _TOKEN_DOMAINS.get(match.group(1), UNKNOWN)


# ----------------------------------------------------------------------
# Curated signature map for the core APIs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Sig:
    """Curated domains for one function: per-param and return."""

    params: Mapping[str, Domain] = field(default_factory=dict)
    returns: Optional[Domain] = None


#: keyed by ``ClassName.method`` (or bare function name); these beat
#: both the name heuristics and interprocedural inference
_SIGNATURES: Dict[str, _Sig] = {
    # --- the translation core -----------------------------------------
    "BaseFTL._translate": _Sig({"lpn": LPN}, returns=PPN),
    "BaseFTL._record_mapping": _Sig({"lpn": LPN, "ppn": PPN}),
    "BaseFTL._cache_update_if_present": _Sig({"lpn": LPN, "ppn": PPN}),
    "BaseFTL.lookup_current": _Sig({"lpn": LPN}, returns=PPN),
    "BaseFTL.cache_peek": _Sig({"lpn": LPN}, returns=PPN),
    "BaseFTL.read_translation_page": _Sig({"vtpn": VPN}),
    "BaseFTL.write_translation_page": _Sig({"vtpn": VPN}),
    "GlobalTranslationDirectory.lookup": _Sig({"vtpn": VPN},
                                              returns=PPN),
    "GlobalTranslationDirectory.get": _Sig({"vtpn": VPN}, returns=PPN),
    "GlobalTranslationDirectory.update": _Sig({"vtpn": VPN,
                                               "ptpn": PPN}),
    "GlobalTranslationDirectory.is_mapped": _Sig({"vtpn": VPN}),
    "TranslationGeometry.vtpn_of": _Sig({"lpn": LPN}, returns=VPN),
    "TranslationGeometry.offset_of": _Sig({"lpn": LPN},
                                          returns=PAGE_OFFSET),
    "TranslationGeometry.locate": _Sig({"lpn": LPN}),
    "TranslationGeometry.first_lpn": _Sig({"vtpn": VPN}, returns=LPN),
    "TranslationGeometry.last_lpn": _Sig({"vtpn": VPN}, returns=LPN),
    "TranslationGeometry.lpns_of": _Sig({"vtpn": VPN}),
    "TranslationGeometry.entries_in": _Sig({"vtpn": VPN},
                                           returns=PAGES),
    "TranslationGeometry.same_page": _Sig({"lpn_a": LPN, "lpn_b": LPN}),
    # --- the flash substrate ------------------------------------------
    # program()/read() metadata is polymorphic by design: an LPN for
    # data pages, a VTPN for translation pages -> CONFLICT (never
    # flagged, never propagated).
    "FlashMemory.program": _Sig({"meta": CONFLICT}, returns=PPN),
    "FlashMemory.program_into": _Sig({"meta": CONFLICT}, returns=PPN),
    "FlashMemory.read": _Sig({"ppn": PPN}, returns=CONFLICT),
    "FlashMemory.invalidate": _Sig({"ppn": PPN}),
    "FlashMemory.relocate": _Sig({"ppns": PPN}),
    "FlashMemory.is_valid": _Sig({"ppn": PPN}),
    "FlashMemory.erase": _Sig({"block_id": BLOCK}),
    "FlashMemory.ppn_of": _Sig({"block_id": BLOCK,
                                "offset": PAGE_OFFSET}, returns=PPN),
    "FlashMemory.block_id_of": _Sig({"ppn": PPN}, returns=BLOCK),
    "FlashMemory.offset_of": _Sig({"ppn": PPN}, returns=PAGE_OFFSET),
    "FlashMemory.block_of": _Sig({"ppn": PPN}),
    # --- budgets and timing -------------------------------------------
    "ByteBudget.__init__": _Sig({"capacity": BYTES}),
    "ByteBudget.fits": _Sig({"nbytes": BYTES}),
    "ByteBudget.charge": _Sig({"nbytes": BYTES}),
    "ByteBudget.release": _Sig({"nbytes": BYTES}),
    "ByteBudget.require": _Sig({"nbytes": BYTES}),
    "CacheConfig.entry_budget_bytes": _Sig({"gtd_bytes": BYTES},
                                           returns=BYTES),
    "AccessResult.service_time": _Sig({"read_us": TIME_US,
                                       "write_us": TIME_US,
                                       "erase_us": TIME_US},
                                      returns=TIME_US),
    "ResponseStats.percentile": _Sig(returns=TIME_US),
}

#: builtins whose result adopts its arguments' (soft-joined) domain
_TRANSPARENT_BUILTINS = frozenset({"min", "max", "abs", "int", "float"})


def _signature_key(project: Project, fn: FunctionInfo) -> str:
    """``ClassName.method`` (or bare name) key into :data:`_SIGNATURES`."""
    if fn.cls is not None and fn.cls in project.classes:
        return f"{project.classes[fn.cls].name}.{fn.name}"
    return fn.name


# ----------------------------------------------------------------------
# Function summaries
# ----------------------------------------------------------------------
def _positional_params(node: ast.AST) -> List[str]:
    """Positional parameter names, ``self``/``cls`` stripped."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    names = [a.arg for a in node.args.posonlyargs + node.args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


@dataclass
class _Summary:
    """Domain summary of one function: parameter and return domains."""

    params: List[str]
    domains: Dict[str, Domain]
    #: params whose domain is pinned (curated/annotation/name-seeded)
    pinned: Set[str]
    ret: Domain = UNKNOWN
    ret_pinned: bool = False

    def param_domain(self, name: str) -> Domain:
        """Current domain of parameter ``name`` (UNKNOWN if unseeded)."""
        return self.domains.get(name, UNKNOWN)

    def observe_arg(self, name: str, domain: Domain) -> bool:
        """Join an incoming argument domain; True when it changed."""
        if name in self.pinned or name not in self.domains:
            return False
        merged = _join(self.domains[name], domain)
        if merged == self.domains[name]:
            return False
        self.domains[name] = merged
        return True

    def observe_return(self, domain: Domain) -> bool:
        """Join an inferred return domain; True when it changed."""
        if self.ret_pinned:
            return False
        merged = _join(self.ret, domain)
        if merged == self.ret:
            return False
        self.ret = merged
        return True


def _seed_summary(project: Project, fn: FunctionInfo) -> _Summary:
    """Initial summary: curated map > annotation > name heuristic."""
    sig = _SIGNATURES.get(_signature_key(project, fn), _Sig())
    annotations = _param_annotations(fn.node)
    params = _positional_params(fn.node)
    kwonly = []
    if isinstance(fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        kwonly = [a.arg for a in fn.node.args.kwonlyargs]
    domains: Dict[str, Domain] = {}
    pinned: Set[str] = set()
    for name in params + kwonly:
        if name in sig.params:
            domains[name] = sig.params[name]
            pinned.add(name)
            continue
        annotated = _ANNOTATION_DOMAINS.get(
            annotations.get(name, "").split(".")[-1], UNKNOWN)
        hinted = annotated if annotated != UNKNOWN \
            else domain_from_name(name)
        domains[name] = hinted
        if hinted != UNKNOWN:
            pinned.add(name)
    ret: Domain = UNKNOWN
    ret_pinned = False
    if sig.returns is not None:
        ret, ret_pinned = sig.returns, True
    else:
        converted = _conversion_target(fn.name)
        if converted is not None:
            ret, ret_pinned = converted, True
        else:
            hinted = domain_from_name(fn.name)
            if hinted != UNKNOWN:
                ret, ret_pinned = hinted, True
    return _Summary(params=params, domains=domains, pinned=pinned,
                    ret=ret, ret_pinned=ret_pinned)


# ----------------------------------------------------------------------
# The per-function abstract evaluator
# ----------------------------------------------------------------------
_ARITH_OPS = (ast.Add, ast.Sub)
_ORDERED_CMPS = (ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE)


class _FnPass:
    """One flow-ordered walk over a function body.

    In *propagation* runs it feeds observed argument/return domains
    into the summaries; in the *reporting* run it emits findings.
    """

    def __init__(self, pass_: "_DomainPass", fn: FunctionInfo,
                 report: bool) -> None:
        self.pass_ = pass_
        self.project = pass_.project
        self.fn = fn
        self.module = pass_.project.modules[fn.module]
        self.report = report
        self.summary = pass_.summaries[fn.qname]
        self.env: Dict[str, Domain] = dict(self.summary.domains)
        self.changed: Set[str] = set()
        self.findings: List[Finding] = []

    # -- reporting -----------------------------------------------------
    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        if not self.report:
            return
        found = self.project.finding(
            self.module, rule, getattr(node, "lineno", self.fn.line),
            getattr(node, "col_offset", 0), message)
        if found is not None:
            self.findings.append(found)

    def _check(self, a: Domain, b: Domain, rules: Dict[str, str],
               node: ast.AST, describe: str) -> None:
        category = _clash(a, b)
        if category is None:
            return
        first, second = sorted((a, b))
        self._flag(rules[category], node,
                   f"{describe} mixes the {first} and {second} "
                   f"domains" + (" (different time units)"
                                 if category == "time" else ""))

    # -- driver --------------------------------------------------------
    def run(self) -> None:
        """Walk the function body once in flow order."""
        body = getattr(self.fn.node, "body", [])
        self._block(body)

    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            domain = self._eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, domain, stmt.value, stmt)
        elif isinstance(stmt, ast.AnnAssign):
            domain = (self._eval(stmt.value)
                      if stmt.value is not None else UNKNOWN)
            annotated = _ANNOTATION_DOMAINS.get(
                (_dotted(stmt.annotation) or "").split(".")[-1], UNKNOWN)
            if annotated != UNKNOWN:
                domain = annotated
            self._assign(stmt.target, domain, stmt.value, stmt)
        elif isinstance(stmt, ast.AugAssign):
            target_domain = self._eval(stmt.target)
            value_domain = self._eval(stmt.value)
            if isinstance(stmt.op, _ARITH_OPS):
                self._check(target_domain, value_domain, _ARITH_RULE,
                            stmt, "augmented assignment")
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                domain = self._eval(stmt.value)
                if domain not in _SILENT:
                    if self.summary.observe_return(domain):
                        self.changed.add(self.fn.qname)
        elif isinstance(stmt, (ast.Expr, ast.Await)):
            self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(stmt.iter)
            self._bind_target(stmt.target)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc)
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                self._eval(target)
        # nested defs/classes get their own summaries; do not descend

    def _bind_target(self, target: ast.expr) -> None:
        """Bind loop/comprehension targets by their name heuristic."""
        if isinstance(target, ast.Name):
            self.env[target.id] = domain_from_name(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt)

    def _assign(self, target: ast.expr, domain: Domain,
                value: Optional[ast.expr], stmt: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            hinted = domain_from_name(target.id)
            self._store(target.id, hinted, domain, stmt)
        elif isinstance(target, ast.Attribute):
            self._eval(target.value)
            hinted = _ATTR_DOMAINS.get(target.attr,
                                       domain_from_name(target.attr))
            self._store(None, hinted, domain, stmt,
                        shown=f"store to .{target.attr}")
        elif isinstance(target, ast.Subscript):
            self._subscript_store(target, domain)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, ast.Tuple) and \
                    len(value.elts) == len(target.elts):
                for sub_target, sub_value in zip(target.elts,
                                                 value.elts):
                    self._assign(sub_target, self._eval(sub_value),
                                 sub_value, stmt)
            else:
                for sub_target in target.elts:
                    self._bind_target(sub_target)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value)

    def _store(self, name: Optional[str], hinted: Domain,
               domain: Domain, stmt: ast.stmt, shown: str = "") -> None:
        """Record one store; flag hint-vs-value domain clashes."""
        if hinted not in _SILENT and domain not in _SILENT \
                and hinted != domain:
            describe = shown or (f"assignment to {name!r}"
                                 if name else "assignment")
            self._check(hinted, domain, _FLOW_RULE, stmt, describe)
            domain = hinted  # trust the name downstream
        if name is not None:
            self.env[name] = domain if domain != UNKNOWN else hinted

    # -- expressions ---------------------------------------------------
    def _eval(self, node: Optional[ast.expr]) -> Domain:
        if node is None:
            return UNKNOWN
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            return domain_from_name(node.id)
        if isinstance(node, ast.Attribute):
            self._eval(node.value)
            return _ATTR_DOMAINS.get(node.attr,
                                     domain_from_name(node.attr))
        if isinstance(node, ast.Subscript):
            return self._subscript_load(node)
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.BinOp):
            return self._binop(node)
        if isinstance(node, ast.Compare):
            self._compare(node)
            return UNKNOWN
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(value)
            return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            return self._eval(node.operand)
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            return _soft_join(self._eval(node.body),
                              self._eval(node.orelse))
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, (ast.Await, ast.YieldFrom)):
            return self._eval(node.value)
        if isinstance(node, ast.Yield):
            if node.value is not None:
                self._eval(node.value)
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            domain = self._eval(node.value)
            self._assign(node.target, domain, node.value, node)
            return domain
        if isinstance(node, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                self._eval(generator.iter)
                self._bind_target(generator.target)
                for cond in generator.ifs:
                    self._eval(cond)
            if isinstance(node, ast.DictComp):
                self._eval(node.key)
                self._eval(node.value)
            else:
                self._eval(node.elt)
            return UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for elt in node.elts:
                self._eval(elt)
            return UNKNOWN
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._eval(key)
            for value in node.values:
                self._eval(value)
            return UNKNOWN
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._eval(value.value)
            return UNKNOWN
        if isinstance(node, ast.FormattedValue):
            self._eval(node.value)
            return UNKNOWN
        return UNKNOWN  # constants, lambdas, ellipsis, ...

    def _binop(self, node: ast.BinOp) -> Domain:
        left = self._eval(node.left)
        right = self._eval(node.right)
        if isinstance(node.op, _ARITH_OPS):
            self._check(left, right, _ARITH_RULE, node,
                        "'+'" if isinstance(node.op, ast.Add)
                        else "'-'")
            if PAGE_OFFSET in (left, right) and left != right:
                # an offset is an increment: base + offset stays in
                # base's domain (UNKNOWN base stays unknown)
                other = right if left == PAGE_OFFSET else left
                return other if other not in _SILENT else UNKNOWN
            if left in _SILENT:
                return right if right not in _SILENT else UNKNOWN
            if right in _SILENT or left == right:
                return left
            # whitelisted cross-family pair: address + count is
            # pointer arithmetic and stays in the address domain
            if left in ADDRESS_DOMAINS:
                return left
            if right in ADDRESS_DOMAINS:
                return right
            return UNKNOWN
        # '*', '/', '//', '%', '<<', ... are conversions: multiplying
        # by pages_per_block (or a literal like entry size 8) moves a
        # value between domains, so the result is deliberately UNKNOWN
        # and a name hint on the assignment target re-types it
        return UNKNOWN

    def _compare(self, node: ast.Compare) -> None:
        left = self._eval(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            right = self._eval(comparator)
            if isinstance(op, _ORDERED_CMPS):
                self._check(left, right, _ARITH_RULE, node,
                            "comparison")
            left = right

    # -- subscripts: the flash_table contract --------------------------
    @staticmethod
    def _is_flash_table(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "flash_table"
        return isinstance(node, ast.Attribute) and \
            node.attr == "flash_table"

    def _subscript_load(self, node: ast.Subscript) -> Domain:
        if self._is_flash_table(node.value):
            index = self._eval(node.slice)
            self._check_flash_table_index(index, node)
            return PPN
        self._eval(node.value)
        self._eval(node.slice)
        return UNKNOWN

    def _subscript_store(self, target: ast.Subscript,
                         domain: Domain) -> None:
        if self._is_flash_table(target.value):
            index = self._eval(target.slice)
            self._check_flash_table_index(index, target)
            if domain not in _SILENT and domain != PPN:
                self._flag("TP201", target,
                           f"flash_table stores authoritative PPNs "
                           f"but receives a {domain}-domain value")
        else:
            self._eval(target.value)
            self._eval(target.slice)

    def _check_flash_table_index(self, index: Domain,
                                 node: ast.AST) -> None:
        if index in ADDRESS_DOMAINS and index != LPN:
            self._flag("TP201", node,
                       f"flash_table is indexed by LPN but receives "
                       f"a {index}-domain index")

    # -- calls ---------------------------------------------------------
    def _call(self, node: ast.Call) -> Domain:
        if not isinstance(node.func, (ast.Name, ast.Attribute)):
            self._eval(node.func)
        arg_domains = [self._eval(arg) for arg in node.args]
        kw_domains = {kw.arg: self._eval(kw.value)
                      for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._eval(kw.value)
        simple = (node.func.attr if isinstance(node.func, ast.Attribute)
                  else node.func.id
                  if isinstance(node.func, ast.Name) else "")
        converted = _conversion_target(simple)
        if converted is not None:
            return converted  # conversion helpers launder domains
        site = classify_call(node)
        callees: Set[str] = set()
        if site is not None:
            callees = self.project.resolve_call(self.fn, site)
        if not callees:
            return self._unresolved_call(node, simple, arg_domains)
        returns: Domain = UNKNOWN
        flagged: Set[Tuple[int, str]] = set()
        for qname in sorted(callees):
            summary = self.pass_.summaries.get(qname)
            if summary is None:
                continue
            callee_fn = self.project.functions[qname]
            if _conversion_target(callee_fn.name) is None:
                self._check_args(node, qname, summary, arg_domains,
                                 kw_domains, flagged)
            returns = _soft_join(returns, summary.ret)
        if returns == UNKNOWN:
            hinted = domain_from_name(simple)
            if hinted != UNKNOWN:
                return hinted
        return returns

    def _unresolved_call(self, node: ast.Call, simple: str,
                         arg_domains: List[Domain]) -> Domain:
        if simple in _TRANSPARENT_BUILTINS:
            joined: Domain = UNKNOWN
            for domain in arg_domains:
                joined = _soft_join(joined, domain)
            return joined
        return domain_from_name(simple)

    def _check_args(self, node: ast.Call, qname: str,
                    summary: _Summary, arg_domains: List[Domain],
                    kw_domains: Dict[str, Domain],
                    flagged: Set[Tuple[int, str]]) -> None:
        pairs: List[Tuple[str, Domain]] = []
        for index, domain in enumerate(arg_domains):
            if index >= len(summary.params):
                break
            if isinstance(node.args[index], ast.Starred):
                break
            pairs.append((summary.params[index], domain))
        for name, domain in kw_domains.items():
            if name in summary.domains:
                pairs.append((name, domain))
        shown = qname.split(".")[-1]
        for name, domain in pairs:
            if name not in summary.pinned:
                # inferred slot: join (disagreement -> CONFLICT ->
                # polymorphic, silent), never a check target
                if domain not in _SILENT:
                    if self.pass_.summaries[qname].observe_arg(
                            name, domain):
                        self.changed.add(qname)
                continue
            expected = summary.param_domain(name)
            category = _clash(domain, expected)
            if category is None:
                continue
            key = (node.lineno, name)
            if key in flagged:
                continue  # one report per arg across may-callees
            flagged.add(key)
            self._flag(_FLOW_RULE[category], node,
                       f"argument {name!r} of {shown}() is "
                       f"{expected}-typed but receives a "
                       f"{domain}-domain value")


# ----------------------------------------------------------------------
# The interprocedural driver
# ----------------------------------------------------------------------
class _DomainPass:
    """Summaries + chaotic iteration + the final reporting walk."""

    def __init__(self, project: Project, engine: FlowEngine) -> None:
        self.project = project
        self.engine = engine
        self.summaries: Dict[str, _Summary] = {
            qname: _seed_summary(project, fn)
            for qname, fn in project.functions.items()}

    def solve(self) -> None:
        """Propagate argument/return domains to a fixed point."""
        pending: List[str] = sorted(self.project.functions)
        queued: Set[str] = set(pending)
        rounds = 0
        limit = max(64, 8 * len(pending))
        while pending and rounds < limit:
            rounds += 1
            qname = pending.pop()
            queued.discard(qname)
            fn = self.project.functions[qname]
            walk = _FnPass(self, fn, report=False)
            walk.run()
            affected: Set[str] = set()
            for changed in walk.changed:
                if changed == qname:  # return domain changed
                    affected |= self.engine.callers_of(qname)
                else:  # a callee's parameter domain changed
                    affected.add(changed)
            for name in affected:
                if name not in queued and \
                        name in self.project.functions:
                    queued.add(name)
                    pending.append(name)

    def report(self) -> List[Finding]:
        """The final walk: evaluate every function and collect findings."""
        findings: List[Finding] = []
        for qname in sorted(self.project.functions):
            fn = self.project.functions[qname]
            walk = _FnPass(self, fn, report=True)
            walk.run()
            findings.extend(walk.findings)
        unique = {(f.rule, f.path, f.line, f.col, f.message): f
                  for f in findings}
        return sorted(unique.values(),
                      key=lambda f: (f.path, f.line, f.rule))


def check_domains(project: Project,
                  engine: FlowEngine) -> List[Finding]:
    """Run the TP2xx domain/unit pass over an analyzed project."""
    pass_ = _DomainPass(project, engine)
    pass_.solve()
    return pass_.report()
