"""The interprocedural flow rules: call graph, state inventory, TP1xx.

The two acceptance-critical mutation tests live here: the PR-4
channel-queue leak fixture must be flagged by TP101 while the fixed
``src/repro/ssd/device.py`` stays clean, and the PR-2 hybrid
``_invalidate_remaining`` bypass fixture must be flagged by TP102
through one level of helper indirection.
"""

import pathlib

from conftest import analyze_paths, analyze_source
from repro.analysis import RULES
from repro.analysis.flow import FlowEngine, Project, fixed_point
from repro.analysis.flow.rules import run_path

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FLOW_FIXTURES = ROOT / "tests" / "fixtures" / "flow"


def _codes(source):
    return {finding.rule for finding in analyze_source(source)}


# ----------------------------------------------------------------------
# Acceptance gates
# ----------------------------------------------------------------------
def test_src_tree_is_flow_clean():
    """Every true TP1xx finding in src/ is fixed, not grandfathered."""
    assert analyze_paths([str(SRC)]) == []


def test_each_fixture_triggers_exactly_its_rule():
    """Every rule beyond the lexical TP0xx family (tp_violations.py
    covers those) has a fixture that fires it and nothing else: once,
    except that the TP102 chain is flagged at both of its ends."""
    codes = sorted(code for code in RULES if not code.startswith("TP0"))
    assert len(codes) == 7
    for code in codes:
        fixture = FLOW_FIXTURES / f"flow_{code.lower()}.py"
        findings = analyze_paths([str(fixture)])
        assert {f.rule for f in findings} == {code}, (code, findings)
        assert len(findings) == (2 if code == "TP102" else 1), (
            code, findings)


# ----------------------------------------------------------------------
# TP101: the PR-4 bug class (mutation test)
# ----------------------------------------------------------------------
def test_tp101_flags_the_pr4_queue_leak():
    """Per-channel queues init'd in __init__, mutated in dispatch,
    absent from the reset path -> flagged, naming the attribute."""
    findings = analyze_paths([str(FLOW_FIXTURES / "flow_tp101.py")])
    assert [f.rule for f in findings] == ["TP101"]
    assert "_cursor" in findings[0].message
    assert "_reset_state" in findings[0].message


def test_tp101_accepts_the_fixed_parallel_device():
    """DeviceModel resets its channel horizons and cursor: no findings."""
    findings = analyze_paths([str(SRC / "repro" / "ssd" / "device.py")])
    assert [f for f in findings if f.rule == "TP101"] == []


def test_tp101_flags_device_model_without_the_cursor_reset():
    """The PR-4 leak re-seeded into the real device: ``_reset_state``
    minus its cursor line is flagged, naming the attribute."""
    source = (SRC / "repro" / "ssd" / "device.py").read_text()
    reset_line = "        self._cursor = 0\n"
    assert source.count(reset_line) == 1
    findings = [f for f in analyze_source(source.replace(reset_line, ""))
                if f.rule == "TP101"]
    assert len(findings) == 1
    assert "_cursor" in findings[0].message
    assert "_reset_state" in findings[0].message


def test_tp101_mutation_without_any_reset_of_attr():
    source = (
        "class Dev:\n"
        "    def __init__(self):\n"
        "        self.q = []\n"
        "    def _reset_state(self):\n"
        "        pass\n"
        "    def run(self, trace):\n"
        "        self.q.append(trace)\n"
    )
    assert "TP101" in _codes(source)


def test_tp101_reset_through_inherited_helper():
    """Reset-path attribute stores are found through self-call closure
    and through the class hierarchy."""
    source = (
        "class Base:\n"
        "    def _reset_state(self):\n"
        "        self._clear()\n"
        "    def run(self, trace):\n"
        "        self.q.append(trace)\n"
        "class Dev(Base):\n"
        "    def _clear(self):\n"
        "        self.q = []\n"
    )
    assert "TP101" not in _codes(source)


def test_tp101_fresh_rebind_on_run_path_is_initialization():
    """``self.x = []`` inside run() is a per-run init, not a leak."""
    source = (
        "class Dev:\n"
        "    def _reset_state(self):\n"
        "        pass\n"
        "    def run(self, trace):\n"
        "        self.seen = []\n"
        "        self.seen.append(trace)\n"
    )
    assert "TP101" not in _codes(source)


def test_tp101_self_referential_rebind_is_a_leak():
    source = (
        "class Dev:\n"
        "    def _reset_state(self):\n"
        "        pass\n"
        "    def run(self, trace):\n"
        "        self.total = self.total + 1\n"
    )
    assert "TP101" in _codes(source)


def test_tp101_ignores_classes_without_reset_protocol():
    """FTLs age across requests by design; no reset method, no rule."""
    source = (
        "class AgingFTL:\n"
        "    def serve_request(self, request):\n"
        "        self.cache.append(request)\n"
    )
    assert "TP101" not in _codes(source)


# ----------------------------------------------------------------------
# TP102: the PR-2 bug class (mutation test)
# ----------------------------------------------------------------------
def test_tp102_flags_bypass_through_helper_indirection():
    findings = analyze_paths([str(FLOW_FIXTURES / "flow_tp102.py")])
    assert [f.rule for f in findings] == ["TP102", "TP102"]
    call_site, direct = findings
    assert "transitively" in call_site.message
    assert "_invalidate_remaining" in call_site.message
    assert "_invalidate_remaining" in call_site.snippet
    assert "directly" in direct.message
    assert direct.snippet == "block.invalidate(offset)"


def test_tp102_two_levels_of_indirection():
    source = (
        "class FTL:\n"
        "    def serve(self):\n"
        "        self.merge()\n"
        "    def merge(self):\n"
        "        self.wipe()\n"
        "    def wipe(self):\n"
        "        self.block.erase()\n"
    )
    findings = [f for f in analyze_source(source) if f.rule == "TP102"]
    # the serve->merge and merge->wipe call sites, then the direct op
    assert [f.line for f in findings] == [3, 5, 7]


def test_tp102_routed_through_flash_is_clean():
    source = (
        "class FTL:\n"
        "    def merge(self):\n"
        "        self.drop()\n"
        "    def drop(self):\n"
        "        self.flash.invalidate(3)\n"
    )
    assert "TP102" not in _codes(source)


def test_tp102_suppressing_the_source_clears_the_chain():
    """A justified pragma on the direct op un-taints its callers."""
    source = (
        "class FTL:\n"
        "    def merge(self):\n"
        "        self.wipe()\n"
        "    def wipe(self):\n"
        "        self.block.erase()  # tp: allow=TP102 - scan rebuild\n"
    )
    assert "TP102" not in _codes(source)


def test_hybrid_ftl_merge_paths_are_tp102_clean():
    """The fixed HybridFTL routes every page op through self.flash."""
    findings = analyze_paths([str(SRC / "repro" / "ftl")])
    assert [f for f in findings if f.rule == "TP102"] == []


# ----------------------------------------------------------------------
# TP104
# ----------------------------------------------------------------------
def test_run_path_reaches_the_ftl_flash_and_cache_layers():
    """``serve_request`` calls ``_serve_page`` through a local alias of
    the bound method, which the call graph does not follow; rooted at
    ``serve_request`` alone the closure held no function of
    ``repro.ftl``, ``repro.flash`` or ``repro.cache`` and TP104 checked
    none of them."""
    project = Project.from_paths([str(SRC)])
    reachable = run_path(project, FlowEngine(project))
    for qname in ("repro.ftl.base.BaseFTL._gc_update_mappings",
                  "repro.ftl.tpftl.TPFTL._translate",
                  "repro.flash.flash.FlashMemory.program",
                  "repro.cache.lru.LRUList.settle"):
        assert qname in reachable, qname


def test_tp104_sorted_iteration_is_clean():
    source = (
        "class Dev:\n"
        "    def run(self, trace):\n"
        "        pending = set(trace)\n"
        "        for lpn in sorted(pending):\n"
        "            self.emit(lpn)\n"
    )
    assert "TP104" not in _codes(source)


def test_tp104_set_attr_through_hierarchy():
    source = (
        "class Base:\n"
        "    def __init__(self):\n"
        "        self._dirty = set()\n"
        "class Dev(Base):\n"
        "    def run(self, trace):\n"
        "        for lpn in self._dirty:\n"
        "            self.emit(lpn)\n"
    )
    assert "TP104" in _codes(source)


def test_tp104_off_run_path_is_exempt():
    source = (
        "def report(pages):\n"
        "    for page in {p for p in pages}:\n"
        "        print(page)\n"
    )
    assert "TP104" not in _codes(source)


def test_flow_pragma_suppression():
    source = (
        "class Dev:\n"
        "    def run(self, trace):\n"
        "        pending = set(trace)\n"
        "        for lpn in pending:  # tp: allow=TP104 - commutative\n"
        "            self.emit(lpn)\n"
    )
    assert _codes(source) == set()


# ----------------------------------------------------------------------
# Call graph / engine internals
# ----------------------------------------------------------------------
def test_callgraph_resolves_relative_imports():
    project = Project.from_sources({
        "src/pkg/flash/mem.py": (
            '"""Flash."""\n'
            "class FlashMemory:\n"
            "    def program(self):\n"
            "        pass\n"),
        "src/pkg/ftl/base.py": (
            '"""FTL."""\n'
            "from ..flash.mem import FlashMemory\n"
            "class FTL:\n"
            "    def __init__(self):\n"
            "        self.flash = FlashMemory()\n"
            "    def write(self):\n"
            "        self.flash.program()\n"),
    })
    fn = project.functions["pkg.ftl.base.FTL.write"]
    targets = set()
    for site in fn.calls:
        targets |= project.resolve_call(fn, site)
    assert "pkg.flash.mem.FlashMemory.program" in targets


def test_callgraph_virtual_dispatch_includes_overrides():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "class Base:\n"
        "    def run(self):\n"
        "        self.step()\n"
        "    def step(self):\n"
        "        pass\n"
        "class Sub(Base):\n"
        "    def step(self):\n"
        "        pass\n")})
    fn = project.functions["m.Base.run"]
    targets = set()
    for site in fn.calls:
        targets |= project.resolve_call(fn, site)
    assert targets == {"m.Base.step", "m.Sub.step"}


def test_effective_methods_nearest_definition_wins():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "class A:\n"
        "    def f(self):\n"
        "        pass\n"
        "class B(A):\n"
        "    def f(self):\n"
        "        pass\n"
        "class C(B):\n"
        "    pass\n")})
    table = project.effective_methods("m.C")
    assert table["f"].qname == "m.B.f"


def test_state_inventory_catches_all_mutation_shapes():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "class S:\n"
        "    def __init__(self):\n"
        "        self.a = []\n"
        "    def f(self):\n"
        "        self.a.append(1)\n"
        "        self.a[0] = 2\n"
        "        self.b += 1\n"
        "        del self.a[0]\n")})
    state = project.classes["m.S"].state
    kinds = {(e.attr, e.kind) for e in state.mutations["f"]}
    assert ("a", "mutcall") in kinds
    assert ("a", "subscript") in kinds
    assert ("b", "augassign") in kinds


def test_fixed_point_reaches_closure_over_cycles():
    edges = {"a": ["b"], "b": ["c", "a"], "c": []}
    engine_facts = fixed_point(edges, {"a": frozenset({"X"})})
    assert engine_facts["c"] == frozenset({"X"})
    assert engine_facts["a"] == frozenset({"X"})


def test_engine_backward_closure():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "def leaf():\n"
        "    pass\n"
        "def mid():\n"
        "    leaf()\n"
        "def top():\n"
        "    mid()\n")})
    engine = FlowEngine(project)
    assert engine.reaching(["m.leaf"]) == {"m.leaf", "m.mid", "m.top"}


def test_flow_findings_share_lint_baseline_keys():
    """Every pass builds findings through the one helper, so they all
    carry the same line-move-stable ``(rule, path, snippet)`` key the
    SARIF fingerprints and the mutant harness's delta rely on."""
    findings = analyze_paths([str(FLOW_FIXTURES / "flow_tp101.py")])
    rule, path, snippet = findings[0].key
    assert rule == "TP101"
    assert path.endswith("flow_tp101.py")
    assert snippet == findings[0].snippet
