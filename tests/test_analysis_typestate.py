"""The typestate pass: exception-edge CFGs, summaries, TP301-305.

Unit coverage for ``flow.cfg`` and ``flow.typestate``.  The CFG tests pin
the exception model (weak calls raise only inside ``try``, strong calls
always, finally bodies duplicated per continuation kind); the summary
tests pin the three interprocedural facts the checker consumes; the
rule tests exercise each TP3xx rule on minimal violating and guarded
snippets.  The acceptance-critical pair lives at the bottom: the
leaky-supervisor fixture must be flagged by TP303 while the fixed
``src/repro/experiments/supervisor.py`` stays protocol-clean.
"""

import ast
import pathlib

from conftest import analyze_paths, analyze_source
from repro.analysis.flow import FlowEngine, Project, build_cfg
from repro.analysis.flow.typestate import (_always_raises_summary,
                                           _may_raise_summary,
                                           _release_summary)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FLOW_FIXTURES = ROOT / "tests" / "fixtures" / "flow"


def _codes(source):
    return {finding.rule for finding in analyze_source(source)}


def _fn(source):
    """The first function definition in ``source``, as an AST node."""
    tree = ast.parse(source)
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef))


def _classify_by_name(strengths):
    """A classifier mapping called names to strengths (default weak)."""
    def classify(call):
        name = getattr(call.func, "id", "")
        return strengths.get(name, "weak")
    return classify


def _stmt_nodes_at_line(cfg, line):
    return [node for node in cfg.nodes.values()
            if node.kind in ("stmt", "noreturn")
            and node.stmt is not None and node.line == line]


# ----------------------------------------------------------------------
# CFG construction
# ----------------------------------------------------------------------
def test_cfg_linear_function_exits_normally():
    cfg = build_cfg(_fn("def f(x):\n    y = x + 1\n    return y\n"))
    assert cfg.exits_normally()


def test_cfg_unconditional_raise_never_exits_normally():
    cfg = build_cfg(_fn("def f(x):\n    raise ValueError(x)\n"))
    assert not cfg.exits_normally()
    assert cfg.raise_exit in cfg.reachable()


def test_cfg_weak_call_outside_try_has_no_exception_edge():
    """Unresolved calls outside a try never raise in the model — the
    quiet half of the two-tier policy."""
    cfg = build_cfg(_fn("def f(x):\n    g(x)\n    return x\n"))
    assert all(not succ for succ in cfg.exc_succ.values())


def test_cfg_weak_call_inside_try_routes_to_the_handler():
    cfg = build_cfg(_fn(
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except ValueError:\n"
        "        return 0\n"
        "    return 1\n"))
    (call_node,) = _stmt_nodes_at_line(cfg, 3)
    kinds = {cfg.nodes[succ].kind for succ in cfg.exc_succ[call_node.nid]}
    assert kinds == {"handler"}


def test_cfg_strong_call_outside_try_routes_to_raise_exit():
    cfg = build_cfg(
        _fn("def f(x):\n    boom(x)\n    return x\n"),
        classify=_classify_by_name({"boom": "strong"}))
    (call_node,) = _stmt_nodes_at_line(cfg, 2)
    assert cfg.exc_succ[call_node.nid] == [cfg.raise_exit]


def test_cfg_always_raising_call_never_falls_through():
    cfg = build_cfg(
        _fn("def f(x):\n    fail(x)\n    return 1\n"),
        classify=_classify_by_name({"fail": "always"}))
    (call_node,) = _stmt_nodes_at_line(cfg, 2)
    assert call_node.kind == "noreturn"
    assert not cfg.exits_normally()


def test_cfg_finally_is_duplicated_per_continuation_kind():
    """Normal fall-through, exception propagation and early return each
    flow through their own copy of the finally body."""
    cfg = build_cfg(_fn(
        "def f(x):\n"
        "    try:\n"
        "        if x:\n"
        "            return g(x)\n"
        "        h(x)\n"
        "    finally:\n"
        "        k(x)\n"
        "    return 2\n"))
    assert len(_stmt_nodes_at_line(cfg, 7)) == 3


def test_cfg_return_through_finally_reaches_exit():
    cfg = build_cfg(_fn(
        "def f(x):\n"
        "    try:\n"
        "        return 1\n"
        "    finally:\n"
        "        k(x)\n"))
    assert cfg.exits_normally()


# ----------------------------------------------------------------------
# Interprocedural summaries
# ----------------------------------------------------------------------
def test_may_raise_propagates_to_transitive_callers():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "def leaf():\n"
        "    raise ValueError()\n"
        "def mid():\n"
        "    leaf()\n"
        "def top():\n"
        "    mid()\n"
        "def bystander():\n"
        "    return 1\n")})
    summary = _may_raise_summary(project, FlowEngine(project))
    assert {"m.leaf", "m.mid", "m.top"} <= summary
    assert "m.bystander" not in summary


def test_always_raises_requires_no_normal_exit():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "def nope():\n"
        "    raise RuntimeError()\n"
        "def maybe(x):\n"
        "    if x:\n"
        "        raise RuntimeError()\n"
        "    return x\n")})
    always = _always_raises_summary(project)
    assert "m.nope" in always
    assert "m.maybe" not in always


def test_release_summary_names_the_released_params():
    project = Project.from_sources({"m.py": (
        '"""M."""\n'
        "def shutdown(conn, tag):\n"
        "    conn.close()\n")})
    out = _release_summary(project, {"close"})
    assert out["m.shutdown"] == {"conn"}


# ----------------------------------------------------------------------
# TP301: acquire without release on every path
# ----------------------------------------------------------------------
_BOOM = (
    "def boom(trace):\n"
    "    if not trace:\n"
    "        raise ValueError(trace)\n"
    "    return trace\n"
)


def test_tp301_leak_on_the_normal_exit():
    source = (
        "def run(path, trace):\n"
        "    handle = open(path)\n"
        "    handle.write(trace)\n"
    )
    assert _codes(source) == {"TP301"}


def test_tp301_leak_on_the_exception_edge_only():
    """The release exists on the normal path; a resolved may-raise
    callee opens an exception path that skips it."""
    source = _BOOM + (
        "def run(path, trace):\n"
        "    handle = open(path)\n"
        "    boom(trace)\n"
        "    handle.close()\n"
    )
    findings = [f for f in analyze_source(source) if f.rule == "TP301"]
    assert len(findings) == 1
    assert findings[0].line == 6
    assert "exception path" in findings[0].message
    assert "normal return path" not in findings[0].message


def test_tp301_try_finally_guard_is_clean():
    source = _BOOM + (
        "def run(path, trace):\n"
        "    handle = open(path)\n"
        "    try:\n"
        "        boom(trace)\n"
        "    finally:\n"
        "        handle.close()\n"
    )
    assert _codes(source) == set()


def test_tp301_weak_calls_outside_try_stay_quiet():
    """Unknown callees between acquire and release do not fabricate an
    exception path — only resolved may-raise callees do.  (The manual
    open/close pair is still TP305's style finding.)"""
    source = (
        "def run(path, trace):\n"
        "    handle = open(path)\n"
        "    handle.write(trace)\n"
        "    handle.close()\n"
    )
    assert _codes(source) == {"TP305"}


def test_tp301_pragma_suppression():
    source = (
        "def run(path, trace):\n"
        "    handle = open(path)  # tp: allow=TP301 - caller exits\n"
        "    handle.write(trace)\n"
    )
    assert _codes(source) == set()


# ----------------------------------------------------------------------
# TP302: release without a dominating acquire
# ----------------------------------------------------------------------
def test_tp302_double_release():
    source = (
        "def run(path):\n"
        "    handle = open(path)\n"
        "    handle.close()\n"
        "    handle.close()\n"
    )
    findings = [f for f in analyze_source(source) if f.rule == "TP302"]
    assert len(findings) == 1
    assert findings[0].line == 4
    assert "double release" in findings[0].message


def test_tp302_interprocedural_release_then_close_again():
    """The "releases what it was passed" summary turns the helper call
    into a release, so the second close is a double release."""
    source = (
        "def shutdown(conn):\n"
        "    conn.close()\n"
        "def run(ctx):\n"
        "    parent, child = ctx.Pipe()\n"
        "    child.close()\n"
        "    shutdown(parent)\n"
        "    parent.close()\n"
    )
    findings = [f for f in analyze_source(source) if f.rule == "TP302"]
    assert len(findings) == 1
    assert findings[0].line == 7


def test_tp302_escaped_resource_is_never_reported():
    """Passing the connection to an unknown sink transfers ownership;
    whatever happens to it afterwards is the sink's problem."""
    source = (
        "def run(ctx, sink):\n"
        "    parent, child = ctx.Pipe()\n"
        "    child.close()\n"
        "    sink.consume(parent)\n"
        "    parent.close()\n"
    )
    assert _codes(source) == set()


# ----------------------------------------------------------------------
# TP303: worker/pipe lifecycle
# ----------------------------------------------------------------------
def test_tp303_started_process_never_joined():
    source = (
        "def launch(ctx, fn):\n"
        "    process = ctx.Process(target=fn)\n"
        "    process.start()\n"
    )
    assert _codes(source) == {"TP303"}


def test_tp303_unstarted_process_is_not_live_yet():
    source = (
        "def prepare(ctx, fn):\n"
        "    process = ctx.Process(target=fn)\n"
        "    return process\n"
    )
    assert _codes(source) == set()


def test_tp303_handoff_into_a_table_is_ownership_transfer():
    source = (
        "def launch(self, ctx, fn):\n"
        "    process = ctx.Process(target=fn)\n"
        "    process.start()\n"
        "    self._running['k'] = process\n"
    )
    assert _codes(source) == set()


def test_tp303_one_pipe_end_left_open():
    source = (
        "def make(ctx):\n"
        "    parent, child = ctx.Pipe(duplex=False)\n"
        "    child.close()\n"
    )
    findings = [f for f in analyze_source(source) if f.rule == "TP303"]
    assert len(findings) == 1
    assert "'parent'" in findings[0].message


# ----------------------------------------------------------------------
# TP304: reset-before-run ordering
# ----------------------------------------------------------------------
_TP304_CLASS = (
    "class Dev:\n"
    "    def _reset_state(self):\n"
    "        self.total = 0\n"
    "    def serve_request(self, request):\n"
    "        self.total += 1\n"
    "    def run(self, trace):\n"
    "{run_body}"
)


def test_tp304_run_without_reset_is_flagged():
    source = _TP304_CLASS.format(run_body=(
        "        for request in trace:\n"
        "            self.serve_request(request)\n"))
    assert "TP304" in _codes(source)


def test_tp304_reset_dominating_the_dispatch_is_clean():
    source = _TP304_CLASS.format(run_body=(
        "        self._reset_state()\n"
        "        for request in trace:\n"
        "            self.serve_request(request)\n"))
    assert "TP304" not in _codes(source)


def test_tp304_classes_without_a_reset_method_are_out_of_scope():
    source = (
        "class Pump:\n"
        "    def serve_request(self, request):\n"
        "        return request\n"
        "    def run(self, trace):\n"
        "        for request in trace:\n"
        "            self.serve_request(request)\n"
    )
    assert "TP304" not in _codes(source)


# ----------------------------------------------------------------------
# TP305: with-able resources outside with/try-finally
# ----------------------------------------------------------------------
def test_tp305_manual_open_close_pair():
    source = (
        "def load(path):\n"
        "    handle = open(path)\n"
        "    data = handle.read()\n"
        "    handle.close()\n"
        "    return data\n"
    )
    assert _codes(source) == {"TP305"}


def test_tp305_with_block_is_clean():
    source = (
        "def load(path):\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n"
    )
    assert _codes(source) == set()


def test_tp305_try_finally_close_is_clean():
    source = (
        "def load(path):\n"
        "    handle = open(path)\n"
        "    try:\n"
        "        return handle.read()\n"
        "    finally:\n"
        "        handle.close()\n"
    )
    assert _codes(source) == set()


# ----------------------------------------------------------------------
# The PR-6 supervisor bug class (mutation pair)
# ----------------------------------------------------------------------
def test_tp303_flags_the_leaky_supervisor_fixture():
    findings = analyze_paths(
        [str(FLOW_FIXTURES / "flow_supervisor_leak.py")])
    assert {f.rule for f in findings} == {"TP303"}
    leaked = " | ".join(f.message for f in findings)
    assert "'parent_conn'" in leaked
    assert "'process'" in leaked


def test_fixed_supervisor_is_protocol_clean():
    findings = analyze_paths(
        [str(SRC / "repro" / "experiments" / "supervisor.py")])
    assert [f for f in findings if f.rule.startswith("TP3")] == []
